"""Global matrices and load vectors: worked entries, symmetry, SPD, oracles."""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.sparse as sp

from viscowave import assembly, fespace
from viscowave.assembly import (
    assemble_coupling,
    assemble_div_gram,
    assemble_load,
    assemble_mass_stress,
    assemble_stress_gram,
    assemble_system,
    assemble_velocity_gram,
)
from viscowave.fespace import (
    FAMILIES,
    HMZ,
    NEDELEC,
    StressSpace,
    VelocitySpace,
)
from viscowave.material import IsotropicMaterial
from viscowave.mesh import StructuredMesh
from viscowave.mms import exact_fields
from viscowave.quadrature import COMPOSITE, CORNERS
from viscowave.symmetry import TRIVIAL, SymmetryGroup, find_group

from fehelpers import (
    assemble_mass_velocity,
    compliance_bounds,
    einsum_load,
    eval_velocity,
    full_scatter,
    oversized,
    stress_gram,
    vertex_coords,
    vertex_index,
)

UNIT = IsotropicMaterial()


def stress_mass(ss, lumped):
    """The stress mass by the corner rule or by the composite one: the
    scheme's own when the family lumps that way, else the reference."""
    if lumped == ss.lumped:
        return assemble_mass_stress(ss, UNIT)
    return stress_gram(ss, UNIT.compliance_matrix(), CORNERS if lumped else COMPOSITE)


def spaces(n, family):
    mesh = StructuredMesh(n)
    return StressSpace(mesh, family), VelocitySpace(mesh, family)


def gauss_points(mesh, e):
    """(x, y, xi, eta, weight) of each point of a tensor 3x3 Gauss rule on element e.

    Independent of the production rule: it is exact for degree 5 in each
    variable, so it agrees with the composite rule on polynomial integrands
    of total degree at most 5.
    """
    g, gw = np.polynomial.legendre.leggauss(3)
    xi, eta = (a.ravel() for a in np.meshgrid(g, g))
    w = 0.25 * mesh.h * mesh.h * np.outer(gw, gw).ravel()
    cx, cy = mesh.element_centers()[e]
    return zip(cx + 0.5 * mesh.h * xi, cy + 0.5 * mesh.h * eta, xi, eta, w)


# -------------------------------------------------------------- stress mass A


def test_lumped_entry_unit_element():
    # vertex weight 1/4 times compliance row: (s11,s11) entry = 0.25*(0.5-0.125)
    ss, _ = spaces(1, NEDELEC)
    A = assemble_mass_stress(ss, UNIT).toarray()
    i = 0  # s11 at lower-left vertex
    assert A[i, i] == pytest.approx(0.09375, rel=1e-14)


def test_lumped_blocks_are_per_vertex():
    # lumped A couples only the 3 components living at one vertex
    ss, _ = spaces(2, NEDELEC)
    A = assemble_mass_stress(ss, UNIT).tocoo()
    nv = len(vertex_coords(ss.mesh))
    for i, j in zip(A.row, A.col):
        assert i % nv == j % nv  # same vertex, any component


def test_lumped_weights_scale_with_vertex_valence():
    # interior vertex collects h^2, edge h^2/2, corner h^2/4
    ss, _ = spaces(2, NEDELEC)
    mesh = ss.mesh
    A = assemble_mass_stress(ss, UNIT)
    h2 = mesh.h * mesh.h
    w00 = 0.375  # (C^{-1} e11) : e11 at mu=lam=1
    corner = vertex_index(ss.mesh, 0, 0)
    edge = vertex_index(ss.mesh, 1, 0)
    interior = vertex_index(ss.mesh, 1, 1)
    assert A[corner, corner] == pytest.approx(h2 / 4 * w00, rel=1e-13)
    assert A[edge, edge] == pytest.approx(h2 / 2 * w00, rel=1e-13)
    assert A[interior, interior] == pytest.approx(h2 * w00, rel=1e-13)


@pytest.mark.parametrize("lumped, family", [(False, HMZ), (False, NEDELEC), (True, NEDELEC)])
def test_mass_stress_symmetric(lumped, family):
    # Every (family, lumped) pair a stress mass exists for: hmz never lumps.
    ss, _ = spaces(3, family)
    A = stress_mass(ss, lumped)
    assert abs(A - A.T).max() < 1e-14


def test_constant_stress_energy():
    # alpha' A alpha = a(I, I) = |Omega| * (C^{-1} I) : I = 0.5 at mu = lam = 1
    for family in FAMILIES:
        for lumped in (False, True) if family == NEDELEC else (False,):
            ss, _ = spaces(3, family)
            alpha = ss.interpolate(
                lambda x, y: np.broadcast_to([1.0, 1.0, 0.0], np.shape(x) + (3,))
            )
            A = stress_mass(ss, lumped)
            assert alpha @ (A @ alpha) == pytest.approx(0.5, rel=1e-13)


@pytest.mark.parametrize("family", FAMILIES)
def test_spd_dense(family):
    # smallest eigenvalues strictly positive on coarse meshes
    ss, vs = spaces(4, family)
    A = stress_mass(ss, False).toarray()
    C = assemble_mass_velocity(vs, UNIT).toarray()
    assert np.linalg.eigvalsh(A).min() > 0
    assert np.linalg.eigvalsh(C).min() > 0
    if family == NEDELEC:
        AL = assemble_mass_stress(ss, UNIT).toarray()
        assert np.linalg.eigvalsh(AL).min() > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_norm_equivalence_discrete(family):
    # M0 ||tau||_0^2 <= a(tau,tau) <= M1 ||tau||_0^2 for random members
    ss, _ = spaces(3, family)
    A = stress_mass(ss, False)
    G = assemble_stress_gram(ss)
    M0, M1 = compliance_bounds(UNIT)
    rng = np.random.default_rng(31)
    for _ in range(100):
        a = rng.standard_normal(ss.dim)
        l2 = a @ (G @ a)
        en = a @ (A @ a)
        assert M0 * l2 - 1e-12 <= en <= M1 * l2 + 1e-12


# ----------------------------------------------------------------- coupling B


def test_coupling_entry_unit_element():
    ss, vs = spaces(1, NEDELEC)
    B = assemble_coupling(ss, vs).toarray()
    # velocity dof 0 = (1,0) indicator, stress dof 0 = s11 lower-left hat
    assert B[0, 0] == pytest.approx(-0.5, rel=1e-14)


def test_coupling_kills_constant_stress():
    for family in FAMILIES:
        ss, vs = spaces(3, family)
        B = assemble_coupling(ss, vs)
        alpha = ss.interpolate(
            lambda x, y: np.broadcast_to([1.0, 1.0, 0.0], np.shape(x) + (3,))
        )
        assert np.abs(B @ alpha).max() < 1e-13


@pytest.mark.parametrize("family", FAMILIES)
def test_coupling_against_quadrature_oracle(family):
    # beta' B alpha == sum_K int w_h . div sigma_h, integrated rectangle by
    # rectangle with an independent rule
    ss, vs = spaces(2, family)
    mesh = ss.mesh
    B = assemble_coupling(ss, vs)
    rng = np.random.default_rng(7)
    alpha = rng.standard_normal(ss.dim)
    beta = rng.standard_normal(vs.dim)
    total = 0.0
    for e in range(mesh.n_elements):
        for x, y, xi, eta, w in gauss_points(mesh, e):
            div = ss.local_divergence(np.array([xi]), np.array([eta]))[0]
            dv = alpha[ss.eldof[e]] @ div
            v = eval_velocity(vs, beta, e, xi, eta)
            total += w * float(v @ dv)
    assert beta @ (B @ alpha) == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_coupling_family_mismatch_rejected():
    mesh = StructuredMesh(2)
    ss = StressSpace(mesh, NEDELEC)
    vs = VelocitySpace(mesh, HMZ)
    with pytest.raises(ValueError):
        assemble_coupling(ss, vs)


def test_coupling_mesh_mismatch_rejected():
    ss = StressSpace(StructuredMesh(2), NEDELEC)
    vs = VelocitySpace(StructuredMesh(3), NEDELEC)
    with pytest.raises(ValueError):
        assemble_coupling(ss, vs)


# -------------------------------------------------------------- velocity mass


def test_q0_mass_is_element_area():
    _, vs = spaces(1, NEDELEC)
    np.testing.assert_allclose(
        assemble_mass_velocity(vs, UNIT).toarray(), np.eye(2), atol=1e-15
    )
    _, vs = spaces(4, NEDELEC)
    np.testing.assert_allclose(
        assemble_mass_velocity(vs, UNIT).toarray(),
        np.eye(32) / 16.0,
        atol=1e-16,
    )


def test_hmz_velocity_mass_block():
    _, vs = spaces(1, HMZ)
    C = assemble_mass_velocity(vs, UNIT).toarray()
    np.testing.assert_allclose(
        C, np.diag([1.0, 1.0 / 3.0, 1.0, 1.0 / 3.0]), atol=1e-15
    )


def test_velocity_mass_scales_with_rho():
    _, vs = spaces(2, HMZ)
    C1 = assemble_mass_velocity(vs, UNIT)
    C3 = assemble_mass_velocity(vs, IsotropicMaterial(rho=3.0))
    assert abs(C3 - 3.0 * C1).max() < 1e-14
    G = assemble_velocity_gram(vs)
    assert abs(C1 - G).max() < 1e-15


def test_velocity_mass_block_structure():
    _, vs = spaces(3, HMZ)
    C = assemble_mass_velocity(vs, UNIT).tocoo()
    for i, j in zip(C.row, C.col):
        assert i // vs.n_local == j // vs.n_local


# -------------------------------------------------------------------- loads


def test_load_zero():
    for family in FAMILIES:
        _, vs = spaces(2, family)
        F = assemble_load(vs, lambda x, y, t: np.zeros(np.shape(x) + (2,)), 0.0)
        assert np.all(F == 0.0)


def test_load_constant_force_q0():
    _, vs = spaces(4, NEDELEC)

    def f(x, y, t):
        out = np.zeros(np.shape(x) + (2,))
        out[..., 0] = 1.0
        return out

    F = assemble_load(vs, f, 0.3)
    np.testing.assert_allclose(F[0::2], 1.0 / 16.0, atol=1e-15)
    np.testing.assert_allclose(F[1::2], 0.0, atol=1e-15)


def test_load_linear_force_unit_element():
    _, vs = spaces(1, NEDELEC)

    def f(x, y, t):
        return np.stack([np.asarray(x), np.zeros(np.shape(x))], axis=-1)

    np.testing.assert_allclose(assemble_load(vs, f, 0.0), [0.5, 0.0], atol=1e-14)


def test_load_uses_time_argument():
    _, vs = spaces(2, HMZ)

    def f(x, y, t):
        out = np.zeros(np.shape(x) + (2,))
        out[..., 1] = t
        return out

    F1 = assemble_load(vs, f, 1.0)
    F2 = assemble_load(vs, f, 2.0)
    np.testing.assert_allclose(F2, 2.0 * F1, atol=1e-15)


def test_load_against_quadrature_oracle():
    _, vs = spaces(2, HMZ)
    mesh = vs.mesh

    # total degree 4, so both rules integrate f times a linear basis function exactly
    def f(x, y, t):
        x = np.asarray(x); y = np.asarray(y)
        return np.stack([x**3 * y - 2 * x * y**2 + 1, x**2 * y**2 - 3 * x * y + y**4], axis=-1)

    F = assemble_load(vs, f, 0.0)
    rng = np.random.default_rng(5)
    beta = rng.standard_normal(vs.dim)
    total = 0.0
    for e in range(mesh.n_elements):
        for x, y, xi, eta, w in gauss_points(mesh, e):
            v = eval_velocity(vs, beta, e, xi, eta)
            total += w * float(v @ f(x, y, 0.0))
    assert beta @ F == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("example", [1, 3])
def test_load_matches_einsum_reference(family, example):
    _, vs = spaces(8, family)
    f = exact_fields(example).f
    for t in (0.0, 0.37, 1.0):
        want = einsum_load(vs, f, t)
        got = assemble_load(vs, f, t)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_load_builds_quadrature_kernel_once(monkeypatch):
    kernels, spreads = [], []

    def counting(build, record):
        def wrapper(*args, **kwargs):
            record.append(build(*args, **kwargs))
            return record[-1]
        return wrapper

    monkeypatch.setattr(fespace, "QuadKernel", counting(fespace.QuadKernel, kernels))
    # The velocity spread builds its index into the kernel's element vectors once.
    at = functools.cached_property(counting(fespace.VelocitySpace._at.func, spreads))
    at.__set_name__(fespace.VelocitySpace, "_at")
    monkeypatch.setattr(fespace.VelocitySpace, "_at", at)
    ss, vs = spaces(4, HMZ)
    f = exact_fields(1).f
    for t in (0.0, 0.5, 1.0):
        assemble_load(vs, f, t)
    vs.project(lambda x, y: exact_fields(1).v(x, y, 0.0))
    assert len(kernels) == len(spreads) == 1 and kernels[0] is vs.quad
    # A stress space builds a kernel of the same type, and has no spread;
    # no kernel has one.
    assert type(ss.quad) is type(vs.quad) and len(kernels) == 2 and kernels[1] is ss.quad
    for holder in (ss, ss.quad, vs.quad):
        assert not hasattr(holder, "_at") and not hasattr(holder, "spread")
    assert len(spreads) == 1
    # A new space gets a kernel and a spread index of its own.
    _, other = spaces(4, HMZ)
    assemble_load(other, f, 0.0)
    assert len(kernels) == 3 and kernels[2] is other.quad and len(spreads) == 2


def test_load_rejects_wrong_field_shape():
    _, vs = spaces(2, HMZ)
    shapes = r"shape \(4, 14, 3\), expected \(4, 14, 2\)"
    with pytest.raises(ValueError, match=f"^field returned {shapes}$"):
        assemble_load(vs, lambda x, y, t: np.zeros(np.shape(x) + (3,)), 0.0)


# ------------------------------------------------------------------- system


@pytest.mark.parametrize("family", FAMILIES)
def test_assemble_system_lumps_as_the_family_says(family):
    # nedelec-q1q0 by the corner rule, hmz by the composite one
    ss, vs = spaces(2, family)
    A = assemble_system(ss, vs, UNIT).A
    want = stress_gram(ss, UNIT.compliance_matrix(), CORNERS if family == NEDELEC else COMPOSITE)
    assert np.array_equal(A.indptr, want.indptr) and np.array_equal(A.indices, want.indices)
    assert np.array_equal(A.data, want.data)


def test_assemble_system_fields():
    ss, vs = spaces(2, NEDELEC)
    system = assemble_system(ss, vs, UNIT)
    assert [f.name for f in dataclasses.fields(system)] == [
        "stress_space", "velocity_space", "material"
    ]
    assert system.material is UNIT
    assert system.A.shape == (ss.dim, ss.dim)
    assert sp.issparse(system.A)
    # Only checks build the full-size B and C, from ``assemble_coupling`` and
    # the tests' ``assemble_mass_velocity``.
    assert not hasattr(system, "B") and not hasattr(system, "C")


@pytest.mark.parametrize("family", FAMILIES)
def test_full_size_a_is_assembled_on_first_read_and_kept(family):
    # A run never reads it; a check made from outside it, such as the
    # benchmark's energy balance, assembles it once, bit for bit the full
    # assembly, and reads the same matrix after.
    ss, vs = spaces(8, family)
    material = IsotropicMaterial(rho=2.0, mu=3.0, lam=5.0)
    system = assemble_system(ss, vs, material)
    assert "A" not in vars(system)
    M, again = assemble_mass_stress(ss, material), system.A
    for name in ("data", "indices", "indptr"):
        a, b = getattr(M, name), getattr(again, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert system.A is system.A


@pytest.mark.parametrize("family", FAMILIES)
def test_the_c_norm_summed_element_by_element_is_that_of_c(family):
    # A run takes the C-norm with C's element matrix and never forms C.
    ss, vs = spaces(8, family)
    material = IsotropicMaterial(rho=2.0, mu=3.0, lam=5.0)
    system = assemble_system(ss, vs, material)
    C = assemble_mass_velocity(vs, material)
    rng = np.random.default_rng(5)
    for b in (rng.standard_normal(vs.dim) for _ in range(4)):
        assert system.velocity_energy(b) == pytest.approx(b @ (C @ b), rel=1e-14, abs=0.0)


def run_group(example):
    ex = exact_fields(example)
    return find_group((ex.sigma, ex.v, ex.f))


MIRRORS = [SymmetryGroup((("X", 1), ("Y", x))) for x in (1, -1)] + [
    SymmetryGroup((("X", 1), ("Y", 1), ("D", d))) for d in (1, -1)
]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_a_and_b_at_the_rows_a_run_reads_are_the_full_rows(family, n):
    # For the trivial group, each example's group and the mirrors' groups:
    # A is kept at the stress fold's representatives, B at every velocity
    # dof of an element that holds one, which the velocity fold's
    # representatives are among; each kept row is array-equal to the full
    # matrix's, dtypes included, and every other row is empty.
    mesh = StructuredMesh(n)
    for group in [TRIVIAL, *map(run_group, (1, 2, 3)), *MIRRORS]:
        ss, vs = StressSpace(mesh, family, group), VelocitySpace(mesh, family, group)
        system = assemble_system(ss, vs, UNIT)
        held = np.isin(ss.eldof, ss.fold.reps).any(axis=1)
        b_rows = vs.eldof[held].ravel()
        assert np.isin(vs.fold.reps, b_rows).all()
        full_size = system.A, assemble_coupling(ss, vs)
        for M, full, rows in zip(system.at_rows, full_size, (ss.fold.reps, b_rows)):
            assert M.shape == full.shape and M.nnz == M[rows].nnz
            kept, want = M[rows], full[rows]
            for name in ("data", "indices", "indptr"):
                a, b = getattr(kept, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (group, name)
        if group == TRIVIAL:
            assert len(b_rows) == vs.dim


@pytest.mark.parametrize("family", FAMILIES)
def test_the_stress_energy_is_the_norm_of_a(family):
    # Summed element by element from the one element matrix, with no A.
    ss, vs = spaces(8, family)
    system = assemble_system(ss, vs, IsotropicMaterial(rho=2.0, mu=3.0, lam=5.0))
    alpha = np.random.default_rng(4).standard_normal(ss.dim)
    got = system.stress_energy(alpha)
    assert "A" not in vars(system)
    assert got == pytest.approx(alpha @ (system.A @ alpha), rel=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_assembled_matrices_own_buffers_sized_to_their_entries(family):
    # Dropping the sums that cancel leaves scipy's buffer sized for every sum
    # (for hmz's A at N = 8, 3328 slots for 2817 entries); a run keeps A
    # and B at the rows it reads through its set-up, so each is trimmed to
    # its entries, as are C and the full-size A and B that checks build.
    group = run_group(2)
    mesh = StructuredMesh(8)
    ss, vs = StressSpace(mesh, family, group), VelocitySpace(mesh, family, group)
    system = assemble_system(ss, vs, UNIT)
    A, B = system.at_rows
    full = dict(full_A=system.A, full_B=assemble_coupling(ss, vs))
    assert oversized(dict(A=A, B=B, C=assemble_mass_velocity(vs, UNIT), **full)) == []


@pytest.mark.parametrize("family", FAMILIES)
def test_div_gram_against_quadrature_oracle(family):
    ss, _ = spaces(2, family)
    mesh = ss.mesh
    G = assemble_div_gram(ss)
    alpha = ss.interpolate(
        lambda x, y: np.broadcast_to([2.0, -1.0, 0.5], np.shape(x) + (3,))
    )
    assert alpha @ (G @ alpha) == pytest.approx(0.0, abs=1e-13)
    rng = np.random.default_rng(13)
    a = rng.standard_normal(ss.dim)
    total = 0.0
    for e in range(mesh.n_elements):
        for x, y, xi, eta, w in gauss_points(mesh, e):
            div = ss.local_divergence(np.array([xi]), np.array([eta]))[0]
            dv = a[ss.eldof[e]] @ div
            total += w * float(dv @ dv)
    assert a @ (G @ a) == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 7, 16])
def test_velocity_matrices_are_tiled_with_the_arrays_of_their_scatter(family, n):
    # Velocity dofs are numbered element by element, so the velocity Gram
    # matrix and C are their element matrix tiled straight into CSR arrays:
    # the arrays that scattering it, all of it or its nonzeros, gives, and,
    # for C, scaling the scattered Gram matrix by rho, dtypes included.
    _, vs = spaces(n, family)
    material = IsotropicMaterial(rho=2.5)
    local, shape = assembly._local_velocity_gram(vs), (vs.dim, vs.dim)
    scattered = [f(local, vs.eldof, vs.eldof, shape) for f in (assembly._scatter, full_scatter)]
    cases = [
        (assemble_velocity_gram(vs), scattered),
        (assemble_mass_velocity(vs, material), [material.rho * M for M in scattered]),
    ]
    for got, wants in cases:
        assert got.has_sorted_indices and oversized(dict(got=got)) == []
        for want in wants:
            for name in ("data", "indices", "indptr"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 7, 16])
def test_scatter_of_nonzeros_matches_the_full_scatter(family, n, monkeypatch):
    # The local matrices hold exact zeros (48 of hmz's 100 stress-mass
    # entries), which add nothing to any sum.  The duplicates of a row are
    # summed in the order SciPy's unstable index sort leaves them, which
    # the zeros can change, so only A and B, whole or at the rows a run of
    # example 2 reads, are bitwise the same here; the Gram matrices agree to
    # rounding, where a sum that cancels may be stored as a rounding-level
    # entry in one and dropped in the other.  C is tiled, not scattered
    # (``test_velocity_matrices_are_tiled_with_the_arrays_of_their_scatter``).
    ss, vs = spaces(n, family)
    mesh, group = ss.mesh, run_group(2)
    folded = StressSpace(mesh, family, group), VelocitySpace(mesh, family, group)

    def matrices():
        system = assemble_system(ss, vs, UNIT)
        rows = assemble_system(*folded, UNIT).at_rows
        B = assemble_coupling(ss, vs)
        return [system.A, B, *rows, assemble_div_gram(ss), assemble_stress_gram(ss)]

    got = matrices()
    monkeypatch.setattr(assembly, "_scatter", full_scatter)
    for k, (a, b) in enumerate(zip(got, matrices())):
        if k < 4:
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
        else:
            assert abs(a - b).max() <= 4 * np.finfo(float).eps * abs(b).max()
