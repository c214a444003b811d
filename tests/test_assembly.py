"""Global matrices and load vectors: worked entries, symmetry, SPD, oracles."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from viscowave import fespace
from viscowave.assembly import (
    assemble_coupling,
    assemble_div_gram,
    assemble_load,
    assemble_mass_stress,
    assemble_mass_velocity,
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

from fehelpers import compliance_bounds, einsum_load, eval_velocity, vertex_coords, vertex_index

UNIT = IsotropicMaterial()


def spaces(n, family):
    mesh = StructuredMesh(n, n)
    return StressSpace(mesh, family), VelocitySpace(mesh, family)


def gauss_points(mesh, e):
    """(x, y, xi, eta, weight) of each point of a tensor 3x3 Gauss rule on element e.

    Independent of the production rule: it is exact for degree 5 in each
    variable, so it agrees with the composite rule on polynomial integrands
    of total degree at most 5.
    """
    g, gw = np.polynomial.legendre.leggauss(3)
    xi, eta = (a.ravel() for a in np.meshgrid(g, g))
    w = 0.25 * mesh.hx * mesh.hy * np.outer(gw, gw).ravel()
    cx, cy = mesh.element_centers()[e]
    return zip(cx + 0.5 * mesh.hx * xi, cy + 0.5 * mesh.hy * eta, xi, eta, w)


# -------------------------------------------------------------- stress mass A


def test_lumped_entry_unit_element():
    # vertex weight 1/4 times compliance row: (s11,s11) entry = 0.25*(0.5-0.125)
    ss, _ = spaces(1, NEDELEC)
    A = assemble_mass_stress(ss, UNIT, lumped=True).toarray()
    i = 0  # s11 at lower-left vertex
    assert A[i, i] == pytest.approx(0.09375, rel=1e-14)


def test_lumped_blocks_are_per_vertex():
    # lumped A couples only the 3 components living at one vertex
    ss, _ = spaces(2, NEDELEC)
    A = assemble_mass_stress(ss, UNIT, lumped=True).tocoo()
    nv = len(vertex_coords(ss.mesh))
    for i, j in zip(A.row, A.col):
        assert i % nv == j % nv  # same vertex, any component


def test_lumped_weights_scale_with_vertex_valence():
    # interior vertex collects h^2, edge h^2/2, corner h^2/4
    ss, _ = spaces(2, NEDELEC)
    mesh = ss.mesh
    A = assemble_mass_stress(ss, UNIT, lumped=True)
    h2 = mesh.hx * mesh.hy
    w00 = 0.375  # (C^{-1} e11) : e11 at mu=lam=1
    corner = vertex_index(ss.mesh, 0, 0)
    edge = vertex_index(ss.mesh, 1, 0)
    interior = vertex_index(ss.mesh, 1, 1)
    assert A[corner, corner] == pytest.approx(h2 / 4 * w00, rel=1e-13)
    assert A[edge, edge] == pytest.approx(h2 / 2 * w00, rel=1e-13)
    assert A[interior, interior] == pytest.approx(h2 * w00, rel=1e-13)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("lumped", [False, True])
def test_mass_stress_symmetric(family, lumped):
    if lumped and family == HMZ:
        return
    ss, _ = spaces(3, family)
    A = assemble_mass_stress(ss, UNIT, lumped=lumped)
    assert abs(A - A.T).max() < 1e-14


def test_constant_stress_energy():
    # alpha' A alpha = a(I, I) = |Omega| * (C^{-1} I) : I = 0.5 at mu = lam = 1
    for family in FAMILIES:
        for lumped in (False, True) if family == NEDELEC else (False,):
            ss, _ = spaces(3, family)
            alpha = ss.interpolate(
                lambda x, y: np.broadcast_to([1.0, 1.0, 0.0], np.shape(x) + (3,))
            )
            A = assemble_mass_stress(ss, UNIT, lumped=lumped)
            assert alpha @ (A @ alpha) == pytest.approx(0.5, rel=1e-13)


def test_lumped_for_hmz_rejected():
    ss, _ = spaces(2, HMZ)
    with pytest.raises(ValueError, match="off the corners"):
        assemble_mass_stress(ss, UNIT, lumped=True)
    with pytest.raises(ValueError, match="off the corners"):
        assemble_stress_gram(ss, lumped=True)


@pytest.mark.parametrize("family", FAMILIES)
def test_spd_dense(family):
    # smallest eigenvalues strictly positive on coarse meshes
    ss, vs = spaces(4, family)
    A = assemble_mass_stress(ss, UNIT).toarray()
    C = assemble_mass_velocity(vs, UNIT).toarray()
    assert np.linalg.eigvalsh(A).min() > 0
    assert np.linalg.eigvalsh(C).min() > 0
    if family == NEDELEC:
        AL = assemble_mass_stress(ss, UNIT, lumped=True).toarray()
        assert np.linalg.eigvalsh(AL).min() > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_norm_equivalence_discrete(family):
    # M0 ||tau||_0^2 <= a(tau,tau) <= M1 ||tau||_0^2 for random members
    ss, _ = spaces(3, family)
    A = assemble_mass_stress(ss, UNIT)
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
    mesh = StructuredMesh(2, 2)
    ss = StressSpace(mesh, NEDELEC)
    vs = VelocitySpace(mesh, HMZ)
    with pytest.raises(ValueError):
        assemble_coupling(ss, vs)


def test_coupling_mesh_mismatch_rejected():
    ss = StressSpace(StructuredMesh(2, 2), NEDELEC)
    vs = VelocitySpace(StructuredMesh(3, 3), NEDELEC)
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
    builds = []

    def counting(space):
        builds.append(space)
        return real(space)

    real = fespace.quad_kernel
    monkeypatch.setattr(fespace, "quad_kernel", counting)
    _, vs = spaces(4, HMZ)
    f = exact_fields(1).f
    for t in (0.0, 0.5, 1.0):
        assemble_load(vs, f, t)
    assert builds == [vs]
    # A new space gets a kernel of its own.
    _, other = spaces(4, HMZ)
    assemble_load(other, f, 0.0)
    assert builds == [vs, other]


def test_load_rejects_wrong_field_shape():
    _, vs = spaces(2, HMZ)
    with pytest.raises(ValueError, match="body force returned shape"):
        assemble_load(vs, lambda x, y, t: np.zeros(np.shape(x) + (3,)), 0.0)


# ------------------------------------------------------------------- system


@pytest.mark.parametrize("family", FAMILIES)
def test_assemble_system_lumps_as_the_family_says(family):
    ss, vs = spaces(2, family)
    A = assemble_system(ss, vs, UNIT).A
    want = assemble_mass_stress(ss, UNIT, lumped=ss.lumped)
    assert np.array_equal(A.indptr, want.indptr) and np.array_equal(A.indices, want.indices)
    assert np.array_equal(A.data, want.data)


def test_assemble_system_fields():
    ss, vs = spaces(2, NEDELEC)
    system = assemble_system(ss, vs, UNIT)
    assert [f.name for f in dataclasses.fields(system)] == [
        "stress_space", "velocity_space", "A", "B", "C"
    ]
    assert system.A.shape == (ss.dim, ss.dim)
    assert system.B.shape == (vs.dim, ss.dim)
    assert system.C.shape == (vs.dim, vs.dim)
    assert sp.issparse(system.A)
    assert abs(
        system.B - assemble_coupling(ss, vs)
    ).max() == 0.0


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
