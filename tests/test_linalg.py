"""Block inversion and the reduced stress solve."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from viscowave.assembly import (
    AssembledSystem,
    assemble_coupling,
    assemble_mass_stress,
    assemble_mass_velocity,
    assemble_system,
)
from viscowave.fespace import HMZ, NEDELEC, StressSpace, VelocitySpace
from viscowave import linalg
from viscowave.linalg import (
    ConvergenceError,
    CondensedLU,
    SchurSolver,
    SingularBlockError,
    block_diag_inverse,
    build_schur,
    nested_dissection,
)
from viscowave.material import IsotropicMaterial
from viscowave.mesh import StructuredMesh

TOL = 1e-12


def no_interior(n):
    """Layout of an n-dof matrix with no interior dofs, points along a line."""
    return np.zeros((0, 0), dtype=int), np.column_stack([2 * np.arange(n), np.zeros(n, int)])


def random_block_diag(rng, nb, b, spd=True):
    blocks = []
    for _ in range(nb):
        M = rng.standard_normal((b, b))
        blocks.append(M @ M.T + b * np.eye(b) if spd else M)
    return sp.block_diag(blocks, format="csr")


def test_block_diag_inverse_matches_dense():
    rng = np.random.default_rng(4)
    for b in (1, 2, 4):
        C = random_block_diag(rng, 6, b)
        Cinv = block_diag_inverse(C, b)
        np.testing.assert_allclose(
            Cinv.toarray(), np.linalg.inv(C.toarray()), atol=1e-12
        )
        # inverse keeps the block sparsity
        assert Cinv.nnz <= 6 * b * b


def test_block_diag_inverse_identity():
    I = sp.identity(8, format="csr")
    assert abs(block_diag_inverse(I, 2) - I).max() == 0.0


def test_block_diag_inverse_rejects_offblock_entries():
    C = sp.lil_matrix((4, 4))
    C[0, 0] = C[1, 1] = C[2, 2] = C[3, 3] = 1.0
    C[0, 3] = 0.5  # couples block 0 with block 1
    with pytest.raises(ValueError):
        block_diag_inverse(C.tocsr(), 2)


def test_block_diag_inverse_rejects_bad_block_size():
    C = sp.identity(6, format="csr")
    with pytest.raises(ValueError):
        block_diag_inverse(C, 4)


def test_block_diag_inverse_singular_block():
    C = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularBlockError):
        block_diag_inverse(C, 2)


def hmz_system(n=2):
    mesh = StructuredMesh(n, n)
    ss = StressSpace(mesh, HMZ)
    vs = VelocitySpace(mesh, HMZ)
    return assemble_system(ss, vs, IsotropicMaterial())


def test_build_schur_formula():
    system = hmz_system()
    dt = 0.1
    Cinv = block_diag_inverse(system.C, 4)
    solver = build_schur(system, Cinv, dt, TOL)
    S = (1.0 / dt + 0.5) * system.A + 0.25 * dt * (
        system.B.T @ Cinv @ system.B
    )
    np.testing.assert_allclose(solver.S.toarray(), S.toarray(), atol=1e-14)


def test_build_schur_validation():
    system = hmz_system()
    Cinv = block_diag_inverse(system.C, 4)
    with pytest.raises(ValueError, match="time step"):
        build_schur(system, Cinv, 0.0, TOL)
    with pytest.raises(ValueError, match="does not match"):
        build_schur(system, Cinv[:-4, :-4], 0.1, TOL)


def test_solve_matches_dense():
    system = hmz_system()
    Cinv = block_diag_inverse(system.C, 4)
    solver = build_schur(system, Cinv, 0.05, TOL)
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(system.A.shape[0])
    x = solver.solve(rhs)
    want = np.linalg.solve(solver.S.toarray(), rhs)
    np.testing.assert_allclose(x, want, rtol=1e-8, atol=1e-12)
    res = np.linalg.norm(rhs - solver.S @ x) / np.linalg.norm(rhs)
    assert res <= solver.tol


def test_zero_rhs_shortcut():
    system = hmz_system()
    Cinv = block_diag_inverse(system.C, 4)
    solver = build_schur(system, Cinv, 0.1, TOL)
    x = solver.solve(np.zeros(system.A.shape[0]))
    assert np.all(x == 0.0)


def test_unreachable_tolerance_raises():
    # A bound a few orders below machine precision cannot be certified.  The
    # set-up probe demands only max(tol, sqrt(eps)), so the factor is built,
    # and the per-step check says so.
    system = hmz_system()
    solver = build_schur(system, block_diag_inverse(system.C, 4), 0.1, 1e-30)
    with pytest.raises(ConvergenceError) as err:
        solver.solve(np.random.default_rng(2).standard_normal(solver.S.shape[0]))
    assert err.value.residual > 1e-30


def test_solver_constructor_validation():
    S = sp.identity(4, format="csr")
    layout = no_interior(4)
    for tol in (0.0, 1.0, np.inf):  # a relative residual bound of 1 or more certifies nothing
        with pytest.raises(ValueError, match="must lie in"):
            SchurSolver(S, tol, *layout)
    with pytest.raises(SingularBlockError, match="cannot be factored"):
        SchurSolver(sp.diags([1.0, 0.0, 1.0]).tocsr(), 1e-12, *no_interior(3))


def test_setup_solve_rejects_matrix_singular_to_working_precision():
    # The compliance of mu = 1e-300, lam = 1 (which IsotropicMaterial
    # refuses) is exactly singular; the hmz S built from it factors with a
    # tiny pivot rather than a zero one, and only the set-up solve sees it.
    mu, lam = 1e-300, 1.0
    c = lam / (2.0 * mu + 2.0 * lam)
    assert c == 0.5
    compliance = np.array([[1.0 - c, -c, 0.0], [-c, 1.0 - c, 0.0], [0.0, 0.0, 1.0]]) / (2.0 * mu)
    mesh = StructuredMesh(2, 2)
    ss, vs = StressSpace(mesh, HMZ), VelocitySpace(mesh, HMZ)
    system = AssembledSystem(
        stress_space=ss,
        velocity_space=vs,
        A=assemble_mass_stress(ss, SimpleNamespace(compliance_matrix=lambda: compliance)),
        B=assemble_coupling(ss, vs),
        C=assemble_mass_velocity(vs, IsotropicMaterial()),
    )
    Cinv = block_diag_inverse(system.C, vs.n_local)
    with pytest.raises(SingularBlockError, match="cannot be factored") as err:
        build_schur(system, Cinv, 0.5, TOL)
    assert isinstance(err.value.__cause__, ConvergenceError)


def test_schur_spd_for_nedelec_lumped():
    mesh = StructuredMesh(3, 3)
    ss = StressSpace(mesh, NEDELEC)
    vs = VelocitySpace(mesh, NEDELEC)
    system = assemble_system(ss, vs, IsotropicMaterial())
    Cinv = block_diag_inverse(system.C, 2)
    solver = build_schur(system, Cinv, 0.005, TOL)
    dense = solver.S.toarray()
    np.testing.assert_allclose(dense, dense.T, atol=1e-13)
    assert np.linalg.eigvalsh(dense).min() > 0.0


@pytest.mark.parametrize(
    "family, dt", [(HMZ, 0.25), (HMZ, 1.0 / 200), (NEDELEC, 0.25)]
)
def test_direct_fill_below_colamd(family, dt):
    # The SPD reduced matrix is condensed, ordered by nested dissection and
    # factored with diagonal pivots; COLAMD on the full matrix, or pivoting
    # off the diagonal, fills more (on the lumped nedelec-q1q0 matrix at
    # dt = 0.25 pivoting gives about 1.6 times the COLAMD fill).
    mesh = StructuredMesh(16, 16)
    ss = StressSpace(mesh, family)
    vs = VelocitySpace(mesh, family)
    system = assemble_system(ss, vs, IsotropicMaterial())
    Cinv = block_diag_inverse(system.C, vs.n_local)
    solver = build_schur(system, Cinv, dt, TOL)
    colamd = spla.splu(solver.S.tocsc(), permc_spec="COLAMD")
    assert solver._lu.L.nnz + solver._lu.U.nnz < colamd.L.nnz + colamd.U.nnz
    rhs = np.cos(np.arange(solver.S.shape[0], dtype=float))
    x = solver.solve(rhs)
    assert np.linalg.norm(rhs - solver.S @ x) <= TOL * np.linalg.norm(rhs)


def make_system(nx, ny, family):
    mesh = StructuredMesh(nx, ny)
    ss = StressSpace(mesh, family)
    vs = VelocitySpace(mesh, family)
    return assemble_system(ss, vs, IsotropicMaterial())


def make_direct(system, dt):
    Cinv = block_diag_inverse(system.C, system.velocity_space.n_local)
    return build_schur(system, Cinv, dt, TOL)


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("nx, ny", [(6, 3), (8, 8)])
@pytest.mark.parametrize("dt", [1.0 / 200, 0.25])
def test_condensed_solve_matches_dense(family, nx, ny, dt):
    solver = make_direct(make_system(nx, ny, family), dt)
    n_inner = (nx * ny * 2) if family == HMZ else 0
    assert solver._lu.inner.size == n_inner
    rhs = np.random.default_rng(nx + ny).standard_normal(solver.S.shape[0])
    want = np.linalg.solve(solver.S.toarray(), rhs)
    x = solver._lu.solve(rhs)  # one condensed solve, no refinement
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_condensed_fill_at_most_minimum_degree(family, n):
    # The reference: minimum degree on the full S + S^T with diagonal pivots.
    solver = make_direct(make_system(n, n, family), 0.25)
    mmd = spla.splu(
        solver.S.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    assert solver._lu.L.nnz + solver._lu.U.nnz <= mmd.L.nnz + mmd.U.nnz


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
def test_nested_dissection_order(family):
    ss = StressSpace(StructuredMesh(8, 8), family)
    grid = ss.grid
    p = nested_dissection(grid)
    assert np.array_equal(np.sort(p), np.arange(ss.dim))
    assert np.array_equal(p, nested_dissection(grid.copy()))
    # The first cut is the mesh line x = 1/2: left half, right half, then the line.
    x = grid[p, 0]
    n_sep = np.count_nonzero(x == 8)
    assert np.all(x[-n_sep:] == 8)
    n_left = np.count_nonzero(x < 8)
    assert np.all(x[:n_left] < 8) and np.all(x[n_left:-n_sep] > 8)


def test_nested_dissection_leaves_small_boxes_in_place():
    grid = np.array([[0, 0], [4, 2], [2, 2], [2, 0]])
    assert np.array_equal(nested_dissection(grid), np.arange(4))


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("dt", [1.0 / 200, 0.25])
def test_condensed_matrix_is_symmetric(family, dt):
    # The solve uses the transposed factor, which is right only for a symmetric S_c.
    solver = make_direct(make_system(8, 8, family), dt)
    lu = solver._lu
    S_c = solver.S[lu.outer][:, lu.outer] - lu._S_oi @ lu._W
    assert spla.norm(S_c - S_c.T) <= 1e-14 * spla.norm(S_c)


def test_wrongly_numbered_bubbles_raise():
    system = make_system(4, 4, HMZ)
    ss = system.stress_space
    solver = make_direct(system, 0.25)
    S = solver.S
    # the global order lists all t11 bubbles, then all t22 bubbles
    by_component = np.sort(ss.interior, axis=None).reshape(-1, 2)
    with pytest.raises(ValueError, match="outside the contiguous diagonal blocks"):
        CondensedLU(S, by_component, ss.grid)
    by_element = ss.interior
    shifted = np.column_stack([by_element[:, 0], np.roll(by_element[:, 1], 1)])
    with pytest.raises(ValueError, match="outside the contiguous diagonal blocks"):
        CondensedLU(S, shifted, ss.grid)
    assert np.array_equal(solver._lu.inner, by_element.ravel())


def test_stress_mass_lost_in_rounding_refused_before_factoring(monkeypatch):
    # At dt = 5e-301 the largest diagonal of (1/dt + 1/2) A over that of
    # (dt/4) B^T Cinv B overflows; a set-up that passes the check forms no
    # ratio, so it warns of nothing.  A stiff material is refused with the
    # ratio before any factorization.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solver = make_direct(make_system(2, 2, NEDELEC), 5e-301)
        rhs = np.ones(solver.S.shape[0])
        assert np.linalg.norm(rhs - solver.S @ solver.solve(rhs)) <= TOL * np.linalg.norm(rhs)
        mesh = StructuredMesh(2, 2)
        stiff = assemble_system(
            StressSpace(mesh, NEDELEC), VelocitySpace(mesh, NEDELEC), IsotropicMaterial(mu=1e200)
        )

        def refuse(*args):
            raise AssertionError("factored a matrix that the checks refuse")

        monkeypatch.setattr(linalg, "CondensedLU", refuse)
        with pytest.raises(SingularBlockError, match="is 2.5e-200 times that of"):
            make_direct(stiff, 0.5)
