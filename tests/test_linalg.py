"""Block inversion and the reduced stress solve."""

import numpy as np
import pytest
import scipy.sparse as sp

from viscowave.assembly import assemble_system
from viscowave.fespace import HMZ, NEDELEC, StressSpace, VelocitySpace
from viscowave.linalg import (
    ConvergenceError,
    SchurSolver,
    SingularBlockError,
    block_diag_inverse,
    build_schur,
)
from viscowave.material import IsotropicMaterial
from viscowave.mesh import StructuredMesh

TOL = 1e-12


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
    solver = build_schur(system.A, system.B, Cinv, dt, "direct", TOL)
    S = (1.0 / dt + 0.5) * system.A + 0.25 * dt * (
        system.B.T @ Cinv @ system.B
    )
    np.testing.assert_allclose(solver.S.toarray(), S.toarray(), atol=1e-14)


def test_build_schur_validation():
    system = hmz_system()
    Cinv = block_diag_inverse(system.C, 4)
    with pytest.raises(ValueError):
        build_schur(system.A, system.B, Cinv, 0.0, "direct", TOL)
    with pytest.raises(ValueError):
        build_schur(system.A, system.B.T, Cinv, 0.1, "direct", TOL)  # wrong orientation
    with pytest.raises(ValueError):
        build_schur(system.A, system.B, Cinv, 0.1, "gmres", TOL)


@pytest.mark.parametrize("method", ["direct", "cg"])
def test_solve_matches_dense(method):
    system = hmz_system()
    Cinv = block_diag_inverse(system.C, 4)
    solver = build_schur(system.A, system.B, Cinv, 0.05, method, TOL)
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(system.A.shape[0])
    x = solver.solve(rhs)
    want = np.linalg.solve(solver.S.toarray(), rhs)
    np.testing.assert_allclose(x, want, rtol=1e-8, atol=1e-12)
    res = np.linalg.norm(rhs - solver.S @ x) / np.linalg.norm(rhs)
    assert res <= solver.tol


def test_direct_and_cg_agree():
    system = hmz_system(3)
    Cinv = block_diag_inverse(system.C, 4)
    d = build_schur(system.A, system.B, Cinv, 0.01, "direct", TOL)
    c = build_schur(system.A, system.B, Cinv, 0.01, "cg", TOL)
    rhs = np.sin(np.arange(system.A.shape[0], dtype=float))
    np.testing.assert_allclose(d.solve(rhs), c.solve(rhs), rtol=1e-7, atol=1e-13)


def test_zero_rhs_shortcut():
    system = hmz_system()
    Cinv = block_diag_inverse(system.C, 4)
    solver = build_schur(system.A, system.B, Cinv, 0.1, "direct", TOL)
    x = solver.solve(np.zeros(system.A.shape[0]))
    assert np.all(x == 0.0)


def test_unreachable_tolerance_raises():
    # a few orders below machine precision cannot be certified
    n = 40
    rng = np.random.default_rng(2)
    M = rng.standard_normal((n, n))
    S = sp.csr_matrix(M @ M.T + n * np.eye(n))
    solver = SchurSolver(S, "cg", 1e-30)
    with pytest.raises(ConvergenceError) as err:
        solver.solve(rng.standard_normal(n))
    assert err.value.residual > 1e-30


def test_solver_constructor_validation():
    S = sp.identity(4, format="csr")
    with pytest.raises(ValueError):
        SchurSolver(S, "direct", 0.0)
    with pytest.raises(ValueError):
        SchurSolver(S, "lu", 1e-12)
    ind = sp.diags([1.0, -1.0, 1.0, 1.0]).tocsr()
    with pytest.raises(SingularBlockError):
        SchurSolver(ind, "cg", 1e-12)  # Jacobi preconditioner needs positive diagonal
    with pytest.raises(SingularBlockError, match="cannot be factored"):
        SchurSolver(sp.diags([1.0, 0.0, 1.0]).tocsr(), "direct", 1e-12)
    with pytest.raises(ValueError):
        SchurSolver(S, "cg", np.inf)  # a relative residual bound of 1 or more certifies nothing


def test_schur_spd_for_nedelec_lumped():
    mesh = StructuredMesh(3, 3)
    ss = StressSpace(mesh, NEDELEC)
    vs = VelocitySpace(mesh, NEDELEC)
    system = assemble_system(ss, vs, IsotropicMaterial(), lumped=True)
    Cinv = block_diag_inverse(system.C, 2)
    solver = build_schur(system.A, system.B, Cinv, 0.005, "direct", TOL)
    dense = solver.S.toarray()
    np.testing.assert_allclose(dense, dense.T, atol=1e-13)
    assert np.linalg.eigvalsh(dense).min() > 0.0
