"""Block inversion and the reduced stress solve."""

import itertools
import logging
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from viscowave.assembly import assemble_system
from viscowave.fespace import HMZ, NEDELEC, StressSpace, VelocitySpace
from viscowave import linalg, timestepper
from viscowave.linalg import (
    ConvergenceError,
    CondensedLU,
    SchurSolver,
    SingularBlockError,
    block_diag_inverse,
    build_schur,
    check_symmetry,
    nested_dissection,
)
from viscowave.cli import RunConfig
from viscowave.material import IsotropicMaterial
from viscowave.mesh import StructuredMesh
from viscowave.symmetry import TRIVIAL, D, Fold, SymmetryGroup, X, Y, fold, grid_rank

from fehelpers import (
    ONE_DIM, DIAGONAL, assemble_mass_velocity, bsr_block_diag_inverse, folded_schur, full_B,
    mirrors, outer_split, oversized, sectors, unfolded_schur, velocity_inverse,
)
from test_symmetry import ACCEPTED

TOL = 1e-12
# The groups that ``find_group`` gives examples 1, 2 and 3.
EXAMPLE_1 = SymmetryGroup((("XY", 1), ("D", 1)))
EXAMPLE_2 = SymmetryGroup((("XY", -1), ("D", 1)))
EXAMPLE_3 = SymmetryGroup((("D", 1),))


def trivial(n):
    """D4 acting trivially on n dofs: three identity maps, which split nothing."""
    return {g: (np.arange(n), np.ones(n)) for g in (X, Y, D)}


def unfolded(n):
    """The trivial fold of n dofs: each its own representative."""
    return fold({}, TRIVIAL, np.arange(n))


def split(generators, grid, fold):
    """``CondensedLU``'s blocks, as ``build_schur`` finds them for a space."""
    return linalg._blocks(generators, grid_rank(grid), fold)


def no_interior(n):
    """Layout of an unfolded n-dof matrix with no interior dofs, points
    along a line, and D4 acting trivially."""
    grid = np.column_stack([2 * np.arange(n), np.zeros(n, int)])
    return np.zeros((0, 0), dtype=int), grid, split(trivial(n), grid, unfolded(n)), unfolded(n)


def random_blocks(rng, nb, b):
    M = rng.standard_normal((nb, b, b))
    return M @ M.transpose(0, 2, 1) + b * np.eye(b)


def test_block_diag_inverse_matches_dense():
    # Of every block given, or of one tiled.
    rng = np.random.default_rng(4)
    for b in (1, 2, 4):
        blocks = random_blocks(rng, 6, b)
        for given, tiled in ((blocks, list(blocks)), (blocks[:1], [blocks[0]] * 6)):
            Cinv = block_diag_inverse(given, 6)
            want = np.linalg.inv(sp.block_diag(tiled).toarray())
            np.testing.assert_allclose(Cinv.toarray(), want, atol=1e-12)
            # inverse keeps the block sparsity
            assert Cinv.nnz <= 6 * b * b


def test_block_diag_inverse_identity():
    I = sp.identity(8, format="csr")
    assert abs(block_diag_inverse(np.eye(2)[None], 4) - I).max() == 0.0
    assert abs(linalg._diagonal_block_inverse(I, 2) - I).max() == 0.0


def test_block_diag_inverse_rejects_offblock_entries():
    # Only a general sparse input, the bubble block S_ii, is checked.
    C = sp.lil_matrix((4, 4))
    C[0, 0] = C[1, 1] = C[2, 2] = C[3, 3] = 1.0
    C[0, 3] = 0.5  # couples block 0 with block 1
    with pytest.raises(ValueError, match="outside the contiguous diagonal blocks"):
        linalg._diagonal_block_inverse(C.tocsr(), 2)


def test_block_diag_inverse_rejects_bad_block_size():
    C = sp.identity(6, format="csr")
    with pytest.raises(ValueError):
        linalg._diagonal_block_inverse(C, 4)


def test_block_diag_inverse_singular_block():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularBlockError, match="singular diagonal block"):
        block_diag_inverse(singular[None], 3)
    with pytest.raises(SingularBlockError, match="singular diagonal block"):
        linalg._diagonal_block_inverse(sp.csr_matrix(singular), 2)
    # A block with no stored entry is singular too, though nothing inverts it.
    C = sp.csr_matrix(np.diag([1.0, 1.0, 0.0, 0.0, 1.0, 1.0]))
    with pytest.raises(SingularBlockError, match="block 1 is zero"):
        linalg._diagonal_block_inverse(C, 2)


def test_uniform_blocks_inverted_once_match_the_per_block_inverse(monkeypatch):
    # Every block of the velocity mass is its element matrix on the uniform
    # mesh; the tiled inverse of that one block must be bit for bit the
    # batched inverse of every block of the assembled C.  The route of the
    # bubble block S_ii, given the assembled C, finds its blocks equal and
    # inverts one too.
    invert = np.linalg.inv
    for family, n_local in ((HMZ, 4), (NEDELEC, 2)):
        system = make_system(4, family)
        C = assemble_mass_velocity(system.velocity_space, system.material)
        bsr = sp.bsr_matrix(C, blocksize=(n_local, n_local))
        assert np.all(bsr.data == bsr.data[0])
        want = sp.bsr_matrix((np.linalg.inv(bsr.data), bsr.indices, bsr.indptr)).tocsr()
        want.eliminate_zeros()
        inverted = []

        def inv(a):
            inverted.append(len(a))
            return invert(a)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "inv", inv)
            got = [velocity_inverse(system), linalg._diagonal_block_inverse(C, n_local)]
        assert inverted == [1, 1]
        for M in got:
            assert np.array_equal(M.indptr, want.indptr)
            assert np.array_equal(M.indices, want.indices)
            assert np.array_equal(M.data, want.data)


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
def test_tiled_inverse_is_the_bsr_route_array_for_array(family):
    # The inverse is written straight into CSR arrays; they are those that
    # BSR, a conversion to CSR, dropping the zeros and a copy gave, dtypes
    # included: for the velocity mass, tiled from its element matrix, and,
    # through the route of the bubble block S_ii, for one whose blocks differ.
    system = make_system(4, family)
    C = assemble_mass_velocity(system.velocity_space, system.material)
    k = system.velocity_space.n_local
    uneven = C.copy()
    uneven.data *= 1.0 + np.random.default_rng(3).random(C.nnz)
    sparse = linalg._diagonal_block_inverse(uneven, k)
    for got, M in ((velocity_inverse(system), C), (sparse, uneven)):
        want = bsr_block_diag_inverse(M, k)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.has_sorted_indices and oversized(dict(Cinv=got)) == []


def test_repeated_singular_block_raises():
    C = sp.block_diag([np.array([[1.0, 2.0], [2.0, 4.0]])] * 5, format="csr")
    with pytest.raises(SingularBlockError, match="singular diagonal block"):
        linalg._diagonal_block_inverse(C, 2)


def test_block_diag_inverse_stores_no_zeros():
    # The hmz velocity mass has zero entries in every block, and so has its inverse.
    system = hmz_system(4)
    Cinv = velocity_inverse(system)
    C = assemble_mass_velocity(system.velocity_space, system.material)
    assert Cinv.nnz == np.count_nonzero(Cinv.toarray()) < 16 * 16
    np.testing.assert_allclose((Cinv @ C).toarray(), np.eye(64), atol=1e-14)


def hmz_system(n=2):
    mesh = StructuredMesh(n)
    ss = StressSpace(mesh, HMZ)
    vs = VelocitySpace(mesh, HMZ)
    return assemble_system(ss, vs, IsotropicMaterial())


def test_build_schur_formula():
    system = hmz_system()
    dt = 0.1
    Cinv = velocity_inverse(system)
    solver = build_schur(system, Cinv, dt, TOL)
    B = full_B(system)
    S = (1.0 / dt + 0.5) * system.A + 0.25 * dt * (B.T @ Cinv @ B)
    np.testing.assert_allclose(solver.S.toarray(), S.toarray(), atol=1e-14)


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("dt", [0.25, 1e-3])
def test_folded_schur_is_the_fold_of_the_full_schur(family, n, dt):
    # S is formed at the representatives alone; its CSR arrays, dtypes
    # included, are those of the full S folded, for every example's group.
    for group in (TRIVIAL, EXAMPLE_1, EXAMPLE_2, EXAMPLE_3):
        system = make_system(n, family, group)
        Cinv = velocity_inverse(system)
        S, want = build_schur(system, Cinv, dt, TOL).S, folded_schur(system, Cinv, dt)
        for name in ("indptr", "indices", "data"):
            got, ref = getattr(S, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), (group, name)


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_the_trivial_groups_s_is_the_unfolded_s(family, n):
    # The trivial group takes every group's path, with P the identity: its S
    # holds the unfolded mass + coupling entry for entry, though the product
    # with P may list a row's columns in another order.
    system = make_system(n, family)
    Cinv = velocity_inverse(system)
    S, want = build_schur(system, Cinv, 0.25, TOL).S, unfolded_schur(system, Cinv, 0.25)
    S, want = S.sorted_indices(), want.sorted_indices()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(S, name), getattr(want, name)), name


@pytest.mark.parametrize("group", [TRIVIAL, EXAMPLE_2])
def test_forming_s_is_logged(group, caplog):
    # One DEBUG line: the rows S was formed at, out of how many, and its entries.
    system = make_system(8, HMZ, group)
    with caplog.at_level(logging.DEBUG, logger="viscowave.linalg"):
        S = make_direct(system, 0.25).S
    m, n = len(system.stress_space.fold.reps), system.A.shape[0]
    (record,) = [r for r in caplog.records if r.getMessage().startswith("formed S")]
    assert record.levelno == logging.DEBUG and record.name == "viscowave.linalg"
    assert record.getMessage() == f"formed S at {m} of {n} rows: {S.nnz} entries"
    assert S.shape[0] == m and (m < n) == (group is not TRIVIAL)


def test_build_schur_validation():
    system = hmz_system()
    Cinv = velocity_inverse(system)
    with pytest.raises(ValueError, match="time step"):
        build_schur(system, Cinv, 0.0, TOL)
    with pytest.raises(ValueError, match="does not match"):
        build_schur(system, Cinv[:-4, :-4], 0.1, TOL)


@pytest.mark.parametrize("family, reps", [(HMZ, 0), (NEDELEC, 1)])
def test_a_stress_fold_with_no_dof_is_refused_by_name(family, reps):
    # At N = 1, D4's all-odd character fixes every hmz stress dof with the
    # sign -1, and build_schur names the group and N before it reduces
    # anything; nedelec-q1q0 keeps one stress representative and builds.
    group = SymmetryGroup((("X", -1), ("Y", -1), ("D", -1)))
    system = make_system(1, family, group)
    assert len(system.stress_space.fold.reps) == reps
    if reps:
        assert make_direct(system, 0.25).S.shape == (1, 1)
    else:
        with pytest.raises(ValueError, match=re.escape(f"fold of {group} at N = 1 has no dof")):
            make_direct(system, 0.25)


def test_solve_matches_dense():
    system = hmz_system()
    Cinv = velocity_inverse(system)
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
    Cinv = velocity_inverse(system)
    solver = build_schur(system, Cinv, 0.1, TOL)
    x = solver.solve(np.zeros(system.A.shape[0]))
    assert np.all(x == 0.0)


def test_unreachable_tolerance_raises():
    # A bound a few orders below machine precision cannot be certified.  The
    # probe of each block demands only sqrt(eps), so the factors are built,
    # and the per-step check says so.
    system = hmz_system()
    solver = build_schur(system, velocity_inverse(system), 0.1, 1e-30)
    with pytest.raises(ConvergenceError) as err:
        solver.solve(np.random.default_rng(2).standard_normal(solver.S.shape[0]))
    assert err.value.residual > 1e-30


def relative_residual(solver, rhs, x):
    """The measure a solve was accepted by before its backward error: the
    2-norm relative residual of the lifted vectors, |P r| / |P b|."""
    w, r = 1.0 / solver._lu.fold.sizes, rhs - solver.S @ x
    return np.sqrt(r @ (w * r) / (rhs @ (w * rhs)))


def folded_solve():
    """A solver of hmz example 2's folded S at N = 8, dt = 0.25, a random
    right-hand side, its x and that solve's backward error."""
    solver = make_direct(make_system(8, HMZ, EXAMPLE_2), 0.25)
    rhs = np.random.default_rng(2).standard_normal(solver.S.shape[0])
    x = solver.solve(rhs)
    return solver, rhs, x, solver.worst


def test_a_solve_whose_residual_misses_tol_is_accepted_by_its_backward_error():
    # The relative residual of a sound solve grows with N, its backward
    # error does not: here the residual is 43 times eta, and a tol between
    # the two, which the residual misses, is met, with the same x.
    solver, rhs, x, eta = folded_solve()
    res = relative_residual(solver, rhs, x)
    tol = math.sqrt(eta * res)
    assert eta < tol / 5 and res > 5 * tol
    accepting = SchurSolver(solver._lu, tol, 0.25, solver.norm)
    assert np.array_equal(accepting.solve(rhs), x) and accepting.worst == eta


def test_a_solve_above_tol_by_both_measures_is_refused():
    solver, rhs, x, eta = folded_solve()
    tol = eta / 2
    assert relative_residual(solver, rhs, x) > tol
    with pytest.raises(ConvergenceError, match=r"above tolerance \(backward error ") as err:
        SchurSolver(solver._lu, tol, 0.25, solver.norm).solve(rhs)
    assert err.value.residual == eta


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
def test_the_backward_error_is_that_of_the_lifted_vectors(family):
    # |S| is the infinity norm of the full S, read at the representatives
    # before the fold merges their columns, and eta = |r| / (|S| |x| + |b|)
    # of the lifted right-hand side, solution and residual.
    full = make_direct(make_system(8, family), 0.25).S
    for group in (TRIVIAL, EXAMPLE_1, EXAMPLE_2, EXAMPLE_3):
        system = make_system(8, family, group)
        solver, fold = make_direct(system, 0.25), system.stress_space.fold
        assert solver.norm == pytest.approx(abs(full).sum(axis=1).max(), rel=1e-14, abs=0.0)
        rhs = np.random.default_rng(1).standard_normal(solver.S.shape[0])
        x = solver.solve(rhs)
        b, r = (fold.lift(v / fold.sizes) for v in (rhs, rhs - solver.S @ x))
        eta = np.abs(r).max() / (solver.norm * np.abs(fold.lift(x)).max() + np.abs(b).max())
        assert solver.worst == pytest.approx(eta, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("k", [600, -600])
def test_solve_is_exact_under_scaling_by_a_power_of_two(k):
    # A right-hand side is solved at the scale of its largest entry, so one
    # far above 1e154 or far below 1e-154, whose squared norm overflows or
    # underflows, solves to the scaled solution bit for bit.
    system = hmz_system()
    solver = build_schur(system, velocity_inverse(system), 0.1, TOL)
    b = np.random.default_rng(9).standard_normal(solver.S.shape[0])
    x = solver.solve(b)
    assert np.array_equal(solver.solve(2.0**k * b), 2.0**k * x)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rhs_that_is_not_finite_is_refused_before_any_factor(bad):
    system = hmz_system()
    solver = build_schur(system, velocity_inverse(system), 0.1, TOL)
    b = np.random.default_rng(9).standard_normal(solver.S.shape[0])
    b[3] = bad
    with pytest.raises(ValueError, match="right-hand side of the stress solve is not finite"):
        solver.solve(b)
    assert solver._lu._lus == [None] * 6


def test_solver_constructor_validation():
    lu = CondensedLU(sp.identity(4, format="csr"), *no_interior(4))
    for tol in (0.0, 1.0, np.inf):  # a backward error bound of 1 or more certifies nothing
        with pytest.raises(ValueError, match="must lie in"):
            SchurSolver(lu, tol, 0.1, 1.0)
    # Nothing is factored before a right-hand side reaches the block.
    singular = CondensedLU(sp.diags([1.0, 0.0, 1.0]).tocsr(), *no_interior(3))
    solver = SchurSolver(singular, 1e-12, 0.1, 1.0)
    with pytest.raises(SingularBlockError, match="cannot be factored"):
        solver.solve(np.ones(3))


def test_setup_solve_rejects_matrix_singular_to_working_precision():
    # The compliance of mu = 1e-300, lam = 1 (which IsotropicMaterial
    # refuses) is exactly singular; the hmz S built from it factors with a
    # tiny pivot rather than a zero one, and only the probe of a block sees
    # it, when the first solve factors that block.
    mu, lam = 1e-300, 1.0
    c = lam / (2.0 * mu + 2.0 * lam)
    assert c == 0.5
    compliance = np.array([[1.0 - c, -c, 0.0], [-c, 1.0 - c, 0.0], [0.0, 0.0, 1.0]]) / (2.0 * mu)
    mesh = StructuredMesh(2)
    ss, vs = StressSpace(mesh, HMZ), VelocitySpace(mesh, HMZ)
    material = SimpleNamespace(compliance_matrix=lambda: compliance, rho=1.0)
    system = assemble_system(ss, vs, material)
    solver = build_schur(system, velocity_inverse(system), 0.5, TOL)
    rhs = np.random.default_rng(0).standard_normal(solver.S.shape[0])
    with pytest.raises(SingularBlockError, match="cannot be factored") as err:
        solver.solve(rhs)
    assert isinstance(err.value.__cause__, ConvergenceError)


class CountedLU:
    """A SuperLU factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, *args, **kwargs):
        self.solves += 1
        return self.lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.lu, name)


def test_setup_probe_refines_only_when_needed(monkeypatch):
    # A sound factor meets the probe's bound with its first solve; a singular
    # one is refined once more before it is refused (see the test above).
    factors = []
    factor = spla.splu

    def splu(*args, **kwargs):
        factors.append(CountedLU(factor(*args, **kwargs)))
        return factors[-1]

    monkeypatch.setattr(linalg.spla, "splu", splu)
    solver = make_direct(make_system(4, HMZ), 0.25)
    assert factors == []
    rhs = np.random.default_rng(0).standard_normal(solver.S.shape[0])
    solver.solve(rhs)
    # The probe, then the solve and its refinement.
    assert [f.solves for f in factors] == [3] * 6
    solver.solve(rhs)
    assert [f.solves for f in factors] == [5] * 6  # a later solve, twice per block


def test_schur_spd_for_nedelec_lumped():
    mesh = StructuredMesh(3)
    ss = StressSpace(mesh, NEDELEC)
    vs = VelocitySpace(mesh, NEDELEC)
    system = assemble_system(ss, vs, IsotropicMaterial())
    Cinv = velocity_inverse(system)
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
    mesh = StructuredMesh(16)
    ss = StressSpace(mesh, family)
    vs = VelocitySpace(mesh, family)
    system = assemble_system(ss, vs, IsotropicMaterial())
    Cinv = velocity_inverse(system)
    solver = build_schur(system, Cinv, dt, TOL)
    colamd = spla.splu(solver.S.tocsc(), permc_spec="COLAMD")
    reach_every_block(solver._lu)
    assert solver._lu.L.nnz + solver._lu.U.nnz < colamd.L.nnz + colamd.U.nnz
    rhs = np.cos(np.arange(solver.S.shape[0], dtype=float))
    x = solver.solve(rhs)
    assert np.linalg.norm(rhs - solver.S @ x) <= TOL * np.linalg.norm(rhs)


def make_system(n, family, group=TRIVIAL):
    mesh = StructuredMesh(n)
    ss = StressSpace(mesh, family, group)
    vs = VelocitySpace(mesh, family, group)
    return assemble_system(ss, vs, IsotropicMaterial())


def make_direct(system, dt):
    Cinv = velocity_inverse(system)
    return build_schur(system, Cinv, dt, TOL)


def reach_every_block(lu):
    """Factor every block of ``lu``: a random right-hand side reaches them all."""
    lu.solve(np.random.default_rng(0).standard_normal(lu.outer.size + lu.inner.size))
    return lu


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [6, 8], ids=["6-6", "8-8"])
@pytest.mark.parametrize("dt", [1.0 / 200, 0.25])
def test_condensed_solve_matches_dense(family, n, dt):
    solver = make_direct(make_system(n, family), dt)
    n_inner = (n * n * 2) if family == HMZ else 0
    assert solver._lu.inner.size == n_inner
    rhs = np.random.default_rng(2 * n).standard_normal(solver.S.shape[0])
    want = np.linalg.solve(solver.S.toarray(), rhs)
    x = solver._lu.solve(rhs)  # one condensed solve, no refinement
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
def test_kept_matrices_own_buffers_sized_to_their_entries(family):
    # scipy leaves a sum in buffers sized for both terms, and a matrix whose
    # zeros it dropped in the buffer it had before, whenever more than half
    # is used; every matrix the solver keeps is trimmed to its entries.  Of
    # the coupling of the interior dofs it keeps W alone, not S_oi; W^T and
    # Q^T are views of W's and Q's arrays, not copies (nedelec-q1q0's W has
    # no entries, and an empty array shares no memory).
    system = make_system(8, family)
    Cinv = velocity_inverse(system)
    solver = build_schur(system, Cinv, 0.25, TOL)
    kept = {
        name: M
        for holder in (solver, solver._lu)
        for name, M in vars(holder).items()
        if sp.issparse(M)
    }
    assert sorted(kept) == ["S", "_Q", "_Qt", "_Sii_inv", "_W", "_Wt"]
    assert solver._lu.S is solver.S
    for name in ("_Q", "_W"):
        M, Mt = kept[name], kept[name + "t"]
        assert Mt.shape == M.shape[::-1]
        for part in ("data", "indices", "indptr"):
            view, own = getattr(Mt, part), getattr(M, part)
            assert np.shares_memory(view, own) or view.size == own.size == 0
    assert oversized(kept | dict(Cinv=Cinv)) == []


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_condensed_fill_at_most_minimum_degree(family, n):
    # The reference: minimum degree on the full S + S^T with diagonal pivots.
    solver = make_direct(make_system(n, family), 0.25)
    mmd = spla.splu(
        solver.S.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    reach_every_block(solver._lu)
    assert solver._lu.L.nnz + solver._lu.U.nnz <= mmd.L.nnz + mmd.U.nnz


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
def test_nested_dissection_order(family):
    ss = StressSpace(StructuredMesh(8), family)
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
    S_c = condensed_matrix(make_direct(make_system(8, family), dt))
    assert spla.norm(S_c - S_c.T) <= 1e-14 * spla.norm(S_c)


def test_wrongly_numbered_bubbles_raise():
    system = make_system(4, HMZ)
    ss = system.stress_space
    solver = make_direct(system, 0.25)
    S = solver.S
    # the global order lists all t11 bubbles, then all t22 bubbles
    by_component = np.sort(ss.interior, axis=None).reshape(-1, 2)
    with pytest.raises(ValueError, match="outside the contiguous diagonal blocks"):
        CondensedLU(S, by_component, ss.grid, split(ss.generators, ss.grid, ss.fold), ss.fold)
    by_element = ss.interior
    shifted = np.column_stack([by_element[:, 0], np.roll(by_element[:, 1], 1)])
    with pytest.raises(ValueError, match="outside the contiguous diagonal blocks"):
        CondensedLU(S, shifted, ss.grid, split(ss.generators, ss.grid, ss.fold), ss.fold)
    assert np.array_equal(solver._lu.inner, by_element.ravel())


def test_stress_mass_lost_in_rounding_refused_before_factoring(monkeypatch):
    # At dt = 5e-301 the largest diagonal of (1/dt + 1/2) A over that of
    # (dt/4) B^T Cinv B overflows; a set-up that passes the check forms no
    # ratio, so it warns of nothing.  A stiff material is refused with the
    # ratio before any factorization.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solver = make_direct(make_system(2, NEDELEC), 5e-301)
        rhs = np.ones(solver.S.shape[0])
        assert np.linalg.norm(rhs - solver.S @ solver.solve(rhs)) <= TOL * np.linalg.norm(rhs)
        mesh = StructuredMesh(2)
        stiff = assemble_system(
            StressSpace(mesh, NEDELEC), VelocitySpace(mesh, NEDELEC), IsotropicMaterial(mu=1e200)
        )

        def refuse(*args):
            raise AssertionError("factored a matrix that the checks refuse")

        monkeypatch.setattr(linalg, "CondensedLU", refuse)
        with pytest.raises(SingularBlockError, match="is 2.5e-200 times that of"):
            make_direct(stiff, 0.5)


def on_outer(perms, outer):
    """Signed permutations of all dofs as signed permutations of the outer dofs."""
    at = np.full(max(len(p) for p, _ in perms.values()), -1)
    at[outer] = np.arange(outer.size)
    return {g: (at[p[outer]], s[outer]) for g, (p, s) in perms.items()}


def condensed(lu, x):
    """x[outer] - S_oi S_ii^-1 x[inner], with S_oi read from the rows of S: the
    condensed right-hand side of a vector x, and for x = S[:, cols], cols
    some outer dofs, the columns of S_c at them."""
    return x[lu.outer] - lu.S[lu.outer][:, lu.inner] @ (lu._Sii_inv @ x[lu.inner])


def condensed_matrix(solver):
    """S_c = S_oo - S_oi S_ii^-1 S_io."""
    return condensed(solver._lu, solver.S[:, solver._lu.outer]).tocsr()


def fill(lu):
    return lu.L.nnz + lu.U.nnz


def factored(lu):
    """The numbers, from 1, of the blocks factored so far."""
    return [k + 1 for k, f in enumerate(lu._lus) if f is not None]


def confined(lu, k, rng):
    """A random right-hand side whose condensed part lies in block k alone."""
    g = np.zeros(lu.outer.size)
    part = lu._parts[k]
    g[part] = rng.standard_normal(part.stop - part.start)
    b = np.zeros(lu.outer.size + lu.inner.size)
    b[lu.outer] = lu._Q @ g
    return b


def block_norms(lu, b):
    """The norm of each block's part of the condensed right-hand side of b:
    of its projection Q_k diag(1 / |orbit|) Q_k^T b_c on the span of the
    block's basis Q_k."""
    b_c = condensed(lu, b)
    return np.array([
        np.linalg.norm(lu._Q[:, part] @ (lu._inv_size[part] * (lu._Q[:, part].T @ b_c)))
        for part in lu._parts
    ])


def run_solver(monkeypatch, **config):
    """The ``SchurSolver`` of one run of ``RunConfig(**config)``, after the run."""
    solvers = []
    build = timestepper.build_schur

    def kept(*args):
        solvers.append(build(*args))
        return solvers[-1]

    monkeypatch.setattr(timestepper, "build_schur", kept)
    timestepper.run(RunConfig(**config))
    (solver,) = solvers
    return solver


@pytest.mark.parametrize(
    "family, example, blocks", [(HMZ, 2, [1]), (NEDELEC, 2, [1]), (HMZ, 1, [1, 2])]
)
def test_a_run_factors_only_the_blocks_its_data_reaches(family, example, blocks, monkeypatch):
    # S is folded to the data's group, which holds the blocks the data
    # reaches and no other: E's half even under the diagonal for example 2,
    # blocks 1 and 3 of D4 for example 1.
    solver = run_solver(monkeypatch, element=family, example=example, nx=8, n_steps=4)
    assert factored(solver._lu) == blocks == list(range(1, len(solver._lu._lus) + 1))


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
def test_a_long_run_at_a_large_step_factors_one_block(family, monkeypatch):
    # Rounding that leaked into the blocks that example 2 does not reach
    # once crossed a floor after about 20 steps at N = 64 and dt = 0.25, and
    # then every block was factored.  Folded, those blocks are not
    # represented, so the leak has nowhere to go.
    config = dict(element=family, example=2, nx=64, n_steps=40, t_final=10.0)
    solver = run_solver(monkeypatch, **config)
    assert solver.dt == 0.25 and factored(solver._lu) == [1]


def test_a_tolerance_below_rounding_factors_one_block(monkeypatch):
    # A floor of tol / 10 at tol = 1e-14 lay below the rounding in the
    # blocks that example 2 does not reach, and every block was factored.
    config = dict(element=HMZ, example=2, nx=32, dt=0.25, solver_tol=1e-14)
    solver = run_solver(monkeypatch, **config)
    assert factored(solver._lu) == [1]


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
def test_refinement_factors_no_block_the_right_hand_side_did_not_reach(family, monkeypatch):
    # A right-hand side of example 2's symmetry lies in E's half even under
    # the diagonal.  Unfolded, the refinement's residual holds far more than
    # tol / 10 of its norm in blocks 1-4, so a floor set from it would factor
    # them all.  Folded, S holds that half alone: one block, one column.
    full = make_direct(make_system(16, family), 0.25)
    solver = make_direct(make_system(16, family, EXAMPLE_2), 0.25)
    fold = solver._lu.fold
    x = fold.lift(np.random.default_rng(3).standard_normal(len(fold.reps)))
    rhs = full.S @ x
    calls = []
    solve = CondensedLU.solve

    def spy(self, b):
        calls.append(b.copy())
        return solve(self, b)

    monkeypatch.setattr(CondensedLU, "solve", spy)
    full.solve(rhs)
    _, r = calls
    assert np.all(block_norms(full._lu, r)[:4] > 0.1 * TOL * np.linalg.norm(r))
    a = solver.solve(fold.P().T @ rhs)
    assert factored(solver._lu) == [1] and solver._lu._parts[0].stop == len(solver._lu._reps[0])
    assert np.linalg.norm(fold.lift(a) - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
def test_a_block_is_factored_by_the_first_solve_that_reaches_it(family):
    # With no floor, the first solve reaches every block and factors it.
    solver = make_direct(make_system(8, family), 0.25)
    lu = solver._lu
    assert factored(lu) == [] and lu.L.shape == lu.U.shape == (0, 0)
    rng = np.random.default_rng(5)
    for k in (4, 1):
        rhs = confined(lu, k, rng)
        x = solver.solve(rhs)
        assert factored(lu) == [1, 2, 3, 4, 5, 6]
        assert np.linalg.norm(rhs - solver.S @ x) <= TOL * np.linalg.norm(rhs)


# Every distinct group that ``SymmetryGroup`` accepts, the trivial one first.
GROUPS = list({frozenset(g.members()): g for g in reversed(ACCEPTED)}.values())[::-1]


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_a_folded_solve_is_the_full_solve_of_the_lifted_vectors(family, n):
    # For every group that ``SymmetryGroup`` accepts: the blocks held give a
    # square basis of the fold's outer dofs, and the folded solve of P^T S
    # x, lifted, is x.  A fold with no dof, as D4's all-odd character has at
    # N = 1, is refused by build_schur, and skipped.
    S = make_direct(make_system(n, family), 0.25).S
    for group in GROUPS:
        system = make_system(n, family, group)
        if not len(system.stress_space.fold.reps):
            continue
        solver = make_direct(system, 0.25)
        lu, fold = solver._lu, solver._lu.fold
        assert lu._Q.shape == (lu.outer.size,) * 2 == (lu._parts[-1].stop,) * 2
        assert np.linalg.matrix_rank(lu._Q.toarray()) == lu.outer.size
        x = fold.lift(np.random.default_rng(n).standard_normal(len(fold.reps)))
        a = solver.solve(fold.P().T @ (S @ x))
        assert np.linalg.norm(fold.lift(a) - x) <= 1e-12 * np.linalg.norm(x), group


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize(
    "group, held", [(EXAMPLE_1, [0, 2]), (EXAMPLE_2, [4]), (EXAMPLE_3, [0, 2, 4])]
)
def test_each_examples_fold_holds_its_blocks(family, group, held, caplog):
    # Example 1 holds blocks 1 and 3 of D4, example 2 E's half even under
    # the diagonal and example 3 all three; each held block has the names
    # of the full split's, and E's half is solved with one column.  The
    # split is logged once, at DEBUG level.
    full = make_direct(make_system(8, family), 0.25)._lu
    with caplog.at_level(logging.DEBUG, logger="viscowave.linalg"):
        lu = make_direct(make_system(8, family, group), 0.25)._lu
    assert [len(rep) for rep in lu._reps] == [len(full._reps[k]) for k in held]
    assert [part.stop - part.start for part in lu._parts] == [len(rep) for rep in lu._reps]
    sizes = [len(rep) for rep in lu._reps]
    assert caplog.messages[0].startswith(f"formed S at {lu.S.shape[0]} of ")
    assert caplog.messages[1:] == [f"split S ({lu.S.shape[0]} rows) into blocks of {sizes} rows"]


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("dt", [1.0 / 200, 0.25])
def test_w_transposed_is_the_coupling_through_the_interior_inverse(n, dt):
    # S_ii is symmetric, so W^T b_i = S_oi S_ii^-1 b_i, and the solve condenses
    # with the kept W.  With zero outer dofs, condensed(lu, b) is -S_oi S_ii^-1 b_i.
    lu = make_direct(make_system(n, HMZ), dt)._lu
    b = np.zeros(lu.outer.size + lu.inner.size)
    b[lu.inner] = np.random.default_rng(n).standard_normal(lu.inner.size)
    want = -condensed(lu, b)
    assert np.linalg.norm(lu._W.T @ b[lu.inner] - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [3, 8])
def test_squared_block_parts_sum_to_the_squared_condensed_rhs(family, n):
    # Q^T Q = diag(|orbit|), so Q diag(1 / |orbit|) Q^T is the identity and
    # the blocks' parts of b_o, h . g with h = Q^T b_o and g = h / |orbit|,
    # add up to |b_o|^2.
    lu = make_direct(make_system(n, family), 0.25)._lu
    Q = lu._Q.toarray()
    np.testing.assert_allclose(Q.T @ Q, np.diag(1.0 / lu._inv_size), rtol=0, atol=0)
    b_o = np.random.default_rng(n).standard_normal(lu.outer.size)
    h = lu._Q.T @ b_o
    g = h * lu._inv_size
    parts = [h[part] @ g[part] for part in lu._parts]
    assert math.isclose(sum(parts), b_o @ b_o, rel_tol=1e-14)


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("dt", [1.0 / 200, 0.25])
def test_block_rows_are_the_rows_of_the_condensed_matrix(family, dt):
    solver = make_direct(make_system(8, family), dt)
    S_c = condensed_matrix(solver)
    for rep in solver._lu._reps:
        rows, want = solver._lu._rows(rep), S_c[rep]
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(rows, name), getattr(want, name))


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [3, 8])
def test_each_block_is_its_rows_of_the_condensed_matrix_times_its_basis(family, n, monkeypatch):
    # A block is one sparse product, S_c[named] Q, with sorted indices and
    # no explicit zero; splu sums nothing in it, so its arrays come back as
    # they were, and the probe checks that same matrix.
    solver = make_direct(make_system(n, family), 0.25)
    lu = solver._lu
    S_c = condensed_matrix(solver).toarray()
    seen = []
    splu, probe = linalg.spla.splu, linalg._probe

    def spy_splu(A, **kwargs):
        kept = [getattr(A, name).copy() for name in ("data", "indices", "indptr")]
        seen.append((A, kept))
        return splu(A, **kwargs)

    def spy_probe(factor, block):
        A = seen[-1][0]
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(block, name), getattr(A, name))
        probe(factor, block)

    monkeypatch.setattr(linalg.spla, "splu", spy_splu)
    monkeypatch.setattr(linalg, "_probe", spy_probe)
    reach_every_block(lu)
    assert len(seen) == len(lu._lus) == 6
    for (A, kept), rep, part in zip(seen, lu._reps, lu._parts):
        for name, before in zip(("data", "indices", "indptr"), kept):
            assert np.array_equal(getattr(A, name), before)
        assert A.has_sorted_indices and np.all(A.data != 0.0)
        want = S_c[rep] @ lu._Q[:, part].toarray()
        # A holds the block's CSR arrays read as CSC: its transpose.
        np.testing.assert_allclose(A.T.toarray(), want, rtol=0, atol=1e-14 * abs(S_c).max())


def test_each_block_factored_is_logged(caplog):
    lu = make_direct(make_system(8, HMZ), 0.25)._lu
    with caplog.at_level(logging.DEBUG, logger="viscowave.linalg"):
        reach_every_block(lu)
        reach_every_block(lu)  # factors nothing more
    assert len(caplog.records) == 6
    for k, (record, f) in enumerate(zip(caplog.records, lu._lus)):
        head = f"factored block {k + 1} of 6: {f.shape[0]} rows, SuperLU stores {f.nnz} entries, "
        assert record.levelno == logging.DEBUG
        assert record.getMessage().startswith(head) and record.getMessage().endswith(" s")


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("dt", [1.0 / 200, 0.25])
def test_mirrors_commute_with_condensed_matrix(family, n, dt):
    # The split is exact only if S_c commutes with each reflection: P S_c P^T
    # = S_c with P[i, p(i)] = s_i, to rounding.  On the N x N mesh the
    # diagonal is one too.
    system = make_system(n, family)
    solver = make_direct(system, dt)
    S_c = condensed_matrix(solver)
    generators = system.stress_space.generators
    assert list(generators) == ["x -> 1 - x", "y -> 1 - y", DIAGONAL]
    for p, s in on_outer(generators, solver._lu.outer).values():
        assert np.all(p >= 0)  # interior dofs stay interior
        moved = sp.diags(s) @ S_c[p][:, p] @ sp.diags(s)
        assert abs(moved - S_c).max() <= 64 * np.finfo(float).eps * abs(S_c).max()


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("dt", [1.0 / 200, 0.25])
def test_sector_solve_matches_splu_of_condensed_matrix(family, n, dt):
    # With no interior dofs the condensed LU of S_c is the sector solve alone:
    # gather with Q^T, a solve per block, scatter with Q.  D4 leaves four
    # eighths and E's two mirror sectors, a quarter each.
    system = make_system(n, family)
    solver = make_direct(system, dt)
    S_c = condensed_matrix(solver)
    outer = solver._lu.outer
    ref = spla.splu(S_c.tocsc())
    rhs = np.random.default_rng(n).standard_normal((3, S_c.shape[0]))
    grid, whole = system.stress_space.grid[outer], unfolded(S_c.shape[0])
    blocks = split(on_outer(system.stress_space.generators, outer), grid, whole)
    lu = CondensedLU(S_c, np.zeros((0, 0), dtype=int), grid, blocks, whole)
    reach_every_block(lu)
    sizes = [f.shape[0] for f in lu._lus]
    assert len(sizes) == 6
    for b in rhs:
        want = ref.solve(b)
        assert np.linalg.norm(lu.solve(b) - want) <= 1e-12 * np.linalg.norm(want)
    assert sum(sizes) == S_c.shape[0] and sizes[4] == sizes[5]


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("dt", [1.0 / 200, 0.25])
def test_no_mirrors_is_one_sector_in_the_unsplit_order(family, dt):
    # With D4 acting trivially the one sector is S_c in nested-dissection
    # order of all outer dofs, factored with diagonal pivots: Q is the
    # identity with its columns in that order.  The solver reads the CSR
    # arrays of S_c as CSC, so it factors S_c^T; SuperLU keeps one or two
    # entries fewer or more for S_c itself.
    system = make_system(8, family)
    ss = system.stress_space
    S = make_direct(system, dt).S
    whole = unfolded(S.shape[0])
    lu = CondensedLU(S, ss.interior, ss.grid, split(trivial(S.shape[0]), ss.grid, whole), whole)
    reach_every_block(lu)
    assert len(lu._lus) == 1
    assert abs(lu._Q[lu._reps[0]] - sp.identity(lu.outer.size)).max() == 0
    assert np.array_equal(lu._reps[0], nested_dissection(ss.grid[lu.outer]))
    S_c = condensed(lu, S[:, lu.outer[lu._reps[0]]])[lu._reps[0]]
    ref = linalg._superlu(S_c.T.tocsc())
    assert fill(lu) == ref.L.nnz + ref.U.nnz


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [8, 16])
def test_mirror_split_lowers_the_fill(family, n):
    # The six blocks of D4 fill less than S_c in one piece, D4 acting trivially.
    system = make_system(n, family)
    ss = system.stress_space
    solver = make_direct(system, 0.25)
    n_dofs = solver.S.shape[0]
    one = unfolded(n_dofs)
    whole = CondensedLU(solver.S, ss.interior, ss.grid, split(trivial(n_dofs), ss.grid, one), one)
    reach_every_block(solver._lu)
    assert len(solver._lu._lus) == 6
    assert fill(solver._lu) < fill(reach_every_block(whole))


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
def test_diagonal_halves_are_named_in_the_triangle(family):
    # A dof and its transpose are one vector; naming it after the dof with
    # gx <= gy keeps each eighth-size block in one triangle of the quarter.
    n = 8
    space = StressSpace(StructuredMesh(n), family)
    blocks = linalg._blocks(space.generators, space.rank, space.fold)
    assert all(isinstance(f, Fold) for f in blocks) and len(blocks) == 6
    for f in blocks[:4]:
        gx, gy = space.grid[f.reps].T
        assert np.all(gx <= gy) and np.all(gy <= n)


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_each_block_is_the_fold_of_the_reference_sectors(family, n):
    # For every group the blocks, each a fold of a subgroup of D4, have the
    # reference's names, columns and coefficients, dtypes included: a dof
    # that no vector holds has the column -1 there and the sign 0 here.  The
    # blocks fold every dof of the space, named by its rank; the reference
    # leaves out the empty ones, which ``CondensedLU`` drops.
    space = StressSpace(StructuredMesh(n), family)
    generators, rank = space.generators, space.rank
    for group in GROUPS:
        want = sectors(tuple(generators.values()), rank, group)
        run_fold = fold(generators, group, rank)
        got = [f for f in linalg._blocks(generators, rank, run_fold) if len(f.reps)]
        assert len(got) == len(want), group
        for (rep, (col, coef)), f in zip(want, got, strict=True):
            pairs = [(rep, f.reps), (col, np.where(f.sign != 0, f.index, -1)), (coef, f.sign)]
            for a, b in pairs:
                assert a.dtype == b.dtype and np.array_equal(a, b), group


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_split_on_the_spaces_dofs_is_the_split_on_the_outer_dofs(family, n):
    # For every group that ``SymmetryGroup`` accepts, stacks of 1 to 6 blocks
    # and the mirror groups among them: the blocks folded on every dof of the
    # space and kept at the outer representatives are, array for array and
    # dtype for dtype, those found on the outer dofs numbered a second time.
    # At N = 1 a block may have interior representatives alone, and is
    # dropped; a fold with no dof is refused by build_schur, and skipped.
    for group in GROUPS:
        system = make_system(n, family, group)
        ss = system.stress_space
        if not len(ss.fold.reps):
            continue
        lu = make_direct(system, 0.25)._lu
        Q, reps, parts, inv_size = outer_split(lu, ss.interior, ss.grid, ss.generators)
        pairs = [(getattr(lu._Q, name), getattr(Q, name)) for name in ("data", "indices", "indptr")]
        pairs += list(zip(lu._reps, reps, strict=True)) + [(lu._inv_size, inv_size)]
        for a, b in pairs:
            assert a.dtype == b.dtype and np.array_equal(a, b), group
        assert lu._parts == parts, group


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
def test_split_holds_whatever_the_signs_of_the_dofs(family):
    # Flipping the sign of random dofs, F S_c F, gives the reflections signs
    # F_i s_i F_p(i), the diagonal's included; the split must follow them.
    system = make_system(6, family)
    solver = make_direct(system, 0.25)
    outer = solver._lu.outer
    F = np.random.default_rng(7).choice([-1.0, 1.0], size=outer.size)
    S_c = (sp.diags(F) @ condensed_matrix(solver) @ sp.diags(F)).tocsr()
    ss = system.stress_space
    generators = {g: (p, F * s * F[p]) for g, (p, s) in on_outer(ss.generators, outer).items()}
    whole = unfolded(outer.size)
    lu = CondensedLU(
        S_c, np.zeros((0, 0), dtype=int), ss.grid[outer],
        split(generators, ss.grid[outer], whole), whole,
    )
    assert len(lu._lus) == 6
    b = np.random.default_rng(8).standard_normal(S_c.shape[0])
    want = spla.splu(S_c.tocsc()).solve(b)
    assert np.linalg.norm(lu.solve(b) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_each_block_spans_its_representation_of_d4(family, n):
    # Each one-dimensional block's columns of Q satisfy X Q = m Q, Y Q = m Q
    # and D Q = d Q for one row (m, d) of the character table, the blocks in
    # the table's order; a tiny mesh may lack a block.  E's first sector is
    # even under X and odd under Y, its second the reverse, and D maps the
    # span of the first onto that of the second.
    system = make_system(n, family)
    lu = make_direct(system, 0.25)._lu
    X, Y, D = (
        sp.csr_matrix((s, (np.arange(p.size), p)))
        for p, s in on_outer(system.stress_space.generators, lu.outer).values()
    )

    def same(M, N):
        return abs(M - N).max() == 0

    *one_dim, first, second = [lu._Q[:, part] for part in lu._parts]
    rows = []
    for Q in one_dim:
        rows += [
            k for k, (m, d) in enumerate(ONE_DIM)
            if same(X @ Q, m * Q) and same(Y @ Q, m * Q) and same(D @ Q, d * Q)
        ]
    assert len(rows) == len(one_dim) and rows == sorted(set(rows))
    assert same(X @ first, first) and same(Y @ first, -first)
    assert same(X @ second, -second) and same(Y @ second, second)
    rank = np.linalg.matrix_rank
    image, second = (D @ first).toarray(), second.toarray()
    assert rank(image) == rank(second) == rank(np.hstack([image, second])) == first.shape[1]


def anisotropic(scale=1.0 + 1e-6):
    """The unit material with its compliance's t11 entry scaled: the mirrors
    still hold, the diagonal, which swaps t11 and t22, does not."""
    compliance = IsotropicMaterial().compliance_matrix()
    compliance[0, 0] *= scale
    return SimpleNamespace(compliance_matrix=lambda: compliance, rho=1.0)


def skewed_divergence(space, scale=1.0 + 1e-6):
    """Scale the divergence of the space's first local function: the coupling
    then takes it from a function its mirror image under X does not match."""
    divergence = space.local_divergence

    def skewed(xi, eta):
        out = divergence(xi, eta)
        out[..., 0, :] *= scale
        return out

    space.local_divergence = skewed


def refuse_factoring(monkeypatch):
    def refuse(*args):
        raise AssertionError("factored a matrix that the check refuses")

    monkeypatch.setattr(linalg, "CondensedLU", refuse)


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
def test_broken_symmetry_is_named_before_factoring(family, monkeypatch):
    # A compliance that is not isotropic: the full-size A, and so S, keep the
    # mirrors and break the diagonal, and the element matrix is refused by name.
    mesh = StructuredMesh(8)
    ss, vs = StressSpace(mesh, family), VelocitySpace(mesh, family)
    broken = assemble_system(ss, vs, anisotropic())
    Cinv = velocity_inverse(broken)
    B = full_B(broken)
    S = sp.csr_matrix(4.5 * broken.A + 0.0625 * (B.T @ Cinv @ B))
    two = dict(zip(["x -> 1 - x", "y -> 1 - y"], mirrors(ss)))
    check_symmetry(S, two, two, "S")
    with pytest.raises(ValueError, match=r"reflection \(x, y\) -> \(y, x\)"):
        check_symmetry(S, ss.generators, ss.generators, "S")
    refuse_factoring(monkeypatch)
    with pytest.raises(ValueError, match=r"^A does not commute with the reflection \(x, y\)"):
        make_direct(broken, 0.25)


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
def test_a_coupling_that_breaks_symmetry_is_named_before_factoring(family, monkeypatch):
    # One local function's divergence scaled: its images under X no longer
    # meet in an equal entry of B's element matrix, so B does not commute with X.
    system = make_system(8, family)
    skewed_divergence(system.stress_space)
    refuse_factoring(monkeypatch)
    with pytest.raises(ValueError, match=r"^B does not commute with the reflection x -> 1 - x"):
        make_direct(system, 0.25)


def verdict(check, system):
    """What ``check`` says of A and B: None, or its refusal up to the gap."""
    try:
        check(system)
    except ValueError as err:
        return str(err).split(" (gap")[0]
    return None


def element_check(system):
    """``build_schur``'s check of A and B: their element matrices against
    each space's ``local_generators``, from which its generators are built."""
    ss, vs = system.stress_space, system.velocity_space
    ls, lv = ss.local_generators, vs.local_generators
    A, B, _ = system.elements
    check_symmetry(A, ls, ls, "A")
    check_symmetry(B, lv, ls, "B")


def full_check(system):
    """The oracle: the full-size A and B against the reflections of every dof."""
    gs, gv = system.stress_space.generators, system.velocity_space.generators
    check_symmetry(system.A, gs, gs, "A")
    check_symmetry(full_B(system), gv, gs, "B")


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_the_element_check_agrees_with_the_full_size_check(family, n):
    # On unbroken systems of two materials both pass; on every planted break
    # both refuse, naming the same matrix and reflection.
    mesh = StructuredMesh(n)
    for material, skew, refused in [
        (IsotropicMaterial(), False, None),
        (IsotropicMaterial(rho=2.0, mu=3.0, lam=5.0), False, None),
        (anisotropic(), False, "A does not commute with the reflection (x, y) -> (y, x)"),
        (IsotropicMaterial(), True, "B does not commute with the reflection x -> 1 - x"),
    ]:
        ss, vs = StressSpace(mesh, family), VelocitySpace(mesh, family)
        if skew:
            skewed_divergence(ss)
        system = assemble_system(ss, vs, material)
        assert verdict(element_check, system) == verdict(full_check, system) == refused


@pytest.mark.parametrize("family", [HMZ, NEDELEC])
def test_a_velocity_inverse_that_breaks_symmetry_is_named_before_factoring(family, monkeypatch):
    # A, B and C keep their symmetry; the Cinv given to ``build_schur``
    # scales one element's block, which its images under X do not share.
    system = make_system(8, family)
    k = system.velocity_space.n_local
    Cinv = velocity_inverse(system)
    Cinv = sp.csr_matrix(sp.diags(np.r_[np.full(k, 1.0 + 1e-6), np.ones(Cinv.shape[0] - k)]) @ Cinv)
    refuse_factoring(monkeypatch)
    with pytest.raises(ValueError, match=r"^Cinv does not commute with the reflection x -> 1 - x"):
        build_schur(system, Cinv, 0.25, TOL)
