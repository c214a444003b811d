"""Implicit midpoint update: step algebra, energy bookkeeping, full runs."""

import dataclasses
import logging
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse._compressed import _cs_matrix

from viscowave import analysis, fespace, symmetry, timestepper
from viscowave.analysis import energy
from viscowave import assembly
from viscowave.assembly import assemble_load, assemble_system
from viscowave.cli import RunConfig
from viscowave.fespace import FAMILIES, HMZ, NEDELEC, QuadKernel, StressSpace, VelocitySpace
from viscowave.linalg import (
    CondensedLU, ConvergenceError, SingularBlockError, build_schur,
)
from viscowave.material import IsotropicMaterial
from viscowave.mesh import StructuredMesh
from viscowave.mms import exact_fields
from viscowave.symmetry import TRIVIAL, SymmetryGroup, find_group
from viscowave.timestepper import (
    CNStepper,
    SimState,
    init_state,
    run,
)

from fehelpers import (
    assemble_mass_velocity, bsr_block_diag_inverse, energy_residuals, full_B, oversized,
    velocity_inverse, vertex_coords,
)

UNIT = IsotropicMaterial()


def make_system(n, family):
    mesh = StructuredMesh(n)
    return assemble_system(StressSpace(mesh, family), VelocitySpace(mesh, family), UNIT)


def make_solver(system, dt):
    return build_schur(system, velocity_inverse(system), dt, 1e-12)


def make_stepper(system, dt):
    return CNStepper(system, make_solver(system, dt))


def step(stepper, state, f, t, dt):
    """One Crank-Nicolson step from ``state`` at time ``t`` with body force ``f``."""
    return stepper.advance(state, stepper.midpoint_load(f, t, dt), dt)


def unforced_step(stepper, state, dt):
    """One Crank-Nicolson step from ``state`` with a zero load."""
    return stepper.advance(state, np.zeros(state.beta.size), dt)


# ------------------------------------------------------------------ plumbing


def test_init_state_interpolates_data():
    mesh = StructuredMesh(2)
    ss = StressSpace(mesh, NEDELEC)
    vs = VelocitySpace(mesh, NEDELEC)
    state = init_state(
        ss,
        vs,
        sigma0=lambda x, y: np.broadcast_to([1.0, 2.0, 0.0], np.shape(x) + (3,)),
        v0=lambda x, y: np.broadcast_to([0.5, -0.5], np.shape(x) + (2,)),
    )
    nv = len(vertex_coords(mesh))
    np.testing.assert_allclose(state.alpha[:nv], 1.0)
    np.testing.assert_allclose(state.alpha[nv : 2 * nv], 2.0)
    np.testing.assert_allclose(state.beta[0::2], 0.5)
    np.testing.assert_allclose(state.beta[1::2], -0.5)


def test_state_copy_is_deep():
    state = SimState(alpha=np.zeros(3), beta=np.zeros(2))
    other = state.copy()
    other.alpha[0] = 1.0
    assert state.alpha[0] == 0.0


# ------------------------------------------------------- carried products


def forced_states(family, steps):
    """A stepper of an N = 4 system with a fixed random load, and the states
    of ``steps`` steps from a hand-built random one."""
    system = make_system(4, family)
    stepper = make_stepper(system, 0.25)
    rng = np.random.default_rng(11)
    load = rng.standard_normal(system.velocity_space.dim)
    states = [SimState(rng.standard_normal(system.A.shape[0]), rng.standard_normal(load.size))]
    for _ in range(steps):
        states.append(stepper.advance(states[-1], load, 0.25))
    return stepper, load, states


@pytest.mark.parametrize("family", FAMILIES)
def test_a_stepped_state_carries_its_products(family):
    stepper, _, states = forced_states(family, 2)
    system = stepper.system
    assert states[0].carried(system) is None
    # The spaces' group is trivial, so the folded vectors are the full ones,
    # and the stepper's folded A and B hold the full matrices' entries.
    assert np.array_equal(stepper.A.toarray(), system.A.toarray())
    assert np.array_equal(stepper.B.toarray(), full_B(system).toarray())
    for state in states[1:]:
        a, b = state.alpha, state.beta
        a_f, b_f, Aa_f, CBa = state.carried(system)
        assert state.products[0] is system and len(state.products) == 5
        assert np.array_equal(Aa_f, stepper.A @ a_f)
        assert np.array_equal(a_f, a) and np.array_equal(b_f, b)
        assert np.array_equal(CBa, stepper.Cinv @ (stepper.B @ a_f))
        assert energy(system, state) == float(a @ (stepper.A @ a) + system.velocity_energy(b))
        assert state.copy().products is None


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("example", [1, 2, 3])
def test_the_energy_read_from_the_folds_is_that_of_the_state(family, example):
    # With the data's group a stepped state's alpha^T A alpha is the sum of
    # Lambda a (A_f a) over its representatives; the same alpha and beta
    # without their folds have it summed element by element.
    solution = exact_fields(example, UNIT)
    group = find_group((solution.sigma, solution.v, solution.f))
    mesh = StructuredMesh(8)
    ss, vs = StressSpace(mesh, family, group), VelocitySpace(mesh, family, group)
    system = assemble_system(ss, vs, UNIT)
    assert len(ss.fold.reps) < len(ss.fold.index)
    stepper = make_stepper(system, 0.25)
    state = init_state(
        ss, vs, lambda x, y: solution.sigma(x, y, 0.0), lambda x, y: solution.v(x, y, 0.0)
    )
    for n in range(2):
        state = step(stepper, state, solution.f, 0.25 * n, 0.25)
        assert state.carried(system) is not None
        bare = energy(system, SimState(state.alpha, state.beta))
        assert energy(system, state) == pytest.approx(bare, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_hand_built_state_steps_as_the_carried_one(family):
    stepper, load, states = forced_states(family, 3)
    for state in states[1:-1]:
        bare = stepper.advance(SimState(state.alpha, state.beta), load, 0.25)
        carried = stepper.advance(state, load, 0.25)
        assert np.array_equal(bare.alpha, carried.alpha)
        assert np.array_equal(bare.beta, carried.beta)


def test_another_systems_state_is_multiplied_out():
    # The other system has another material on the same mesh: the same
    # shapes, other A and Cinv B, so a product read from the wrong system
    # would go through unnoticed but for the identity check.
    stepper, load, (_, state) = forced_states(HMZ, 1)
    mesh = StructuredMesh(4)
    other = assemble_system(
        StressSpace(mesh, HMZ), VelocitySpace(mesh, HMZ), IsotropicMaterial(rho=2.0, mu=3.0)
    )
    other_stepper = make_stepper(other, 0.25)
    assert state.carried(other) is None
    bare = SimState(state.alpha, state.beta)
    assert energy(other, state) == energy(other, bare)
    assert energy(other, state) != energy(stepper.system, state)
    got, want = (other_stepper.advance(s, load, 0.25) for s in (state, bare))
    assert np.array_equal(got.alpha, want.alpha) and np.array_equal(got.beta, want.beta)


# ------------------------------------------------------------- step algebra


@pytest.mark.parametrize("family", FAMILIES)
def test_step_satisfies_midpoint_equations(family):
    # residuals of both coupled update equations vanish after elimination
    system = make_system(3, family)
    dt = 0.05
    stepper = make_stepper(system, dt)
    rng = np.random.default_rng(42)
    state = SimState(
        alpha=rng.standard_normal(system.A.shape[0]),
        beta=rng.standard_normal(system.velocity_space.dim),
    )

    def f(x, y, t):
        x = np.asarray(x)
        return np.stack([np.sin(x + t), np.cos(3 * np.asarray(y) - t)], axis=-1)

    new = step(stepper, state, f, 0.0, dt)
    F = 0.5 * (
        assemble_load(system.velocity_space, f, 0.0)
        + assemble_load(system.velocity_space, f, dt)
    )
    am = 0.5 * (state.alpha + new.alpha)
    bm = 0.5 * (state.beta + new.beta)
    B = full_B(system)
    r1 = system.A @ ((new.alpha - state.alpha) / dt) + system.A @ am + B.T @ bm
    C = assemble_mass_velocity(system.velocity_space, UNIT)
    r2 = C @ ((new.beta - state.beta) / dt) - B @ am - F
    scale = max(1.0, np.abs(system.A @ state.alpha).max())
    assert np.abs(r1).max() <= 1e-11 * scale
    assert np.abs(r2).max() <= 1e-11 * scale


def test_step_matches_dense_block_solve():
    # one element keeps the monolithic system small enough to solve directly
    system = make_system(1, HMZ)
    dt = 0.2
    stepper = make_stepper(system, dt)
    rng = np.random.default_rng(3)
    state = SimState(
        alpha=rng.standard_normal(system.A.shape[0]),
        beta=rng.standard_normal(system.velocity_space.dim),
    )
    new = unforced_step(stepper, state, dt)

    A = system.A.toarray()
    B = full_B(system).toarray()
    C = assemble_mass_velocity(system.velocity_space, UNIT).toarray()
    r, s = A.shape[0], C.shape[0]
    K = np.zeros((r + s, r + s))
    K[:r, :r] = A / dt + A / 2
    K[:r, r:] = B.T / 2
    K[r:, :r] = -B / 2
    K[r:, r:] = C / dt
    rhs = np.concatenate(
        [
            A @ state.alpha / dt - A @ state.alpha / 2 - B.T @ state.beta / 2,
            C @ state.beta / dt + B @ state.alpha / 2,
        ]
    )
    sol = np.linalg.solve(K, rhs)
    np.testing.assert_allclose(new.alpha, sol[:r], atol=1e-12)
    np.testing.assert_allclose(new.beta, sol[r:], atol=1e-12)


def test_zero_state_stays_zero():
    system = make_system(2, NEDELEC)
    stepper = make_stepper(system, 0.1)
    state = SimState(np.zeros(system.A.shape[0]), np.zeros(system.velocity_space.dim))
    new = unforced_step(stepper, state, 0.1)
    assert np.all(new.alpha == 0.0) and np.all(new.beta == 0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_stepper_steps_with_a_view_of_B(family):
    # B.T is a CSC view of B's arrays; its products sum each entry in the
    # order the CSR copy's do, so five steps agree bit for bit.
    system = make_system(8, family)
    stepper = make_stepper(system, 0.25)
    B, Bt = stepper.B, stepper.Bt
    for field in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(Bt, field), getattr(B, field))
    assert oversized(dict(Cinv=stepper.Cinv)) == []
    copied = CNStepper(system, stepper.solver)
    copied.Bt = B.T.tocsr()
    rng = np.random.default_rng(5)
    state = SimState(rng.standard_normal(B.shape[1]), rng.standard_normal(B.shape[0]))
    load = rng.standard_normal(B.shape[0])
    got, want = state, state
    for _ in range(5):
        got = stepper.advance(got, load, 0.25)
        want = copied.advance(want, load, 0.25)
    assert np.array_equal(got.alpha, want.alpha) and np.array_equal(got.beta, want.beta)


def test_stepper_rejects_mismatched_solver():
    system = make_system(2, NEDELEC)
    other = make_system(3, NEDELEC)
    solver = make_solver(other, 0.1)
    with pytest.raises(ValueError):
        CNStepper(system, solver)


def test_stepper_refuses_a_step_its_solver_was_not_built_for():
    # S holds 1/dt and dt / 4: a solver built for dt = 0.25 advanced with
    # dt = 0.1 takes a step far from the true one and can gain energy.
    system = make_system(4, HMZ)
    stepper = make_stepper(system, 0.25)
    state = SimState(np.ones(system.A.shape[0]), np.ones(system.velocity_space.dim))
    for dt in (0.1, 0.25 * (1 + 1e-15), -0.25, float("nan")):
        with pytest.raises(ValueError, match=f"time step {dt} is not the step 0.25"):
            unforced_step(stepper, state, dt)
    unforced_step(stepper, state, 0.25)


# ------------------------------------------------------- energy bookkeeping


@pytest.mark.parametrize("family", FAMILIES)
def test_energy_identity_unforced(family):
    # E^J + 2 dt sum ||alpha at midpoints||_A^2 telescopes exactly to E^0
    system = make_system(4, family)
    dt = 0.05
    stepper = make_stepper(system, dt)
    rng = np.random.default_rng(7)
    state = SimState(
        alpha=rng.standard_normal(system.A.shape[0]),
        beta=rng.standard_normal(system.velocity_space.dim),
    )
    states = [state]
    for n in range(12):
        states.append(unforced_step(stepper, states[-1], dt))
    defects = energy_residuals(system, states, dt)
    assert np.abs(defects).max() <= 1e-10


@pytest.mark.parametrize("family", FAMILIES)
def test_energy_monotone_decay_unforced(family):
    system = make_system(3, family)
    dt = 0.25  # deliberately coarse: decay must not depend on dt
    stepper = make_stepper(system, dt)
    rng = np.random.default_rng(19)
    state = SimState(
        alpha=rng.standard_normal(system.A.shape[0]),
        beta=rng.standard_normal(system.velocity_space.dim),
    )
    es = [energy(system, state)]
    for _ in range(10):
        state = unforced_step(stepper, state, dt)
        es.append(energy(system, state))
    es = np.array(es)
    assert np.all(np.diff(es) <= 1e-14 * es[0])
    assert es[-1] < es[0]


# ------------------------------------------------------------------ full run


def test_run_records_errors_and_argmax():
    res = run(RunConfig(element=HMZ, example=1, nx=4, n_steps=20))
    assert res.times.shape == res.energy.shape == res.err_sigma.shape == res.err_v.shape == (21,)
    assert res.times[0] == 0.0 and res.times[-1] == 1.0
    assert res.E_a_sigma == np.max(res.err_sigma[1:])
    assert res.E_c_v == np.max(res.err_v[1:])
    assert res.argmax_sigma == np.argmax(res.err_sigma[1:]) + 1
    assert res.argmax_v == np.argmax(res.err_v[1:]) + 1
    # errors start at the interpolation level and stay bounded
    assert np.isfinite(res.err_sigma).all()


def test_run_snapshots():
    res = run(RunConfig(example=1, nx=4, n_steps=6, snapshot_every=2))
    assert [n for n, _ in res.snapshots] == [0, 2, 4, 6]
    assert all(isinstance(s, SimState) for _, s in res.snapshots)
    # Snapshots and the result hold alpha and beta only.
    assert all(s.products is None for _, s in res.snapshots)
    assert res.final_state.products is None


@pytest.mark.parametrize("every", [2.5, 1.5, "2"])
def test_a_snapshot_interval_that_is_not_an_integer_is_refused(every):
    # 2.5 once gave snapshots at nodes 0 and 5 alone, 1.5 at 0, 3 and 6,
    # and "2" raised TypeError.
    message = f"snapshot interval must be a positive integer, got {every!r}"
    with pytest.raises(ValueError, match=message):
        run(RunConfig(example=1, nx=2, n_steps=6, snapshot_every=every))


def test_a_step_makes_seventeen_sparse_products(monkeypatch):
    # The sparse matrix-vector products of each step, from the record of
    # one node to the next: the load's Cinv, B^T, the solve's 8 CSR (S_ii^-1,
    # Q, W and S twice each) and 4 CSC (W^T and Q^T twice each), and A, B
    # and Cinv of the new alpha, all folded; the energy takes none.  Step 1
    # also checks the initial state's symmetry and forms and probes blocks.
    products, steps = [], []
    matmul, record = _cs_matrix._matmul_vector, analysis.energy

    def counted(self, other):
        products.append(self.format)
        return matmul(self, other)

    def energy_then_count(system, state):
        e = record(system, state)
        steps.append(Counter(products))
        products.clear()
        return e

    monkeypatch.setattr(_cs_matrix, "_matmul_vector", counted)
    monkeypatch.setattr(analysis, "energy", energy_then_count)
    run(RunConfig(element=HMZ, example=1, nx=8, n_steps=6))
    assert len(steps) == 7
    assert steps[2:] == [Counter(csr=12, csc=5)] * 5


def test_a_step_whose_solve_fails_keeps_its_error_and_names_its_node(monkeypatch):
    # A tolerance below rounding fails the first solve, and a factor that
    # fails is planted; each keeps its type, a ConvergenceError its residual.
    with pytest.raises(ConvergenceError) as err:
        run(RunConfig(example=1, nx=8, n_steps=4, solver_tol=1e-30))
    head = "the step to node 1 (t = 0.25): solve finished above tolerance (backward error "
    assert str(err.value).startswith(head) and 0.0 < err.value.residual < 1e-12

    def singular(self, k):
        raise SingularBlockError("reduced matrix cannot be factored: planted")

    monkeypatch.setattr(CondensedLU, "_factor", singular)
    message = r"^the step to node 1 \(t = 0\.25\): reduced matrix cannot be factored: planted$"
    with pytest.raises(SingularBlockError, match=message):
        run(RunConfig(example=1, nx=8, n_steps=4))


def test_a_run_logs_its_worst_backward_error(caplog):
    with caplog.at_level(logging.DEBUG, logger="viscowave.timestepper"):
        run(RunConfig(example=2, nx=8, n_steps=4))
    head = "worst backward error of the run's stress solves: "
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith(head)]
    assert 0.0 < float(line.removeprefix(head)) <= 1e-12


@pytest.mark.parametrize("example", [1, 2])
def test_a_run_builds_each_spaces_generators_once(example, monkeypatch):
    # ``build_schur`` checks A, B and Cinv against both spaces' generators
    # and folds with them; the folds are built from that one evaluation.
    built = Counter()
    for space in (StressSpace, VelocitySpace):
        def counted(self, generators=space.generators.fget, name=space.__name__):
            built[name] += 1
            return generators(self)

        monkeypatch.setattr(space, "generators", property(counted))
    result = run(RunConfig(element=HMZ, example=example, nx=4, n_steps=2))
    ss, vs = result.stress_space, result.velocity_space
    assert len(ss.fold.reps) < len(ss.fold.index) and len(vs.fold.reps) < len(vs.fold.index)
    assert built == Counter(StressSpace=1, VelocitySpace=1)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("example", [1, 2, 3])
def test_a_folded_run_is_the_unfolded_run(family, example, monkeypatch):
    # The trivial group folds nothing, so with it the same code steps every
    # dof; the run with the data's group must agree with it to rounding.
    config = RunConfig(element=family, example=example, nx=8, n_steps=4)
    folded = run(config)
    assert len(folded.stress_space.fold.reps) < len(folded.stress_space.fold.index)
    monkeypatch.setattr(timestepper, "find_group", lambda fields: TRIVIAL)
    full = run(config)
    ss, vs = full.stress_space, full.velocity_space
    assert len(ss.fold.reps) == len(ss.fold.index) and len(vs.fold.reps) == len(vs.fold.index)
    for name in ("E_a_sigma", "E_c_v"):
        assert getattr(folded, name) == pytest.approx(getattr(full, name), rel=1e-12, abs=0.0)
    np.testing.assert_allclose(folded.energy, full.energy, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("example", [1, 2, 3])
def test_a_run_assembles_a_and_b_only_at_the_rows_it_reads(family, example, monkeypatch, caplog):
    # No run forms the full-size A or B, node 0's energy and check included:
    # it scatters A and B at the rows it reads, and nothing else (C is
    # tiled, not scattered); both are dropped once folded, so the first
    # factor, which sets the peak memory, finds them dead.  B is kept at
    # exactly the velocity dofs of the elements that hold a stress
    # representative, so the DEBUG line counts the same elements for both.
    kept, made, seen = [], [], []
    scatter, factor = assembly._scatter, CondensedLU._factor

    def spy(local, row_dofs, col_dofs, shape, rows=None):
        M = scatter(local, row_dofs, col_dofs, shape, rows)
        kept.append(rows)
        made.append(weakref.ref(M))
        return M

    def first_factor(self, k):
        seen.append([ref() is None for ref in made])
        return factor(self, k)

    monkeypatch.setattr(assembly, "_scatter", spy)
    monkeypatch.setattr(CondensedLU, "_factor", first_factor)
    with caplog.at_level(logging.DEBUG, logger="viscowave.assembly"):
        result = run(RunConfig(element=family, example=example, nx=4, n_steps=2))
    ss, vs = result.stress_space, result.velocity_space
    assert len(ss.fold.reps) < len(ss.fold.index)
    held = np.isin(ss.eldof, ss.fold.reps).any(axis=1)
    want = ss.fold.reps, vs.eldof[held].ravel()
    assert len(kept) == 2
    assert all(np.array_equal(a, b) for a, b in zip(kept, want, strict=True))
    assert seen[0] == [True, True]
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("assembled")]
    elements = np.count_nonzero(held)
    assert line == (
        f"assembled A at {len(ss.fold.reps)} of {ss.dim} rows and B at {len(want[1])} of "
        f"{vs.dim} rows, from {elements} and {elements} of {ss.mesh.n_elements} elements"
    )


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("example, block_folds", [(1, 2), (2, 0), (3, 3)])
def test_a_run_ranks_the_grid_and_folds_each_space_once(
    family, example, block_folds, monkeypatch
):
    # The grid is ranked once, for the stress fold and the split alike; each
    # space is folded once, and the split folds only the blocks whose
    # subgroup is not the run's group (none for example 2, whose one block,
    # E's half, is the stress fold).  S and the stepper each build the stress
    # fold's lift matrix where they use it, the stepper the velocity fold's,
    # and the split one of each held block, read at the outer representatives
    # alone.  The rank is dead once S is formed, and the lift matrices when
    # the first block factors.
    ranks, folds, lifts, dead, split, held = [], [], [], [], [], []
    grid_rank, fold, lift = symmetry.grid_rank, symmetry.fold, symmetry.Fold.P
    factor, init = CondensedLU._factor, CondensedLU.__init__

    def ranking(grid):
        rank = grid_rank(grid)
        ranks.append(weakref.ref(rank))
        return rank

    def folding(generators, group, rank):
        folds.append(group)
        return fold(generators, group, rank)

    def lifting(self):
        P = lift(self)
        lifts.append((self, weakref.ref(P)))
        return P

    def first_factor(self, k):
        dead.append([ref() is None for ref in ranks + [ref for _, ref in lifts]])
        return factor(self, k)

    def splitting(self, S, interior, grid, blocks, fold):
        split.append([ref() is None for ref in ranks])
        init(self, S, interior, grid, blocks, fold)
        held.append((blocks, fold.reps[self.outer], len(self._reps)))

    for module in (symmetry, fespace):
        monkeypatch.setattr(module, "grid_rank", ranking)
        monkeypatch.setattr(module, "fold", folding)
    monkeypatch.setattr(symmetry.Fold, "P", lifting)
    monkeypatch.setattr(CondensedLU, "_factor", first_factor)
    monkeypatch.setattr(CondensedLU, "__init__", splitting)
    result = run(RunConfig(element=family, example=example, nx=4, n_steps=2))
    ss, vs = result.stress_space, result.velocity_space
    assert len(ranks) == 1 and split == [[True]]
    assert folds[0] == ss.group and folds[-1] == vs.group and len(folds) == 2 + block_folds
    assert ss.group not in folds[1:-1]
    ((blocks, outer, count),) = held
    assert lifts[0][0] is ss.fold and [fold for fold, _ in lifts[-2:]] == [ss.fold, vs.fold]
    assert len(lifts) == 3 + count and count >= 1
    for f, _ in lifts[1:-2]:
        (block,) = [b for b in blocks if b.group == f.group]
        assert f.reps is block.reps and f.sizes is block.sizes
        assert np.array_equal(f.index, block.index[outer])
        assert np.array_equal(f.sign, block.sign[outer])
    assert dead and all(all(d) for d in dead)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("example", [1, 2])
def test_a_run_never_assembles_c(family, example, monkeypatch):
    # C is block diagonal by element, so a run inverts its element matrix
    # alone, once for S and once for the stepper; no full-size C exists in
    # the package to be assembled.
    inverted = []
    invert = timestepper.block_diag_inverse

    def spy(blocks, count):
        inverted.append((blocks.shape, count))
        return invert(blocks, count)

    monkeypatch.setattr(timestepper, "block_diag_inverse", spy)
    result = run(RunConfig(element=family, example=example, nx=4, n_steps=2))
    k = result.velocity_space.n_local
    assert inverted == [((1, k, k), 16)] * 2
    assert not hasattr(assembly.AssembledSystem, "C")
    sources = Path(assembly.__file__).parent.glob("*.py")
    assert not [p.name for p in sources if "assemble_mass_velocity" in p.read_text()]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("example", [1, 2, 3])
def test_a_runs_velocity_inverses_are_the_bsr_route_array_for_array(family, n, example, monkeypatch):
    # Both inverses a run builds, tiled from C's element matrix, are the
    # arrays, dtypes included, of the assembled C inverted through BSR.
    inverses = []
    invert = timestepper.block_diag_inverse

    def spy(*args):
        inverses.append(invert(*args))
        return inverses[-1]

    monkeypatch.setattr(timestepper, "block_diag_inverse", spy)
    material = IsotropicMaterial(rho=2.5)
    config = RunConfig(element=family, example=example, nx=n, n_steps=1, rho=2.5, force=True)
    vs = run(config).velocity_space
    want = bsr_block_diag_inverse(assemble_mass_velocity(vs, material), vs.n_local)
    assert len(inverses) == 2
    for got in inverses:
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("example", [1, 2, 3])
def test_a_returned_run_keeps_no_field_values(family, example, monkeypatch):
    # The kernels keep each factor's values while the run's solution lives;
    # a kept result, as a study or the benchmark keeps, holds none of them.
    kept = []
    values = QuadKernel.values

    def spy(self, field, *t):
        out = values(self, field, *t)
        kept.append(len(self.factors))
        return out

    monkeypatch.setattr(QuadKernel, "values", spy)
    result = run(RunConfig(element=family, example=example, nx=4, n_steps=2))
    assert max(kept) == 2
    for space in (result.stress_space, result.velocity_space):
        assert len(space.quad.factors) == 0


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "group", [TRIVIAL, SymmetryGroup((("XY", -1), ("D", 1)))], ids=["trivial", "example-2"]
)
def test_the_index_arrays_a_step_reads_are_intp_and_fold_signs_int8(family, group):
    # Fancy indexing with int32 indices is about twice as slow as with
    # np.intp, so every index array a step gathers with stays np.intp; the
    # fold signs are int8, and the tables only set-up reads are int32.  The
    # matrices a step multiplies by are float, int8 signs or not: scipy
    # would convert int8 data on every product.
    mesh = StructuredMesh(8)
    ss, vs = StressSpace(mesh, family, group), VelocitySpace(mesh, family, group)
    stepper = make_stepper(assemble_system(ss, vs, UNIT), 0.25)
    lu = stepper.solver._lu
    for space in (ss, vs):
        assert space.fold.index.dtype == space.fold.reps.dtype == space.quad.eldof.dtype == np.intp
        assert space.fold.sign.dtype == np.int8
    assert vs._at.dtype == lu.inner.dtype == lu.outer.dtype == np.intp
    for M in (stepper.A, stepper.B, stepper.Cinv, lu.S, lu._Q, lu._W, lu._Sii_inv):
        assert M.dtype == np.float64
    assert ss.grid.dtype == ss.eldof.dtype == np.int32
    assert all(p.dtype == np.int32 for p, _ in mesh.generators.values())


@pytest.mark.parametrize("field, name", [("alpha", "stress"), ("beta", "velocity")])
def test_run_refuses_an_initial_state_that_breaks_the_symmetry(field, name, monkeypatch):
    # Folding drops the part of a state outside the group's span; a part
    # planted there, far above rounding, is refused by name before any step.
    made = timestepper.init_state
    steps = []

    def planted(stress_space, velocity_space, sigma0, v0):
        state = made(stress_space, velocity_space, sigma0, v0)
        fold = (stress_space if field == "alpha" else velocity_space).fold
        x = np.random.default_rng(0).standard_normal(getattr(state, field).size)
        part = x - fold.lift(x[fold.reps])
        getattr(state, field)[:] += 1e-6 * part / np.linalg.norm(part)
        return state

    monkeypatch.setattr(timestepper, "init_state", planted)
    monkeypatch.setattr(CNStepper, "advance", lambda *args: steps.append(args))
    with pytest.raises(ValueError, match=f"^the {name}, {field}, breaks the symmetry of the run"):
        run(RunConfig(element=HMZ, example=3, nx=4, n_steps=2))
    assert steps == []


def test_run_rejects_inconsistent_clock():
    with pytest.raises(ValueError, match="do not partition"):
        run(RunConfig(example=1, nx=4, dt=0.3, n_steps=10, t_final=1.0))


def _refuse_assembly(*args, **kwargs):
    raise AssertionError("assembled before the configuration was checked")


def test_run_rejects_any_solver_but_direct(monkeypatch):
    monkeypatch.setattr(timestepper, "assemble_system", _refuse_assembly)
    with pytest.raises(ValueError, match="unknown solver 'cg'"):
        run(RunConfig(example=1, nx=4, n_steps=10, solver="cg"))


def test_run_needs_an_example_before_assembly(monkeypatch):
    monkeypatch.setattr(timestepper, "assemble_system", _refuse_assembly)
    with pytest.raises(ValueError, match="unknown solution id None"):
        run(RunConfig(nx=4, n_steps=10))


def test_run_refuses_a_load_that_is_not_finite(monkeypatch):
    midpoint_load = CNStepper.midpoint_load

    def overflowing(self, f, t, dt):
        load = midpoint_load(self, f, t, dt)
        return np.full_like(load, np.inf) if t > 0.0 else load

    monkeypatch.setattr(CNStepper, "midpoint_load", overflowing)
    with pytest.raises(ValueError, match=r"the load of the step ending at node 2 \(t = 0\.5\)"):
        run(RunConfig(example=1, nx=2, n_steps=4))


def test_run_lumps_only_nedelec():
    ned = run(RunConfig(element=NEDELEC, example=1, nx=2, n_steps=2))
    hmz = run(RunConfig(element=HMZ, example=1, nx=2, n_steps=2))
    # lumped A has only per-vertex 3x3 blocks; the consistent HMZ A is wider
    assert ned.config.element == NEDELEC
    assert np.isfinite(hmz.E_a_sigma)


def test_run_matches_manual_stepping():
    cfg = RunConfig(element=HMZ, example=2, nx=3, n_steps=5)
    res = run(cfg)
    system = make_system(3, HMZ)
    dt = 0.2
    stepper = make_stepper(system, dt)
    sol = exact_fields(2)
    state = init_state(
        system.stress_space,
        system.velocity_space,
        sigma0=lambda x, y: sol.sigma(x, y, 0.0),
        v0=lambda x, y: sol.v(x, y, 0.0),
    )
    for t in res.times[:-1]:
        state = step(stepper, state, sol.f, t, dt)
    np.testing.assert_allclose(res.final_state.alpha, state.alpha, atol=1e-12)
    np.testing.assert_allclose(res.final_state.beta, state.beta, atol=1e-12)


@pytest.mark.parametrize("example", [1, 3])
def test_repeated_runs_are_bit_identical(example):
    # each run builds its own exact solution, so no field values kept from
    # one run (or a run of another example in between) reach the next
    cfg = RunConfig(element=HMZ, example=example, nx=8, n_steps=4)
    first = run(cfg)
    run(RunConfig(element=HMZ, example=2, nx=8, n_steps=4))
    second = run(cfg)
    assert (second.E_a_sigma, second.E_c_v) == (first.E_a_sigma, first.E_c_v)
    np.testing.assert_array_equal(second.err_sigma, first.err_sigma)
    np.testing.assert_array_equal(second.err_v, first.err_v)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("example", [1, 2, 3])
def test_a_run_with_its_fields_wrapped_in_plain_functions_keeps_every_bit(
    family, n, example, monkeypatch
):
    # The benchmark's traced run wraps the solution's f, sigma and v in plain
    # functions and demands the untraced run's fingerprint bit for bit; a
    # shortcut that only the time-separable fields take must keep the bits.
    def plain(field):
        return lambda *args: field(*args)

    config = RunConfig(element=family, example=example, nx=n, n_steps=4)
    want = run(config)
    fields = timestepper.exact_fields

    def wrapped(*args, **kwargs):
        s = fields(*args, **kwargs)
        return dataclasses.replace(s, f=plain(s.f), sigma=plain(s.sigma), v=plain(s.v))

    monkeypatch.setattr(timestepper, "exact_fields", wrapped)
    got = run(config)
    assert (got.E_a_sigma, got.E_c_v) == (want.E_a_sigma, want.E_c_v)
    assert np.array_equal(got.energy, want.energy)
    assert np.array_equal(got.err_sigma, want.err_sigma)


@pytest.mark.parametrize(
    "element, e_a_sigma, e_c_v",
    [
        (NEDELEC, 0.0013972334172632772, 0.0010174671611844054),
        (HMZ, 0.0028084491259771104, 0.0008979808792086288),
    ],
)
def test_direct_run_keeps_recorded_errors(element, e_a_sigma, e_c_v):
    # Recorded with the factorization of the full S under a minimum-degree
    # ordering; condensing and reordering S moves only rounding.
    res = run(RunConfig(element=element, example=1, nx=16, n_steps=200))
    assert res.E_a_sigma == pytest.approx(e_a_sigma, rel=1e-12, abs=0.0)
    assert res.E_c_v == pytest.approx(e_c_v, rel=1e-12, abs=0.0)
