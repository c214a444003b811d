"""Implicit midpoint update: step algebra, energy bookkeeping, full runs."""

import numpy as np
import pytest

from viscowave import timestepper
from viscowave.analysis import energy
from viscowave.assembly import assemble_load, assemble_system
from viscowave.cli import RunConfig
from viscowave.fespace import FAMILIES, HMZ, NEDELEC, StressSpace, VelocitySpace
from viscowave.linalg import block_diag_inverse, build_schur
from viscowave.material import IsotropicMaterial
from viscowave.mesh import StructuredMesh
from viscowave.mms import exact_fields
from viscowave.timestepper import (
    CNStepper,
    SimState,
    init_state,
    run,
)

from fehelpers import energy_residuals, oversized, vertex_coords

UNIT = IsotropicMaterial()


def make_system(n, family):
    mesh = StructuredMesh(n)
    return assemble_system(StressSpace(mesh, family), VelocitySpace(mesh, family), UNIT)


def make_solver(system, dt):
    return build_schur(
        system, block_diag_inverse(system.C, system.velocity_space.n_local), dt, 1e-12
    )


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
        beta=rng.standard_normal(system.C.shape[0]),
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
    r1 = (
        system.A @ ((new.alpha - state.alpha) / dt)
        + system.A @ am
        + system.B.T @ bm
    )
    r2 = system.C @ ((new.beta - state.beta) / dt) - system.B @ am - F
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
        beta=rng.standard_normal(system.C.shape[0]),
    )
    new = unforced_step(stepper, state, dt)

    A = system.A.toarray()
    B = system.B.toarray()
    C = system.C.toarray()
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
    state = SimState(np.zeros(system.A.shape[0]), np.zeros(system.C.shape[0]))
    new = unforced_step(stepper, state, 0.1)
    assert np.all(new.alpha == 0.0) and np.all(new.beta == 0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_stepper_steps_with_a_view_of_B(family):
    # B.T is a CSC view of B's arrays; its products sum each entry in the
    # order the CSR copy's do, so five steps agree bit for bit.
    system = make_system(8, family)
    stepper = make_stepper(system, 0.25)
    B, Bt = system.B, stepper.Bt
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
        beta=rng.standard_normal(system.C.shape[0]),
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
        beta=rng.standard_normal(system.C.shape[0]),
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
