"""Implicit midpoint (trapezoidal) time stepping of the velocity-stress system.

The semidiscrete system is

    A alpha' + A alpha + B^T beta = 0
    C beta'  - B alpha            = F(t),

advanced by averaging the two endpoint states over each step.  The load
enters through the average of the endpoint body forces.  Each step solves
the reduced stress system (velocity eliminated exactly) and recovers the
velocity update in closed form, so the two discrete equations hold to
solver precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .assembly import AssembledSystem, assemble_load, assemble_system
from .fespace import StressSpace, VelocitySpace
from .linalg import SchurSolver, block_diag_inverse, build_schur
from .material import IsotropicMaterial
from .mesh import StructuredMesh
from .mms import exact_fields

__all__ = ["SimState", "resolve_time", "RunResult", "init_state", "CNStepper", "run"]


@dataclass
class SimState:
    """Stress and velocity coefficients at one node of ``RunResult.times``."""

    alpha: np.ndarray
    beta: np.ndarray

    def copy(self) -> "SimState":
        return SimState(self.alpha.copy(), self.beta.copy())


def resolve_time(t_final, dt=None, n_steps=None):
    """The run's clock: fill in the missing one of (dt, n_steps), check dt * M = T.

    ``t_final`` and a given ``dt`` must be finite and positive and a given
    ``n_steps`` a positive integer; with neither given, M = 200.  Returns
    ``(t_final, t_final / n_steps, n_steps)`` as (float, float, int): the
    step is the one the run takes, also when a ``dt`` was given.
    """
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ValueError(f"final time must be finite and positive, got {t_final}")
    if dt is not None and not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"time step must be finite and positive, got {dt}")
    if n_steps is not None:
        try:
            whole = float(n_steps).is_integer()
        except OverflowError:
            raise ValueError("step count is beyond the floating-point range") from None
        if not (n_steps >= 1 and whole):
            raise ValueError(f"step count must be a positive integer, got {n_steps}")
    if dt is None:
        n_steps = 200 if n_steps is None else n_steps
        dt = t_final / n_steps
    elif n_steps is None:
        if not math.isfinite(t_final / dt):
            raise ValueError(f"time step {dt} is too small for final time {t_final}")
        n_steps = round(t_final / dt)
    if n_steps < 1 or abs(dt * n_steps - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError(f"dt = {dt} and M = {n_steps} do not partition [0, {t_final}]")
    t_final, n_steps = float(t_final), int(n_steps)
    return t_final, t_final / n_steps, n_steps


def init_state(
    stress_space: StressSpace,
    velocity_space: VelocitySpace,
    sigma0=None,
    v0=None,
) -> SimState:
    """State at t = 0: stress by collocation interpolation, velocity by L2 projection.

    ``sigma0(x, y) -> (..., 3)`` and ``v0(x, y) -> (..., 2)``; ``None`` means zero.
    """
    alpha = (
        stress_space.interpolate(sigma0)
        if sigma0 is not None
        else np.zeros(stress_space.dim)
    )
    beta = (
        velocity_space.project(v0) if v0 is not None else np.zeros(velocity_space.dim)
    )
    return SimState(alpha, beta)


class CNStepper:
    """Prepared single-step update for a fixed system and solver.

    ``Bt`` is B.T, a CSC view of B's own arrays, not a CSR copy: the CSC
    product sums each entry in the order the CSR one does, so the bits are
    the same, and the run keeps one copy of B, not two.
    """

    def __init__(self, system: AssembledSystem, solver: SchurSolver):
        if solver.S.shape[0] != system.A.shape[0]:
            raise ValueError("solver was built for a different stress space")
        self.system = system
        self.solver = solver
        self.Cinv = block_diag_inverse(system.C, system.velocity_space.n_local)
        self.Bt = system.B.T

    def midpoint_load(self, f, t: float, dt: float) -> np.ndarray:
        """Average of the endpoint load vectors over [t, t + dt]."""
        vs = self.system.velocity_space
        if f is None:
            return np.zeros(vs.dim)
        return 0.5 * (assemble_load(vs, f, t) + assemble_load(vs, f, t + dt))

    def advance(self, state: SimState, load_mid: np.ndarray, dt: float) -> SimState:
        if not dt > 0.0:
            raise ValueError(f"time step must be positive, got {dt}")
        A, B, Bt, Cinv = self.system.A, self.system.B, self.Bt, self.Cinv
        a, b = state.alpha, state.beta
        g = Cinv @ load_mid
        rhs = (1.0 / dt - 0.5) * (A @ a) - Bt @ (
            b + 0.25 * dt * (Cinv @ (B @ a)) + 0.5 * dt * g
        )
        a_new = self.solver.solve(rhs)
        b_new = b + dt * (0.5 * (Cinv @ (B @ (a + a_new))) + g)
        return SimState(a_new, b_new)


@dataclass
class RunResult:
    """Trajectory diagnostics of one run; ``times`` holds its M + 1 node times."""

    config: object
    times: np.ndarray
    energy: np.ndarray
    final_state: SimState
    snapshots: list = field(default_factory=list)
    err_sigma: np.ndarray | None = None
    err_v: np.ndarray | None = None
    E_a_sigma: float | None = None
    E_c_v: float | None = None
    argmax_sigma: int | None = None
    argmax_v: int | None = None


def run(config) -> RunResult:
    """Drive a full simulation described by a resolved run configuration.

    The configuration carries the fields of ``cli.RunConfig``; ``example``
    ``None`` is an unforced zero-data run.  Either of ``dt`` and ``n_steps``
    may be ``None``; ``resolve_time`` gives the step, ``t_final / n_steps``.
    The stress mass is lumped when the family's dofs all sit at corners
    (``StressSpace.lumped``).
    """
    if config.solver != "direct":
        raise ValueError(f"unknown solver {config.solver!r}: the only solve is the direct one")
    t_final, dt, n_steps = resolve_time(config.t_final, config.dt, config.n_steps)
    every = config.snapshot_every
    if every is not None and not every >= 1:
        raise ValueError(f"snapshot interval must be at least 1, got {every}")
    material = IsotropicMaterial(rho=config.rho, mu=config.mu, lam=config.lam)
    solution = None
    if config.example is not None:
        solution = exact_fields(config.example, material, force=config.force)
    # The per-node arrays come first, so a step count too large to record
    # fails with MemoryError before any assembly or factorization.
    try:
        nodes = np.linspace(0.0, t_final, n_steps + 1)
        n_nodes = nodes.size
        energy = np.empty(n_nodes)
        err_sigma = np.empty(n_nodes) if solution else None
        err_v = np.empty(n_nodes) if solution else None
    except (ValueError, MemoryError) as err:
        raise MemoryError(f"cannot record {n_steps + 1:.3g} time nodes: {err}") from err
    mesh = StructuredMesh(config.nx)
    stress_space = StressSpace(mesh, config.element)
    velocity_space = VelocitySpace(mesh, config.element)
    system = assemble_system(stress_space, velocity_space, material)
    solver = build_schur(
        system, block_diag_inverse(system.C, velocity_space.n_local), dt, config.solver_tol
    )
    stepper = CNStepper(system, solver)

    if solution:
        state = init_state(
            stress_space,
            velocity_space,
            sigma0=lambda x, y: solution.sigma(x, y, 0.0),
            v0=lambda x, y: solution.v(x, y, 0.0),
        )
    else:
        state = init_state(stress_space, velocity_space)

    if solution:
        stress_err = analysis.StressErrorEvaluator(stress_space, material)
        vel_err = analysis.VelocityErrorEvaluator(velocity_space, material)

    snapshots = []

    def record(n, st):
        energy[n] = analysis.energy(system, st)
        if solution:
            err_sigma[n] = stress_err(st.alpha, solution.sigma, nodes[n])
            err_v[n] = vel_err(st.beta, solution.v, nodes[n])
        if every and n % every == 0:
            snapshots.append((n, st.copy()))

    record(0, state)
    f = solution.f if solution else None
    for n in range(n_steps):
        load = stepper.midpoint_load(f, float(nodes[n]), dt)
        state = stepper.advance(state, load, dt)
        record(n + 1, state)

    result = RunResult(
        config=config,
        times=nodes,
        energy=energy,
        final_state=state,
        snapshots=snapshots,
    )
    if solution:
        result.err_sigma = err_sigma
        result.err_v = err_v
        result.argmax_sigma = int(np.argmax(err_sigma[1:])) + 1
        result.argmax_v = int(np.argmax(err_v[1:])) + 1
        result.E_a_sigma = float(err_sigma[result.argmax_sigma])
        result.E_c_v = float(err_v[result.argmax_v])
    return result
