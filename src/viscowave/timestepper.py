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
from .linalg import SchurSolver, SingularBlockError, block_diag_inverse, build_schur
from .material import IsotropicMaterial
from .mesh import StructuredMesh
from .mms import exact_fields
from .symmetry import find_group

__all__ = ["SimState", "resolve_time", "RunResult", "init_state", "CNStepper", "run"]


@dataclass
class SimState:
    """Stress and velocity coefficients at one node of ``RunResult.times``.

    A state made by ``CNStepper.advance`` also carries ``products``, the
    tuple (system, A alpha, Cinv B alpha) of the system that made it; that
    node's ``analysis.energy`` and the next ``advance`` reuse them for that
    same system (``carried``) and multiply out any other state's.  ``copy``
    holds alpha and beta only.
    """

    alpha: np.ndarray
    beta: np.ndarray
    products: tuple | None = field(default=None, repr=False, compare=False)

    def copy(self) -> "SimState":
        return SimState(self.alpha.copy(), self.beta.copy())

    def carried(self, system) -> tuple | None:
        """(A alpha, Cinv B alpha) if carried for this very ``system``, else None."""
        if self.products is None or self.products[0] is not system:
            return None
        return self.products[1:]


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
    stress_space: StressSpace, velocity_space: VelocitySpace, sigma0, v0
) -> SimState:
    """State at t = 0: stress by collocation interpolation, velocity by L2 projection.

    ``sigma0(x, y) -> (..., 3)`` and ``v0(x, y) -> (..., 2)``.
    """
    return SimState(stress_space.interpolate(sigma0), velocity_space.project(v0))


class CNStepper:
    """Prepared single-step update for a fixed system and solver.

    ``advance`` takes only the step the solver's S was formed for
    (``SchurSolver.dt``) and refuses any other with ``ValueError``.

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
        return 0.5 * (assemble_load(vs, f, t) + assemble_load(vs, f, t + dt))

    def advance(self, state: SimState, load_mid: np.ndarray, dt: float) -> SimState:
        """The state one step of ``dt`` on, carrying its A alpha and Cinv B alpha
        (``SimState``).  The velocity update takes the mean of Cinv B alpha at
        the two ends, not Cinv B of the mean, which moves the last bits only."""
        if dt != self.solver.dt:
            raise ValueError(
                f"time step {dt} is not the step {self.solver.dt} the solver was built for"
            )
        A, B, Bt, Cinv = self.system.A, self.system.B, self.Bt, self.Cinv
        a, b = state.alpha, state.beta
        carried = state.carried(self.system)
        Aa, CBa = (A @ a, Cinv @ (B @ a)) if carried is None else carried
        g = Cinv @ load_mid
        rhs = (1.0 / dt - 0.5) * Aa - Bt @ (b + 0.25 * dt * CBa + 0.5 * dt * g)
        a_new = self.solver.solve(rhs)
        CBa_new = Cinv @ (B @ a_new)
        b_new = b + dt * (0.5 * (CBa + CBa_new) + g)
        return SimState(a_new, b_new, (self.system, A @ a_new, CBa_new))


@dataclass
class RunResult:
    """Trajectory of one run; ``times`` holds its M + 1 node times.

    ``err_sigma`` and ``err_v`` hold the stress and velocity errors against
    the run's built-in solution at every node.  The reported errors are
    their maxima over nodes 1..M, and ``argmax_*`` the nodes where they are.
    ``stress_space`` and ``velocity_space`` are the spaces the run built;
    the coefficients of ``final_state`` and ``snapshots`` are read through them.
    """

    config: object
    times: np.ndarray
    energy: np.ndarray
    final_state: SimState
    err_sigma: np.ndarray
    err_v: np.ndarray
    snapshots: list
    stress_space: StressSpace
    velocity_space: VelocitySpace

    @property
    def argmax_sigma(self) -> int:
        return int(np.argmax(self.err_sigma[1:])) + 1

    @property
    def argmax_v(self) -> int:
        return int(np.argmax(self.err_v[1:])) + 1

    @property
    def E_a_sigma(self) -> float:
        return float(self.err_sigma[self.argmax_sigma])

    @property
    def E_c_v(self) -> float:
        return float(self.err_v[self.argmax_v])


def run(config) -> RunResult:
    """Drive a full simulation described by a resolved run configuration.

    The configuration carries the fields of ``cli.RunConfig``.  ``example``
    names the built-in solution (``mms.exact_fields``) that gives the initial
    data and the body force, and that the errors are taken against.  Either
    of ``dt`` and ``n_steps`` may be ``None``; ``resolve_time`` gives the
    step, ``t_final / n_steps``.  The stress mass is lumped when the family's
    dofs all sit at corners (``StressSpace.lumped``).  The reflections that
    the solution's stress, velocity and body force share
    (``symmetry.find_group``) are the spaces' group, so the loads, the
    projection and the errors are integrated on one element per orbit.  A
    load, energy or error that is not finite, and a step whose solve refuses
    its right-hand side, end the run with ``ValueError`` naming the node and
    its time.  Running out of memory while the mesh, spaces, system or S are set up raises
    ``MemoryError`` naming N and the family.
    """
    if config.solver != "direct":
        raise ValueError(f"unknown solver {config.solver!r}: the only solve is the direct one")
    t_final, dt, n_steps = resolve_time(config.t_final, config.dt, config.n_steps)
    every = config.snapshot_every
    if every is not None and not every >= 1:
        raise ValueError(f"snapshot interval must be at least 1, got {every}")
    material = IsotropicMaterial(rho=config.rho, mu=config.mu, lam=config.lam)
    solution = exact_fields(config.example, material, force=config.force)
    group = find_group((solution.sigma, solution.v, solution.f))
    # The per-node arrays come first, so a step count too large to record
    # fails with MemoryError before any assembly or factorization.
    try:
        nodes = np.linspace(0.0, t_final, n_steps + 1)
        energy, err_sigma, err_v = (np.empty(nodes.size) for _ in range(3))
    except (ValueError, MemoryError) as err:
        raise MemoryError(f"cannot record {n_steps + 1:.3g} time nodes: {err}") from err
    try:
        mesh = StructuredMesh(config.nx)
        stress_space = StressSpace(mesh, config.element, group)
        velocity_space = VelocitySpace(mesh, config.element, group)
        system = assemble_system(stress_space, velocity_space, material)
        try:
            Cinv = block_diag_inverse(system.C, velocity_space.n_local)
        except SingularBlockError as err:
            raise SingularBlockError(
                f"the velocity mass (rho = {config.rho:.3g}) cannot be inverted: {err}"
            ) from err
        solver = build_schur(system, Cinv, dt, config.solver_tol)
    except MemoryError as err:
        raise MemoryError(
            f"out of memory setting up {config.element} on the {config.nx} x {config.nx} "
            f"mesh: {err}"
        ) from err
    del Cinv  # the stepper keeps its own; one kept to the end raises the peak
    stepper = CNStepper(system, solver)
    state = init_state(
        stress_space,
        velocity_space,
        lambda x, y: solution.sigma(x, y, 0.0),
        lambda x, y: solution.v(x, y, 0.0),
    )
    stress_err = analysis.StressErrorEvaluator(stress_space, material)
    vel_err = analysis.VelocityErrorEvaluator(velocity_space, material)
    snapshots = []

    def finite(n, what, value):
        if not np.all(np.isfinite(value)):
            raise ValueError(
                f"{what} at node {n} (t = {nodes[n]:.6g}) is not finite: the run "
                "overflows the floating-point range"
            )

    def record(n, st):
        energy[n] = analysis.energy(system, st)
        err_sigma[n] = stress_err(st.alpha, solution.sigma, nodes[n])
        err_v[n] = vel_err(st.beta, solution.v, nodes[n])
        finite(n, "the energy", energy[n])
        finite(n, "the stress error", err_sigma[n])
        finite(n, "the velocity error", err_v[n])
        if every and n % every == 0:
            snapshots.append((n, st.copy()))

    # Every load, energy and error is checked, and the solve refuses a
    # right-hand side that is not finite, so an overflow is reported once,
    # by node, and numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, state)
        for n in range(n_steps):
            load = stepper.midpoint_load(solution.f, float(nodes[n]), dt)
            finite(n + 1, "the load of the step ending", load)
            try:
                state = stepper.advance(state, load, dt)
            except ValueError as err:
                t = nodes[n + 1]
                raise ValueError(f"the step to node {n + 1} (t = {t:.6g}): {err}") from err
            record(n + 1, state)
    final = SimState(state.alpha, state.beta)  # without the carried products
    return RunResult(
        config, nodes, energy, final, err_sigma, err_v, snapshots, stress_space, velocity_space
    )
