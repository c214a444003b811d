"""Traced run: per-layer spans around the real ``viscowave.timestepper.run``.

``traced_run`` calls ``run(config)`` itself.  For the length of that one
call it replaces the callables that ``run()`` looks up at call time with
wrappers that record one span per call (name, start, end, parent, step):

* in ``viscowave.timestepper``: ``StructuredMesh``, ``StressSpace``,
  ``VelocitySpace``, ``assemble_system``, ``block_diag_inverse``,
  ``build_schur``, ``init_state``, ``exact_fields`` and ``assemble_load``;
* the ``CNStepper`` methods ``__init__``, ``midpoint_load`` and ``advance``;
* in ``viscowave.analysis``: ``energy`` and the two error evaluators;
* on the objects these return: ``SchurSolver.solve``, the triangular
  solves of its LU factors, and the ``ExactSolution`` fields.

Every wrapper returns what the wrapped callable returns, so the traced run
computes what an untraced one does.  Spans stay in memory and are written
to ``.bench_out/`` when the run ends.  A span's self time is its duration
minus that of its child spans.  Step n runs from the first stepping call
after the record of node n - 1 to the record of node n; set-up is step 0.

The wrapped ``advance`` also checks the forced energy balance of every step,

    E(n+1) - E(n) + 2 dt |abar|_A^2 - 2 dt bbar . Fbar = 0,

against ``ENERGY_GATE * E(n)``, where abar, bbar and Fbar are the midpoint
stress, velocity and load, taken from its arguments and its return value.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from collections import defaultdict
from contextlib import ExitStack
from unittest import mock

from run import (
    ROOT,
    checked_run,
    fingerprint_error,
    load_reference,
    metric_units,
    workload_config,
)

ENERGY_GATE = 1e-9


class Tracer:
    """In-memory span recorder; each span is [name, start, end, parent, step]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.step = 0
        self._node_recorded = False
        self.points = 0

    def span(self, name: str):
        return _Span(self, name)

    def node_recorded(self):
        """Mark the record of a node: the next stepping call opens a step."""
        self._node_recorded = True

    def start_step(self):
        if self._node_recorded:
            self.step += 1
            self._node_recorded = False

    def wrap(self, name: str, fn, count_points=False, starts_step=False):
        def traced(*args, **kwargs):
            if starts_step:
                self.start_step()
            if count_points and self.step:
                self.points += args[0].size
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, t.step])
        t._stack.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()


class _TracedLU:
    """Stands in for the ``SuperLU`` object of a ``SchurSolver``; times its solves."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.solve = tracer.wrap("linalg.lu_solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _traced_evaluator(tracer: Tracer, name: str, cls):
    """Stands in for an error evaluator class; its construction and calls are spans."""

    def make(*args, **kwargs):
        with tracer.span("analysis.evaluator_init"):
            evaluator = cls(*args, **kwargs)
        return tracer.wrap(name, evaluator)

    return make


def _patches(tracer: Tracer, facts: dict, solvers: list):
    """(owner, attribute, wrapper) for every callable ``run()`` is traced through.

    Every ``SchurSolver`` built is appended to ``solvers``.
    """
    from viscowave import analysis, timestepper
    from viscowave.timestepper import CNStepper

    wrap = tracer.wrap
    ts = timestepper
    # The originals, taken before any patch is in place.
    energy = analysis.energy
    build = ts.build_schur
    fields = ts.exact_fields
    advance_ = CNStepper.advance

    def build_schur(*args, **kwargs):
        with tracer.span("linalg.factor"):
            solver = build(*args, **kwargs)
        solvers.append(solver)
        solver._lu = _TracedLU(solver._lu, tracer)
        solver.solve = wrap("linalg.solve", solver.solve)
        return solver

    def exact_fields(*args, **kwargs):
        solution = fields(*args, **kwargs)
        return dataclasses.replace(
            solution,
            f=wrap("mms.f", solution.f, count_points=True),
            sigma=wrap("mms.sigma", solution.sigma, count_points=True),
            v=wrap("mms.v", solution.v, count_points=True),
        )

    def traced_energy(*args, **kwargs):
        tracer.node_recorded()
        with tracer.span("analysis.energy"):
            return energy(*args, **kwargs)

    def advance(stepper, state, load_mid, dt):
        tracer.start_step()
        with tracer.span("timestepper.advance"):
            new = advance_(stepper, state, load_mid, dt)
        with tracer.span("bench.energy_check"):
            system = stepper.system
            abar = 0.5 * (state.alpha + new.alpha)
            bbar = 0.5 * (state.beta + new.beta)
            e_old = energy(system, state)
            balance = (
                energy(system, new) - e_old
                + 2.0 * dt * float(abar @ (system.A @ abar))
                - 2.0 * dt * float(bbar @ load_mid)
            )
            facts["timestepper.energy_defect_max"] = max(
                facts["timestepper.energy_defect_max"], abs(balance) / e_old
            )
        return new

    return [
        (ts, "StructuredMesh", wrap("fespace.build", ts.StructuredMesh)),
        (ts, "StressSpace", wrap("fespace.build", ts.StressSpace)),
        (ts, "VelocitySpace", wrap("fespace.build", ts.VelocitySpace)),
        (ts, "assemble_system", wrap("assembly.system", ts.assemble_system)),
        (ts, "block_diag_inverse", wrap("linalg.cinv", ts.block_diag_inverse)),
        (ts, "build_schur", build_schur),
        (ts, "init_state", wrap("timestepper.init_state", ts.init_state)),
        (ts, "exact_fields", exact_fields),
        (ts, "assemble_load", wrap("assembly.load", ts.assemble_load, starts_step=True)),
        (CNStepper, "__init__", wrap("timestepper.stepper", CNStepper.__init__)),
        (CNStepper, "midpoint_load",
         wrap("timestepper.midpoint_load", CNStepper.midpoint_load, starts_step=True)),
        (CNStepper, "advance", advance),
        (analysis, "energy", traced_energy),
        (analysis, "StressErrorEvaluator", _traced_evaluator(
            tracer, "analysis.stress_err", analysis.StressErrorEvaluator)),
        (analysis, "VelocityErrorEvaluator", _traced_evaluator(
            tracer, "analysis.vel_err", analysis.VelocityErrorEvaluator)),
    ]


def traced_run(config, tracer: Tracer):
    """Call ``run(config)`` with every layer call traced.

    Returns ``(result, facts)``, where ``facts`` holds the exact counts read
    from the solver and the worst relative energy-balance defect.
    """
    from viscowave.timestepper import run

    facts = {"timestepper.energy_defect_max": 0.0}
    solvers = []
    with ExitStack() as stack:
        for owner, attr, wrapper in _patches(tracer, facts, solvers):
            stack.enter_context(mock.patch.object(owner, attr, wrapper))
        with tracer.span("run"):
            result = run(config)
    # Counted after the run: reading L and U copies the factors.
    (solver,) = solvers
    facts["linalg.schur_nnz"] = int(solver.S.nnz)
    facts["linalg.fill_nnz"] = int(solver._lu.L.nnz + solver._lu.U.nnz)
    facts["mms.points_per_step"] = tracer.points / config.n_steps
    return result, facts


def layer_metrics(tracer: Tracer, n_steps: int) -> tuple[dict, float]:
    """Per-layer metrics and the traced wall time of the run.

    Set-up layers are totals in s; per-step layers are the median over steps
    of the step's total in ms; calls are counted per step.
    """
    spans = tracer.spans
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            kids[s[3]].append(i)
    dur = [s[2] - s[1] for s in spans]
    self_t = [dur[i] - sum(dur[k] for k in kids[i]) for i in range(len(spans))]

    def total(name, times=dur):
        return sum(times[i] for i, s in enumerate(spans) if s[0] == name)

    def per_step(name, times):
        by_step = [0.0] * (n_steps + 1)
        for i, s in enumerate(spans):
            if s[0] == name:
                by_step[s[4]] += times[i]
        return 1e3 * statistics.median(by_step[1:])

    def calls_per_step(name):
        return sum(1 for s in spans if s[0] == name and s[4] > 0) / n_steps

    (run_i,) = [i for i, s in enumerate(spans) if s[0] == "run"]
    return {
        "fespace.build_s": total("fespace.build"),
        "assembly.system_s": total("assembly.system"),
        "linalg.cinv_s": total("linalg.cinv"),
        "linalg.cinv_calls": sum(1 for s in spans if s[0] == "linalg.cinv"),
        "linalg.factor_s": total("linalg.factor"),
        "linalg.solve_ms": per_step("linalg.solve", dur),
        "linalg.solve_calls_per_step": calls_per_step("linalg.solve"),
        "linalg.lu_solves_per_step": calls_per_step("linalg.lu_solve"),
        "timestepper.advance_self_ms": per_step("timestepper.advance", self_t),
        "timestepper.init_s": (
            total("timestepper.init_state")
            + total("analysis.evaluator_init")
            + total("timestepper.stepper", self_t)
        ),
        "assembly.load_self_ms": per_step("assembly.load", self_t),
        "assembly.load_calls_per_step": calls_per_step("assembly.load"),
        "mms.f_ms": per_step("mms.f", dur),
        "mms.sigma_ms": per_step("mms.sigma", dur),
        "mms.v_ms": per_step("mms.v", dur),
        "analysis.stress_err_self_ms": per_step("analysis.stress_err", self_t),
        "analysis.vel_err_self_ms": per_step("analysis.vel_err", self_t),
        "analysis.energy_ms": per_step("analysis.energy", dur),
        "trace.uncovered_share": self_t[run_i] / dur[run_i],
    }, dur[run_i]


def write_spans(tracer: Tracer, name: str, seed: int) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    keys = ("name", "start", "end", "parent", "step")
    spans = [dict(zip(keys, s)) for s in tracer.spans]
    (out / f"spans-{name}-{seed}.json").write_text(
        json.dumps({"run_id": f"{name}-{seed}", "spans": spans})
    )


def checked_traced_run(config, ref: dict, log):
    """One traced run; ``None`` if it raised or missed a correctness gate."""
    tracer = Tracer()
    try:
        result, facts = traced_run(config, tracer)
    except Exception as err:  # a failed run is counted, never skipped
        log(f"traced run failed: {type(err).__name__}: {err}")
        return None
    why = fingerprint_error(result.E_a_sigma, result.E_c_v, ref)
    steps = tracer.step
    if not why and steps != config.n_steps:
        why = f"traced {steps} steps, expected {config.n_steps}"
    defect = facts["timestepper.energy_defect_max"]
    if not why and not defect <= ENERGY_GATE:
        why = f"energy balance defect {defect:.3e} above {ENERGY_GATE:g}"
    if why:
        log(f"traced run failed the correctness gate: {why}")
        return None
    return result, facts, tracer


def measure_traced(name: str, seed: int, smoke: bool, log) -> dict:
    """One untraced and one traced run, in an order set by the seed."""
    config = workload_config(name, smoke)
    ref = load_reference(name, smoke)
    runs = {
        "untraced": lambda: checked_run(config, ref, log),
        "traced": lambda: checked_traced_run(config, ref, log),
    }
    order = ("untraced", "traced") if seed % 2 == 0 else ("traced", "untraced")
    done = {which: runs[which]() for which in order}
    untraced, traced = done["untraced"], done["traced"]
    if untraced is not None and traced is not None:
        r, t = untraced.result, traced[0]
        if (t.E_a_sigma, t.E_c_v) != (r.E_a_sigma, r.E_c_v):
            log(
                f"traced run failed: fingerprint ({t.E_a_sigma!r}, {t.E_c_v!r}) "
                f"differs from the untraced run's ({r.E_a_sigma!r}, {r.E_c_v!r})"
            )
            traced = None
    failed = (untraced is None) + (traced is None)
    log(f"{name}: 2 run(s), {failed} failed, fail_ratio = {failed / 2:g}")
    metrics = {}
    if not failed:
        _, facts, tracer = traced
        values, traced_wall = layer_metrics(tracer, config.n_steps)
        values.update(facts)
        values["trace.overhead_s"] = traced_wall - untraced.wall_s
        write_spans(tracer, name, seed)
        units = metric_units("per_layer")
        for key, unit in units.items():
            log(f"  {key} = {values[key]:.6g} {unit}")
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return {"correct": not failed, "attempted": 2, "failed": failed, "metrics": metrics}
