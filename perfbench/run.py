"""viscowave benchmark: closed-loop runs of fixed solver problems.

Usage, from the repository root::

    python3 perfbench/run.py --workload mms-step-n64 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One client calls the public ``viscowave.timestepper.run(config)`` entry point
repeatedly, each call starting after the previous one has returned.  With
``--trace 0`` the runs are untraced and the end-to-end metrics are reported;
with ``--trace 1`` one untraced and one traced run are made, whatever
``--seconds`` says, and the per-layer metrics are reported (see
``tracing.py``).  Every run is checked against the
reference fingerprint in ``reference.json``; a run that raises or misses it
counts as failed.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in its own fresh process, traced and
untraced, and writes the record to ``perfbench/baseline.json``.  ``--smoke``
shrinks every workload to a tiny mesh for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: on a two-core machine a second OpenBLAS thread spins
# between calls, which doubles cpu_s without shortening wall_s.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

FINGERPRINT_RTOL = 1e-12
T_FINAL = 1.0


@dataclass(frozen=True)
class Workload:
    """One fixed solver problem.

    All use the ``hmz`` pair, the LU solver, T = 1 and the unit material.
    """

    example: int
    nx: int
    n_steps: int
    # Seconds one run takes on a two-core machine in a slow period, rounded
    # up; it sets how many runs fit in --seconds, so the repeat count never
    # depends on noise.
    nominal_s: float
    # Extra calls of run() that stop at the first per-node record, so that
    # setup_s is a median of many set-ups, not of the few full runs.
    setup_reps: int


# Why each workload is here: see BENCHMARK.json and README.md.
WORKLOADS = {
    "mms-step-n64": Workload(1, 64, 200, 16.0, 16),
    "factor-n256": Workload(2, 256, 4, 25.0, 0),
}

SMOKE_NX, SMOKE_STEPS = 4, 4

class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program or reference)."""


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def workload_config(name: str, smoke: bool = False):
    """``RunConfig`` of a named workload; ``smoke`` shrinks it to a tiny mesh."""
    from viscowave.cli import RunConfig

    w = WORKLOADS[name]
    nx, m = (SMOKE_NX, SMOKE_STEPS) if smoke else (w.nx, w.n_steps)
    return RunConfig(
        mode="solve",
        element="hmz",
        example=w.example,
        nx=nx,
        n_steps=m,
        dt=T_FINAL / m,
        t_final=T_FINAL,
        solver="direct",
        solver_tol=1e-12,
    )


def load_reference(name: str, smoke: bool = False) -> dict:
    """Reference ``E_a_sigma`` and ``E_c_v`` of a workload."""
    path = HERE / "reference.json"
    if not path.is_file():
        raise BenchError(f"reference fingerprints not found: {path}")
    refs = json.loads(path.read_text())["smoke" if smoke else "full"]
    if name not in refs:
        raise BenchError(f"no reference fingerprint for workload {name!r}")
    return refs[name]


def fingerprint_error(e_a_sigma, e_c_v, ref: dict) -> str | None:
    """Why a fingerprint misses the reference, or ``None`` if it matches."""
    for key, got in (("E_a_sigma", e_a_sigma), ("E_c_v", e_c_v)):
        want = ref[key]
        if got is None or not abs(got - want) <= FINGERPRINT_RTOL * abs(want):
            return f"{key} = {got!r}, reference {want!r}"
    return None


class SetupDone(Exception):
    """Raised at the first per-node record to end a set-up-only run."""

    def __init__(self, energy0: float):
        self.energy0 = energy0


class NodeClock:
    """Times each per-node record of ``run()`` from outside the program.

    ``run()`` records node n by first calling ``analysis.energy``; wrapping
    that function timestamps the record of every node, so setup ends at node
    0 and step n spans the records of nodes n - 1 and n.  With
    ``setup_only`` the first record raises ``SetupDone`` with the energy at
    node 0, which ends the run there.
    """

    def __init__(self, setup_only: bool = False):
        self.stamps: list[float] = []
        self.setup_only = setup_only

    def __enter__(self):
        from viscowave import analysis

        self._analysis = analysis
        self._energy = analysis.energy

        def energy(*args, **kwargs):
            self.stamps.append(time.perf_counter())
            value = self._energy(*args, **kwargs)
            if self.setup_only:
                raise SetupDone(value)
            return value

        analysis.energy = energy
        return self

    def __exit__(self, *exc):
        self._analysis.energy = self._energy


@dataclass
class RunSample:
    """Timings of one untraced ``run()`` call."""

    wall_s: float
    cpu_s: float
    setup_s: float
    step_ms: list
    dof_steps_per_s: float
    result: object


def timed_run(config) -> RunSample:
    """Call ``run(config)`` once, untraced, and time it."""
    from viscowave.timestepper import run

    with NodeClock() as clock:
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = run(config)
        t1 = time.perf_counter()
        c1 = time.process_time()
    stamps = clock.stamps
    if len(stamps) != config.n_steps + 1:
        raise BenchError(
            f"saw {len(stamps)} per-node records, expected {config.n_steps + 1}"
        )
    stepping = stamps[-1] - stamps[0]
    dofs = result.final_state.alpha.size + result.final_state.beta.size
    return RunSample(
        wall_s=t1 - t0,
        cpu_s=c1 - c0,
        setup_s=stamps[0] - t0,
        step_ms=[1e3 * (b - a) for a, b in zip(stamps, stamps[1:])],
        dof_steps_per_s=dofs * config.n_steps / stepping,
        result=result,
    )


def timed_setup(config) -> tuple[float, float]:
    """Call ``run(config)`` up to its first per-node record.

    Returns the set-up time and the energy at node 0.
    """
    from viscowave.timestepper import run

    with NodeClock(setup_only=True) as clock:
        t0 = time.perf_counter()
        try:
            run(config)
        except SetupDone as done:
            return clock.stamps[0] - t0, done.energy0
    raise BenchError("run() returned without a per-node record")


def checked_run(config, ref: dict, log) -> RunSample | None:
    """One timed run; ``None`` if it raised or missed the fingerprint."""
    try:
        sample = timed_run(config)
    except Exception as err:  # a failed run is counted, never skipped
        log(f"run failed: {type(err).__name__}: {err}")
        return None
    why = fingerprint_error(sample.result.E_a_sigma, sample.result.E_c_v, ref)
    if why:
        log(f"run failed the correctness gate: {why}")
        return None
    return sample


def repeat_count(name: str, seconds: float) -> int:
    """Runs that fit in ``seconds`` at the workload's nominal run time."""
    return max(1, int(seconds // WORKLOADS[name].nominal_s))


def tail_percentile(n: int) -> int | None:
    """Highest of p99/p95/p90/p75 with at least ten of ``n`` samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def measure(name: str, seconds: float, seed: int, smoke: bool, log) -> dict:
    """Untraced closed-loop runs; returns the result object to print.

    The full runs and the set-up-only runs go in an order set by the seed.
    A set-up-only run passes if its energy at node 0 equals, bit for bit,
    that of a full run that passed the correctness gate.
    """
    config = workload_config(name, smoke)
    ref = load_reference(name, smoke)
    repeats = repeat_count(name, seconds)
    plan = ["full"] * repeats + ["setup"] * WORKLOADS[name].setup_reps
    random.Random(seed).shuffle(plan)
    good, setups = [], []
    for kind in plan:
        if kind == "full":
            sample = checked_run(config, ref, log)
            if sample is not None:
                good.append(sample)
            continue
        try:
            setups.append(timed_setup(config))
        except Exception as err:  # a failed run is counted, never skipped
            log(f"set-up-only run failed: {type(err).__name__}: {err}")
    energy0 = good[0].result.energy[0] if good else None
    good_setups = [t for t, e0 in setups if e0 == energy0]
    if len(good_setups) < len(setups):
        log(f"{len(setups) - len(good_setups)} set-up-only run(s) missed the "
            f"energy at node 0 of a full run, {energy0!r}")
    attempted = len(plan)
    failed = attempted - len(good) - len(good_setups)
    log(f"{name}: {repeats} full and {len(plan) - repeats} set-up-only run(s), "
        f"{failed} failed, fail_ratio = {failed / attempted:g}")
    metrics = {}
    if good:
        values = {
            "wall_s": statistics.median(s.wall_s for s in good),
            "cpu_s": statistics.median(s.cpu_s for s in good),
            "setup_s": statistics.median([s.setup_s for s in good] + good_setups),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = metric_units("end_to_end")
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        for key, unit in units.items():
            log(f"  {key} = {values[key]:.6g} {unit}")
        log(f"  (wall and cpu are medians of {len(good)} run(s), setup of "
            f"{len(good) + len(good_setups)})")
        # The per-step figures are printed, not bounded: on a shared machine
        # whose speed flips between two levels, they rest on a few seconds of
        # stepping (four steps on factor-n256) and spread past any bound.
        steps = [ms for s in good for ms in s.step_ms]
        p = tail_percentile(len(steps))
        tail = (
            f"step_ms_p{p} = "
            f"{statistics.quantiles(steps, n=100, method='inclusive')[p - 1]:.6g} ms"
            if p
            else "no tail percentile"
        )
        log(
            f"  step_ms_p50 = {statistics.median(steps):.6g} ms, {tail} "
            f"(of {len(steps)} steps)"
        )
        rate = statistics.median(s.dof_steps_per_s for s in good)
        log(f"  dof_steps_per_s = {rate:.6g} 1/s (median of {len(good)} run(s))")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def environment(seed: int) -> dict:
    """Where and with what a result was measured."""
    import numpy
    import scipy

    # A checkout made without .git (an export of the tree) has no commit.
    commit, why = None, "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
        else:
            why = f"git rev-parse failed: {proc.stderr.strip()}"
    return {
        "commit": commit or f"unknown ({why})",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def run_all(seed: int, seconds: float) -> int:
    """Each workload in a fresh process, untraced then traced; writes the record."""
    names = list(WORKLOADS)
    random.Random(seed).shuffle(names)
    record = {"seconds": seconds, "environment": None, "workloads": {}}
    ok = True
    for name in names:
        entry = {"reference": load_reference(name)}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{name}: benchmark process exited with {proc.returncode}")
                return 1
            out = json.loads(lines[-1])
            record["environment"] = json.loads(lines[0].removeprefix("environment: "))
            entry[kind] = {k: out[k] for k in ("attempted", "failed", "metrics")}
            ok = ok and out["correct"]
        record["workloads"][name] = entry
    (HERE / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny meshes, for tests")
    args = parser.parse_args(argv)
    if args.smoke and args.workload == "all":
        parser.error("--smoke applies to a single workload")

    os.environ.update(BLAS_ENV)
    if not (SRC / "viscowave" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    def log(msg):
        print(msg, flush=True)

    try:
        log("environment: " + json.dumps(environment(args.seed)))
        if args.trace:
            from tracing import measure_traced

            out = measure_traced(args.workload, args.seed, args.smoke, log)
        else:
            out = measure(args.workload, args.seconds, args.seed, args.smoke, log)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
