"""Tests of the benchmark itself, on tiny meshes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
import tracing

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _invoke(*args, cwd=bench.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _invoke("--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in out["metrics"].items()
    }
    printed = [line.strip() for line in lines[:-1]]
    for m in spec:
        assert any(
            line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
            for line in printed
        ), m


def _corrupt(monkeypatch):
    real = bench.load_reference

    def corrupted(name, smoke=False):
        ref = dict(real(name, smoke))
        ref["E_a_sigma"] *= 1.0 + 1e-9
        return ref

    monkeypatch.setattr(bench, "load_reference", corrupted)
    monkeypatch.setattr(tracing, "load_reference", corrupted)


def test_corrupted_reference_fails_every_run(monkeypatch):
    monkeypatch.syspath_prepend(str(bench.SRC))
    _corrupt(monkeypatch)
    out = bench.measure("mms-step-n64", 1, 1, True, lambda msg: None)
    # With no full run passing, no set-up-only run can be checked either.
    runs = 1 + bench.WORKLOADS["mms-step-n64"].setup_reps
    assert not out["correct"] and out["failed"] == out["attempted"] == runs
    out = tracing.measure_traced("factor-n256", 0, True, lambda msg: None)
    assert not out["correct"] and out["failed"] == out["attempted"] == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke("--workload", "mms-step-n64", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_counts_come_from_run(monkeypatch):
    """A change inside run() moves the traced counts: one load, one LU solve."""
    monkeypatch.syspath_prepend(str(bench.SRC))
    from viscowave import linalg, timestepper

    def midpoint_load(self, f, t, dt):
        return timestepper.assemble_load(self.system.velocity_space, f, t + 0.5 * dt)

    def solve(self, rhs):
        return self._lu.solve(rhs)

    config = bench.workload_config("mms-step-n64", smoke=True)
    tracer = tracing.Tracer()
    tracing.traced_run(config, tracer)
    before, _ = tracing.layer_metrics(tracer, config.n_steps)
    assert before["assembly.load_calls_per_step"] == 2.0
    assert before["linalg.lu_solves_per_step"] == 2.0
    assert before["linalg.solve_calls_per_step"] == 1.0
    assert before["linalg.cinv_calls"] == 2

    monkeypatch.setattr(timestepper.CNStepper, "midpoint_load", midpoint_load)
    monkeypatch.setattr(linalg.SchurSolver, "solve", solve)
    tracer = tracing.Tracer()
    tracing.traced_run(config, tracer)
    after, _ = tracing.layer_metrics(tracer, config.n_steps)
    assert after["assembly.load_calls_per_step"] == 1.0
    assert after["linalg.lu_solves_per_step"] == 1.0
    assert tracer.step == config.n_steps
