"""Command-line driver: single runs, refinement studies, energy traces, and
the pairing diagnostic.

Modes
-----
solve                 one run; prints a summary, optionally writes field
                      snapshots sampled at element centers.
convergence           mesh refinement at fixed time step; one CSV row per N.
temporal-convergence  time refinement with the mesh coupled as N = M^2/4.
stability             energy trace of one example for each requested dt.
infsup                discrete pairing constants on small n-by-n meshes.

Each setting is one row of ``SETTINGS``: a ``--flag`` and a config-file key
of the same name, with the default of the ``RunConfig`` field of that name.
Flags override a ``--preset``, which overrides the optional ``key=value``
config file (``--config``).
Study CSV columns are ``N,M,dt,E_a_sigma,order_sigma,E_c_v,order_v``.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .analysis import check_study_parameters, convergence_orders, infsup_constants
from .fespace import FAMILIES, NEDELEC, StressSpace, VelocitySpace
from .linalg import ConvergenceError, SingularBlockError
from .material import IsotropicMaterial
from .mesh import StructuredMesh
from .timestepper import resolve_time, run

__all__ = [
    "RunConfig",
    "SETTINGS",
    "PRESETS",
    "main",
    "convergence_study",
    "temporal_study",
    "resolve_time",
]

CSV_HEADER = ["N", "M", "dt", "E_a_sigma", "order_sigma", "E_c_v", "order_v"]

PRESETS = {
    "table1": dict(mode="convergence", example=1, nx="4,8,16,32,64", nt="200", t_final=1.0),
    "table2": dict(mode="convergence", example=2, nx="4,8,16,32,64", nt="200", t_final=1.0),
    "table3": dict(mode="convergence", example=3, nx="4,8,16,32,64", nt="200", t_final=1.0),
    "table7": dict(mode="temporal-convergence", example=1, nt="4,8,12,16", t_final=1.0),
    "table8": dict(mode="temporal-convergence", example=2, nt="4,8,12,16", t_final=1.0),
    "table9": dict(mode="temporal-convergence", example=3, nt="4,8,12,16", t_final=1.0),
}

_MODES = ("solve", "convergence", "temporal-convergence", "stability", "infsup")


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a single simulation, the one record every mode resolves.

    Its field defaults are also the defaults of the command-line settings.
    ``n_steps`` or ``dt`` left ``None`` is filled in by ``resolve_time``.
    """

    mode: str = "solve"
    element: str = NEDELEC
    example: int | None = None
    nx: int = 8
    n_steps: int | None = None
    dt: float | None = None
    t_final: float = 1.0
    rho: float = IsotropicMaterial.rho
    mu: float = IsotropicMaterial.mu
    lam: float = IsotropicMaterial.lam
    solver: str = "direct"
    solver_tol: float = 1e-12
    snapshot_every: int | None = None
    out: str | None = None
    force: bool = False


def _with_time(cfg: RunConfig, dt=None, n_steps=None) -> RunConfig:
    """``cfg`` with (dt, n_steps) resolved against its final time."""
    t_final, dt, n_steps = resolve_time(cfg.t_final, dt, n_steps)
    return replace(cfg, t_final=t_final, dt=dt, n_steps=n_steps)


def convergence_study(element, example, ns, *, dt=None, n_steps=None, **settings):
    """Run one example on a list of N-by-N meshes at a fixed time step.

    The sizes must pass ``check_study_parameters``, which is checked before
    the first run.  ``settings`` are further ``RunConfig`` fields.  Returns
    (rows, results); rows are dicts keyed by the CSV columns.
    """
    base = RunConfig(mode="convergence", element=element, example=example, **settings)
    base = _with_time(base, dt, n_steps)
    ns = [int(n) for n in ns]
    check_study_parameters(ns)
    results = [run(replace(base, nx=n)) for n in ns]
    return _study_rows(ns, results), results


def temporal_study(element, example, ms, **settings):
    """Refine the time step with the mesh coupled as N = M^2/4.

    Every M must be even so that M^2/4 is an integer, and the list must pass
    ``check_study_parameters``; both are checked before the first run.
    ``settings`` are further ``RunConfig`` fields.
    """
    ms = [int(m) for m in ms]
    for m in ms:
        if m % 2:
            raise ValueError(f"step count {m} must be even to couple N = M^2/4")
    check_study_parameters(ms)
    base = RunConfig(
        mode="temporal-convergence", element=element, example=example, **settings
    )
    results = [run(_with_time(replace(base, nx=m * m // 4), None, m)) for m in ms]
    return _study_rows(ms, results), results


def _study_rows(params, results):
    e_sigma = [r.E_a_sigma for r in results]
    e_v = [r.E_c_v for r in results]
    orders_sigma = [None] + convergence_orders(list(zip(params, e_sigma)))
    orders_v = [None] + convergence_orders(list(zip(params, e_v)))
    rows = []
    for r, os_, ov in zip(results, orders_sigma, orders_v):
        rows.append(
            {
                "N": r.config.nx,
                "M": r.config.n_steps,
                "dt": r.config.dt,
                "E_a_sigma": r.E_a_sigma,
                "order_sigma": os_,
                "E_c_v": r.E_c_v,
                "order_v": ov,
            }
        )
    return rows


def format_study_csv(rows) -> str:
    """Render study rows with the fixed header and deterministic formatting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                row["N"],
                row["M"],
                f"{row['dt']:.10g}",
                f"{row['E_a_sigma']:.6e}",
                "" if row["order_sigma"] is None else f"{row['order_sigma']:.3f}",
                f"{row['E_c_v']:.6e}",
                "" if row["order_v"] is None else f"{row['order_v']:.3f}",
            ]
        )
    return buf.getvalue()


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _list_of(convert, noun):
    """Parser of a comma-separated list of ``convert`` values, named ``noun``."""

    def parse(text):
        try:
            vals = [convert(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as err:
            raise ValueError(f"expected comma-separated {noun}, got {text!r}") from err
        if not vals:
            raise ValueError(f"empty list of {noun} {text!r}")
        return vals

    return parse


def _flag(text):
    return text.lower() in ("1", "true", "yes")


@dataclass(frozen=True)
class Setting:
    """One run setting: a ``--flag`` and a config-file key of the same name."""

    name: str
    parser: Callable[[str], object]
    help: str
    choices: tuple = ()
    flag: str = ""

    @property
    def default(self):
        """The default of the ``RunConfig`` field of the same name, else ``None``."""
        return getattr(RunConfig, self.name, None)

    @property
    def option(self) -> str:
        return self.flag or "--" + self.name.replace("_", "-")

    def parse(self, value):
        """Parse a flag or config-file string, or a default or preset value."""
        out = self.parser(str(value))
        if self.choices and out not in self.choices:
            raise ValueError(f"{self.name} must be one of {self.choices}, got {out!r}")
        return out


SETTINGS = {
    s.name: s
    for s in (
        Setting("mode", str, "what to run", _MODES),
        Setting("element", str, "element family", FAMILIES),
        Setting("example", int, "built-in solution id (1, 2, or 3)"),
        Setting("nx", _list_of(int, "integers"), "mesh size N, or comma list for study modes"),
        Setting("nt", _list_of(int, "integers"), "time steps M, or comma list for temporal mode"),
        Setting("dt", _list_of(float, "numbers"), "time step, or comma list for stability mode"),
        Setting("t_final", float, "final time"),
        Setting("rho", float, "density"),
        Setting("mu", float, "shear modulus"),
        Setting("lam", float, "first Lame parameter", flag="--lambda"),
        Setting("solver", str, "reduced-system solver", ("direct", "cg")),
        Setting("solver_tol", float, "relative residual bound"),
        Setting("preset", str, "published study configuration", tuple(sorted(PRESETS))),
        Setting("snapshot_every", int, "write field snapshots every k steps (solve mode)"),
        Setting("out", str, "output CSV path (default: stdout)"),
        Setting("force", _flag, "accept non-unit materials with the built-in solutions"),
    )
}

def _single(vals, what):
    if vals is None:
        return None
    if len(vals) != 1:
        raise ValueError(f"{what} takes a single value here, got {vals}")
    return vals[0]


def _run_solve(s, nx, nt, dt) -> int:
    cfg = RunConfig(mode="solve", nx=_single(nx, "--nx"), **s)
    cfg = _with_time(cfg, _single(dt, "--dt"), _single(nt, "--nt"))
    result = run(cfg)
    print(
        f"element={cfg.element} N={cfg.nx} M={cfg.n_steps} dt={cfg.dt:.10g} "
        f"T={cfg.t_final:.10g}"
    )
    print(f"final energy = {result.energy[-1]:.12e}")
    if result.E_a_sigma is not None:
        print(f"E_a_sigma = {result.E_a_sigma:.6e} (node {result.argmax_sigma})")
        print(f"E_c_v     = {result.E_c_v:.6e} (node {result.argmax_v})")
    if result.snapshots:
        _write_snapshots(cfg, result)
    return 0


def _write_snapshots(cfg, result):
    mesh = StructuredMesh(cfg.nx, cfg.nx)
    ss = StressSpace(mesh, cfg.element)
    vs = VelocitySpace(mesh, cfg.element)
    centers = mesh.element_centers()
    sbasis = ss.local_values(0.0, 0.0)
    vbasis = vs.local_values(0.0, 0.0)
    stem = cfg.out or "snapshot"
    if stem.endswith(".csv"):
        stem = stem[:-4]
    for n, state in result.snapshots:
        sig = np.einsum("la,el->ea", sbasis, state.alpha[ss.eldof])
        vel = np.einsum("ld,el->ed", vbasis, state.beta[vs.eldof])
        path = f"{stem}_n{n:05d}.csv"
        with open(path, "w") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "y", "sigma11", "sigma22", "sigma12", "v1", "v2"])
            for row in np.column_stack([centers, sig, vel]):
                writer.writerow([f"{v:.10e}" for v in row])
        print(f"wrote {path}")


def _study_settings(s, mode):
    """Settings of a multi-run mode; only solve mode writes snapshots."""
    if s["example"] is None:
        raise ValueError(f"{mode} mode needs --example")
    return dict(s, snapshot_every=None)


def _run_convergence(s, nx, nt, dt) -> int:
    s = _study_settings(s, "convergence")
    rows, _ = convergence_study(
        ns=nx, dt=_single(dt, "--dt"), n_steps=_single(nt, "--nt"), **s
    )
    _emit(format_study_csv(rows), s["out"])
    return 0


def _run_temporal(s, nx, nt, dt) -> int:
    s = _study_settings(s, "temporal-convergence")
    if nt is None:
        raise ValueError("temporal-convergence mode needs --nt")
    if dt is not None:
        raise ValueError("temporal-convergence mode sets dt = T/M; drop --dt")
    rows, _ = temporal_study(ms=nt, **s)
    _emit(format_study_csv(rows), s["out"])
    return 0


def _run_stability(s, nx, nt, dt) -> int:
    s = _study_settings(s, "stability")
    if dt is None:
        raise ValueError("stability mode needs --dt (one or more values)")
    base = RunConfig(mode="stability", nx=_single(nx, "--nx"), **s)
    n_steps = _single(nt, "--nt")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dt", "n", "t", "energy"])
    finals = []
    for step in dt:
        cfg = _with_time(base, step, n_steps)
        result = run(cfg)
        for n, (t, e) in enumerate(zip(result.times, result.energy)):
            writer.writerow([f"{cfg.dt:.10g}", n, f"{t:.10g}", f"{e:.10e}"])
        finals.append((cfg.dt, result.energy[-1]))
    for step, e in finals:
        print(f"dt={step:.10g} final energy = {e:.12e}")
    _emit(buf.getvalue(), s["out"])
    return 0


def _run_infsup(s, nx, nt, dt) -> int:
    consts = infsup_constants(s["element"], nx)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "beta_h"])
    for n, b in zip(nx, consts):
        writer.writerow([n, f"{b:.10e}"])
    _emit(buf.getvalue(), s["out"])
    return 0


_RUNNERS = {
    "solve": _run_solve,
    "convergence": _run_convergence,
    "temporal-convergence": _run_temporal,
    "stability": _run_stability,
    "infsup": _run_infsup,
}


def _read_config_file(path):
    """Unparsed ``key = value`` settings of a config file."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
            out[key] = val
    return out


def _build_parser():
    p = argparse.ArgumentParser(
        prog="viscowave",
        description="Mixed-element velocity-stress wave solver on the unit square.",
    )
    for s in SETTINGS.values():
        if s.parser is _flag:
            p.add_argument(s.option, dest=s.name, action="store_true", default=None, help=s.help)
            continue
        help_ = s.help if s.default is None else f"{s.help} (default: {s.default})"
        p.add_argument(s.option, dest=s.name, choices=s.choices or None, help=help_)
    p.add_argument("--config", help="key=value settings file; flags win")
    return p


def _settings(args) -> dict:
    """Every setting, parsed: defaults < config file < preset < flags."""
    merged = {name: s.default for name, s in SETTINGS.items()}
    if args.config:
        merged.update(_read_config_file(args.config))
    flags = {k: v for k, v in vars(args).items() if k != "config" and v is not None}
    preset = flags.get("preset", merged["preset"])
    if preset:
        merged.update(PRESETS[SETTINGS["preset"].parse(preset)])
    merged.update(flags)
    return {
        name: None if merged[name] is None else s.parse(merged[name])
        for name, s in SETTINGS.items()
    }


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        s = _settings(args)
        del s["preset"]
        runner = _RUNNERS[s.pop("mode")]
        nx, nt, dt = (s.pop(key) for key in ("nx", "nt", "dt"))
        return runner(s, nx, nt, dt)
    except (ValueError, ConvergenceError, SingularBlockError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
