"""Command-line driver: single runs, refinement studies, energy traces, and
the pairing diagnostic.

Modes
-----
solve                 one run's summary, and field snapshots at element centers.
convergence           mesh refinement at fixed time step; one CSV row per N.
temporal-convergence  time refinement with the mesh coupled as N = M^2/4.
stability             energy trace of one example for each requested dt.
infsup                discrete pairing constants on small n-by-n meshes.

Each mode is one row of ``MODES``: the settings it reads, which of them take a
comma list, and which it needs; any other setting given to it is an error.
Each setting is one row of ``SETTINGS``: a ``--flag`` and a config-file key of
the same name, with the default of the ``RunConfig`` field of that name.
Flags override a ``--preset``, which overrides the optional ``key=value``
config file (``--config``).
Study CSV columns are ``N,M,dt,E_a_sigma,order_sigma,E_c_v,order_v``.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .analysis import check_study_parameters, convergence_orders, infsup_constants
from .fespace import FAMILIES, NEDELEC
from .linalg import ConvergenceError, SingularBlockError
from .material import IsotropicMaterial
from .timestepper import resolve_time, run

__all__ = [
    "RunConfig",
    "SETTINGS",
    "MODES",
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

@dataclass(frozen=True)
class RunConfig:
    """Configuration of a single simulation, the one record every mode resolves.

    Its field defaults are also the defaults of the command-line settings.
    ``n_steps`` or ``dt`` left ``None`` is filled in by ``resolve_time``.
    """

    # Read only as the mode setting's default; ``perfbench/run.py`` writes it.
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
    # Not a setting: ``perfbench/run.py::workload_config`` is its last
    # writer, and ``run`` accepts only "direct".
    solver: str = "direct"
    solver_tol: float = 1e-12
    snapshot_every: int | None = None
    out: str | None = None
    force: bool = False


def _with_time(cfg: RunConfig, dt=None, n_steps=None) -> RunConfig:
    """``cfg`` with the clock ``resolve_time`` makes of (dt, n_steps)."""
    t_final, dt, n_steps = resolve_time(cfg.t_final, dt, n_steps)
    return replace(cfg, t_final=t_final, dt=dt, n_steps=n_steps)


def convergence_study(element, example, ns, *, dt=None, n_steps=None, **settings):
    """Run one example on a list of N-by-N meshes at a fixed time step.

    The sizes must pass ``check_study_parameters``, which is checked before
    the first run.  ``settings`` are further ``RunConfig`` fields.  Returns
    (rows, results); rows are dicts keyed by the CSV columns.
    """
    base = RunConfig(element=element, example=example, **settings)
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
    base = RunConfig(element=element, example=example, **settings)
    results = [run(_with_time(replace(base, nx=m * m // 4), None, m)) for m in ms]
    return _study_rows(ms, results), results


def _study_rows(params, results):
    runs = [f"N = {r.config.nx}, M = {r.config.n_steps}" for r in results]

    def orders(name):
        pairs = [(p, getattr(r, name)) for p, r in zip(params, results)]
        return [None] + convergence_orders(pairs, name, runs)

    rows = []
    for r, os_, ov in zip(results, orders("E_a_sigma"), orders("E_c_v")):
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


def _csv(header, rows) -> str:
    """CSV text of a header line and rows, each line ending in a newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def format_study_csv(rows) -> str:
    """Render study rows with the fixed header and deterministic formatting."""
    lines = [
        [
            row["N"],
            row["M"],
            f"{row['dt']:.10g}",
            f"{row['E_a_sigma']:.6e}",
            "" if row["order_sigma"] is None else f"{row['order_sigma']:.3f}",
            f"{row['E_c_v']:.6e}",
            "" if row["order_v"] is None else f"{row['order_v']:.3f}",
        ]
        for row in rows
    ]
    return _csv(CSV_HEADER, lines)


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _run_solve(s) -> int:
    if s["out"] and s["snapshot_every"] is None:
        raise ValueError("solve mode writes --out only as the stem of --snapshot-every files")
    nt, dt = s.pop("nt"), s.pop("dt")
    cfg = _with_time(RunConfig(**s), dt, nt)
    result = run(cfg)
    print(
        f"element={cfg.element} N={cfg.nx} M={cfg.n_steps} dt={cfg.dt:.10g} "
        f"T={cfg.t_final:.10g}"
    )
    print(f"final energy = {result.energy[-1]:.12e}")
    print(f"E_a_sigma = {result.E_a_sigma:.6e} (node {result.argmax_sigma})")
    print(f"E_c_v     = {result.E_c_v:.6e} (node {result.argmax_v})")
    if result.snapshots:
        _write_snapshots(cfg, result)
    return 0


def _write_snapshots(cfg, result):
    ss, vs = result.stress_space, result.velocity_space
    centers = ss.mesh.element_centers()
    sbasis = ss.local_values(0.0, 0.0)
    vbasis = vs.local_values(0.0, 0.0)
    stem = cfg.out or "snapshot"
    if stem.endswith(".csv"):
        stem = stem[:-4]
    header = ["x", "y", "sigma11", "sigma22", "sigma12", "v1", "v2"]
    for n, state in result.snapshots:
        sig = np.einsum("la,el->ea", sbasis, state.alpha[ss.eldof])
        vel = np.einsum("ld,el->ed", vbasis, state.beta[vs.eldof])
        rows = ([f"{v:.10e}" for v in row] for row in np.column_stack([centers, sig, vel]))
        _emit(_csv(header, rows), f"{stem}_n{n:05d}.csv")


def _run_convergence(s) -> int:
    rows, _ = convergence_study(ns=s.pop("nx"), n_steps=s.pop("nt"), **s)
    _emit(format_study_csv(rows), s["out"])
    return 0


def _run_temporal(s) -> int:
    rows, _ = temporal_study(ms=s.pop("nt"), **s)
    _emit(format_study_csv(rows), s["out"])
    return 0


def _run_stability(s) -> int:
    steps, n_steps = s.pop("dt"), s.pop("nt")
    # Every dt is checked against the final time before the first run.
    configs = [_with_time(RunConfig(**s), step, n_steps) for step in steps]
    rows, finals = [], []
    for cfg in configs:
        result = run(cfg)
        for n, (t, e) in enumerate(zip(result.times, result.energy)):
            rows.append([f"{cfg.dt:.10g}", n, f"{t:.10g}", f"{e:.10e}"])
        finals.append((cfg.dt, result.energy[-1]))
    for step, e in finals:
        print(f"dt={step:.10g} final energy = {e:.12e}")
    _emit(_csv(["dt", "n", "t", "energy"], rows), s["out"])
    return 0


def _run_infsup(s) -> int:
    consts = infsup_constants(s["element"], s["nx"])
    rows = ([n, f"{b:.10e}"] for n, b in zip(s["nx"], consts))
    _emit(_csv(["N", "beta_h"], rows), s["out"])
    return 0


class Mode(NamedTuple):
    """A mode's runner, the settings it reads, takes as a comma list, and needs."""

    runner: Callable[[dict], int]
    reads: tuple
    lists: tuple = ()
    needs: tuple = ()


_RUN = ("element", "t_final", "rho", "mu", "lam", "solver_tol", "force", "out")
_CASE = ("example", "nx", "nt", "dt")

MODES = {
    "solve": Mode(_run_solve, _RUN + _CASE + ("snapshot_every",), needs=("example",)),
    "convergence": Mode(_run_convergence, _RUN + _CASE, lists=("nx",), needs=("example",)),
    "temporal-convergence": Mode(
        _run_temporal, _RUN + ("example", "nt"), lists=("nt",), needs=("example", "nt")
    ),
    "stability": Mode(_run_stability, _RUN + _CASE, lists=("dt",), needs=("example", "dt")),
    "infsup": Mode(_run_infsup, ("element", "nx", "out"), lists=("nx",)),
}


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


_FLAG_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _flag(text):
    try:
        return _FLAG_WORDS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of {', '.join(_FLAG_WORDS)}") from None


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

    def parse(self, value, source=""):
        """Parse a flag or config-file string, or a default or preset value.

        An unreadable value is an error that names the setting and ``source``,
        where the value came from as ``_settings`` names it.
        """
        try:
            out = self.parser(str(value))
            if self.choices and out not in self.choices:
                raise ValueError(f"expected one of {', '.join(self.choices)}")
        except ValueError as err:
            written = f"{source}: {self.name} = {value}" if source else f"{self.option} {value}"
            raise ValueError(f"{written}: {err}") from None
        return out


SETTINGS = {
    s.name: s
    for s in (
        Setting("mode", str, "what to run", tuple(MODES)),
        Setting("element", str, "element family", FAMILIES),
        Setting("example", int, "built-in solution id (1, 2, or 3)"),
        Setting("nx", _list_of(int, "integers"), "mesh size N, or comma list for study modes"),
        Setting("nt", _list_of(int, "integers"), "time steps M, or comma list for temporal mode"),
        Setting("dt", _list_of(float, "numbers"), "time step, or comma list for stability mode"),
        Setting("t_final", float, "final time"),
        Setting("rho", float, "density"),
        Setting("mu", float, "shear modulus"),
        Setting("lam", float, "first Lame parameter", flag="--lambda"),
        Setting("solver_tol", float, "relative residual bound"),
        Setting("preset", str, "published study configuration", tuple(sorted(PRESETS))),
        Setting("snapshot_every", int, "write field snapshots every k steps (solve mode)"),
        Setting("out", str, "output CSV path (default: stdout)"),
        Setting("force", _flag, "accept non-unit materials with the built-in solutions"),
    )
}


def _read_config_file(path):
    """Unparsed ``key = value`` settings of a config file, and each one's ``path:line``."""
    out, lines = {}, {}
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: {err}") from None
    for lineno, raw in enumerate(text.split("\n"), 1):
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
        lines[key] = f"{path}:{lineno}"
    return out, lines


def _build_parser():
    # No prefixes: a removed flag such as --solver would match --solver-tol.
    p = argparse.ArgumentParser(
        prog="viscowave",
        description="Mixed-element velocity-stress wave solver on the unit square.",
        allow_abbrev=False,
    )
    for s in SETTINGS.values():
        if s.parser is _flag:
            p.add_argument(s.option, dest=s.name, action="store_true", default=None, help=s.help)
            continue
        help_ = s.help if s.default is None else f"{s.help} (default: {s.default})"
        shown = "{" + ",".join(s.choices) + "}" if s.choices else None  # Setting.parse checks them
        p.add_argument(s.option, dest=s.name, metavar=shown, help=help_)
    p.add_argument("--config", help="key=value settings file; flags win")
    return p


def _settings(args):
    """Every setting, parsed: defaults < config file < preset < flags; and,
    for each name that one of them gave, where its value came from: the
    config file's ``path:line`` or the preset, or ``""`` for a flag."""
    config, lines = _read_config_file(args.config) if args.config else ({}, {})
    flags = {k: v for k, v in vars(args).items() if k != "config" and v is not None}
    preset_name = flags.get("preset", config.get("preset"))
    source = "" if "preset" in flags else lines.get("preset")
    preset = PRESETS[SETTINGS["preset"].parse(preset_name, source)] if preset_name else {}
    merged = {name: s.default for name, s in SETTINGS.items()} | config | preset | flags
    given = lines | dict.fromkeys(preset, f"preset {preset_name}") | dict.fromkeys(flags, "")
    parsed = {
        name: None if merged[name] is None else s.parse(merged[name], given.get(name, ""))
        for name, s in SETTINGS.items()
    }
    return parsed, given


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        s, given = _settings(args)
        name, mode = s["mode"], MODES[s["mode"]]
        for key in mode.needs:
            if s[key] is None:
                raise ValueError(f"{name} mode needs {SETTINGS[key].option}")
        unused = [k for k in SETTINGS if k in given and k not in mode.reads + ("mode", "preset")]
        if unused:
            key = unused[0]
            if given[key]:
                raise ValueError(f"{given[key]} sets {key}, which {name} mode does not use")
            raise ValueError(f"drop {SETTINGS[key].option}: {name} mode does not use it")
        s = {key: s[key] for key in mode.reads}
        for key, vals in s.items():
            if isinstance(vals, list) and key not in mode.lists:
                if len(vals) != 1:
                    option = SETTINGS[key].option
                    raise ValueError(f"{option} takes a single value here, got {vals}")
                s[key] = vals[0]
        out = s["out"] or ""
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise ValueError(f"{name} mode cannot write --out {out}: no such directory")
        if os.path.isdir(out):
            raise ValueError(f"{name} mode cannot write --out {out}: it is a directory")
        return mode.runner(s)
    except (ValueError, ConvergenceError, SingularBlockError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
