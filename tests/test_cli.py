"""Command-line driver: argument handling, CSV output, and determinism."""

import csv
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from viscowave import cli, fespace, linalg, timestepper
from viscowave.cli import (
    CSV_HEADER,
    MODES,
    PRESETS,
    SETTINGS,
    _build_parser,
    _settings,
    convergence_study,
    format_study_csv,
    main,
    resolve_time,
    temporal_study,
)
from viscowave.mesh import StructuredMesh

HEADER_LINE = "N,M,dt,E_a_sigma,order_sigma,E_c_v,order_v"


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# time-grid resolution


def test_resolve_time_fills_dt():
    assert resolve_time(1.0, None, 4) == (1.0, 0.25, 4)


def test_resolve_time_fills_n_steps():
    assert resolve_time(1.0, 0.2, None) == (1.0, 0.2, 5)


def test_resolve_time_default_step_count():
    t, dt, m = resolve_time(2.0, None, None)
    assert (t, m) == (2.0, 200) and dt == pytest.approx(0.01)


def test_resolve_time_returns_the_step_taken():
    # a dt within the 1e-9 tolerance of T / M selects M; the step is T / M
    t, dt, m = resolve_time(1.0, 0.3333333331)
    assert (t, m) == (1.0, 3) and dt == 1.0 / 3


def test_resolve_time_rejects_mismatch():
    with pytest.raises(ValueError):
        resolve_time(1.0, 0.3, 4)
    with pytest.raises(ValueError):
        resolve_time(-1.0, None, None)
    for args in [
        (float("inf"), None, 4),
        (float("nan"), None, 4),
        (1.0, 0.0, None),
        (1.0, float("inf"), None),
        (1.0, 1e-320, None),  # T / dt overflows
        (1.0, None, 0),
        (-1.0, None, 4),
        (1.0, None, 2.5),
        (1.0, 2.0, None),
        (1.0, None, 10**400),  # beyond the floating-point range
        (1.0, None, "4"),  # not a number
    ]:
        with pytest.raises(ValueError):
            resolve_time(*args)


# ---------------------------------------------------------------------------
# CSV rendering


def test_csv_header_exact():
    assert ",".join(CSV_HEADER) == HEADER_LINE


def test_format_study_csv_layout():
    rows = [
        dict(N=2, M=4, dt=0.25, E_a_sigma=0.5, order_sigma=None, E_c_v=0.25, order_v=None),
        dict(N=4, M=4, dt=0.25, E_a_sigma=0.125, order_sigma=2.0, E_c_v=0.0625, order_v=2.0),
    ]
    text = format_study_csv(rows)
    lines = text.splitlines()
    assert lines[0] == HEADER_LINE
    assert lines[1] == "2,4,0.25,5.000000e-01,,2.500000e-01,"
    assert lines[2] == "4,4,0.25,1.250000e-01,2.000,6.250000e-02,2.000"
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# study helpers


def test_convergence_study_rows_match_results():
    rows, results = convergence_study("hmz", 1, [2, 4], n_steps=4)
    assert [r["N"] for r in rows] == [2, 4]
    assert all(r["M"] == 4 and r["dt"] == 0.25 for r in rows)
    assert rows[0]["order_sigma"] is None
    expected = np.log2(rows[0]["E_a_sigma"] / rows[1]["E_a_sigma"])
    assert rows[1]["order_sigma"] == pytest.approx(expected)
    assert [r.E_a_sigma for r in results] == [r["E_a_sigma"] for r in rows]


def test_temporal_study_couples_mesh_to_steps():
    rows, results = temporal_study("hmz", 2, [4, 6])
    assert [(r["N"], r["M"]) for r in rows] == [(4, 4), (9, 6)]
    assert [r["dt"] for r in rows] == [pytest.approx(0.25), pytest.approx(1 / 6)]
    assert results[0].config.nx == 4


def test_study_refuses_a_zero_error():
    # No order can be observed from an error of 0; the message names the
    # quantity and the run.
    results = [
        SimpleNamespace(config=SimpleNamespace(nx=n, n_steps=2), E_a_sigma=e, E_c_v=1.0)
        for n, e in ((2, 0.0), (4, 1e-3))
    ]
    message = "E_a_sigma is 0 at N = 2, M = 2: an observed order needs positive errors"
    with pytest.raises(ValueError, match=message):
        cli._study_rows([2, 4], results)


def test_temporal_study_rejects_odd_steps():
    with pytest.raises(ValueError, match="even"):
        temporal_study("hmz", 1, [3])


# ---------------------------------------------------------------------------
# main(): study modes


def test_main_convergence_stdout(capsys):
    code, out, err = run_main(
        ["--mode", "convergence", "--example", "1", "--element", "hmz",
         "--nx", "2,4", "--nt", "4"],
        capsys,
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == HEADER_LINE
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "4" and first[4] == ""
    assert float(lines[2].split(",")[3]) < float(first[3])


def test_main_convergence_out_file_and_determinism(tmp_path, capsys):
    args = ["--mode", "convergence", "--example", "1", "--element", "hmz",
            "--nx", "2,4", "--nt", "4", "--out"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, out1, _ = run_main(args + [str(f1)], capsys)
    code2, out2, _ = run_main(args + [str(f2)], capsys)
    assert code1 == code2 == 0
    assert f"wrote {f1}" in out1 and f"wrote {f2}" in out2
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2  # identical configuration, identical bytes
    assert b1.decode().splitlines()[0] == HEADER_LINE


def test_main_temporal_mode(tmp_path, capsys):
    f = tmp_path / "t.csv"
    code, _, err = run_main(
        ["--mode", "temporal-convergence", "--example", "2", "--element", "hmz",
         "--nt", "2,4", "--out", str(f)],
        capsys,
    )
    assert code == 0 and err == ""
    with f.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["N"], r["M"]) for r in rows] == [("1", "2"), ("4", "4")]


def test_main_preset_expands_with_flag_overrides(tmp_path, capsys):
    # preset table2 fixes mode/example; flags shrink the sweep
    f = tmp_path / "p.csv"
    code, _, err = run_main(
        ["--preset", "table2", "--element", "hmz", "--nx", "2,4", "--nt", "4",
         "--out", str(f)],
        capsys,
    )
    assert code == 0 and err == ""
    with f.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["N"] for r in rows] == ["2", "4"]
    assert all(r["M"] == "4" for r in rows)


def test_preset_table_registry():
    assert set(PRESETS) == {f"table{k}" for k in (1, 2, 3, 7, 8, 9)}
    for k in (1, 2, 3):
        assert PRESETS[f"table{k}"]["mode"] == "convergence"
        assert PRESETS[f"table{k}"]["nx"] == "4,8,16,32,64"
    for k in (7, 8, 9):
        assert PRESETS[f"table{k}"]["mode"] == "temporal-convergence"
        assert PRESETS[f"table{k}"]["nt"] == "4,8,12,16"


# ---------------------------------------------------------------------------
# main(): config file and precedence


def test_config_file_settings_apply(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "element = hmz\n"
        "t-final = 0.5   # hyphenated keys accepted\n"
        "nt = 2\n"
        "example = 1\n"
    )
    code, out, _ = run_main(["--config", str(cfg), "--nx", "2"], capsys)
    assert code == 0
    assert "element=hmz" in out and "T=0.5" in out and "M=2" in out


def test_preset_overrides_config_flags_override_preset(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = solve\npreset = table2\nelement = hmz\n")
    # preset wins over the config file's mode: a convergence CSV comes out
    code, out, _ = run_main(
        ["--config", str(cfg), "--nx", "2,4", "--nt", "2"], capsys
    )
    assert code == 0 and out.splitlines()[0] == HEADER_LINE
    # an explicit --mode flag wins over the preset
    code, out, _ = run_main(
        ["--config", str(cfg), "--mode", "solve", "--nx", "2", "--nt", "2",
         "--example", "1"],
        capsys,
    )
    assert code == 0 and "final energy" in out


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for key, value in (("meshsize", "4"), ("solver", "cg")):
        cfg.write_text(f"{key} = {value}\n")
        code, _, err = run_main(["--config", str(cfg)], capsys)
        assert code == 1 and err == f"error: {cfg}:1: unknown setting {key!r}\n"


def test_config_file_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    code, _, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and "key=value" in err


def test_missing_config_file_errors(tmp_path, capsys):
    # A config file that cannot be read names itself: a missing file or a
    # directory through its OSError, bytes that are not text through the reader.
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe\n")
    for path, message in (
        (tmp_path / "nope.cfg", "No such file"),
        (tmp_path, "Is a directory"),
        (cfg, "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ):
        code, out, err = run_main(["--config", str(path)], capsys)
        assert code == 1 and out == "" and err.startswith("error:") and err.count("\n") == 1
        assert str(path) in err and message in err and "Traceback" not in err
    assert err == f"error: {cfg}: {message}\n"


@pytest.mark.parametrize(
    "value, message",
    [
        ("ture", "{cfg}:1: force = ture: expected one of 1, true, yes, 0, false, no"),
        ("on", "{cfg}:1: force = on: expected one of 1, true, yes, 0, false, no"),
        ("no", "unit material"),
        ("0", "unit material"),
        ("False", "unit material"),
        ("YES", None),
    ],
    ids=["ture", "on", "no", "0", "False", "YES"],
)
def test_config_file_boolean_spellings(value, message, tmp_path, capsys):
    # A non-unit material runs only when force reads as true; a spelling
    # that is neither true nor false is refused with its source.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"force = {value}\nmu = 2\nexample = 1\nnx = 2\nnt = 2\n")
    code, out, err = run_main(["--config", str(cfg)], capsys)
    if message is None:
        assert code == 0 and err == "" and "E_a_sigma" in out
        return
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert message.format(cfg=cfg) in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# main(): solve mode and snapshots


def test_main_solve_summary(capsys):
    code, out, err = run_main(
        ["--mode", "solve", "--element", "hmz", "--example", "2",
         "--nx", "2", "--nt", "2"],
        capsys,
    )
    assert code == 0 and err == ""
    assert "element=hmz N=2 M=2" in out
    assert "final energy" in out and "E_a_sigma" in out and "E_c_v" in out


def test_main_solve_reports_the_step_taken(capsys):
    code, out, err = run_main(
        ["--mode", "solve", "--example", "1", "--nx", "2", "--dt", "0.3333333331"], capsys
    )
    assert code == 0 and err == ""
    assert "M=3 dt=0.3333333333 " in out


def test_snapshot_files(tmp_path, capsys):
    stem = tmp_path / "snap.csv"
    code, out, _ = run_main(
        ["--mode", "solve", "--element", "hmz", "--example", "2",
         "--nx", "2", "--nt", "4", "--snapshot-every", "2", "--out", str(stem)],
        capsys,
    )
    assert code == 0
    paths = sorted(tmp_path.glob("snap_n*.csv"))
    assert [p.name for p in paths] == ["snap_n00000.csv", "snap_n00002.csv", "snap_n00004.csv"]
    assert all(f"wrote {p}" in out for p in paths)
    with paths[0].open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "sigma11", "sigma22", "sigma12", "v1", "v2"]
    data = np.array(rows[1:], dtype=float)
    assert data.shape == (4, 7)
    np.testing.assert_allclose(data[:, :2], StructuredMesh(2).element_centers())
    # example 2 starts from sigma = 0 but a nonzero velocity
    np.testing.assert_allclose(data[:, 2:5], 0.0, atol=1e-12)
    assert np.all(np.abs(data[:, 5:]) > 1e-3)
    with paths[2].open() as fh:
        late = np.array(list(csv.reader(fh))[1:], dtype=float)
    assert np.any(np.abs(late[:, 2:5]) > 1e-3)
    # A stem inside a directory writes there (a directory as the stem is refused).
    (tmp_path / "d").mkdir()
    code, _, err = run_main(
        ["--mode", "solve", "--example", "1", "--nx", "2", "--nt", "2",
         "--snapshot-every", "2", "--out", str(tmp_path / "d" / "run")],
        capsys,
    )
    assert code == 0 and err == ""
    written = sorted(p.name for p in (tmp_path / "d").iterdir())
    assert written == ["run_n00000.csv", "run_n00002.csv"]


def test_snapshots_read_the_spaces_of_the_run(tmp_path, monkeypatch, capsys):
    # The snapshot writer reads the run's own spaces; it builds none of its own.
    built = []
    for cls in (fespace.StressSpace, fespace.VelocitySpace):

        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    code, _, err = run_main(
        ["--mode", "solve", "--example", "1", "--nx", "2", "--nt", "2",
         "--snapshot-every", "1", "--out", str(tmp_path / "s")],
        capsys,
    )
    assert code == 0 and err == "" and len(list(tmp_path.iterdir())) == 3
    assert sorted(built) == ["StressSpace", "VelocitySpace"]


# ---------------------------------------------------------------------------
# main(): stability and infsup modes


def test_main_stability_trace(tmp_path, capsys):
    f = tmp_path / "s.csv"
    code, out, _ = run_main(
        ["--mode", "stability", "--example", "2", "--element", "hmz",
         "--nx", "2", "--dt", "0.5,0.25", "--out", str(f)],
        capsys,
    )
    assert code == 0
    assert "dt=0.5 final energy" in out and "dt=0.25 final energy" in out
    with f.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 + 5  # M+1 nodes per dt
    energies = np.array([float(r["energy"]) for r in rows])
    assert np.all(np.isfinite(energies)) and np.all(energies >= 0.0)
    assert {r["dt"] for r in rows} == {"0.5", "0.25"}


def test_stability_checks_every_dt_before_the_first_run(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "run", calls.append)
    code, out, err = run_main(
        ["--mode", "stability", "--example", "1", "--nx", "2", "--dt", "0.005,0.3"], capsys
    )
    assert code == 1 and out == "" and calls == []
    assert err == "error: dt = 0.3 and M = 3 do not partition [0, 1.0]\n"


def test_main_infsup_mode(tmp_path, capsys):
    f = tmp_path / "b.csv"
    code, _, err = run_main(
        ["--mode", "infsup", "--element", "hmz", "--nx", "2,3", "--out", str(f)],
        capsys,
    )
    assert code == 0 and err == ""
    with f.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["N"] for r in rows] == ["2", "3"]
    betas = [float(r["beta_h"]) for r in rows]
    assert betas[0] == pytest.approx(0.969277, rel=1e-4)
    assert all(b > 0.05 for b in betas)


# ---------------------------------------------------------------------------
# main(): error handling


def test_missing_example_errors(capsys):
    for mode in ("solve", "convergence", "temporal-convergence", "stability"):
        code, _, err = run_main(["--mode", mode, "--nx", "2"], capsys)
        assert code == 1 and err == f"error: {mode} mode needs --example\n"


def test_odd_temporal_steps_error_exit(capsys):
    code, _, err = run_main(
        ["--mode", "temporal-convergence", "--example", "1", "--nt", "3"], capsys
    )
    assert code == 1 and "even" in err


def test_solve_rejects_value_lists(capsys):
    code, _, err = run_main(["--mode", "solve", "--example", "1", "--nx", "2,4"], capsys)
    assert code == 1 and err == "error: --nx takes a single value here, got [2, 4]\n"


def test_inconsistent_time_grid_errors(capsys):
    code, _, err = run_main(
        ["--mode", "solve", "--example", "1", "--nx", "2", "--dt", "0.3", "--nt", "4"], capsys
    )
    assert code == 1 and err == "error: dt = 0.3 and M = 4 do not partition [0, 1.0]\n"


def test_bad_integer_list_errors(capsys):
    code, _, err = run_main(
        ["--mode", "convergence", "--example", "1", "--nx", "2,x"], capsys
    )
    assert code == 1 and "comma-separated" in err


def test_unwritable_out_path_errors(tmp_path, capsys):
    code, _, err = run_main(
        ["--mode", "infsup", "--element", "hmz", "--nx", "2",
         "--out", str(tmp_path / "missing" / "f.csv")],
        capsys,
    )
    assert code == 1 and err.startswith("error:") and "no such directory" in err


def test_argparse_rejects_unknown_mode(capsys):
    # --solver is gone; it must not be read as a prefix of --solver-tol.
    with pytest.raises(SystemExit) as exc:
        main(["--solver", "cg"])
    assert exc.value.code == 2 and "unrecognized arguments: --solver cg" in capsys.readouterr().err


def test_help_usage_lists_the_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert "[--mode {solve,convergence,temporal-convergence,stability,infsup}]" in out
    assert "[--element {nedelec-q1q0,hmz}]" in out
    assert "[--preset {table1,table2,table3,table7,table8,table9}]" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--example", "1", "--nx", "2", "--nt", "0"], "step count"),
        (["--example", "1", "--nx", "0", "--nt", "2"], "element count must be a positive integer, got 0"),
        (["--mode", "temporal-convergence", "--example", "1", "--nt", "0"], "refinement study"),
        (["--mode", "stability", "--example", "1", "--dt", "0", "--nx", "2"], "time step"),
        (["--example", "1", "--nx", "2", "--nt", "2", "--t-final", "inf"], "final time"),
        (["--example", "1", "--nx", "2", "--nt", "2", "--snapshot-every", "0"], "snapshot interval"),
        (["--example", "1", "--nx", "2", "--dt", "1e-300"], "cannot record 1e+300 time nodes"),
        # The first array of an N = 10^8 mesh cannot be allocated at all, so
        # nothing is touched before the error.
        (
            ["--example", "1", "--nx", "100000000", "--nt", "1"],
            "error: out of memory setting up nedelec-q1q0 on the 100000000 x 100000000 mesh: ",
        ),
        (["--example", "1", "--nx", "2", "--nt", "1" + "0" * 400], "step count is beyond the floating-point range"),
        (["--example", "1", "--nx", "1" + "0" * 400, "--nt", "2"], "element count is beyond the floating-point range"),
        (
            ["--mode", "convergence", "--example", "1", "--nx", "2," + "1" + "0" * 400, "--nt", "2"],
            "parameter 2 of the refinement study is beyond the floating-point range",
        ),
        (
            ["--mode", "temporal-convergence", "--example", "1", "--nt", "2," + "1" + "0" * 400],
            "parameter 2 of the refinement study is beyond the floating-point range",
        ),
        (
            ["--mode", "stability", "--example", "1", "--nx", "2",
             "--dt", "0.5,0.25", "--nt", "3"],
            "dt = 0.5 and M = 3 do not partition",
        ),
        (
            ["--mode", "temporal-convergence", "--example", "1", "--nt", "2,4", "--dt", "0.1"],
            "drop --dt: temporal-convergence mode does not use it",
        ),
        (
            ["--mode", "temporal-convergence", "--example", "1", "--nt", "2,4", "--nx", "16"],
            "drop --nx: temporal-convergence mode does not use it",
        ),
        (
            ["--mode", "infsup", "--element", "hmz", "--nx", "2", "--nt", "7"],
            "drop --nt: infsup mode does not use it",
        ),
        (
            ["--mode", "infsup", "--element", "hmz", "--nx", "2", "--dt", "0.3"],
            "drop --dt: infsup mode does not use it",
        ),
        (
            ["--mode", "infsup", "--element", "hmz", "--nx", "2", "--example", "1"],
            "drop --example: infsup mode does not use it",
        ),
        (
            ["--mode", "convergence", "--example", "1", "--nx", "2,4", "--nt", "2",
             "--snapshot-every", "1"],
            "drop --snapshot-every: convergence mode does not use it",
        ),
        (
            ["--mode", "stability", "--example", "1", "--nx", "2", "--dt", "0.5",
             "--snapshot-every", "1"],
            "drop --snapshot-every: stability mode does not use it",
        ),
        (
            ["--preset", "table1", "--mode", "temporal-convergence"],
            "preset table1 sets nx, which temporal-convergence mode does not use",
        ),
        # Example 3 grows like e^t: at t = 400 every value is finite but the
        # energy, a square, overflows; at t = 705 so does the step's
        # right-hand side.  Either ends with one line and no warning.
        (
            ["--example", "3", "--nx", "4", "--nt", "2", "--t-final", "400"],
            "error: the energy at node 2 (t = 400) is not finite",
        ),
        (
            ["--example", "3", "--nx", "4", "--nt", "2", "--t-final", "705"],
            "error: the step to node 2 (t = 705): the right-hand side of the stress "
            "solve is not finite",
        ),
    ],
    ids=[
        "nt-zero",
        "nx-zero",
        "temporal-nt-zero",
        "stability-dt-zero",
        "t-final-inf",
        "snapshot-every-zero",
        "dt-tiny-too-many-nodes",
        "nx-beyond-memory",
        "nt-beyond-float",
        "nx-beyond-float",
        "convergence-nx-beyond-float",
        "temporal-nt-beyond-float",
        "stability-nt-mismatch",
        "temporal-dt-given",
        "temporal-nx-given",
        "infsup-nt-given",
        "infsup-dt-given",
        "infsup-example-given",
        "convergence-snapshot-every-given",
        "stability-snapshot-every-given",
        "temporal-nx-from-preset",
        "t-final-400-energy-overflows",
        "t-final-705-solve-refuses-rhs",
    ],
)
def test_bad_time_and_count_inputs_error_exit(argv, message, capsys):
    code, _, err = run_main(argv, capsys)
    assert code == 1 and err.startswith("error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


# A solve run of example 1; a non-unit material runs it with --force.
_UNIT = ["--example", "1", "--nx", "2", "--nt", "2"]
_FORCED = _UNIT + ["--force"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_FORCED + ["--lambda", "inf"], "lam must be finite"),
        (["--mu", "2", "--example", "1", "--nx", "2", "--nt", "2"], "--force"),
        (_FORCED + ["--mu", "1e-300"], "mu=1e-300 is lost against lam=1.0"),
        (
            _FORCED + ["--lambda", "0", "--mu", "1e-309"],
            "error: shear modulus mu=1e-309 is so small that the compliance 1/(2 mu) overflows",
        ),
        (_UNIT + ["--solver-tol", "inf"], "tolerance"),
        (_FORCED + ["--mu", "1e200"], "stress-mass term is lost in rounding"),
        (_FORCED + ["--element", "hmz", "--rho", "1e-300"], "stress-mass term is lost in rounding"),
        (_FORCED + ["--rho", "1e-300", "--t-final", "1e300"], "(dt/4) B^T Cinv B overflows"),
        (
            _UNIT + ["--t-final", "1e-308"],
            "the stress-mass term (1/dt + 1/2) A overflows (dt = 5e-309)",
        ),
        (
            _UNIT + ["--element", "hmz", "--t-final", "1e-308"],
            "the stress-mass term (1/dt + 1/2) A overflows (dt = 5e-309)",
        ),
        (
            ["--mode", "solve", "--element", "hmz", "--example", "1", "--nx", "4", "--nt", "2",
             "--rho", "1e-310", "--force"],
            "error: the velocity mass (rho = 1e-310) cannot be inverted: diagonal block "
            "inversion produced non-finite entries",
        ),
        (
            ["--mode", "solve", "--example", "1", "--nx", "8", "--nt", "4", "--solver-tol",
             "1e-30"],
            "error: the step to node 1 (t = 0.25): solve finished above tolerance",
        ),
    ],
    ids=[
        "lambda-inf",
        "nonunit-unforced",
        "mu-tiny-singular-compliance",
        "mu-subnormal-compliance-overflows",
        "solver-tol-inf",
        "mu-huge-stress-mass-lost",
        "rho-tiny-stress-mass-lost",
        "rho-tiny-coupling-overflow",
        "dt-tiny-stress-mass-overflow",
        "hmz-dt-tiny-stress-mass-overflow",
        "rho-subnormal-velocity-mass-not-invertible",
        "solver-tol-below-rounding-names-the-step",
    ],
)
@pytest.mark.filterwarnings("error")  # a warning on the way to the message fails
def test_bad_material_and_solver_inputs_error_exit(argv, message, capsys):
    code, _, err = run_main(argv, capsys)
    assert code == 1 and err.startswith("error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--lambda", "-1e-3", "first Lame parameter must be nonnegative, got -0.001"),
        ("--lambda", "-5e-1", "first Lame parameter must be nonnegative, got -0.5"),
        ("--mu", "-inf", "mu must be finite, got -inf"),
    ],
    ids=["lambda-exponent", "lambda-exponent-below-one", "mu-minus-inf"],
)
def test_a_negative_value_after_a_space_is_read_as_after_an_equals_sign(
    flag, value, message, capsys
):
    # argparse reads a value that starts with '-' as a flag unless it is a
    # plain decimal; the command line reads it as the flag's value either way.
    spaced = run_main(_FORCED + [flag, value], capsys)
    glued = run_main(_FORCED + [f"{flag}={value}"], capsys)
    assert spaced == glued == (1, "", f"error: {message}\n")


def test_unused_setting_from_config_file_errors(tmp_path, capsys):
    # The message names where the unused value came from: the config file,
    # a preset the config file chose, or a flag, which overrides both.
    cfg = tmp_path / "run.cfg"
    argv = ["--config", str(cfg), "--mode", "temporal-convergence", "--example", "1"]
    for text, extra, message in (
        ("nx = 16\n", ["--nt", "2,4"], f"{cfg}:1 sets nx, which"),
        ("preset = table1\n", [], "preset table1 sets nx, which"),
        ("nx = 16\n", ["--nt", "2,4", "--nx", "8"], "drop --nx:"),
    ):
        cfg.write_text(text)
        code, _, err = run_main(argv + extra, capsys)
        assert code == 1 and err.startswith(f"error: {message}"), err
        assert "temporal-convergence mode does not use" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--element", "hmz", "--example", "2", "--nx", "32", "--dt", "0.25",
         "--solver-tol", "1e-14"],
        ["--nx", "8", "--dt", "0.5", "--lambda", "1e5", "--example", "2", "--force"],
    ],
    ids=["hmz-n32-tol-1e-14", "lambda-1e5"],
)
def test_setup_probe_accepts_sound_factors(argv, capsys):
    # The probes of the factored blocks leave at most 1.43e-14 and 2.73e-15
    # here, the first above tol but both far below sqrt(eps): the matrices
    # are ill-conditioned, not singular, and every step still meets tol.
    code, out, err = run_main(argv, capsys)
    assert code == 0 and err == "" and "E_a_sigma" in out


def test_block_refused_by_its_probe_ends_the_run_before_any_result(monkeypatch, capsys):
    # A block is factored and probed by the first solve that reaches it, in
    # the first step; a probe that refuses it still ends the run with an
    # error line, led by that step, and exit 1, and no result is printed.
    monkeypatch.setattr(linalg, "PROBE_TOL", 0.0)
    code, out, err = run_main(["--example", "2", "--nx", "4", "--nt", "2"], capsys)
    assert code == 1 and out == ""
    assert err.startswith(
        "error: the step to node 1 (t = 0.5): reduced matrix cannot be factored: solve finished"
    )


@pytest.mark.parametrize(
    "owner, name",
    [(linalg.spla, "splu"), (linalg.CondensedLU, "_rows"), (linalg, "_probe")],
    ids=["splu", "rows", "probe"],
)
def test_factor_out_of_memory_is_named(owner, name, monkeypatch, capsys):
    # Forming, factoring or probing a block can run out of memory: SuperLU
    # raises MemoryError(''), numpy one that names an array, not the block.
    # The one error line names the block, its rows and the size of S, folded
    # to example 2's one block.
    def no_memory(*args, **kwargs):
        raise MemoryError("")

    monkeypatch.setattr(owner, name, no_memory)
    argv = ["--mode", "solve", "--element", "hmz", "--example", "2", "--nx", "8", "--nt", "2"]
    code, out, err = run_main(argv, capsys)
    assert code == 1 and out == ""
    assert err == (
        "error: out of memory factoring block 1 of 1 (56 rows) "
        "of the reduced stress matrix S (88 rows)\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--mu", "1e200"], "is 2.5e-200 times that of"),
        (["--mu", "1e308"], "is 0 times that of"),
        (["--element", "hmz", "--rho", "1e-300"], "is 4.17e-301 times that of"),
        (["--rho", "1e-300", "--t-final", "1e300"], "(dt/4) B^T Cinv B overflows"),
    ],
    ids=["mu-1e200", "mu-1e308", "hmz-rho-1e-300", "coupling-overflow"],
)
def test_scale_checks_precede_the_factor(argv, message, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("factored a matrix that the scale checks refuse")

    monkeypatch.setattr(linalg, "CondensedLU", refuse)
    code, _, err = run_main(_FORCED + argv, capsys)
    assert code == 1 and err.startswith("error:") and message in err
    if "times that of" in message:
        assert "stress-mass term is lost in rounding" in err


def test_huge_step_count_error_exit():
    """--dt 1e-9 resolves to M = 10^9; the per-node arrays cannot be allocated.

    The child caps its own address space at 3 GB before numpy is imported,
    so the 8 GB arrays fail at once, before any assembly.
    """
    script = (
        "import resource, sys\n"
        "cap = 3 << 30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "from viscowave.cli import main\n"
        "sys.exit(main(['--example', '1', '--dt', '1e-9', '--nx', '2']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: cannot record 1e+09 time nodes")
    assert "Traceback" not in proc.stderr


def test_unit_material_check_precedes_assembly(monkeypatch, capsys):
    def assemble_system(*args, **kwargs):
        raise AssertionError("assembled before the material check")

    monkeypatch.setattr(timestepper, "assemble_system", assemble_system)
    code, _, err = run_main(["--mu", "2", "--example", "1", "--nx", "2", "--nt", "2"], capsys)
    assert code == 1 and "unit material" in err


# one non-default value per setting, as it is written after the flag or the '='
_SETTING_SAMPLES = {
    "mode": "stability",
    "element": "hmz",
    "example": "2",
    "nx": "2,4",
    "nt": "3",
    "dt": "0.25,0.5",
    "t_final": "0.5",
    "rho": "2.5",
    "mu": "0.75",
    "lam": "3",
    "solver_tol": "1e-9",
    "preset": "table7",
    "snapshot_every": "3",
    "out": "x.csv",
    "force": "true",
}


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_setting_flag_and_config_file_agree(name, tmp_path):
    assert set(_SETTING_SAMPLES) == set(SETTINGS)
    parser = _build_parser()
    value = _SETTING_SAMPLES[name]
    setting = SETTINGS[name]
    flag_argv = [setting.option] if name == "force" else [setting.option, value]
    from_flag, flag_given = _settings(parser.parse_args(flag_argv))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {value}\n")
    from_file, file_given = _settings(parser.parse_args(["--config", str(cfg)]))
    assert from_flag[name] == from_file[name]
    defaults, default_given = _settings(parser.parse_args([]))
    assert from_flag[name] != defaults[name]
    assert name in flag_given and flag_given.keys() == file_given.keys() and not default_given


def test_config_file_rejects_flag_only_names(tmp_path, capsys):
    for line in ("config = other.cfg\n", "lambda = 2\n"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line)
        code, _, err = run_main(["--config", str(cfg)], capsys)
        assert code == 1 and "unknown setting" in err


def test_config_file_value_outside_choices_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = bogus\n")
    code, _, err = run_main(["--config", str(cfg)], capsys)
    assert code == 1 and err.startswith(f"error: {cfg}:1: mode = bogus: expected one of solve,")


@pytest.mark.parametrize(
    "flag_argv, config_text, message",
    [
        (["--example", "x"], None, "--example x: invalid literal for int() with base 10: 'x'"),
        (["--rho", "abc"], None, "--rho abc: could not convert string to float: 'abc'"),
        (None, "# run\nexample = 1\nrho = abc\n",
         "{cfg}:3: rho = abc: could not convert string to float: 'abc'"),
        (["--nx", "2,x"], None, "--nx 2,x: expected comma-separated integers, got '2,x'"),
        # A bad choice is the same one line from a flag as from a config file.
        (["--mode", "bogus"], None,
         "--mode bogus: expected one of solve, convergence, temporal-convergence, stability, infsup"),
        (["--element", "foo"], None, "--element foo: expected one of nedelec-q1q0, hmz"),
        (["--preset", "bogus"], None,
         "--preset bogus: expected one of table1, table2, table3, table7, table8, table9"),
    ],
    ids=["flag-int", "flag-float", "config-file-key", "list", "flag-mode", "flag-element",
         "flag-preset"],
)
def test_unparsable_value_names_its_setting_and_source(
    flag_argv, config_text, message, tmp_path, capsys
):
    cfg = tmp_path / "run.cfg"
    argv = flag_argv
    if config_text is not None:
        cfg.write_text(config_text)
        argv = ["--config", str(cfg)]
    code, out, err = run_main(argv, capsys)
    assert code == 1 and out == ""
    assert err == "error: " + message.format(cfg=cfg) + "\n"


def test_console_script_installed():
    exe = shutil.which("viscowave")
    assert exe is not None
    proc = subprocess.run(
        [exe, "--mode", "infsup", "--element", "hmz", "--nx", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "N,beta_h"


def test_import_leaves_out_scipy_stats():
    """Importing the package and its CLI loads no statistics module."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, viscowave, viscowave.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_runs_under_fresh_interpreter():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from viscowave.cli import main; raise SystemExit(main("
         "['--mode', 'solve', '--element', 'hmz', '--example', '1', '--nx', '2', "
         "'--nt', '2']))"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and "final energy" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "convergence", "--nx", "32,16", "--nt", "4"],
        ["--mode", "convergence", "--nx", "8,8", "--nt", "4"],
        ["--mode", "convergence", "--nx", "4", "--nt", "4"],
        ["--mode", "temporal-convergence", "--nt", "8,4"],
        ["--mode", "temporal-convergence", "--nt", "4,4"],
        ["--mode", "temporal-convergence", "--nt", "4"],
    ],
    ids=["nx-decreasing", "nx-repeated", "nx-single", "nt-decreasing", "nt-repeated", "nt-single"],
)
def test_study_parameters_checked_before_any_run(argv, monkeypatch, capsys):
    def no_run(cfg):
        raise AssertionError("a study ran before its parameter list was checked")

    monkeypatch.setattr(cli, "run", no_run)
    code, _, err = run_main(argv + ["--example", "1", "--element", "hmz"], capsys)
    assert code == 1 and err.startswith("error:") and "strictly increasing" in err


def _refuse(*args, **kwargs):
    raise AssertionError("ran before the --out directory was checked")


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "solve", "--example", "1", "--nx", "2", "--nt", "2", "--snapshot-every", "1"],
        ["--mode", "convergence", "--example", "1", "--nx", "8,16,32", "--nt", "50"],
        ["--mode", "temporal-convergence", "--example", "1", "--nt", "2,4"],
        ["--mode", "stability", "--example", "1", "--nx", "2", "--dt", "0.5,0.25"],
        ["--mode", "infsup", "--nx", "2,3"],
    ],
    ids=["solve", "convergence", "temporal-convergence", "stability", "infsup"],
)
def test_missing_out_directory_errors_before_any_run(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run", _refuse)
    monkeypatch.setattr(cli, "infsup_constants", _refuse)
    out = tmp_path / "missing" / "t.csv"
    code, stdout, err = run_main(argv + ["--element", "hmz", "--out", str(out)], capsys)
    assert code == 1 and stdout == "" and "Traceback" not in err
    assert err == f"error: {argv[1]} mode cannot write --out {out}: no such directory\n"
    # Solve mode's --out is a file stem: a directory stem would write beside it.
    before = sorted(tmp_path.parent.iterdir())
    code, stdout, err = run_main(argv + ["--element", "hmz", "--out", str(tmp_path)], capsys)
    assert code == 1 and stdout == "" and list(tmp_path.iterdir()) == []
    assert sorted(tmp_path.parent.iterdir()) == before
    assert err == f"error: {argv[1]} mode cannot write --out {tmp_path}: it is a directory\n"


def test_solve_out_without_snapshots_errors_before_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run", _refuse)
    code, stdout, err = run_main(
        ["--mode", "solve", "--example", "1", "--nx", "2", "--nt", "2",
         "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 1 and stdout == "" and list(tmp_path.iterdir()) == []
    assert err == "error: solve mode writes --out only as the stem of --snapshot-every files\n"


_RUN_DEFAULTS = dict(
    element="nedelec-q1q0", t_final=1.0, rho=1.0, mu=1.0, lam=1.0, solver_tol=1e-12,
    force=False, out=None,
)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_each_preset_expands_under_its_own_mode(preset, monkeypatch, capsys):
    calls = []

    def record(study):
        def fake(**kwargs):
            calls.append((study, kwargs))
            return [], []

        return fake

    monkeypatch.setattr(cli, "convergence_study", record("convergence"))
    monkeypatch.setattr(cli, "temporal_study", record("temporal"))
    code, out, err = run_main(["--preset", preset], capsys)
    assert code == 0 and err == "" and out == HEADER_LINE + "\n"
    k = int(preset[len("table"):])
    if k <= 3:
        expected = dict(_RUN_DEFAULTS, example=k, ns=[4, 8, 16, 32, 64], n_steps=200, dt=None)
        assert calls == [("convergence", expected)]
    else:
        expected = dict(_RUN_DEFAULTS, example=k - 6, ms=[4, 8, 12, 16])
        assert calls == [("temporal", expected)]


def test_mode_table_reads_only_known_settings():
    for name, mode in MODES.items():
        assert set(mode.reads) <= set(SETTINGS), name
        assert set(mode.lists) | set(mode.needs) <= set(mode.reads), name
        assert len(set(mode.reads)) == len(mode.reads), name
    read = {key for mode in MODES.values() for key in mode.reads}
    assert read == set(SETTINGS) - {"mode", "preset"}
    assert SETTINGS["mode"].choices == tuple(MODES)
