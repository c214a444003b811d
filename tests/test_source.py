"""The package's source keeps every line within 100 characters, only the
command line prints, since library code logs, one place calls SuperLU, and
every module's ``__all__`` names only what the module defines."""

import ast
import importlib
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "viscowave"
LIMIT = 100


def test_source_lines_fit_in_the_limit():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    long = [
        f"{path.name}:{number} has {len(line)} characters"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert not long


def test_only_the_command_line_prints():
    paths = sorted(SOURCE.glob("*.py"))
    assert "cli.py" in [path.name for path in paths]
    printing = [
        f"{path.name}:{node.lineno}"
        for path in paths
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    ]
    assert not printing


def test_one_place_calls_superlu():
    # ``linalg._superlu`` holds the options every block is factored with,
    # its panel width among them; a second call of ``splu`` would factor
    # with scipy's defaults, a 20-column panel, and raise the peak memory.
    calls = [
        (path.name, node)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "splu" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert [name for name, _ in calls] == ["linalg.py"]
    assert "panel_size" in [keyword.arg for keyword in calls[0][1].keywords]


def test_every_name_in_all_is_defined():
    # A stale name in ``__all__`` fails only under ``from module import *``.
    stale = [
        f"{path.stem}.{name}"
        for path in sorted(SOURCE.glob("*.py"))
        if not path.stem.startswith("__")  # __main__ would run the command line
        for module in [importlib.import_module(f"viscowave.{path.stem}")]
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not stale
