"""The package's source keeps every line within 100 characters, and only the
command line prints: library code logs."""

import ast
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
