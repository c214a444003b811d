"""The package's source keeps every line within 100 characters, only the
command line prints, since library code logs, one place calls SuperLU, one
place ranks the half-step grid, one place scatters element matrices, no
public assembly function takes rows, and every module's ``__all__`` names
only what the module defines."""

import ast
import importlib
import inspect
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


def test_one_place_ranks_the_grid():
    # A stress space's fold and the blocks of its solve name each orbit
    # after its first dof in (gx, gy) order; the split holds only if both
    # rank the half-step grid alike, so one function, ``symmetry.grid_rank``,
    # sorts it, and the solve numbers no outer dofs of its own.
    sorts = [
        path.name
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "lexsort"
    ]
    assert sorts == ["symmetry.py"]
    symmetry = importlib.import_module("viscowave.symmetry")
    assert "np.lexsort(" in inspect.getsource(symmetry.grid_rank)
    assert "searchsorted" not in (SOURCE / "linalg.py").read_text()


def test_one_place_scatters_element_matrices():
    # Every matrix is scattered by ``assembly._scatter``, full-size or at the
    # rows a run reads, so each kept row is array-equal to the full matrix's.
    calls = [
        (path.name, node)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "coo_matrix" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert [name for name, _ in calls] == ["assembly.py"]
    assembly = importlib.import_module("viscowave.assembly")
    assert "sp.coo_matrix(" in inspect.getsource(assembly._scatter)


def test_no_public_assembly_function_takes_rows():
    # A run's rows are scattered from the system's element matrices
    # (``AssembledSystem.at_rows``); the public functions assemble whole.
    assembly = importlib.import_module("viscowave.assembly")
    public = [
        (name, function)
        for name, function in inspect.getmembers(assembly, inspect.isfunction)
        if function.__module__ == assembly.__name__ and not name.startswith("_")
    ]
    assert "assemble_coupling" in dict(public)
    assert [name for name, f in public if "rows" in inspect.signature(f).parameters] == []


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
