"""The package's source keeps every line within 100 characters, only the
command line prints, since library code logs, one place calls SuperLU, one
place ranks the half-step grid, every fold names its orbits by the mesh's
or a space's rank, one place scatters element matrices, no public assembly
function takes rows, and every module's ``__all__`` names only what the
module defines."""

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


def _calls(tree, name):
    """The calls in ``tree`` of a function or method called ``name``."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def _bindings(function):
    """(target, value) of each plain or tuple-to-tuple assignment in ``function``."""
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                yield from zip(target.elts, value.elts)
            else:
                yield target, value


def test_every_fold_names_its_orbits_by_a_rank():
    # A fold names each orbit after its member first in ``rank``.  The mesh's
    # and each space's ``rank`` give (gx, gy) order, so that B is kept only
    # at the stress representatives' elements; every ``fold`` call passes
    # one of them: the attribute, a name bound to it in the calling
    # function, or a parameter that every caller fills from ``symmetries()``.
    # No orbit is named by dof or element number.
    is_rank = lambda node: isinstance(node, ast.Attribute) and node.attr == "rank"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    named, unnamed = set(), []
    for name, tree in trees.items():
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for function in functions:
            calls = _calls(function, "fold")
            bound = {t.id for t, v in _bindings(function) if is_rank(v) and hasattr(t, "id")}
            if calls and "rank" in [a.arg for a in function.args.args]:
                callers = [c for t in trees.values() for c in _calls(t, function.name)]
                assert callers and all(
                    isinstance(c.args[0], ast.Starred) and _calls(c.args[0], "symmetries")
                    for c in callers
                ), function.name
                bound.add("rank")
            for call in calls:
                (rank,) = call.args[2:] or [k.value for k in call.keywords if k.arg == "rank"]
                ok = is_rank(rank) or getattr(rank, "id", None) in bound
                (named.add if ok else unnamed.append)((name, call.lineno))
    assert {name for name, _ in named} == {"mesh.py", "fespace.py", "linalg.py"}
    assert not set(unnamed) - named


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
