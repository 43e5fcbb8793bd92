"""Rules that the package source keeps across its modules."""

import ast

import pytest

from conftest import CONFIG_DIR

SRC = CONFIG_DIR.parent / "src" / "landmark_coverage"


def private_imports(source: str) -> list[str]:
    """The underscore names that ``from module import name`` lines bring in.

    A private alias of a public name (``import check_schema as
    _check_schema``) is allowed; dunder names such as ``__version__`` are
    public.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    found.append(f"line {node.lineno}: {name} from {'.' * node.level}{node.module or ''}")
    return found


@pytest.mark.parametrize("source, expected", [
    ("from .deployment import _check_plate_count", 1),
    ("from .deployment import (\n    evaluate_coverage,\n    _CHUNK_ELEMENTS,\n)", 1),
    ("from landmark_coverage.geometry import _PLATE_FIELDS as fields", 1),
    ("from .errors import check_schema as _check_schema", 0),
    ("from . import __version__", 0),
])
def test_private_import_check_flags_only_underscore_names(source, expected):
    assert len(private_imports(source)) == expected


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    offenders = {
        path.name: found
        for path in modules
        if (found := private_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def imports_concurrent(source: str) -> bool:
    """Whether a module imports the ``concurrent`` package or one of its modules."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "concurrent" for name in names):
            return True
    return False


def test_no_module_runs_a_thread_pool():
    """Gate-core passes run serially: no module imports ``concurrent``."""
    importers = {path.name for path in SRC.glob("*.py") if imports_concurrent(path.read_text(encoding="utf-8"))}
    assert importers == set()


def called_functions(source: str, root: str) -> set[str]:
    """The module-level functions that ``root`` names, directly or through those functions.

    A function counts when its name is loaded anywhere in a body on the
    walk, whether it is called there or handed on as a callable.
    """
    functions = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    found, todo = set(), [root]
    while todo:
        for node in ast.walk(functions[todo.pop()]):
            if isinstance(node, ast.Name) and node.id in functions and node.id not in found | {root}:
                found.add(node.id)
                todo.append(node.id)
    return found


@pytest.mark.parametrize("source, expected", [
    ("def _core():\n    return helper()\n\ndef helper():\n    return _leaf()\n\ndef _leaf():\n    return 1\n",
     {"helper", "_leaf"}),
    ("def _core():\n    return list(map(_leaf, []))\n\ndef _leaf(x):\n    return x\n\ndef public():\n    return _core()\n",
     {"_leaf"}),
])
def test_called_functions_follow_the_helpers(source, expected):
    assert called_functions(source, "_core") == expected


def test_gate_core_calls_only_private_coverage_functions():
    """Every ``coverage`` function that a gate-core pass runs starts with an underscore.

    The benchmark's tracer wraps each public function of ``coverage`` in a
    span, so a public helper called once per pass would add a span to every
    pass and its cost to the traced figures.
    """
    called = called_functions((SRC / "coverage.py").read_text(encoding="utf-8"), "_live_gates")
    assert {"_classify_window", "_occluded"} <= called
    assert sorted(name for name in called if not name.startswith("_")) == []


def test_the_runner_resolves_the_camera_once_before_its_passes():
    """``_run_passes`` finds the depth cuts before its pass loop; the gate core never sees the camera.

    ``_depth_cuts`` and ``focus_depths`` are named in the runner outside its
    one loop, by nothing that ``_live_gates`` reaches, and ``_live_gates``
    takes no intrinsics, blur tolerance or threshold.
    """
    source = (SRC / "coverage.py").read_text(encoding="utf-8")
    functions = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    runner = functions["_run_passes"]
    loops = [node for node in ast.walk(runner) if isinstance(node, ast.For)]
    outside = [node for node in runner.body if node not in loops]
    assert len(loops) == 1 and {"_depth_cuts", "focus_depths"} <= names_in(ast.Module(body=outside, type_ignores=[]))
    assert names_in(ast.Module(body=loops[0].body, type_ignores=[])) & {"_depth_cuts", "focus_depths"} == set()
    for name in called_functions(source, "_live_gates") | {"_live_gates"}:
        assert names_in(functions[name]) & {"_depth_cuts", "focus_depths", "intrinsics"} == set(), name
    params = {arg.arg for arg in functions["_live_gates"].args.args}
    assert params & {"intrinsics", "delta", "thold"} == set()


def test_gate_core_builds_no_occluder_table():
    """The occluder table is built once per call of more than one row, by ``_run_passes``.

    The gate core only reads it: a table built per pass would cost about
    as much as the occlusion tests it saves.
    """
    called = called_functions((SRC / "coverage.py").read_text(encoding="utf-8"), "_live_gates")
    assert "_occluded" in called and "_occluder_table" not in called


def names_in(node) -> set[str]:
    """Every name that ``node``'s code loads, binds, imports or reads as an attribute."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.alias):
            found.add(child.name)
    return found


@pytest.mark.parametrize("module", ["deployment.py", "observer.py"])
def test_callers_leave_passes_and_tables_to_coverage(module):
    """How a call's rows are cut into passes, and which occluder table they read, is decided in ``coverage``."""
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert names_in(tree) & {"gate_passes", "seen_from", "_occluder_table", "_CHUNK_ELEMENTS"} == set()


def test_one_function_runs_the_gate_core_passes():
    """``_run_passes`` alone runs ``gate_passes``' passes of ``_live_gates``, calling only private functions per pass.

    The benchmark's tracer wraps each public function of ``coverage`` in a
    span, so a public function called per pass, in the loop or in a
    reduction that an entry point hands the runner, would add a span to
    every pass.
    """
    tree = ast.parse((SRC / "coverage.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    runners = {name for name, node in functions.items() if {"gate_passes", "_live_gates"} & names_in(node)}
    assert runners == {"_run_passes"}
    loops = [node for node in ast.walk(functions["_run_passes"]) if isinstance(node, ast.For)]
    assert len(loops) == 1 and "_live_gates" in names_in(ast.Module(body=loops[0].body, type_ignores=[]))
    per_pass = [ast.Module(body=loops[0].body, type_ignores=[])]
    for node in functions.values():  # the reductions of the runner's callers
        if "_run_passes" in names_in(node) and node.name != "_run_passes":
            per_pass += [child for child in ast.walk(node) if isinstance(child, ast.Lambda)]
    assert len(per_pass) > 3
    # module functions are reached by name; ``pdf.masked_fsum`` is the pdf's own callable
    called = {child.id for node in per_pass for child in ast.walk(node) if isinstance(child, ast.Name)}
    called &= set(functions)
    assert "_live_gates" in called and sorted(name for name in called if not name.startswith("_")) == []


def test_passes_read_no_occluder_table_and_the_blocked_step_runs_once_before_them():
    """``_live_gates`` and what it calls read no occluder table; ``_run_passes`` calls ``_blocked_mask`` once, before its pass loop.

    The tabled occlusion test runs once per call, over the rows of every
    pass; only a one-row call, which has no table, tests occlusion in its pass.
    """
    source = (SRC / "coverage.py").read_text(encoding="utf-8")
    functions = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    for name in called_functions(source, "_live_gates") | {"_live_gates"}:
        assert names_in(functions[name]) & {"occluders", "_occluder_table", "seen_from", "_blocked_mask"} == set(), name
    runner = functions["_run_passes"]
    calls = [node for node in ast.walk(runner) if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_blocked_mask"]
    loops = [node for node in ast.walk(runner) if isinstance(node, ast.For)]
    assert len(calls) == 1 and len(loops) == 1 and calls[0].lineno < loops[0].lineno
    assert "_blocked_mask" not in names_in(ast.Module(body=loops[0].body, type_ignores=[]))


def test_plate_rows_carry_plates_and_nothing_the_runner_builds():
    """``PlateRows`` holds three plate fields, and no module names a table or window block outside the runner.

    The occluder table and the window classifier's scaled axes are locals
    of ``_run_passes``, built once per call; a field, method or cache that
    carried them would be a second place to decide when they are built.
    """
    from landmark_coverage.coverage import PlateRows

    assert PlateRows._fields == ("positions", "normals", "nu")
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert names_in(tree) & {"occluders", "seen_from", "window_axes"} == set(), path.name
