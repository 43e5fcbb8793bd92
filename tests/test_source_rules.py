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
