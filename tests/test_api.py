"""Public names: every export resolves, the package exports nothing that
its modules do not list, no module or test file imports a name it never
uses, the package imports nothing beyond the standard library and numpy,
and the tests nothing beyond those, pytest and their own modules."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import layerode
from layerode import analysis, mesh, problem, solver

MODULES = (problem, mesh, solver, analysis)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_exports_exist(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_names_come_from_module_exports():
    exported = {name for module in MODULES for name in module.__all__}
    public = {
        name for name, value in vars(layerode).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public - exported == set()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_exports_resolve_on_the_package(module):
    # the numpy-backed modules' names are bound on first use
    assert [name for name in module.__all__
            if getattr(layerode, name) is not getattr(module, name)] == []
    assert sorted(set(module.__all__) - set(dir(layerode))) == []


def test_package_exports_no_constants():
    # The modules read their own constants; a copy that the star import
    # puts in the package would change nothing when rebound.
    assert [name for name in vars(layerode) if name.isupper()] == []


TEST_SOURCES = sorted(Path(__file__).parent.glob("*.py"))
SOURCES = sorted(
    path for path in Path(layerode.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
) + TEST_SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py only re-exports the modules' __all__, so it is left out.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


PACKAGE_SOURCES = sorted(Path(layerode.__file__).parent.glob("*.py"))


def _third_party_imports(path):
    # Top-level names of the absolute imports outside the standard library.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots - set(sys.stdlib_module_names)


@pytest.mark.parametrize("path", PACKAGE_SOURCES, ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    # numpy is the one declared dependency; scipy, say, may be installed
    # but must not be imported.
    assert sorted(_third_party_imports(path) - {"numpy"}) == []


@pytest.mark.parametrize("path", TEST_SOURCES, ids=lambda p: p.name)
def test_tests_import_only_stdlib_numpy_pytest_and_layerode(path):
    # The [test] extra adds pytest alone; cases is the suite's own module.
    allowed = {"numpy", "pytest", "layerode", "cases"}
    assert sorted(_third_party_imports(path) - allowed) == []
