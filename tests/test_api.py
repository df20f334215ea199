"""Public names: every export resolves, the package binds none of them
itself, the README's library example runs, no module or test file imports a
name it never uses, the package imports nothing beyond the standard library
and numpy, and the tests nothing beyond those, pytest and their own
modules."""

import ast
import inspect
import re
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


def test_package_binds_only_its_modules_and_version():
    # Each public name has one home, the module whose __all__ lists it.
    bound = vars(layerode)
    assert [name for name, value in bound.items()
            if not name.startswith("__") and not inspect.ismodule(value)] == []
    assert sorted({"__all__", "__dir__", "__getattr__"} & set(bound)) == []
    assert isinstance(layerode.__version__, str)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(code, {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[2] == "((0.0,), (0.0,))"


TEST_SOURCES = sorted(Path(__file__).parent.glob("*.py"))
PACKAGE_SOURCES = sorted(Path(layerode.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_SOURCES + TEST_SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


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
