"""Public names: every export resolves, the package exports nothing that
its modules do not list, and no module or test file imports a name it never
uses."""

import ast
import inspect
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


SOURCES = sorted(
    path for path in Path(layerode.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
) + sorted(Path(__file__).parent.glob("*.py"))


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
