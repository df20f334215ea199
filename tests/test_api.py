"""Public names: every export resolves, and the package exports nothing
that its modules do not list."""

import inspect

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
