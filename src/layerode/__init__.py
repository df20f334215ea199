"""Parameter-robust solver for stiff linear first-order ODE systems.

Systems E u'(t) + A(t) u(t) = f(t) on (0, T] with E = diag(eps_1 .. eps_n),
0 < eps_1 < .. < eps_n <= 1, develop one initial layer per scale. Meshes
condense points inside the nested layers (piecewise-uniform Shishkin
construction), the time march is backward Euler, and the analysis module
measures maximum-norm errors and convergence orders, including worst-case
orders over parameter grids.

Each module's __all__ is the one list of its public names, and every one of
them is a name of this package. The problem module's names are bound on
import; those of the numpy-backed modules (mesh, solver, analysis) on first
use of any name that is not bound yet (PEP 562), so `import layerode` and
validating a problem need no numpy.
"""

from .problem import *

__version__ = "0.1.0"


def _bind_all():
    """Bind the names of every module's __all__ here, and __all__ as their
    list."""
    import importlib

    exported = []
    for name in ("problem", "mesh", "solver", "analysis"):
        module = importlib.import_module("." + name, __name__)
        exported += module.__all__
        for attr in module.__all__:
            globals().setdefault(attr, getattr(module, attr))
    globals().setdefault("__all__", exported)


def __getattr__(name):
    # `from layerode import *` reads __all__, so it binds every name too.
    if name == "__all__" or not name.startswith("__"):
        _bind_all()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _bind_all()
    return sorted(globals())
