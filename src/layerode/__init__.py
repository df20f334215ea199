"""Parameter-robust solver for stiff linear first-order ODE systems.

Systems E u'(t) + A(t) u(t) = f(t) on (0, T] with E = diag(eps_1 .. eps_n),
0 < eps_1 < .. < eps_n <= 1, develop one initial layer per scale. Meshes
condense points inside the nested layers (piecewise-uniform Shishkin
construction), the time march is backward Euler, and the analysis module
measures maximum-norm errors and convergence orders, including worst-case
orders over parameter grids.
"""

# Each module's __all__ is the one list of its public names.
from .analysis import *
from .mesh import *
from .problem import *
from .solver import *

__version__ = "0.1.0"
