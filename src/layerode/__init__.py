"""Parameter-robust solver for stiff linear first-order ODE systems.

Systems E u'(t) + A(t) u(t) = f(t) on (0, T] with E = diag(eps_1 .. eps_n),
0 < eps_1 < .. < eps_n <= 1, develop one initial layer per scale. Meshes
condense points inside the nested layers (piecewise-uniform Shishkin
construction), the time march is backward Euler, and the analysis module
measures maximum-norm errors and convergence orders, including worst-case
orders over parameter grids.

Each public name lives on the one module whose __all__ lists it: problem,
mesh, solver or analysis. Import it from there; `import layerode` binds
only __version__ and loads no numpy.
"""

__version__ = "0.1.0"
