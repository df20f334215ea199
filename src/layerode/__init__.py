"""Parameter-robust solver for stiff linear first-order ODE systems.

Systems E u'(t) + A(t) u(t) = f(t) on (0, T] with E = diag(eps_1 .. eps_n),
0 < eps_1 < .. < eps_n <= 1, develop one initial layer per scale. Meshes
condense points inside the nested layers (piecewise-uniform Shishkin
construction), the time march is backward Euler, and the analysis module
measures maximum-norm errors and convergence orders, including worst-case
orders over parameter grids.
"""

from .analysis import (
    MODE_EXACT,
    MODE_TWO_MESH,
    ConvergenceReport,
    ConvergenceRow,
    MeshNestingError,
    OracleUnavailableError,
    SweepReport,
    convergence_study,
    default_eps_grid,
    eps_label,
    exact_constant_solution,
    exact_error,
    matrix_exponential,
    order_rows,
    two_mesh_difference,
    uniform_sweep,
)
from .mesh import (
    MeshError,
    ShishkinMesh,
    bisect_mesh,
    build_mesh,
    interaction_points,
)
from .problem import (
    ProblemFormatError,
    ProblemSpec,
    ProblemValidationError,
    ValidatedProblem,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    sample_A,
    sample_f,
    validate,
)
from .solver import (
    DecomposedSolution,
    SolutionGrid,
    SolveFailureError,
    StabilityCertificate,
    certify_max_principle,
    certify_stability,
    decompose,
    march,
    solve,
    step_matrices,
)

__version__ = "0.1.0"
