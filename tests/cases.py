"""Shared problem builders and randomized generators for the test suite."""

from dataclasses import replace
from pathlib import Path

import numpy as np

from layerode.problem import ProblemSpec, load_problem, validate

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def poly(*coeffs):
    """One polynomial entry of A or f: ascending coefficients as floats."""
    return tuple(float(c) for c in coeffs)


def constant_matrix(rows):
    return tuple(tuple(poly(entry) for entry in row) for row in rows)


def constant_two_scale(eps=(1e-4, 1e-2)):
    """problems/constant_two_scale.json: a symmetric constant pair with
    alpha = 2 and a nonzero steady state."""
    return replace(load_problem(PROBLEMS / "constant_two_scale.json"), eps=eps)


def decoupled_identity(eps=(2.0 ** -6, 2.0 ** -2)):
    """Two independent scalar decays; closed form is two exponentials."""
    return ProblemSpec(
        n=2,
        A=constant_matrix([[1.0, 0.0], [0.0, 1.0]]),
        f=(poly(0.0), poly(0.0)),
        u0=(1.0, 1.0),
        T=1.0,
        eps=eps,
    )


def layer_two_scale(eps=(0.01, 0.1)):
    """Homogeneous coupled pair; the solution is pure layer."""
    return ProblemSpec(
        n=2,
        A=constant_matrix([[2.0, -1.0], [-1.0, 2.0]]),
        f=(poly(0.0), poly(0.0)),
        u0=(1.0, 1.0),
        T=1.0,
        eps=eps,
    )


def steady_scalar():
    """u0 already equals the steady state; every scheme value is exact."""
    return ProblemSpec(
        n=1, A=((poly(1.0),),), f=(poly(2.0),), u0=(2.0,), T=2.0, eps=(1.0,)
    )


def decay_scalar():
    """Plain scalar decay u' + u = 0, u(0) = 1 on [0, 2]."""
    return ProblemSpec(
        n=1, A=((poly(1.0),),), f=(poly(0.0),), u0=(1.0,), T=2.0, eps=(1.0,)
    )


def variable_three_scale(eps=(2.0 ** -8, 2.0 ** -4, 1.0)):
    """problems/variable_three_scale.json: three coupled scales with a
    time-varying diagonal; alpha = 2."""
    return replace(load_problem(PROBLEMS / "variable_three_scale.json"), eps=eps)


def zero_forcing(spec):
    """The same problem with f = 0: the system the layer part solves."""
    return replace(spec, f=(poly(0.0),) * spec.n)


def scaled_identity(eps, alpha, T):
    """Validated problem E u' + alpha u = 0 with u(0) = 1 per component.

    A = alpha I has every row sum equal to alpha, so the extracted alpha is
    exactly the given one; the mesh depends only on eps, alpha, T and N.
    """
    n = len(eps)
    A = constant_matrix([[alpha if i == j else 0.0 for j in range(n)] for i in range(n)])
    return validate(ProblemSpec(n=n, A=A, f=(poly(0.0),) * n, u0=(1.0,) * n,
                                T=T, eps=eps))


def suite():
    """Representative named problems used by the cross-cutting checks."""
    return [
        ("constant_two_scale", constant_two_scale()),
        ("decoupled_identity", decoupled_identity()),
        ("layer_two_scale", layer_two_scale()),
        ("steady_scalar", steady_scalar()),
        ("decay_scalar", decay_scalar()),
        ("variable_three_scale", variable_three_scale()),
    ]


def inverse_nonnegative(m, tol=1e-12):
    """True iff every entry of the inverse of m, or of every matrix in a
    stack m, is >= -tol: the monotonicity behind every step solve."""
    return bool((np.linalg.inv(m) >= -float(tol)).all())


def random_eps(rng, n, lo_power=20.0):
    """Strictly increasing parameters in (0, 1], log-uniform scales."""
    while True:
        values = np.sort(2.0 ** -rng.uniform(0.0, lo_power, size=n))
        if values[-1] <= 1.0 and (n == 1 or (np.diff(values) > 0.0).all()):
            return tuple(float(v) for v in values)


def random_nonneg_problem(rng, n_max=6):
    """Admissible random problem with nonnegative data and row sums fixed at 1.

    Off-diagonal entries are nonpositive affine polynomials; each diagonal
    entry carries its row's off-diagonal mass plus 1, so strict dominance
    and alpha = 1 hold for every draw by construction.
    """
    n = int(rng.integers(1, n_max + 1))
    c0 = rng.uniform(0.0, 1.0, size=(n, n))
    c1 = rng.uniform(0.0, 0.5, size=(n, n))
    rows = []
    for i in range(n):
        off0 = sum(c0[i, j] for j in range(n) if j != i)
        off1 = sum(c1[i, j] for j in range(n) if j != i)
        row = []
        for j in range(n):
            if i == j:
                row.append(poly(1.0 + off0, off1))
            else:
                row.append(poly(-c0[i, j], -c1[i, j]))
        rows.append(tuple(row))
    f = tuple(poly(rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0)) for _ in range(n))
    u0 = tuple(float(v) for v in rng.uniform(0.0, 2.0, size=n))
    return ProblemSpec(n=n, A=tuple(rows), f=f, u0=u0, T=2.5,
                       eps=random_eps(rng, n))


def random_mesh_draw(rng, n_max=6):
    """Inputs for a mesh build: a validated scaled_identity problem and an
    admissible N.

    A horizon drawn below 2 eps_n / alpha, which validation rejects, is
    raised to that floor; the draw consumes the generator all the same.
    """
    n = int(rng.integers(1, n_max + 1))
    eps = random_eps(rng, n)
    alpha = float(rng.uniform(0.3, 5.0))
    T = max(float(rng.uniform(0.5, 3.0)), 2.0 * eps[-1] / alpha)
    N = 2 ** n * int(rng.integers(1, 17))
    return scaled_identity(eps, alpha, T), N


def random_separated_eps(rng, n):
    """Strictly increasing parameters with every adjacent ratio at least 2."""
    top = float(2.0 ** -rng.uniform(0.0, 4.0))
    values = [top]
    for _ in range(n - 1):
        values.append(values[-1] / float(rng.uniform(2.0, 32.0)))
    return tuple(reversed(values))
