"""Empirical verification: a closed form for constant coefficients, error
measures, and convergence studies.

An error measure is a function of one solved grid: exact_error compares it
with the closed form, two_mesh_difference with a march on the bisected
mesh. Both use the discrete maximum norm over the grid's mesh points. A
convergence study is the list of one measure's errors over a doubling
sequence of meshes. Observed orders come from successive halving,
p = log2(e_N / e_2N). Fitted constants divide the error by N^-1 ln N, the
expected decay for this discretization, so a flat fitted constant across N
is the empirical signature of that rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .mesh import bisect_mesh
from .problem import ProblemFormatError, ProblemValidationError, sample_A, validate
from .solver import SolveFailureError, _split_start, march, solve

__all__ = [
    "OracleUnavailableError",
    "ConvergenceRow",
    "ConvergenceReport",
    "SweepReport",
    "exact_constant_solution",
    "exact_error",
    "two_mesh_difference",
    "order_rows",
    "convergence_study",
    "default_eps_grid",
    "eps_label",
    "uniform_sweep",
]

# How far a computed propagator exp(-t E^-1 A) may stray from the
# nonnegative matrices with row sums at most 1, where every exact one lies.
PROPAGATOR_ATOL = 1e-12
_SERIES_DEGREE = 16
_SERIES_COEFFS = tuple(1.0 / math.factorial(k) for k in range(_SERIES_DEGREE + 1))


class OracleUnavailableError(ValueError):
    """The closed-form reference needs constant coefficients."""


def exact_constant_solution(spec, ts):
    """Closed-form solution at one time or an array of times, for constant
    A and f; shape (len(ts), n), a scalar time counting as one time as in
    sample_A.

    u(t) = A^-1 f + exp(-t E^-1 A) (u(0) - A^-1 f). The propagators
    exp(-t E^-1 A) come from scaling and squaring with a fixed-degree
    series: scaled row norms <= 1/2 keep the degree-16 truncation below
    1e-16 relative. All times share one squaring count, set by the
    largest row norm of the stack of generators -t E^-1 A, so the
    smaller times are overscaled (Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31, 2009). A start A^-1 f or u(0) - A^-1 f that overflows, named
    as decompose names it, or a generator with a non-finite row norm
    (E^-1 A overflows at tiny eps) raises SolveFailureError.

    For a problem that validate accepts, -E^-1 A has nonnegative
    off-diagonal entries and E^-1 A positive row sums, so every exact
    propagator exp(-t E^-1 A) is entrywise nonnegative with row sums at
    most 1. A computed one with an entry below -PROPAGATOR_ATOL or a row
    sum above 1 + PROPAGATOR_ATOL (or a nan) is wrong, and raises
    SolveFailureError rather than give a wrong reference; at very small
    eps the shared squaring count loses the small times that way.
    Raises OracleUnavailableError when the coefficients vary in time,
    ValueError for a negative or non-finite time and
    numpy.linalg.LinAlgError if A is singular.
    """
    if not spec.has_constant_coefficients():
        raise OracleUnavailableError(
            "coefficients vary in time, no closed-form reference; use two_mesh mode"
        )
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not (np.isfinite(ts) & (ts >= 0.0)).all():
        raise ValueError("times must be finite and nonnegative")
    steady, start = _split_start(spec)
    a = sample_A(spec, 0.0)[0]
    gens = -ts[:, None, None] * (a / np.asarray(spec.eps)[:, None])
    norm = float(np.abs(gens).sum(axis=-1).max(initial=0.0))
    if not math.isfinite(norm):
        raise SolveFailureError(
            "closed-form generator -t E^-1 A is not finite (row norm %g)" % norm
        )
    squarings = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    x = gens / (2.0 ** squarings)
    eye = np.eye(spec.n)
    exps = np.zeros_like(x) + eye * _SERIES_COEFFS[-1]
    for c in _SERIES_COEFFS[-2::-1]:
        exps = x @ exps
        exps += c * eye
    for _ in range(squarings):
        exps = exps @ exps
    # entries and row sums, reduced along the time axis of an (n, n, len(ts)) copy
    e = np.ascontiguousarray(exps.transpose(1, 2, 0))
    excess = np.maximum(-e.min(axis=(0, 1)), e.sum(axis=1).max(axis=0) - 1.0)
    bad = np.flatnonzero(~(excess <= PROPAGATOR_ATOL))
    if bad.size:
        k = int(bad[0])
        raise SolveFailureError(
            "closed-form propagator at t=%.6g leaves its bounds by %.3e" % (ts[k], excess[k])
        )
    return steady + exps @ start


def exact_error(grid):
    """Maximum-norm gap between a computed grid and the closed form of the
    problem it carries.

    Defined only for constant coefficients; time-varying problems have no
    closed form here, measure them with the two-grid difference instead.
    """
    exact = exact_constant_solution(grid.problem.spec, grid.mesh.points)
    return float(np.abs(grid.values - exact).max())


def two_mesh_difference(grid):
    """Maximum-norm difference at the grid's points between the grid and a
    march of its problem on the bisected mesh from the same initial value.

    bisect_mesh keeps every point of the mesh, so the fine grid's even
    points are the grid's own and no interpolation is needed.
    """
    fine = march(grid.problem, bisect_mesh(grid.mesh), grid.values[0])
    return float(np.abs(grid.values - fine.values[::2]).max())


@dataclass(frozen=True)
class ConvergenceRow:
    """One mesh size: its error, observed order and fitted constant."""

    N: int
    error: float
    p: object
    c_fit: float


@dataclass(frozen=True)
class ConvergenceReport:
    eps_label: str
    rows: tuple


@dataclass(frozen=True)
class SweepReport:
    """Per-parameter reports plus the uniform rows: for each N, the worst
    error over the whole grid."""

    reports: tuple
    uniform: tuple


def order_rows(n_values, errors):
    """Pair mesh sizes with errors; p = log2(e_N / e_2N) is absent on the
    last row and wherever an error vanishes, c_fit = error * N / ln N.
    Where the quotient over- or underflows, p is log2(e_N) - log2(e_2N)."""
    rows = []
    for i, (nn, err) in enumerate(zip(n_values, errors)):
        nn = int(nn)
        err = float(err)
        p = None
        if i + 1 < len(errors) and err > 0.0 and errors[i + 1] > 0.0:
            ratio = err / float(errors[i + 1])
            p = (math.log2(ratio) if 0.0 < ratio < math.inf
                 else math.log2(err) - math.log2(errors[i + 1]))
        rows.append(ConvergenceRow(N=nn, error=err, p=p, c_fit=err * nn / math.log(nn)))
    return tuple(rows)


def convergence_study(vp, n_values, error):
    """Errors and observed orders over a doubling sequence of mesh sizes.

    error is a measure of one solved grid, exact_error or
    two_mesh_difference; it is applied to solve(vp, N) for each N.
    exact_error raises OracleUnavailableError when the coefficients vary in
    time. A non-finite error raises SolveFailureError, since it would leave
    every order after it undefined. Sizes are not rounded: one that solve
    cannot mesh, a non-integral one among them, raises MeshError.
    """
    n_values = list(n_values)
    if not n_values:
        raise ValueError("need at least one mesh size")
    for first, second in zip(n_values, n_values[1:]):
        if second != 2 * first:
            raise ValueError("mesh sizes must double, got %s then %s" % (first, second))
    errors = [error(solve(vp, nn)) for nn in n_values]
    for nn, err in zip(n_values, errors):
        if not math.isfinite(err):
            raise SolveFailureError("error at N=%d is not finite" % nn)
    return ConvergenceReport(
        eps_label=eps_label(vp.spec.eps),
        rows=order_rows(n_values, errors),
    )


def eps_label(eps):
    """Compact description of a parameter vector, powers of two spelled as such."""
    parts = []
    for e in eps:
        mantissa, exponent = math.frexp(float(e))
        parts.append("2^%d" % (exponent - 1) if mantissa == 0.5 else "%.6g" % e)
    return ",".join(parts)


def default_eps_grid(n):
    """Default parameter grid for robustness sweeps.

    The largest scale runs over 2^0, 2^-3, .., 2^-18; each remaining scale
    sits a fixed power-of-two ratio (2^-2, 2^-6 or 2^-10) below its
    neighbor.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    grid = []
    for top_power in range(0, -19, -3):
        top = 2.0 ** top_power
        for ratio_power in (2, 6, 10):
            eps = tuple(top * 2.0 ** (-ratio_power * (n - 1 - i)) for i in range(n))
            if eps not in grid:
                grid.append(eps)
    return grid


def uniform_sweep(template, eps_grid, n_values, error):
    """Convergence studies across a parameter grid plus worst-case rows.

    Parameters
    ----------
    template : ProblemSpec
        Problem whose eps is replaced by each grid entry in turn; its own
        eps is never validated.
    eps_grid : iterable of tuples
        Parameter choices; duplicates collapse and the order is canonical
        (sorted), so results do not depend on how the grid was produced.
    n_values : list of int
        Doubling mesh sizes, shared by every study.
    error : callable
        Error measure of one solved grid, exact_error or
        two_mesh_difference.

    Every grid entry is validated before the first study runs; one that
    fails re-raises validate's error (or the spec's format error), its
    fields kept and its message led by `eps grid entry <entry>: `. Each
    entry is then run through convergence_study in this process, in sorted
    order, so a sweep is exactly the studies `converge` would report one
    parameter choice at a time.

    Returns
    -------
    SweepReport
        The uniform rows take, for each N, the largest error over the grid;
        their orders are the parameter-robust orders.
    """
    grid = sorted({tuple(float(e) for e in eps) for eps in eps_grid})
    if not grid:
        raise ValueError("empty eps grid")
    n_values = list(n_values)
    problems = []
    for eps in grid:
        try:
            problems.append(validate(replace(template, eps=eps)))
        except (ProblemFormatError, ProblemValidationError) as exc:
            exc.args = ("eps grid entry %s: %s" % (",".join(map(repr, eps)), exc),)
            raise
    reports = tuple(convergence_study(vp, n_values, error) for vp in problems)
    worst = [
        max(report.rows[i].error for report in reports)
        for i in range(len(n_values))
    ]
    return SweepReport(
        reports=reports,
        uniform=order_rows(n_values, worst),
    )
