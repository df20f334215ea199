"""Problem data for stiff linear systems E u' + A(t) u = f(t) on [0, T].

Matrix and forcing entries are polynomials in t, held as tuples of ascending
coefficients and evaluated by one Horner rule (_polyval): on arrays of
times by sample_A and sample_f, on single times by validate. That keeps
the file format trivial and makes admissibility exact: each extremum on
[0, T] sits at an endpoint or at a root of the derivative. Validation
establishes the sign and dominance structure of A(t) that the stepping
operator's monotonicity relies on, and extracts the decay rate alpha, the
infimum of the row sums, used to place mesh transition points.

This module imports numpy only inside the functions that need it: the
samplers, and validate for an entry of degree 3 or more, whose derivative's
roots come from numpy. Validating any other problem needs no numpy.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, fields
from itertools import zip_longest

__all__ = [
    "ProblemFormatError",
    "ProblemValidationError",
    "ProblemSpec",
    "ValidatedProblem",
    "validate",
    "sample_A",
    "sample_f",
    "problem_from_dict",
    "load_problem",
]

MAX_POLY_DEGREE = 16


class ProblemFormatError(ValueError):
    """A problem field is malformed; the message names it and quotes its value."""


class ProblemValidationError(ValueError):
    """Problem data violates an admissibility condition.

    Attributes
    ----------
    condition : str
        Machine-readable tag: 'off-diagonal-sign', 'row-dominance',
        'horizon', 'eps-range', 'eps-ordering' or 'eps-coincident'.
    row, col : int or None
        1-based indices of the offending entry, when applicable.
    t : float or None
        Time of the violation, when applicable.
    """

    def __init__(self, condition, message, row=None, col=None, t=None):
        self.condition = condition
        self.row = row
        self.col = col
        self.t = t
        super().__init__(message)


def _number(value, what):
    # Any real number but a bool (JSON true/false, which float() reads as 1/0).
    # An integer beyond double range reads as +-inf, as 1e400 in a file does.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ProblemFormatError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite(value, what):
    v = _number(value, what)
    if not math.isfinite(v):
        raise ProblemFormatError(f"{what} must be finite, got {v!r}")
    return v


def _sequence(value, what):
    """value as a tuple. A string, bytes or a mapping is rejected as a whole,
    like anything that cannot be iterated (a 0-d array among them), rather
    than read item by item."""
    try:
        if not isinstance(value, (str, bytes, Mapping)):
            return tuple(value)
    except TypeError:
        pass
    raise ProblemFormatError(f"{what} must be a sequence, got {value!r}")


def _coeffs(entry):
    """Ascending coefficients c0, c1, .., cd of one polynomial entry of A or f.

    A bare number is a constant; an empty sequence is the zero polynomial.
    Coefficients must be finite and the degree at most MAX_POLY_DEGREE.
    """
    if isinstance(entry, numbers.Real):
        entry = (entry,)
    coeffs = tuple(_finite(c, "polynomial coefficient")
                   for c in _sequence(entry, "polynomial coefficients"))
    if len(coeffs) - 1 > MAX_POLY_DEGREE:
        raise ProblemFormatError(
            "polynomial degree %d exceeds the supported maximum %d"
            % (len(coeffs) - 1, MAX_POLY_DEGREE)
        )
    return coeffs or (0.0,)


def _eps(values):
    """Perturbation parameters as a tuple of floats: at least one, each in
    (0, 1], strictly increasing."""
    eps = tuple(_number(e, "perturbation parameter")
                for e in _sequence(values, "perturbation parameters"))
    if not eps:
        raise ProblemFormatError("at least one perturbation parameter is required")
    for i, e in enumerate(eps):
        if not math.isfinite(e) or not (0.0 < e <= 1.0):
            raise ProblemValidationError(
                "eps-range",
                f"perturbation parameter {i + 1} is {e!r}, expected a value in (0, 1]",
            )
    for i in range(len(eps) - 1):
        if eps[i] == eps[i + 1]:
            raise ProblemValidationError(
                "eps-coincident",
                "perturbation parameters %d and %d coincide (%r); scales must be distinct"
                % (i + 1, i + 2, eps[i]),
            )
        if eps[i] > eps[i + 1]:
            raise ProblemValidationError(
                "eps-ordering",
                "perturbation parameters must increase strictly, got %r before %r"
                % (eps[i], eps[i + 1]),
            )
    return eps


def _size(value):
    """System size n: an integral number of at least 1. Strings, bools and
    fractions are rejected rather than converted."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ProblemFormatError(f"system size n must be an integer, got {value!r}")
    if value < 1:
        raise ProblemFormatError("system size n must be at least 1")
    return int(value)


@dataclass(frozen=True)
class ProblemSpec:
    """Complete statement of one initial value problem.

    A is an n x n tuple and f an n-tuple of coefficient tuples, one per
    polynomial entry (see _coeffs); sample_A and sample_f evaluate them.
    eps is a tuple of floats (see _eps).
    """

    n: int
    A: tuple
    f: tuple
    u0: tuple
    T: float
    eps: tuple

    def __post_init__(self):
        n = _size(self.n)
        A = tuple(tuple(map(_coeffs, _sequence(row, "row of the coefficient matrix")))
                  for row in _sequence(self.A, "coefficient matrix"))
        f = tuple(map(_coeffs, _sequence(self.f, "forcing")))
        u0 = tuple(_finite(v, "initial value") for v in _sequence(self.u0, "initial value"))
        eps = _eps(self.eps)
        T = _finite(self.T, "horizon T")
        if len(A) != n or any(len(row) != n for row in A):
            raise ProblemFormatError(f"coefficient matrix must be {n}x{n}")
        if len(f) != n:
            raise ProblemFormatError(f"forcing must have {n} components")
        if len(u0) != n:
            raise ProblemFormatError(f"initial value must have {n} components")
        if len(eps) != n:
            raise ProblemFormatError(
                f"expected {n} perturbation parameters, got {len(eps)}"
            )
        if T <= 0.0:
            raise ProblemFormatError("horizon T must be positive")
        for name, value in dict(n=n, A=A, f=f, u0=u0, T=T, eps=eps).items():
            object.__setattr__(self, name, value)

    def has_constant_coefficients(self):
        return not any(any(p[1:]) for row in (*self.A, self.f) for p in row)


@dataclass(frozen=True)
class ValidatedProblem:
    """A ProblemSpec that passed validation, with its extracted decay rate."""

    spec: ProblemSpec
    alpha: float


def _polyval(coeffs, t):
    """The polynomial with ascending coeffs at t, a float or an array of
    times, by Horner's rule written as numpy.polynomial's polyval writes it,
    so the two agree bit for bit."""
    acc = coeffs[-1] + 0.0 * t
    for c in coeffs[-2::-1]:
        acc = acc * t + c
    return acc


def _sample(spec, entries, ts):
    """Each polynomial of entries at each time of ts; shape (len(ts),
    len(entries)). Times outside [0, T] raise ValueError."""
    import numpy as np

    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size and (float(ts.min()) < 0.0 or float(ts.max()) > spec.T):
        raise ValueError(
            f"times outside the problem domain [0, {spec.T!r}]"
        )
    out = np.empty((ts.size, len(entries)))
    for k, p in enumerate(entries):
        out[:, k] = _polyval(p, ts)
    return out


def sample_A(spec, ts):
    """Coefficient matrix at one time or an array of times.

    Returns shape (len(ts), n, n); a scalar time counts as one time, so
    sample_A(spec, t)[0] is A(t). Times outside [0, T] raise ValueError.
    """
    out = _sample(spec, [p for row in spec.A for p in row], ts)
    return out.reshape(-1, spec.n, spec.n)


def sample_f(spec, ts):
    """Forcing at one time or an array of times; shape (len(ts), n), with a
    scalar time counting as one time as in sample_A."""
    return _sample(spec, spec.f, ts)


def _trim(coeffs):
    """coeffs without trailing zeros, keeping at least one, as
    numpy.polynomial trims a series."""
    k = len(coeffs)
    while k > 1 and coeffs[k - 1] == 0.0:
        k -= 1
    return coeffs[:k]


def _critical_times(coeffs, T):
    """Real parts of the roots of a polynomial's derivative, clipped to
    [0, T]. With both endpoints they include every point where the
    polynomial attains its extrema on [0, T]; extra points are harmless.

    The derivative is trimmed as numpy.polynomial's polyroots trims it: a
    constant has no root and a line the one root -d0/d1, polyroots' own
    formula. Higher degrees take polyroots' companion eigenvalues, with
    numpy's floating-point warnings silenced: an infinite root is clipped
    like any other, and a nan one sorts last (_extremum_times).
    """
    d = _trim(tuple(k * coeffs[k] for k in range(1, len(coeffs))))
    if len(d) < 2:
        roots = []
    elif len(d) == 2:
        roots = [-d[0] / d[1]]
    else:
        import numpy as np
        from numpy.polynomial import polynomial as npoly

        with np.errstate(all="ignore"):
            roots = npoly.polyroots(d).real.tolist()
    return [min(max(r, 0.0), T) for r in roots]


def _extremum_times(polys, T):
    """0, T and the critical times of every polynomial of polys, sorted and
    each kept once; a nan time, if one occurs, is kept once and last, as
    numpy's unique keeps it."""
    times = [0.0, T] + [t for c in polys for t in _critical_times(c, T)]
    ts = sorted(dict.fromkeys(t for t in times if not math.isnan(t)))
    if any(map(math.isnan, times)):
        ts.append(math.nan)
    return ts


def validate(spec):
    """Admissibility check from the exact extrema of A(t) over [0, T].

    Verifies that every off-diagonal entry is nonpositive and every row sum
    positive on the whole interval, takes alpha as the infimum of the row
    sums, and checks that the horizon covers the slowest layer
    (T >= 2 max(eps) / alpha). Each off-diagonal entry and each row sum is
    a polynomial, evaluated as such at both endpoints and at every critical
    point of any of them; those times hold every extremum the checks need.
    A row sum is never added up from sampled entries, so entries that
    cancel, or overflow in double, do not disturb it. Under the sign
    condition a row sum equals a_ii - sum_{j != i} |a_ij|, so a positive
    row sum is strict row dominance. A violation reports the earliest of
    those times at which it shows. The arithmetic is on Python floats and
    raises no warning.
    """
    pairs = [(i, j) for i in range(spec.n) for j in range(spec.n) if i != j]
    off_entries = [spec.A[i][j] for i, j in pairs]
    # coefficient by coefficient; -0.0 is the sum's identity, so zero signs stay
    row_sums = [tuple(sum(col, -0.0) for col in zip_longest(*row, fillvalue=-0.0))
                for row in spec.A]
    ts = _extremum_times(off_entries + row_sums, spec.T)
    for t in ts:
        for (i, j), c in zip(pairs, off_entries):
            value = _polyval(c, t)
            if value > 0.0:
                raise ProblemValidationError(
                    "off-diagonal-sign",
                    "entry (%d,%d) of the coefficient matrix is positive (%.6g) at t=%.6g"
                    % (i + 1, j + 1, value, t),
                    row=i + 1,
                    col=j + 1,
                    t=t,
                )
    sums = [[_polyval(c, t) for c in row_sums] for t in ts]
    for t, row in zip(ts, sums):
        for i, value in enumerate(row):
            # written so that a row sum that is not a number (inf - inf) fails too
            if not value > 0.0:
                raise ProblemValidationError(
                    "row-dominance",
                    "row %d of the coefficient matrix is not strictly diagonally dominant "
                    "at t=%.6g (row sum, a_ii - sum_j |a_ij|, is %.6g)"
                    % (i + 1, t, value),
                    row=i + 1,
                    t=t,
                )
    alpha = min(map(min, sums))
    needed = 2.0 * spec.eps[-1] / alpha
    if spec.T < needed:
        raise ProblemValidationError(
            "horizon",
            "horizon T=%.6g is shorter than 2*max(eps)/alpha=%.6g; the slowest layer does not fit"
            % (spec.T, needed),
        )
    return ValidatedProblem(spec=spec, alpha=alpha)


def problem_from_dict(data):
    """Build a ProblemSpec from the documented JSON layout.

    Unknown keys are rejected by name; silently ignoring them hides typos in
    problem files.
    """
    if not isinstance(data, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    keys = [field.name for field in fields(ProblemSpec)]
    unknown = sorted(map(str, set(data) - set(keys)))
    if unknown:
        raise ProblemFormatError("unknown problem key(s): %s" % ", ".join(unknown))
    missing = [k for k in keys if k not in data]
    if missing:
        raise ProblemFormatError("missing problem key(s): %s" % ", ".join(missing))
    return ProblemSpec(**data)


def load_problem(path):
    """Read a problem file (JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # ValueError covers bytes that are not UTF-8; RecursionError, deep nesting
        except (ValueError, RecursionError) as exc:
            raise ProblemFormatError(f"{path}: not valid JSON: {exc}") from exc
    return problem_from_dict(data)
