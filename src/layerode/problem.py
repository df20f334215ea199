"""Problem data for stiff linear systems E u' + A(t) u = f(t) on [0, T].

Matrix and forcing entries are polynomials in t, held as tuples of ascending
coefficients and evaluated only by sample_A and sample_f. That keeps the file
format trivial and makes admissibility exact: each extremum on [0, T] sits
at an endpoint or at a root of the derivative. Validation establishes the
sign and dominance structure of A(t) that the stepping operator's
monotonicity relies on, and extracts the decay rate alpha, the infimum of the
row sums, used to place mesh transition points.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "MAX_POLY_DEGREE",
    "ProblemFormatError",
    "ProblemValidationError",
    "ProblemSpec",
    "ValidatedProblem",
    "validate",
    "sample_A",
    "sample_f",
    "problem_from_dict",
    "problem_to_dict",
    "load_problem",
]

MAX_POLY_DEGREE = 16


class ProblemFormatError(ValueError):
    """Problem file or constructor data is malformed."""


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
    # float() parses strings too, and a string where a sequence is expected
    # would be read one character at a time ("12" as the coefficients 1, 2).
    # JSON true and false load as bools, which float() reads as 1 and 0.
    if isinstance(value, (str, bytes, bool)):
        raise ProblemFormatError(f"{what} must be a number, got {value!r}")
    return float(value)


def _finite(value, what):
    v = _number(value, what)
    if not math.isfinite(v):
        raise ProblemFormatError(f"{what} must be finite, got {value!r}")
    return v


def _coeffs(entry):
    """Ascending coefficients c0, c1, .., cd of one polynomial entry of A or f.

    A bare number is a constant; an empty sequence is the zero polynomial.
    Coefficients must be finite and the degree at most MAX_POLY_DEGREE.
    """
    try:
        raw = (entry,) if isinstance(entry, (int, float)) else tuple(entry)
        coeffs = tuple(_finite(c, "polynomial coefficient") for c in raw)
    except TypeError as exc:
        raise ProblemFormatError(
            f"polynomial coefficients must be a sequence of numbers, got {entry!r}"
        ) from exc
    if len(coeffs) - 1 > MAX_POLY_DEGREE:
        raise ProblemFormatError(
            "polynomial degree %d exceeds the supported maximum %d"
            % (len(coeffs) - 1, MAX_POLY_DEGREE)
        )
    return coeffs or (0.0,)


def _eps(values):
    """Perturbation parameters as a tuple of floats: at least one, each in
    (0, 1], strictly increasing."""
    try:
        eps = tuple(_number(e, "perturbation parameter") for e in values)
    except TypeError as exc:
        raise ProblemFormatError(
            f"perturbation parameters must be a sequence of numbers, got {values!r}"
        ) from exc
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
        A = tuple(tuple(_coeffs(p) for p in row) for row in self.A)
        f = tuple(_coeffs(p) for p in self.f)
        u0 = tuple(_finite(v, "initial value") for v in self.u0)
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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "eps", eps)

    def has_constant_coefficients(self):
        return not any(any(p[1:]) for row in (*self.A, self.f) for p in row)


@dataclass(frozen=True)
class ValidatedProblem:
    """A ProblemSpec that passed validation, with its extracted decay rate."""

    spec: ProblemSpec
    alpha: float


def _sample(spec, entries, ts):
    """Each polynomial of entries at each time of ts; shape (len(ts),
    len(entries)). Times outside [0, T] raise ValueError."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size and (float(ts.min()) < 0.0 or float(ts.max()) > spec.T):
        raise ValueError(
            f"times outside the problem domain [0, {spec.T!r}]"
        )
    out = np.empty((ts.size, len(entries)))
    for k, p in enumerate(entries):
        out[:, k] = npoly.polyval(ts, p)
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


def _critical_times(coeffs, T):
    """Real parts of the roots of a polynomial's derivative, clipped to
    [0, T]. With both endpoints they include every point where the
    polynomial attains its extrema on [0, T]; extra points are harmless."""
    if len(coeffs) < 3:
        return np.empty(0)
    return np.clip(npoly.polyroots(npoly.polyder(coeffs)).real, 0.0, T)


def validate(spec):
    """Admissibility check from the exact extrema of A(t) over [0, T].

    Verifies that every off-diagonal entry is nonpositive and every row sum
    positive on the whole interval, takes alpha as the infimum of the row
    sums, and checks that the horizon covers the slowest layer
    (T >= 2 max(eps) / alpha). Entries are polynomials, so A(t) is
    evaluated at both endpoints and at every critical point of each
    off-diagonal entry and each row sum; those times hold every extremum
    the checks need. Under the sign condition a row sum equals
    a_ii - sum_{j != i} |a_ij|, so a positive row sum is strict row
    dominance. A violation reports the earliest of those times at which it
    shows.
    """
    off_entries = [p for i, row in enumerate(spec.A)
                   for j, p in enumerate(row) if i != j]
    row_sums = [reduce(npoly.polyadd, row) for row in spec.A]
    ts = np.unique(np.concatenate(
        [[0.0, spec.T]] + [_critical_times(c, spec.T) for c in off_entries + row_sums]
    ))
    a = sample_A(spec, ts)
    idx = np.arange(spec.n)
    off = a.copy()
    off[:, idx, idx] = 0.0
    bad = np.argwhere(off > 0.0)
    if bad.size:
        s, i, j = (int(v) for v in bad[0])
        raise ProblemValidationError(
            "off-diagonal-sign",
            "entry (%d,%d) of the coefficient matrix is positive (%.6g) at t=%.6g"
            % (i + 1, j + 1, off[s, i, j], ts[s]),
            row=i + 1,
            col=j + 1,
            t=float(ts[s]),
        )
    sums = a.sum(axis=2)
    # written so that a row sum that is not a number (inf - inf) fails too
    bad = np.argwhere(~(sums > 0.0))
    if bad.size:
        s, i = (int(v) for v in bad[0])
        raise ProblemValidationError(
            "row-dominance",
            "row %d of the coefficient matrix is not strictly diagonally dominant "
            "at t=%.6g (row sum, a_ii - sum_j |a_ij|, is %.6g)"
            % (i + 1, ts[s], sums[s, i]),
            row=i + 1,
            t=float(ts[s]),
        )
    alpha = float(sums.min())
    needed = 2.0 * spec.eps[-1] / alpha
    if spec.T < needed:
        raise ProblemValidationError(
            "horizon",
            "horizon T=%.6g is shorter than 2*max(eps)/alpha=%.6g; the slowest layer does not fit"
            % (spec.T, needed),
        )
    return ValidatedProblem(spec=spec, alpha=alpha)


_PROBLEM_KEYS = ("n", "T", "eps", "u0", "A", "f")


def problem_from_dict(data):
    """Build a ProblemSpec from the documented JSON layout.

    Unknown keys are rejected by name; silently ignoring them hides typos in
    problem files.
    """
    if not isinstance(data, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    unknown = sorted(set(data) - set(_PROBLEM_KEYS))
    if unknown:
        raise ProblemFormatError("unknown problem key(s): %s" % ", ".join(unknown))
    missing = [k for k in _PROBLEM_KEYS if k not in data]
    if missing:
        raise ProblemFormatError("missing problem key(s): %s" % ", ".join(missing))
    try:
        return ProblemSpec(
            n=data["n"],
            A=data["A"],
            f=data["f"],
            u0=data["u0"],
            T=data["T"],
            eps=data["eps"],
        )
    except TypeError as exc:
        raise ProblemFormatError(f"malformed problem data: {exc}") from exc


def problem_to_dict(spec):
    """Inverse of problem_from_dict, for round trips and report metadata."""
    return {
        "n": spec.n,
        "T": spec.T,
        "eps": list(spec.eps),
        "u0": list(spec.u0),
        "A": [[list(p) for p in row] for row in spec.A],
        "f": [list(p) for p in spec.f],
    }


def load_problem(path):
    """Read a problem file (JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"{path}: not valid JSON: {exc}") from exc
    return problem_from_dict(data)
