"""Problem data for stiff linear systems E u' + A(t) u = f(t) on [0, T].

Matrix and forcing entries are polynomials in t, held as tuples of ascending
coefficients. sample_A and sample_f evaluate them in floats on arrays of
times, all entries at once by one vector-valued Horner rule (_sample);
validate evaluates them exactly, by Horner's rule in integers (_value).
Each extremum on [0, T] sits at an endpoint or at a root of the
derivative. Building a ProblemSpec checks only the format of its fields;
validate decides every admissibility condition: the range and order of
eps, and the sign and dominance structure of A(t) that the stepping
operator's monotonicity relies on. It extracts the decay rate alpha, the
least row sum, used to place mesh transition points.

This module imports numpy only inside the samplers; validate needs neither
numpy nor fractions.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
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
    """Problem data violates an admissibility condition; raised only by
    validate.

    Attributes
    ----------
    condition : str
        Machine-readable tag: 'eps-range', 'eps-ordering',
        'off-diagonal-sign', 'row-dominance' or 'horizon'.
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


def _float(num, den=1):
    # num / den (den > 0) by one correctly rounded integer division; beyond
    # double range +-inf, as 1e400 in a file reads, signed as num exactly
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _number(value, what):
    # Any real number but a bool (JSON true/false, which float() reads as 1/0).
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ProblemFormatError(f"{what} must be a number, got {value!r}")
    if isinstance(value, numbers.Rational):  # one beyond double range is +-inf
        return _float(int(value.numerator), int(value.denominator))
    return float(value)


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
    """Perturbation parameters as a tuple of floats, at least one; validate
    decides whether they are admissible."""
    eps = tuple(_number(e, "perturbation parameter")
                for e in _sequence(values, "perturbation parameters"))
    if not eps:
        raise ProblemFormatError("at least one perturbation parameter is required")
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
    eps is a tuple of floats (see _eps). Building a spec checks only the
    format of its fields; validate decides whether they are admissible.
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


def _sample(spec, entries, ts):
    """Each polynomial of entries at each time of ts; shape (len(ts),
    len(entries)). Times outside [0, T], or nan, raise ValueError. One
    Horner rule runs over all entries, zero-padded to one degree: a column
    stays +0 until its own top coefficient, so it matches numpy.polynomial's
    polyval on its entry bit for bit."""
    import numpy as np

    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size and not (0.0 <= float(ts.min()) and float(ts.max()) <= spec.T):
        raise ValueError(
            f"times outside the problem domain [0, {spec.T!r}]"
        )
    degree = max(map(len, entries))
    coeffs = np.array([p + (0.0,) * (degree - len(p)) for p in entries])
    out = np.zeros((ts.size, len(entries)))
    for c in coeffs.T[::-1]:
        out *= ts[:, None]
        out += c
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


def _integers(polys):
    """The sum of polys, whose coefficients are doubles (integers over powers
    of two), exactly: (integer ascending coefficients, one denominator)."""
    ratios = [[c.as_integer_ratio() for c in p] for p in polys]
    den = max(q for p in ratios for _, q in p)
    terms = ([m * (den // q) for m, q in p] for p in ratios)
    return [sum(col) for col in zip_longest(*terms, fillvalue=0)], den


def _value(a, t, den=1):
    """The polynomial with integer ascending coefficients a, of degree d, over
    den at the double t = m / 2^e, exactly, by Horner's rule in integers: as
    (numerator, den 2^(e d)), so the numerator carries its sign."""
    m, q = t.as_integer_ratio()
    e = q.bit_length() - 1
    acc = 0
    for k, c in enumerate(reversed(a)):
        acc = acc * m + (c << e * k)
    return acc, den << e * (len(a) - 1)


def _critical_times(a, T):
    """Times in [0, T] that, with 0 and T, hold every extremum there of the
    polynomial with integer ascending coefficients a, to within the spacing
    of doubles: each sign change of its derivative d as the two adjacent
    doubles around it, or as the double where d is exactly 0.

    The derivative-sequence method of Collins and Loos (1976): between
    consecutive critical times of d, found by the same recursion, d is
    monotone, so one exact sign test per piece finds each of its sign
    changes. Nonnegative doubles sort as their bit patterns do, so a
    bisection over those patterns narrows one to two adjacent doubles in at
    most 63 steps. The recursion ends at a constant derivative, so a line's
    root is bisected too.
    """
    d = [k * c for k, c in enumerate(a[1:], 1)]
    while d and not d[-1]:
        d.pop()
    if len(d) < 2:
        return []
    cuts = sorted({0.0, T, *_critical_times(d, T)})
    values = [_value(d, x)[0] for x in cuts]
    times = [x for x, v in zip(cuts, values) if not v]
    for lo, hi, v, v_hi in zip(cuts, cuts[1:], values, values[1:]):
        if v * v_hi < 0:
            i, j = struct.unpack("<2q", struct.pack("<2d", lo, hi))
            while j - i > 1:
                k = (i + j) // 2
                v_k = _value(d, struct.unpack("<d", struct.pack("<q", k))[0])[0]
                i, j = (k, k) if not v_k else (k, j) if (v_k < 0) == (v < 0) else (i, k)
            times += struct.unpack("<2d", struct.pack("<2q", i, j))
    return times


def _extremum_times(polys, T):
    """0, T and the critical times of every polynomial of polys, sorted and
    each kept once."""
    times = [0.0, T] + [t for c in polys for t in _critical_times(c, T)]
    return sorted(dict.fromkeys(times))


def validate(spec):
    """Admissibility check, in this order: each eps in (0, 1] and none
    below the one before it (equal neighbours are coincident scales), every
    off-diagonal entry of A(t) nonpositive and every row sum positive on
    [0, T], and a horizon that covers the slowest layer
    (T >= 2 max(eps) / alpha), with alpha the least row sum. The first
    violation raises ProblemValidationError. Each off-diagonal entry and
    each row sum is a polynomial in integers over one power-of-two
    denominator (_integers), so a row sum adds up exactly, where entries
    cancel or overflow in double too. Each is evaluated at both endpoints
    and at every critical time of any of them (_critical_times), which
    hold every extremum the checks need to within the spacing of doubles.
    Every value there is an exact quotient of integers whose numerator
    decides its sign; only alpha and the numbers in messages are rounded
    to doubles, once (_float). Under the sign condition a row sum equals
    a_ii - sum_{j != i} |a_ij|, so a positive row sum is strict row
    dominance. A violation reports the earliest of those times at which
    it shows.
    """
    eps = spec.eps
    for i, e in enumerate(eps):
        if not 0.0 < e <= 1.0:  # nan and inf fail too
            raise ProblemValidationError(
                "eps-range",
                f"perturbation parameter {i + 1} is {e!r}, expected a value in (0, 1]",
            )
    for e, e_next in zip(eps, eps[1:]):
        if e > e_next:
            raise ProblemValidationError(
                "eps-ordering",
                "perturbation parameters must not decrease, got %r before %r" % (e, e_next),
            )
    pairs = [(i, j) for i in range(spec.n) for j in range(spec.n) if i != j]
    off_entries = [_integers([spec.A[i][j]]) for i, j in pairs]
    row_sums = [_integers(row) for row in spec.A]
    ts = _extremum_times([a for a, _ in off_entries + row_sums], spec.T)
    for t in ts:
        for (i, j), (a, den) in zip(pairs, off_entries):
            value = _value(a, t, den)
            if value[0] > 0:
                raise ProblemValidationError(
                    "off-diagonal-sign",
                    "entry (%d,%d) of the coefficient matrix is positive (%.6g) at t=%.6g"
                    % (i + 1, j + 1, _float(*value), t),
                    row=i + 1,
                    col=j + 1,
                    t=t,
                )
    sums = [[_value(a, t, den) for a, den in row_sums] for t in ts]
    for t, row in zip(ts, sums):
        for i, value in enumerate(row):
            if value[0] <= 0:
                raise ProblemValidationError(
                    "row-dominance",
                    "row %d of the coefficient matrix is not strictly diagonally dominant "
                    "at t=%.6g (row sum, a_ii - sum_j |a_ij|, is %.6g)"
                    % (i + 1, t, _float(*value)),
                    row=i + 1,
                    t=t,
                )
    # rounding is monotone: the least rounded row sum is the least one, rounded
    alpha = min(_float(*value) for row in sums for value in row)
    # a row sum below half the least double rounds to alpha = 0: no T fits
    needed = 2.0 * eps[-1] / alpha if alpha else math.inf
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
