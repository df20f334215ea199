"""Piecewise-uniform meshes condensing points inside nested initial layers.

build_mesh is the one constructor. It takes a ValidatedProblem, whose eps,
alpha and T are already checked, and a run size N. The mesh on [0, T] is a
union of n+1 uniform pieces joined at transition points. Transitions are
placed from the slowest scale downward: each either halves its successor or
stops at the layer width (eps_i / alpha) ln N, whichever is smaller. The
construction therefore produces one of 2^n shapes, recorded as one branch
bit per transition. bisect_mesh refines a mesh for two-mesh differences.
Both name, through one check (_checked_mesh), a piece too narrow for its
intervals: at subnormal widths, rounding repeats its points or widens its
step.
interaction_points gives the crossing times of the layer envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeshError",
    "ShishkinMesh",
    "build_mesh",
    "bisect_mesh",
    "interaction_points",
]

# One-sided slack on build_mesh's step bound 2T/N; covers linspace rounding only.
_GEOMETRY_SLACK = 1.0 + 1e-12


class MeshError(ValueError):
    """Mesh construction failed (unusable N, broken geometry)."""


@dataclass(frozen=True, eq=False)
class ShishkinMesh:
    """Mesh for one run; compared by identity and never mutated.

    points[j] is t_j with t_0 = 0 and t_N = T; deltas[j-1] = t_j - t_{j-1}.
    sigmas are the transition points in increasing order and b the branch
    bits (0 means the transition halved its successor, 1 means it sits at
    the layer width).
    """

    N: int
    points: np.ndarray
    deltas: np.ndarray
    sigmas: tuple
    b: tuple

    @property
    def n(self):
        return len(self.sigmas)

    @property
    def T(self):
        return float(self.points[-1])


def _require_valid_N(N, n):
    """N as an int: it must be an integral number (an int, a numpy integer
    or an integral float), at least 2 and a multiple of 2^n."""
    try:
        integral = int(N) == N
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise MeshError("N=%s is not an integer" % N)
    N = int(N)
    block = 2 ** n
    if N < 2 or N % block != 0:
        raise MeshError(
            "N=%d is unusable with %d scale(s); choose N = %d*k with k a positive integer"
            % (N, n, block)
        )
    return N


def _counts(N, n):
    # intervals per piece, innermost first
    return [N // 2 ** n] + [N // 2 ** (n - i + 1) for i in range(1, n)] + [N // 2]


def _checked_mesh(points, sigmas, bits, max_step=math.inf):
    """The mesh on points (0 to T, with pieces of _counts intervals joined
    at sigmas), after naming the first piece whose points repeat or, where
    none does, the first whose step exceeds max_step (build_mesh's 2T/N);
    the message ends in the cause. Where a piece's width per interval is
    subnormal, linspace or a midpoint rounds its step, to 0 or up, and the
    piece may fail this way."""
    N, n = len(points) - 1, len(sigmas)
    counts = _counts(N, n)
    deltas = np.diff(points)
    bad, cause = np.flatnonzero(deltas <= 0.0), "their width underflows"
    if not bad.size:
        bad, cause = np.flatnonzero(deltas > max_step), "their step rounds wider than 2T/N"
    if bad.size:
        k = int(np.searchsorted(np.cumsum(counts), bad[0], side="right"))
        bounds = (0.0, *sigmas, float(points[-1]))
        names = ["0"] + ["sigma_%d" % (i + 1) for i in range(n)] + ["T"]
        raise MeshError(
            "the %spiece [%s, %s] is %r wide, too narrow for %d intervals: %s"
            % ("first " if k == 0 else "", names[k], names[k + 1],
               bounds[k + 1] - bounds[k], counts[k], cause)
        )
    points.setflags(write=False)
    deltas.setflags(write=False)
    return ShishkinMesh(N=N, points=points, deltas=deltas, sigmas=tuple(sigmas),
                        b=tuple(bits))


def build_mesh(vp, N):
    """Mesh with N intervals for a validated problem, using its extracted alpha.

    sigma_n = min(T/2, (eps_n/alpha) ln N), and going downward
    sigma_i = min(sigma_{i+1}/2, (eps_i/alpha) ln N). Bit b_i = 0 records the
    halving branch (ties count as halving), b_i = 1 the layer-width branch.
    The n+1 uniform pieces get N/2^n, N/2^(n-i+1) (i = 1 .. n-1) and N/2
    intervals. N must be an integral multiple of 2^n, at least 2; anything
    else raises MeshError,
    as does a piece too narrow for its intervals to be told apart: one
    whose points repeat, or whose step rounds wider than 2T/N.
    """
    eps, alpha, T = vp.spec.eps, vp.alpha, vp.spec.T
    n = len(eps)
    N = _require_valid_N(N, n)
    log_n = math.log(N)
    sigmas = [0.0] * n
    bits = [0] * n
    upper = T
    for i in range(n - 1, -1, -1):
        half = 0.5 * upper
        width = eps[i] / alpha * log_n
        if half <= width:
            sigmas[i] = half
            bits[i] = 0
        else:
            sigmas[i] = width
            bits[i] = 1
        upper = sigmas[i]
    counts = _counts(N, n)
    bounds = (0.0, *sigmas, T)
    pieces = [
        np.linspace(bounds[k], bounds[k + 1], counts[k] + 1) for k in range(n + 1)
    ]
    points = np.concatenate([pieces[0]] + [piece[1:] for piece in pieces[1:]])
    return _checked_mesh(points, sigmas, bits, 2.0 * T / N * _GEOMETRY_SLACK)


def bisect_mesh(mesh):
    """Insert the midpoint of every interval, keeping the transition points.

    The refined mesh reuses the coarse sigmas instead of being rebuilt with
    ln(2N), so the two point sets nest exactly and two-grid differences need
    no interpolation. A midpoint that rounds onto an end of its interval
    raises MeshError naming its piece, as build_mesh does.
    """
    old = mesh.points
    points = np.empty(2 * mesh.N + 1)
    points[::2] = old
    points[1::2] = 0.5 * (old[:-1] + old[1:])
    return _checked_mesh(points, mesh.sigmas, mesh.b)


def interaction_points(vp):
    """Crossing times of the scaled layer envelopes as a dict {(i, j): t}.

    Keys are 1-based pairs i < j; t = ln(eps_j/eps_i) / (alpha (1/eps_i -
    1/eps_j)) is where exp(-alpha t / eps_i) / eps_i meets
    exp(-alpha t / eps_j) / eps_j, with the problem's eps and extracted
    alpha. It is evaluated as eps_i / alpha (eps_j / g) ln(1 + g/eps_i) with
    g = eps_j - eps_i: it does not cancel, nor divide by zero when the two
    scales are adjacent floats, nor underflow in a product of two small
    factors. Where g/eps_i overflows it takes ln(eps_j) - ln(eps_i) instead,
    and for coincident scales (g = 0) the g -> 0 limit, eps_i / alpha. The
    times increase in both indices to within rounding, which may swap two
    of near-coincident scales by an ulp. A time that is not positive (it
    underflows) raises MeshError.
    """
    eps, alpha = vp.spec.eps, vp.alpha
    n = len(eps)
    values = {}
    for i in range(n):
        for j in range(i + 1, n):
            g = eps[j] - eps[i]
            log_ratio = math.log1p(g / eps[i])
            if math.isinf(log_ratio):  # g / eps_i overflowed
                log_ratio = math.log(eps[j]) - math.log(eps[i])
            t = eps[i] / alpha * (eps[j] / g) * log_ratio if g else eps[i] / alpha
            if not t > 0.0:
                raise MeshError("crossing time (%d,%d) is not positive" % (i + 1, j + 1))
            values[(i + 1, j + 1)] = t
    return values
