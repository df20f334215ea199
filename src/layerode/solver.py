"""Implicit time marching with monotone step systems.

Step j solves (E/delta_j + A(t_j)) U_j = f(t_j) + (E/delta_j) U_{j-1}, with
A and f from sample_A and sample_f on all step times at once; decompose
marches the problem and its zero-forcing twin on the same step maps. Step
matrices inherit positive diagonals, nonpositive off-diagonal entries and
strict row dominance from A(t), so every step is a monotone
(inverse-nonnegative) solve. _march cuts the steps into chunks, and
_march_chunk turns a chunk's steps into affine maps laid out in the block
shape of the scan that _affine_recurrence runs on them for every start.
certify, at the bottom of this module, checks the two consequences of the
monotone structure on a computed grid: preservation of nonnegative data and
the maximum-norm stability bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .mesh import build_mesh
from .problem import ValidatedProblem, sample_A, sample_f

__all__ = [
    "SolveFailureError",
    "SolutionGrid",
    "DecomposedSolution",
    "Certificate",
    "march",
    "solve",
    "decompose",
    "certify",
]

STEP_RESIDUAL_RTOL = 1e-12
MAX_PRINCIPLE_RTOL = 1e-12
STABILITY_RTOL = 1e-10


class SolveFailureError(RuntimeError):
    """A step residual is not finite or fails the guard, a study error or
    the stability bound is not finite, or a closed-form propagator leaves
    its bounds. Validated problems can raise it where coefficients or
    values overflow in double, or where eps is too small for the closed
    form."""


@dataclass(frozen=True, eq=False)
class SolutionGrid:
    """Discrete solution bound to the problem and mesh it was computed on.

    problem is the ValidatedProblem that was marched, so certify and
    exact_error read its f and alpha from here. values[j, i] is
    component i at mesh point t_j: shape (N+1, n), time-major like sample_A
    and sample_f, and read-only.
    """

    problem: ValidatedProblem
    mesh: object
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class DecomposedSolution:
    """Smooth and layer parts computed with the same stepping operator."""

    smooth: SolutionGrid
    singular: SolutionGrid


@dataclass(frozen=True)
class Certificate:
    """The maximum principle and stability certificates of one grid."""

    max_principle: bool
    stability_bound: float
    stability_max_norm: float
    stability_ok: bool


def _affine_recurrence(s, cs, outs):
    """Run U_j = P_j U_{j-1} + q_j from U_0 = out[0], writing U_j into
    out[j] for j = 1 .. N, for each offsets c in cs and grid out in outs,
    as a blocked scan over K blocks of B steps.

    s holds the maps and each c its offsets in block shape, (K, B, n, n) and
    (K, B, n), with P_j and q_j at flat step j - 1; entries past step N are
    identity maps and zero offsets, which change nothing exactly (I S = S
    and I c + 0 = c). All are overwritten. Within every block the prefix
    maps U -> S_i U + c_i are composed in place, vectorized across blocks
    in B - 1 iterations, the maps once for all grids. Each grid's block ends
    are carried across the blocks, one iteration per block, and each block's
    prefix maps applied to its start value in one batched product.

    When P_j is nonnegative with row sums at most one, as in a march, every
    composed map is a nonnegative contraction and the error stays relative
    to the solution, also where it decays far below u. A scan of the offsets
    U_j - u would not: their absolute error of order eps_mach |u| fails the
    residual guard where the solution has decayed far below u and eps/delta
    is large. If every step maps u exactly onto itself (a steady state),
    the result is u bit for bit, as marching step by step gives; composed
    maps would round it.
    """
    K, B, n = s.shape[:3]
    runs = []
    for c, out in zip(cs, outs):
        if (np.einsum("kbij,j->kbi", s, out[0]) + c == out[0]).all():
            out[1:] = out[0]
        else:
            runs.append((c, out))

    for i in range(1, B):
        # S_i = P_i S_{i-1} in place of P_i, c_i = P_i c_{i-1} + q_i
        for c, _ in runs:
            c[:, i] += np.einsum("kij,kj->ki", s[:, i], c[:, i - 1])
        np.matmul(s[:, i], s[:, i - 1], out=s[:, i])
    for c, out in runs:
        starts = np.empty((K, n))
        starts[0] = out[0]
        for k in range(K - 1):
            starts[k + 1] = s[k, -1] @ starts[k] + c[k, -1]
        c += np.einsum("kbij,kj->kbi", s, starts)
        out[1:] = c.reshape(K * B, n)[:len(out) - 1]


def _max_norms(x):
    """Maximum norm of each row of x, shape (N, n). numpy reduces slowly
    along a short axis, so the rows are read from a component-major copy,
    whose reduction runs along the N-long axis."""
    return np.abs(x.T, order="C").max(axis=0)


def march(vp, mesh, u_init):
    """Backward time march over a mesh (decompose runs it for two starts at once).

    The N steps are marched in chunks of max(2048, ceil(N/8)) steps (at
    most 8 chunks, and one chunk when N <= 2048), each from the last value
    of the chunk before it, into one (N+1, n) grid; a chunk of L steps is
    a blocked scan of about 2 sqrt(L) vectorized iterations (see
    _march_chunk). Then every step of the chunk is checked against the
    system it solves, in one vectorized pass: the residual guard requires
    |M_j U_j - b_j| <= STEP_RESIDUAL_RTOL * (1 + |b_j| + |M_j| |U_j|) in the
    maximum norm, with M_j = diag(eps)/delta_j + A(t_j) and
    b_j = diag(eps)/delta_j U_{j-1} + f(t_j), a bound on the normwise
    backward error of each solve; the first step that fails it or has a
    non-finite residual raises SolveFailureError, before any later chunk is
    marched; where the residual is not finite, the first non-finite term of
    U_j, b_j, M_j and M_j U_j is named as an overflow. The tolerance is
    the module constant, read at call time.

    Parameters
    ----------
    vp : ValidatedProblem
        Problem with established alpha and sign structure.
    mesh : ShishkinMesh
        Mesh to march over; must end exactly at the problem's horizon and
        have one scale per component.
    u_init : array_like
        Value at t = 0 for this grid.

    Returns
    -------
    SolutionGrid
        Bound to vp and mesh.
    """
    return _march([(vp, u_init)], mesh)[0]


def _march(runs, mesh):
    """march for each (problem, start) pair in runs, sharing A, eps and T."""
    spec = runs[0][0].spec
    n = spec.n
    if mesh.n != n:
        raise ValueError(
            "mesh was built for %d scale(s), the problem has %d" % (mesh.n, n)
        )
    if mesh.T != spec.T:
        raise ValueError(
            "mesh horizon %r does not match problem horizon %r" % (mesh.T, spec.T)
        )
    N = mesh.N
    grids = []
    for vp, u_init in runs:
        u = np.array(u_init, dtype=float).reshape(-1)
        if u.shape != (n,) or not np.isfinite(u).all():
            raise ValueError("initial value must be a finite vector of length %d" % n)
        grids.append(SolutionGrid(problem=vp, mesh=mesh, values=np.empty((N + 1, n))))
        grids[-1].values[0] = u
    # Each chunk pays for its own scan iterations, so a long march takes at
    # most 8 chunks; a march of up to 2048 steps is one chunk.
    C = max(2048, -(-N // 8))
    for lo in range(0, N, C):
        _march_chunk(grids, lo, min(lo + C, N))
    for grid in grids:
        grid.values.setflags(write=False)
    return grids


def _march_chunk(grids, lo, hi):
    """March steps lo+1 .. hi of every grid from its values[lo] into its
    values[lo+1 .. hi] and check their residuals, grid by grid.

    The L = hi - lo steps are laid out in the scan's block shape: K blocks
    of B = isqrt(L) steps, K = ceil(L / B), so K B - L < B steps pad the
    last block. The step matrices M_j = diag(eps)/delta_j + A(t_j) fill one
    (K B, n, n) stack, padded with identity matrices, whose |M_j| row sums
    the guard keeps and which is inverted in one batched call; inv(I) is
    exactly I, so the inverses come out padded too. Each step becomes the
    affine map U_j = P_j U_{j-1} + q_j with P_j = M_j^-1 diag(eps)/delta_j
    in place of the inverses and, for each grid, q_j = M_j^-1 f(t_j) of its
    own problem in a zero-padded (K B, n) array, and _affine_recurrence
    runs the scan on them. diag(eps)/delta_j is dropped for the scan and
    recomputed for each guard, and the maps and offsets before the guards,
    so at most two stacks of the chunk are live at once.
    """
    spec, mesh = grids[0].problem.spec, grids[0].mesh
    n, L = spec.n, hi - lo
    B = math.isqrt(L)
    K = -(-L // B)
    ed = np.asarray(spec.eps) / mesh.deltas[lo:hi, None]
    m = np.empty((K * B, n, n))
    m[L:] = np.eye(n)
    m[:L] = sample_A(spec, mesh.points[lo + 1:hi + 1])
    idx = np.arange(n)
    m[:L, idx, idx] += ed
    # |M_j| row sums, then their maximum: the (i, k, j) copy keeps j
    # contiguous, and it is the one copy of the stack taken here
    m_abs = np.ascontiguousarray(m[:L].transpose(1, 2, 0))
    m_norms = np.abs(m_abs, out=m_abs).sum(axis=1).max(axis=0)
    del m_abs
    p = np.linalg.inv(m)
    m = m[:L]
    fs = [sample_f(grid.problem.spec, mesh.points[lo + 1:hi + 1]) for grid in grids]
    qs = [np.zeros((K, B, n)) for _ in grids]
    for f, q in zip(fs, qs):
        np.einsum("jik,jk->ji", p[:L], f, out=q.reshape(K * B, n)[:L])
    p[:L] *= ed[:, None, :]
    del ed
    outs = [grid.values[lo:hi + 1] for grid in grids]
    _affine_recurrence(p.reshape(K, B, n, n), qs, outs)
    del p, qs
    for out in outs:
        b = fs.pop(0)
        b += np.asarray(spec.eps) / mesh.deltas[lo:hi, None] * out[:-1]
        residual = np.einsum("jik,jk->ji", m, out[1:])
        residual -= b
        residual = _max_norms(residual)
        tol = STEP_RESIDUAL_RTOL * (1.0 + _max_norms(b) + m_norms * _max_norms(out[1:]))
        # A non-finite U_j, b_j, M_j or M_j U_j gives a non-finite residual,
        # which fails even where the tolerance is infinite too; so does a nan
        # tolerance. The data are finite, so a non-finite term is an overflow,
        # and the first of them is named.
        failed = np.flatnonzero(~(np.isfinite(residual) & (residual <= tol)))
        if failed.size:
            j = int(failed[0])
            terms = [("solution", "U_j", out[j + 1]),
                     ("right-hand side", "b_j = eps/delta_j U_(j-1) + f(t_j)", b[j]),
                     ("step matrix", "M_j = diag(eps)/delta_j + A(t_j)", m[j]),
                     ("product", "M_j U_j", m[j] @ out[j + 1])]
            for name, term, value in terms:
                if not np.isfinite(value).all():
                    raise SolveFailureError("step %d %s is not finite: %s overflows double range"
                                            % (lo + j + 1, name, term))
            raise SolveFailureError(
                "step %d solve residual %.3e exceeds tolerance" % (lo + j + 1, residual[j])
            )


def solve(vp, N):
    """Build the layer-adapted mesh with N intervals and march the problem."""
    mesh = build_mesh(vp, N)
    return march(vp, mesh, vp.spec.u0)


def decompose(vp, mesh):
    """Split the discrete solution into smooth and layer parts.

    The smooth part marches the problem from the reduced initial value
    A(0)^-1 f(0) and the layer part, in the same march on the same step
    maps, its zero-forcing twin (f = 0, the same A, eps, T and alpha, which
    validate derives from A, eps and T alone) from the remainder
    u(0) - A(0)^-1 f(0); its grid carries that twin. By linearity the parts
    add up to the full solution to rounding; nothing is subtracted from a
    computed grid. A start of either part that overflows raises
    SolveFailureError, and a mesh that march rejects ValueError.
    """
    spec = vp.spec
    v0, w0 = _split_start(spec)
    zero_f = ValidatedProblem(replace(spec, f=((0.0,),) * spec.n), vp.alpha)
    smooth, singular = _march([(vp, v0), (zero_f, w0)], mesh)
    return DecomposedSolution(smooth=smooth, singular=singular)


def _split_start(spec):
    """The starts A(0)^-1 f(0) and u(0) - A(0)^-1 f(0) of decompose's two
    parts; one that overflows raises SolveFailureError, naming it."""
    v0 = np.linalg.solve(sample_A(spec, 0.0)[0], sample_f(spec, 0.0)[0])
    w0 = np.asarray(spec.u0, dtype=float) - v0
    for start, name in ((v0, "reduced initial value A(0)^-1 f(0)"),
                        (w0, "layer part's initial value u(0) - A(0)^-1 f(0)")):
        if not np.isfinite(start).all():
            raise SolveFailureError(name + " is not finite")
    return v0, w0


def certify(grid):
    """Both certificates of a grid, from one sample of the forcing of
    grid.problem at the steps and one maximum of |U| over the grid.

    max_principle: if the initial value and that forcing are nonnegative,
    whether the grid stayed above -1e-12 * max(1, stability_max_norm);
    True vacuously when that premise does not hold. stability_ok: whether
    stability_max_norm = max_j ||U(t_j)|| obeys the bound
    stability_bound = max(||U(0)||, max_j ||f(t_j)|| / alpha), with alpha
    that of grid.problem. A bound that overflows raises SolveFailureError.
    """
    values = grid.values
    rhs = sample_f(grid.problem.spec, grid.mesh.points[1:])
    max_norm = float(np.abs(values).max())
    max_principle = bool((values[0] < 0.0).any() or (rhs < 0.0).any()
                         or values.min() >= -MAX_PRINCIPLE_RTOL * max(1.0, max_norm))
    bound = max(float(np.abs(values[0]).max()), float(np.abs(rhs).max()) / grid.problem.alpha)
    if not math.isfinite(bound):
        raise SolveFailureError("stability bound max(|U(0)|, |f| / alpha) is not finite")
    return Certificate(
        max_principle=max_principle,
        stability_bound=bound,
        stability_max_norm=max_norm,
        stability_ok=bool(max_norm <= bound + STABILITY_RTOL * bound),
    )
