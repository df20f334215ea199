"""Implicit time marching with monotone step systems.

Step j solves (E/delta_j + A(t_j)) U_j = f(t_j) + (E/delta_j) U_{j-1}, with
A and f from sample_A and sample_f on all step times at once; the layer part
of decompose is the same march on the problem's zero-forcing twin. Step
matrices inherit positive diagonals, nonpositive off-diagonal entries and
strict row dominance from A(t), so every step is a monotone
(inverse-nonnegative) solve. The march builds and inverts all N step
matrices at once, evaluates the affine recurrence U_j = P_j U_{j-1} + q_j as
a blocked scan in about 2 sqrt(N) vectorized iterations, and then checks
every step's residual in one vectorized pass.
The certificates at the bottom of this module check the two consequences of
the monotone structure on computed grids: preservation of nonnegative data
and the maximum-norm stability bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .mesh import build_mesh
from .problem import ValidatedProblem, sample_A, sample_f

__all__ = [
    "STEP_RESIDUAL_RTOL",
    "MAX_PRINCIPLE_RTOL",
    "STABILITY_RTOL",
    "SolveFailureError",
    "SolutionGrid",
    "DecomposedSolution",
    "StabilityCertificate",
    "step_matrices",
    "march",
    "solve",
    "decompose",
    "certify_max_principle",
    "certify_stability",
]

STEP_RESIDUAL_RTOL = 1e-12
MAX_PRINCIPLE_RTOL = 1e-12
STABILITY_RTOL = 1e-10


class SolveFailureError(RuntimeError):
    """A step solve lost accuracy; cannot happen for validated problems."""


@dataclass(frozen=True, eq=False)
class SolutionGrid:
    """Discrete solution bound to the problem and mesh it was computed on.

    problem is the ValidatedProblem that was marched, so the certificates
    and exact_error read its f and alpha from here. values[j, i] is
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

    def total(self):
        return self.smooth.values + self.singular.values


@dataclass(frozen=True)
class StabilityCertificate:
    bound: float
    max_norm: float
    ok: bool


def step_matrices(vp, mesh):
    """Left-hand matrices of all N steps, shape (N, n, n).

    Entry j-1 is diag(eps)/delta_j + A(t_j), the matrix of step j.
    """
    m = sample_A(vp.spec, mesh.points[1:])
    idx = np.arange(vp.spec.n)
    m[:, idx, idx] += np.asarray(vp.spec.eps) / mesh.deltas[:, None]
    return m


def _affine_recurrence(inverses, ed, f, u):
    """Run U_j = P_j U_{j-1} + q_j from U_0 = u; row j of the result is U_j.

    inverses holds M_j^-1 and is scaled in place into P_j; q_j = M_j^-1 f_j.

    The recurrence is a blocked scan. The steps are cut into N // B blocks
    of B = isqrt(N) steps, plus one block of the N % B steps left over.
    Within every block the prefix maps U -> S_i U + c_i are composed in
    place, S_i in inverses and c_i in the result, vectorized across blocks
    in B - 1 iterations. The block ends are then carried across the blocks,
    one iteration per block, and each block's prefix maps are applied to
    its start value in one batched product.

    P_j is nonnegative with row sums at most one, so every composed map is
    a nonnegative contraction and the error stays relative to the solution,
    also where it decays far below u. A scan of the offsets U_j - u would
    not: their absolute error of order eps_mach |u| fails the residual guard
    where the solution has decayed far below u and eps/delta is large. If
    every step maps u exactly onto itself (a steady state), the result is u
    bit for bit, as marching step by step gives; composed maps would round
    it.
    """
    N, n = ed.shape
    values = np.empty((N + 1, n))
    values[0] = u
    np.einsum("jik,jk->ji", inverses, f, out=values[1:])
    inverses *= ed[:, None, :]
    if _is_steady(inverses, values[1:], u):
        values[1:] = u
        return values

    B = math.isqrt(N)
    K, t = divmod(N, B)
    p, c = inverses[:K * B].reshape(K, B, n, n), values[1:K * B + 1].reshape(K, B, n)
    tail_p, tail_c = inverses[K * B:][None], values[K * B + 1:][None]
    for i in range(1, B):
        _compose(p, c, i)
        if i < t:
            _compose(tail_p, tail_c, i)
    starts = np.empty((K + 1, n))
    starts[0] = u
    for k in range(K):
        starts[k + 1] = p[k, -1] @ starts[k] + c[k, -1]
    c += np.einsum("kbij,kj->kbi", p, starts[:-1])
    tail_c += tail_p @ starts[-1]
    return values


def _is_steady(p, q, u):
    # Whether every step maps u exactly onto itself: P_j u + q_j == u. The
    # first step settles almost every march without a pass over all steps.
    if (np.einsum("ik,k->i", p[0], u) + q[0] != u).any():
        return False
    step = np.einsum("jik,k->ji", p, u)
    step += q
    return bool((step == u).all())


def _compose(p, c, i):
    # Extend every block's prefix map from position i - 1 to position i:
    # S_i = P_i S_{i-1} in place of P_i, c_i = P_i c_{i-1} + q_i.
    c[:, i] += np.einsum("kij,kj->ki", p[:, i], c[:, i - 1])
    np.matmul(p[:, i], p[:, i - 1], out=p[:, i])


def march(vp, mesh, u_init):
    """Backward time march over a mesh.

    All N step matrices M_j are built and inverted in one batched call, and
    each step becomes the affine map U_j = P_j U_{j-1} + q_j with
    P_j = M_j^-1 diag(eps)/delta_j and q_j = M_j^-1 f(t_j). The recurrence
    is evaluated as a blocked scan in about 2 sqrt(N) vectorized iterations
    (see _affine_recurrence). Afterwards every step is checked against the
    system it solves, in one vectorized pass: the residual guard requires
    |M_j U_j - b_j| <= STEP_RESIDUAL_RTOL * (1 + |b_j|) in the maximum norm,
    with b_j = diag(eps)/delta_j U_{j-1} + f(t_j), and the first step that
    fails it or has a non-finite residual raises SolveFailureError. The
    tolerance is the module constant, read at call time.

    Parameters
    ----------
    vp : ValidatedProblem
        Problem with established alpha and sign structure.
    mesh : ShishkinMesh
        Mesh to march over; must match the problem's horizon and scales.
    u_init : array_like
        Value at t = 0 for this grid.

    Returns
    -------
    SolutionGrid
        Bound to vp and mesh.
    """
    spec = vp.spec
    n = spec.n
    if mesh.n != n:
        raise ValueError(
            "mesh was built for %d scale(s), the problem has %d" % (mesh.n, n)
        )
    if abs(mesh.T - spec.T) > 1e-12 * max(1.0, spec.T):
        raise ValueError(
            "mesh horizon %r does not match problem horizon %r" % (mesh.T, spec.T)
        )
    u = np.array(u_init, dtype=float).reshape(-1)
    if u.shape != (n,) or not np.isfinite(u).all():
        raise ValueError("initial value must be a finite vector of length %d" % n)

    ed = np.asarray(spec.eps) / mesh.deltas[:, None]
    m = step_matrices(vp, mesh)
    f = sample_f(spec, mesh.points[1:])
    values = _affine_recurrence(np.linalg.inv(m), ed, f, u)

    b = ed * values[:-1] + f
    residual = np.abs(np.einsum("jik,jk->ji", m, values[1:]) - b).max(axis=1)
    tol = STEP_RESIDUAL_RTOL * (1.0 + np.abs(b).max(axis=1))
    # A non-finite U_j or b_j gives a non-finite residual, which fails even
    # where it is nan (nan > tol is False) or the tolerance is infinite too.
    failed = np.flatnonzero(~np.isfinite(residual) | (residual > tol))
    if failed.size:
        j = int(failed[0])
        raise SolveFailureError(
            "step %d solve residual %.3e exceeds tolerance" % (j + 1, residual[j])
        )
    values.setflags(write=False)
    return SolutionGrid(problem=vp, mesh=mesh, values=values)


def solve(vp, N):
    """Build the layer-adapted mesh with N intervals and march the problem."""
    mesh = build_mesh(vp, N)
    return march(vp, mesh, vp.spec.u0)


def decompose(vp, mesh):
    """Split the discrete solution into smooth and layer parts.

    The smooth part marches the problem from the reduced initial value
    A(0)^-1 f(0); the layer part marches its zero-forcing twin (f = 0, the
    same A, eps, T and alpha, which validate derives from A, eps and T
    alone) from the remainder u(0) - A(0)^-1 f(0), and its grid carries
    that twin. By linearity the parts add up to the full solution to
    rounding; nothing is subtracted from a computed grid.
    """
    spec = vp.spec
    v0 = np.linalg.solve(sample_A(spec, 0.0)[0], sample_f(spec, 0.0)[0])
    w0 = np.asarray(spec.u0, dtype=float) - v0
    zero_f = ValidatedProblem(replace(spec, f=((0.0,),) * spec.n), vp.alpha)
    smooth = march(vp, mesh, v0)
    singular = march(zero_f, mesh, w0)
    return DecomposedSolution(smooth=smooth, singular=singular)


def certify_max_principle(grid):
    """Nonnegativity certificate for grids marched from nonnegative data.

    If the initial value and the forcing of grid.problem at every step are
    nonnegative, returns whether the grid stayed above -1e-12 * scale with
    scale = max(1, largest magnitude on the grid). When the hypothesis does
    not hold the implication being certified is empty and the certificate
    returns True vacuously.
    """
    if (grid.values[0] < 0.0).any():
        return True
    if (sample_f(grid.problem.spec, grid.mesh.points[1:]) < 0.0).any():
        return True
    scale = max(1.0, float(np.abs(grid.values).max()))
    return bool(grid.values.min() >= -MAX_PRINCIPLE_RTOL * scale)


def certify_stability(grid):
    """Maximum-norm certificate: every grid value obeys
    max_j ||U(t_j)|| <= max(||U(0)||, max_j ||f(t_j)|| / alpha), with f and
    alpha those of grid.problem."""
    initial_norm = float(np.abs(grid.values[0]).max())
    rhs = sample_f(grid.problem.spec, grid.mesh.points[1:])
    rhs_norm = float(np.abs(rhs).max()) if rhs.size else 0.0
    bound = max(initial_norm, rhs_norm / grid.problem.alpha)
    max_norm = float(np.abs(grid.values).max())
    return StabilityCertificate(
        bound=bound,
        max_norm=max_norm,
        ok=bool(max_norm <= bound + STABILITY_RTOL * bound),
    )
