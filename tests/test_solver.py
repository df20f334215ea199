"""Implicit march, decomposition, operator identity and certificates."""

import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import cases
from layerode.mesh import ShishkinMesh, build_mesh
from layerode.problem import sample_A, sample_f, validate
from layerode.solver import (
    SolveFailureError,
    certify,
    decompose,
    march,
    solve,
)

SUITE_N = (16, 64)

# Each problem as given and its zero-forcing twin, the system the layer part
# of decompose solves.
FORCINGS = pytest.mark.parametrize(
    "forcing", [lambda spec: spec, cases.zero_forcing], ids=["given_f", "zero_f"]
)


def test_scalar_decay_hand_values():
    # 1/(1+delta) = 2/3 per step on the uniform mesh with delta = 1/2
    vp = validate(cases.decay_scalar())
    mesh = build_mesh(vp, 4)
    assert np.allclose(mesh.deltas, 0.5, rtol=0.0, atol=0.0)
    grid = march(vp, mesh, vp.spec.u0)
    expected = [1.0, 2.0 / 3.0, 4.0 / 9.0, 8.0 / 27.0, 16.0 / 81.0]
    assert grid.values[:, 0].tolist() == pytest.approx(expected, rel=1e-15)


def _uniform_mesh(N, T, sigmas, bits):
    points = np.linspace(0.0, T, N + 1)
    return ShishkinMesh(
        N=N, points=points, deltas=np.diff(points), sigmas=sigmas, b=bits
    )


def _step_matrices(vp, mesh):
    # Reference: diag(eps)/delta_j + A(t_j), the matrix of step j, in entry
    # j - 1 of an (N, n, n) stack.
    eps = np.diag(vp.spec.eps)
    return sample_A(vp.spec, mesh.points[1:]) + eps / mesh.deltas[:, None, None]


def test_coupled_march_hand_values():
    # delta = 1/8 gives the step matrix [[2.5, -1], [-1, 4]], whose inverse
    # is [[4, 1], [1, 2.5]] / 9, and diag(eps)/delta = diag(0.5, 2)
    vp = validate(cases.layer_two_scale(eps=(0.0625, 0.25)))
    mesh = _uniform_mesh(8, 1.0, (0.25, 0.5), (0, 0))
    values = march(vp, mesh, (1.0, 1.0)).values
    assert values[1].tolist() == pytest.approx([4.0 / 9.0, 11.0 / 18.0], rel=1e-15)
    assert values[2].tolist() == pytest.approx([19.0 / 81.0, 29.5 / 81.0], rel=1e-15)


def test_random_step_matrices_are_m_matrices():
    rng = np.random.default_rng(7121)
    for _ in range(100):
        vp = validate(cases.random_nonneg_problem(rng))
        m = _step_matrices(vp, build_mesh(vp, 64))
        diag = np.diagonal(m, axis1=1, axis2=2)
        off = m - diag[:, :, None] * np.eye(vp.spec.n)
        assert (off <= 0.0).all()
        assert (diag > np.abs(off).sum(axis=2)).all()
        assert cases.inverse_nonnegative(m)


def _per_step_march(vp, mesh, u_init):
    # Reference: one dense solve per step, in mesh order.
    spec = vp.spec
    eps = np.asarray(spec.eps)
    A = sample_A(spec, mesh.points[1:])
    f = sample_f(spec, mesh.points[1:])
    u = np.array(u_init, dtype=float)
    rows = [u]
    for j in range(mesh.N):
        ed = eps / mesh.deltas[j]
        u = np.linalg.solve(A[j] + np.diag(ed), ed * u + f[j])
        rows.append(u)
    return np.array(rows)


# Mesh sizes against the blocked scan's blocks of isqrt(N) steps: blocks of
# one step (2), B dividing N (8 = 4 blocks of 2, 12, no power of two, and
# SUITE_N), and a last block padded with identity steps (96 = 10 blocks of
# 9 and one of 6, 1032 = 32 blocks of 32 and one of 8). SUITE_N is listed
# last, so the ids of the other cases do not depend on it.
BLOCK_CASES = [
    (name, spec, N)
    for Ns in ((2, 8, 12, 96, 1032), SUITE_N)
    for name, spec in cases.suite()
    for N in Ns
    if N % 2 ** spec.n == 0
]


@pytest.mark.parametrize("name,spec,N", BLOCK_CASES)
@FORCINGS
def test_march_matches_per_step_solves_across_blocks(name, spec, N, forcing):
    vp = validate(forcing(spec))
    mesh = build_mesh(vp, N)
    u_init = np.asarray(spec.u0) + 1.0
    grid = march(vp, mesh, u_init)
    assert grid.problem is vp and grid.mesh is mesh
    reference = _per_step_march(vp, mesh, u_init)
    scale = max(1.0, np.abs(reference).max())
    assert np.abs(grid.values - reference).max() <= 1e-12 * scale


# A march runs in chunks of max(2048, N / 8) steps, each from the last value
# of the one before: 2056 = 2048 + 8, 4104 = 2 * 2048 + 8, and 2^14 + 8 is
# 8 chunks of 2049 steps.
SEAM_N = (2056, 4104, 2 ** 14 + 8)


def test_march_matches_per_step_solves_at_random_sizes():
    rng = np.random.default_rng(4177)
    draws = []
    for _ in range(12):
        spec = cases.random_nonneg_problem(rng)
        draws.append((spec, 2 ** spec.n * int(rng.integers(1, 300 // 2 ** spec.n + 1))))
    # n <= 3, so 2^n divides every seam size
    draws += [(cases.random_nonneg_problem(rng, n_max=3), N) for N in SEAM_N]
    for spec, N in draws:
        mesh = build_mesh(validate(spec), N)
        for problem in (spec, cases.zero_forcing(spec)):
            vp = validate(problem)
            values = march(vp, mesh, spec.u0).values
            reference = _per_step_march(vp, mesh, spec.u0)
            scale = max(1.0, np.abs(reference).max())
            assert np.abs(values - reference).max() <= 1e-12 * scale, (N, problem.f)


# The bound on the distance of a march from the exact backward-Euler march
# (cases.exact_march), relative to the grid's largest value; marches were
# measured within 1.6e-15 of it.
EXACT_MARCH_RTOL = 1e-14


def _exact_gap(grid, lo, hi):
    # max |U_j - exact U_j| over j = lo .. hi, marched exactly from U_lo, and
    # the bound on it
    exact = cases.exact_march(grid.problem.spec, grid.mesh, grid.values[lo], lo, hi)
    gap = max(abs(Fraction(float(v)) - e)
              for row, exact_row in zip(grid.values[lo:hi + 1], exact)
              for v, e in zip(row, exact_row))
    return float(gap), EXACT_MARCH_RTOL * float(np.abs(grid.values).max())


# cases.suite() holds both problems/ files as they stand
@pytest.mark.parametrize("name,spec", cases.suite())
@pytest.mark.parametrize("N", SUITE_N)
def test_march_and_parts_match_exact_backward_euler(name, spec, N):
    vp = validate(spec)
    mesh = build_mesh(vp, N)
    parts = decompose(vp, mesh)
    for grid in (march(vp, mesh, spec.u0), parts.smooth, parts.singular):
        gap, bound = _exact_gap(grid, 0, N)
        assert gap <= bound, (gap, bound)


@pytest.mark.parametrize("name,spec", cases.suite())
@pytest.mark.parametrize("N", SEAM_N[1:])
def test_march_matches_exact_backward_euler_at_chunk_seams(name, spec, N):
    # 16 steps on each side of every seam between chunks of C steps (see
    # SEAM_N); the last chunk of 4104 has 8 steps
    grid = solve(validate(spec), N)
    C = max(2048, -(-N // 8))
    for seam in range(C, N, C):
        for lo, hi in ((seam - 16, seam), (seam, min(seam + 16, N))):
            gap, bound = _exact_gap(grid, lo, hi)
            assert gap <= bound, (seam, lo, gap, bound)


@pytest.mark.parametrize("N", [8, 92, 1024, 8192])
def test_steady_state_is_reproduced_exactly_across_blocks(N):
    # 92 = 10 blocks of 9 and one of 2 steps padded to 9; 8192 is 4 chunks
    # of 2048 steps; every step maps 2 exactly onto 2.
    # (At N = 96 one step width rounds so that a step-by-step march leaves
    # 2 by an ulp, so there is no exact steady state to pin.)
    vp = validate(cases.steady_scalar())
    assert (solve(vp, N).values == 2.0).all()
    parts = decompose(vp, build_mesh(vp, N))
    assert (parts.smooth.values == 2.0).all()
    assert (parts.singular.values == 0.0).all()


def test_state_kept_by_the_first_step_only_is_marched():
    # f = 2 + t^6 changes 2 by less than rounding at t_1 = 2^-9, so step 1
    # maps u0 = 2 exactly onto itself, and later steps move it
    spec = cases.ProblemSpec(
        n=1, A=((cases.poly(1.0),),), f=(cases.poly(2.0, 0, 0, 0, 0, 0, 1.0),),
        u0=(2.0,), T=2.0, eps=(1.0,),
    )
    vp = validate(spec)
    mesh = build_mesh(vp, 1024)
    values = march(vp, mesh, spec.u0).values
    assert values[1, 0] == 2.0
    reference = _per_step_march(vp, mesh, spec.u0)
    assert np.abs(values - reference).max() <= 1e-12 * np.abs(reference).max()


@FORCINGS
def test_decayed_solution_passes_the_residual_guard_at_large_N(forcing):
    # Far along the mesh the solution has decayed below 1e-6 of u(0) while
    # eps/delta is ~1e4; values with an absolute error of order
    # eps_mach |u(0)|, as offsets from u(0) carry, fail the guard there.
    vp = validate(forcing(cases.layer_two_scale()))
    values = march(vp, build_mesh(vp, 2 ** 16), (2.0, 2.0)).values
    assert np.abs(values[-1]).max() < 1e-6


@pytest.mark.parametrize("name,spec", cases.suite())
def test_march_holds_at_most_two_step_stacks(name, spec):
    # The bound allows the two (N, n, n) stacks a march needs, the step
    # matrices and their inverses, and eight (N, n) arrays besides; numpy
    # reports its buffers to tracemalloc.
    vp = validate(spec)
    n, N = spec.n, 2 ** 14
    mesh = build_mesh(vp, N)
    march(vp, build_mesh(vp, 16), spec.u0)  # numpy's lazy set-up, untraced
    tracemalloc.start()
    try:
        march(vp, mesh, spec.u0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 * n * n + 8 * n) * 8 * N


@pytest.mark.parametrize("name,spec", cases.suite())
def test_march_holds_two_step_stacks_of_one_chunk(name, spec):
    # At N = 2^16 a chunk is 2^16 / 8 = 8192 steps, padded to the scan's 92
    # blocks of 90 = 8280. The bound allows the (N+1, n) grid, and per chunk
    # the two stacks of 8280 steps and eight arrays of 8280 rows of n: the
    # per-step n^2 term is about an eighth of two whole-march stacks.
    vp = validate(spec)
    n, N, steps = spec.n, 2 ** 16, 8280
    mesh = build_mesh(vp, N)
    march(vp, build_mesh(vp, 16), spec.u0)  # numpy's lazy set-up, untraced
    tracemalloc.start()
    try:
        march(vp, mesh, spec.u0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ((N + 1) * n + steps * (2 * n * n + 8 * n)) * 8


def test_non_finite_forcing_in_a_later_chunk_names_its_step(monkeypatch):
    # N = 4104 marches in chunks of 2048, 2048 and 8 steps; a nan forcing at
    # step 2148, the 100th of the second chunk, fails that step first.
    vp = validate(cases.constant_two_scale())
    mesh = build_mesh(vp, 4104)
    bad_t = mesh.points[2148]

    def poisoned(spec, ts):
        f = sample_f(spec, ts)
        f[np.asarray(ts) == bad_t] = np.nan
        return f

    monkeypatch.setattr("layerode.solver.sample_f", poisoned)
    with pytest.raises(SolveFailureError, match=r"^step 2148 solution is not finite"):
        march(vp, mesh, vp.spec.u0)


def test_decomposition_initial_split():
    vp = validate(cases.constant_two_scale())
    parts = decompose(vp, build_mesh(vp, 16))
    v0 = np.linalg.solve(sample_A(vp.spec, 0.0)[0], sample_f(vp.spec, 0.0)[0])
    assert np.array_equal(parts.smooth.values[0], v0)
    assert np.array_equal(parts.singular.values[0], np.array(vp.spec.u0) - v0)


@pytest.mark.parametrize("name,spec", cases.suite())
def test_parts_carry_the_problem_and_its_zero_forcing_twin(name, spec):
    vp = validate(spec)
    parts = decompose(vp, build_mesh(vp, 16))
    assert parts.smooth.problem is vp
    layer = parts.singular.problem
    assert layer.spec.f == ((0.0,),) * spec.n
    assert (layer.spec.A, layer.spec.eps, layer.spec.T) == (spec.A, spec.eps, spec.T)
    assert layer.alpha == vp.alpha
    assert layer == validate(cases.zero_forcing(spec))


def test_layer_part_marches_the_homogeneous_system():
    # the layer part starts at u0 - A(0)^-1 f(0) = (-1, -1) and is marched
    # without the forcing f = (2, 2)
    vp = validate(cases.constant_two_scale())
    mesh = build_mesh(vp, 32)
    singular = decompose(vp, mesh).singular
    reference = _per_step_march(
        validate(cases.zero_forcing(vp.spec)), mesh, singular.values[0]
    )
    scale = max(1.0, np.abs(reference).max())
    assert np.abs(singular.values - reference).max() <= 1e-12 * scale


def test_homogeneous_norms_never_grow():
    vp = validate(cases.layer_two_scale())
    grid = solve(vp, 128)
    norms = np.abs(grid.values).max(axis=1)
    assert (norms[1:] <= norms[:-1] + 1e-15).all()
    assert norms[0] == 1.0
    assert norms[-1] < 0.01


@pytest.mark.parametrize("name,spec", cases.suite())
@pytest.mark.parametrize("N", SUITE_N)
def test_nonnegative_data_certificates(name, spec, N):
    vp = validate(spec)
    grid = solve(vp, N)
    cert = certify(grid)
    assert cert.max_principle
    assert grid.values.min() >= -1e-12 * max(1.0, np.abs(grid.values).max())
    assert cert.stability_ok
    assert cert.stability_max_norm <= cert.stability_bound * (1.0 + 1e-10)


def test_stability_bound_values():
    vp = validate(cases.steady_scalar())
    grid = solve(vp, 8)
    cert = certify(grid)
    assert cert.stability_bound == 2.0
    assert cert.stability_max_norm == 2.0
    vp = validate(cases.layer_two_scale())
    assert certify(solve(vp, 32)).stability_bound == 1.0


def test_layer_part_certificates_use_zero_right_hand_side():
    # the layer part starts at u0 - A(0)^-1 f(0) = (-0.5, -0.5) and marches
    # the zero-forcing twin, so its bound is the initial norm alone; the
    # forcing would give |f| / alpha = 1
    vp = validate(replace(cases.constant_two_scale(), u0=(0.5, 0.5)))
    singular = decompose(vp, build_mesh(vp, 16)).singular
    assert certify(singular).stability_bound == 0.5


def test_certificate_vacuous_for_negative_initial_value():
    vp = validate(cases.decay_scalar())
    mesh = build_mesh(vp, 4)
    grid = march(vp, mesh, (-1.0,))
    assert grid.values.min() < 0.0
    assert certify(grid).max_principle


def test_certificate_vacuous_for_negative_forcing():
    spec = cases.ProblemSpec(
        n=1, A=((cases.poly(1.0),),), f=(cases.poly(-1.0),), u0=(0.0,),
        T=2.0, eps=(1.0,),
    )
    vp = validate(spec)
    grid = solve(vp, 4)
    assert grid.values.min() < 0.0
    assert certify(grid).max_principle


def test_march_rejects_foreign_mesh():
    vp = validate(cases.constant_two_scale())
    other = build_mesh(validate(cases.variable_three_scale()), 16)
    with pytest.raises(ValueError):
        march(vp, other, vp.spec.u0)
    short = cases.ProblemSpec(
        n=1, A=((cases.poly(1.0),),), f=(cases.poly(0.0),), u0=(1.0,),
        T=1.0, eps=(0.5,),
    )
    wrong_T = build_mesh(validate(short), 16)
    scalar = validate(cases.decay_scalar())
    with pytest.raises(ValueError):
        march(scalar, wrong_T, scalar.spec.u0)
    # horizons 5e-13 and 1e-13 differ by far less than 1e-12
    tiny = cases.scaled_identity((1e-15,), 1.0, 5e-13)
    tinier = build_mesh(cases.scaled_identity((1e-15,), 1.0, 1e-13), 16)
    with pytest.raises(ValueError, match="horizon"):
        march(tiny, tinier, (1.0,))


def test_march_rejects_bad_initial_value():
    vp = validate(cases.decay_scalar())
    mesh = build_mesh(vp, 4)
    with pytest.raises(ValueError):
        march(vp, mesh, (1.0, 2.0))
    with pytest.raises(ValueError):
        march(vp, mesh, (float("nan"),))


def test_zero_residual_tolerance_trips_the_guard(monkeypatch):
    monkeypatch.setattr("layerode.solver.STEP_RESIDUAL_RTOL", 0.0)
    vp = validate(cases.constant_two_scale())
    mesh = build_mesh(vp, 16)
    with pytest.raises(SolveFailureError):
        march(vp, mesh, vp.spec.u0)
    # Step 1 already has a rounding-level residual here; the guard checks
    # every step and names the first that fails.
    mesh = build_mesh(vp, 64)
    with pytest.raises(SolveFailureError, match=r"^step 1 solve residual"):
        march(vp, mesh, vp.spec.u0)


# b_j = diag(eps)/delta_j U_{j-1} + f overflows, so the residual of step 1
# is nan (nan > tol is False) and b_j is named; numpy warns about the
# overflow on the way.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_residual_trips_the_guard():
    vp = validate(replace(cases.constant_two_scale(), u0=(1e308, 1e308)))
    with pytest.raises(SolveFailureError, match=r"^step 1 right-hand side is not finite"):
        solve(vp, 16)


@pytest.mark.parametrize("name, spec", [
    ("constant_two_scale", cases.constant_two_scale()),
    ("variable_three_scale", cases.variable_three_scale()),
])
def test_residual_guard_tolerance_scale(name, spec, monkeypatch):
    # worst max_j |M_j U_j - b_j| / (1 + |b_j| + |M_j| |U_j|) of a marched
    # grid, recomputed step by step; the guard must trip a decade below it
    # and pass a decade above it, which pins the scale of the tolerance
    vp = validate(spec)
    mesh = build_mesh(vp, 64)
    values = march(vp, mesh, vp.spec.u0).values
    m = _step_matrices(vp, mesh)
    f = sample_f(vp.spec, mesh.points[1:])
    eps = np.asarray(vp.spec.eps)
    ratio = 0.0
    for j in range(mesh.N):
        b = eps / mesh.deltas[j] * values[j] + f[j]
        residual = np.abs(m[j] @ values[j + 1] - b).max()
        scale = np.linalg.norm(m[j], np.inf) * np.linalg.norm(values[j + 1], np.inf)
        ratio = max(ratio, residual / (1.0 + np.abs(b).max() + scale))
    assert ratio > 0.0
    monkeypatch.setattr("layerode.solver.STEP_RESIDUAL_RTOL", ratio / 10.0)
    with pytest.raises(SolveFailureError):
        march(vp, mesh, vp.spec.u0)
    monkeypatch.setattr("layerode.solver.STEP_RESIDUAL_RTOL", ratio * 10.0)
    march(vp, mesh, vp.spec.u0)


def test_solution_values_are_read_only():
    vp = validate(cases.decay_scalar())
    grid = solve(vp, 4)
    with pytest.raises(ValueError):
        grid.values[0, 0] = 5.0


def test_grid_values_are_time_major():
    # values[j] is U at t_j, laid out like sample_A and sample_f
    vp = validate(cases.variable_three_scale())
    mesh = build_mesh(vp, 16)
    u_init = np.array([1.0, 2.0, 3.0])
    values = march(vp, mesh, u_init).values
    assert values.shape == (17, 3)
    assert values.flags.c_contiguous and not values.flags.writeable
    assert np.array_equal(values[0], u_init)
