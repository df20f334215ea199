"""Implicit march, decomposition, operator identity and certificates."""

from dataclasses import replace

import numpy as np
import pytest

import cases
from layerode.mesh import ShishkinMesh, build_mesh
from layerode.problem import sample_A, sample_f, validate
from layerode.solver import (
    SolveFailureError,
    certify_max_principle,
    certify_stability,
    decompose,
    march,
    solve,
    step_matrices,
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


def test_step_matrix_values():
    vp = validate(cases.layer_two_scale(eps=(0.0625, 0.25)))
    mesh = _uniform_mesh(8, 1.0, (0.25, 0.5), (0, 0))
    m = step_matrices(vp, mesh)
    assert m.shape == (8, 2, 2)
    assert np.array_equal(m[0], np.array([[2.5, -1.0], [-1.0, 4.0]]))


def test_random_step_matrices_are_m_matrices():
    rng = np.random.default_rng(7121)
    for _ in range(100):
        vp = validate(cases.random_nonneg_problem(rng))
        m = step_matrices(vp, build_mesh(vp, 64))
        diag = np.diagonal(m, axis1=1, axis2=2)
        off = m - diag[:, :, None] * np.eye(vp.spec.n)
        assert (off <= 0.0).all()
        assert (diag > np.abs(off).sum(axis=2)).all()
        assert cases.inverse_nonnegative(m)


def _per_step_march(vp, mesh, u_init):
    # Reference: one dense solve per step, in mesh order.
    spec = vp.spec
    eps = np.asarray(spec.eps)
    u = np.array(u_init, dtype=float)
    rows = [u]
    for j in range(1, mesh.N + 1):
        t = float(mesh.points[j])
        ed = eps / mesh.deltas[j - 1]
        b = ed * u + sample_f(spec, t)[0]
        u = np.linalg.solve(sample_A(spec, t)[0] + np.diag(ed), b)
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


def test_march_matches_per_step_solves_at_random_sizes():
    rng = np.random.default_rng(4177)
    for _ in range(12):
        spec = cases.random_nonneg_problem(rng)
        N = 2 ** spec.n * int(rng.integers(1, 300 // 2 ** spec.n + 1))
        mesh = build_mesh(validate(spec), N)
        for problem in (spec, cases.zero_forcing(spec)):
            vp = validate(problem)
            values = march(vp, mesh, spec.u0).values
            reference = _per_step_march(vp, mesh, spec.u0)
            scale = max(1.0, np.abs(reference).max())
            assert np.abs(values - reference).max() <= 1e-12 * scale, (N, problem.f)


@pytest.mark.parametrize("N", [8, 92, 1024])
def test_steady_state_is_reproduced_exactly_across_blocks(N):
    # 92 = 10 blocks of 9 and one of 2 steps padded to 9; every step maps 2
    # exactly onto 2.
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
    assert certify_max_principle(grid)
    assert grid.values.min() >= -1e-12 * max(1.0, np.abs(grid.values).max())
    stability = certify_stability(grid)
    assert stability.ok
    assert stability.max_norm <= stability.bound * (1.0 + 1e-10)


def test_stability_bound_values():
    vp = validate(cases.steady_scalar())
    grid = solve(vp, 8)
    stability = certify_stability(grid)
    assert stability.bound == 2.0
    assert stability.max_norm == 2.0
    vp = validate(cases.layer_two_scale())
    stability = certify_stability(solve(vp, 32))
    assert stability.bound == 1.0


def test_layer_part_certificates_use_zero_right_hand_side():
    # the layer part starts at u0 - A(0)^-1 f(0) = (-0.5, -0.5) and marches
    # the zero-forcing twin, so its bound is the initial norm alone; the
    # forcing would give |f| / alpha = 1
    vp = validate(replace(cases.constant_two_scale(), u0=(0.5, 0.5)))
    singular = decompose(vp, build_mesh(vp, 16)).singular
    assert certify_stability(singular).bound == 0.5


def test_certificate_vacuous_for_negative_initial_value():
    vp = validate(cases.decay_scalar())
    mesh = build_mesh(vp, 4)
    grid = march(vp, mesh, (-1.0,))
    assert grid.values.min() < 0.0
    assert certify_max_principle(grid)


def test_certificate_vacuous_for_negative_forcing():
    spec = cases.ProblemSpec(
        n=1, A=((cases.poly(1.0),),), f=(cases.poly(-1.0),), u0=(0.0,),
        T=2.0, eps=(1.0,),
    )
    vp = validate(spec)
    grid = solve(vp, 4)
    assert grid.values.min() < 0.0
    assert certify_max_principle(grid)


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
# is nan (nan > tol is False); numpy warns about the overflow on the way.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_residual_trips_the_guard():
    vp = validate(replace(cases.constant_two_scale(), u0=(1e308, 1e308)))
    with pytest.raises(SolveFailureError, match=r"^step 1 solve residual nan"):
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
    m = step_matrices(vp, mesh)
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
