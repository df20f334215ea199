"""Acceptance gate: one check per shipped guarantee, one printed line each.

Run with -s to see the pass/fail lines as they happen. The convergence
bands were frozen from the first recorded runs of this harness; the 0.70
floor on the parameter-robust order is the hard gate.
"""

import math
import time

import numpy as np
import pytest

import cases
from layerode.analysis import (
    default_eps_grid,
    exact_error,
    two_mesh_difference,
    uniform_sweep,
)
from layerode.mesh import build_mesh, bisect_mesh, interaction_points
from layerode.problem import load_problem, validate
from layerode.solver import (
    SolutionGrid,
    certify,
    decompose,
    march,
    solve,
)

SWEEP_N = [128, 256, 512, 1024, 2048]
P_UNIFORM_FLOOR = 0.70
P_CONFIG_BAND = (0.75, 1.15)
C_FIT_SPREAD = 3.0
SUITE_N = (16, 64, 256)
DEEP_N = [128, 256, 512, 1024]
DEEP_TOPS = (-20, -60, -100, -300)
DEEP_RTOL = 1e-5


def _criterion(num, description, ok, detail):
    print("criterion %2d %-46s %s  [%s]" % (num, description, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s [%s]" % (num, description, detail)


# Coincident entries for each top x of the default grid: the case the paper
# excludes by assuming distinct scales, swept under the same bands
COINCIDENT_SHAPES = {
    2: [(1.0, 1.0)],
    3: [(2.0 ** -8, 2.0 ** -8, 1.0), (2.0 ** -4, 1.0, 1.0), (1.0, 1.0, 1.0)],
}


def _grid_with_coincident(n):
    grid = default_eps_grid(n)
    tops = {eps[-1] for eps in grid}
    return grid + [tuple(x * r for r in shape)
                   for x in tops for shape in COINCIDENT_SHAPES[n]]


@pytest.fixture(scope="module")
def oracle_sweep():
    template = cases.constant_two_scale()
    start = time.perf_counter()
    report = uniform_sweep(template, _grid_with_coincident(2), SWEEP_N, exact_error)
    return report, time.perf_counter() - start


def test_criterion_1_oracle_convergence(oracle_sweep):
    report, elapsed = oracle_sweep
    uniform_p = [row.p for row in report.uniform if row.p is not None]
    config_p = [
        row.p
        for rep in report.reports
        for row in rep.rows
        if row.p is not None and row.N >= 256
    ]
    ok = (
        all(p >= P_UNIFORM_FLOOR for p in uniform_p)
        and all(P_CONFIG_BAND[0] <= p <= P_CONFIG_BAND[1] for p in config_p)
        and elapsed < 30.0
    )
    detail = "p_uniform=%s config_p=[%.3f,%.3f] %.1fs" % (
        ["%.3f" % p for p in uniform_p], min(config_p), max(config_p), elapsed,
    )
    _criterion(1, "oracle sweep is robustly first order", ok, detail)


def test_criterion_2_constant_fit_stability(oracle_sweep):
    report, _ = oracle_sweep
    worst = 0.0
    for rep in report.reports:
        fits = [row.c_fit for row in rep.rows if row.N >= 256]
        worst = max(worst, max(fits) / min(fits))
    ok = worst <= C_FIT_SPREAD
    _criterion(2, "fitted constants stay within a factor of 3", ok,
               "max spread %.4f" % worst)


def test_criterion_3_two_mesh_variable_coefficients():
    template = cases.variable_three_scale()
    report = uniform_sweep(template, _grid_with_coincident(3), SWEEP_N,
                           two_mesh_difference)
    uniform_p = [row.p for row in report.uniform if row.p is not None]
    ok = all(p >= P_UNIFORM_FLOOR for p in uniform_p)
    _criterion(3, "two-mesh sweep is robustly first order", ok,
               "p_uniform=%s" % ["%.3f" % p for p in uniform_p])


def test_criterion_4_discrete_superposition():
    worst = 0.0
    for _, spec in cases.suite():
        vp = validate(spec)
        for N in SUITE_N:
            mesh = build_mesh(vp, N)
            full = march(vp, mesh, vp.spec.u0)
            parts = decompose(vp, mesh)
            gap = np.abs(full.values - (parts.smooth.values + parts.singular.values)).max()
            worst = max(worst, gap / (1.0 + np.abs(full.values).max()))
    ok = worst <= 1e-10
    _criterion(4, "smooth + layer parts reproduce the solution", ok,
               "worst relative gap %.2e" % worst)


def test_criterion_5_discrete_maximum_principle():
    rng = np.random.default_rng(509)
    failures = 0
    for _ in range(200):
        vp = validate(cases.random_nonneg_problem(rng))
        grid = solve(vp, 64)
        scale = max(1.0, float(np.abs(grid.values).max()))
        if grid.values.min() < -1e-12 * scale or not certify(grid).max_principle:
            failures += 1
    _criterion(5, "nonnegative data keeps the solution nonnegative",
               failures == 0, "%d failures in 200 runs" % failures)


def test_criterion_6_discrete_stability():
    failures = []
    for name, spec in cases.suite():
        vp = validate(spec)
        for N in SUITE_N:
            if not certify(solve(vp, N)).stability_ok:
                failures.append((name, N))
    _criterion(6, "stability certificate holds on the suite",
               not failures, "failures: %s" % (failures or "none"))


def test_criterion_7_mesh_invariants():
    rng = np.random.default_rng(707)
    failures = 0
    for _ in range(1000):
        vp, N = cases.random_mesh_draw(rng)
        eps, alpha, T = vp.spec.eps, vp.alpha, vp.spec.T
        mesh = build_mesh(vp, N)
        log_n = math.log(N)
        ok = (
            mesh.points.shape == (N + 1,)
            # sigma_i closes the piece that ends at index N/2^(n-i+1)
            and all(mesh.points[N >> (len(eps) - i)] == s
                    for i, s in enumerate(mesh.sigmas))
            and mesh.points[0] == 0.0
            and mesh.points[-1] == T
            and (np.diff(mesh.points) > 0.0).all()
            and mesh.deltas.max() <= 2.0 * T / N * (1.0 + 1e-12)
            and all(s1 < s2 for s1, s2 in zip(mesh.sigmas, mesh.sigmas[1:]))
            and all(
                sigma <= e / alpha * log_n * (1.0 + 1e-12)
                for sigma, e in zip(mesh.sigmas, eps)
            )
            and mesh.sigmas[-1] <= 0.5 * T * (1.0 + 1e-12)
        )
        failures += not ok
    _criterion(7, "mesh geometry bounds on 1000 random draws",
               failures == 0, "%d failures" % failures)


def test_criterion_8_envelope_crossing_times():
    rng = np.random.default_rng(808)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        alpha = float(rng.uniform(0.5, 4.0))
        T = 2.0 / alpha * float(rng.uniform(1.0, 2.0))
        eps = cases.random_separated_eps(rng, n)
        points = interaction_points(cases.scaled_identity(eps, alpha, T))
        ok = True
        for (i, j), t in points.items():
            ok &= 0.0 < t <= T
            for successor in ((i + 1, j), (i, j + 1)):
                if successor in points:
                    ok &= t <= points[successor]
        failures += not ok
    _criterion(8, "crossing times ordered and inside (0, T]",
               failures == 0, "%d failures" % failures)


def test_criterion_9_layer_decay():
    vp = validate(cases.layer_two_scale(eps=(0.01, 0.1)))
    mesh = build_mesh(vp, 128)
    parts = decompose(vp, mesh)
    envelope = np.exp(-vp.alpha * mesh.points / vp.spec.eps[-1])
    fitted = (np.abs(parts.singular.values).max(axis=1) / envelope).max()
    deep = validate(cases.layer_two_scale(eps=(2.0 ** -14, 2.0 ** -10)))
    deep_parts = decompose(deep, build_mesh(deep, 128))
    tail = float(np.abs(deep_parts.singular.values[-1]).max())
    ok = mesh.b == (1, 1) and fitted <= 2.0 and tail <= 1e-6
    _criterion(9, "layer part decays under the slowest envelope", ok,
               "fitted C %.4f, tail %.2e" % (fitted, tail))


def test_criterion_10_oracle_cross_validation():
    worst = 0.0
    # the last entry is the default grid's widest ratio, 2^-10 at 2^-18
    for spec in (cases.constant_two_scale(eps=(2.0 ** -9, 2.0 ** -3)),
                 cases.decoupled_identity(),
                 cases.constant_two_scale(eps=(2.0 ** -28, 2.0 ** -18))):
        vp = validate(spec)
        coarse_mesh = build_mesh(vp, 2 ** 18)
        coarse = march(vp, coarse_mesh, vp.spec.u0)
        fine = march(vp, bisect_mesh(coarse_mesh), vp.spec.u0)
        extrapolated = 2.0 * fine.values[::2] - coarse.values
        reference = SolutionGrid(problem=vp, mesh=coarse_mesh, values=extrapolated)
        worst = max(worst, exact_error(reference))
    ok = worst <= 1e-6
    _criterion(10, "closed form agrees with a brute-force run", ok,
               "max gap %.2e" % worst)


def _ratio_grid(n, top_power):
    """The default grid's entries at its smallest top, 2^-18 (one per
    ratio), moved to a top of 2^top_power; a power-of-two scale is exact."""
    scale = 2.0 ** (top_power + 18)
    return [tuple(e * scale for e in eps)
            for eps in default_eps_grid(n) if eps[-1] == 2.0 ** -18]


def test_criterion_11_uniform_in_all_eps():
    # the paper's bound is uniform in every eps, so far below the default
    # grid's 2^-18 the worst-case rows must stay where they are
    start = time.perf_counter()
    worst_p, worst_gap = math.inf, 0.0
    for path in sorted(cases.PROBLEMS.glob("*.json")):
        spec = load_problem(path)
        reference = uniform_sweep(spec, _ratio_grid(spec.n, -18), DEEP_N,
                                  two_mesh_difference).uniform
        for top_power in DEEP_TOPS:
            uniform = uniform_sweep(spec, _ratio_grid(spec.n, top_power), DEEP_N,
                                    two_mesh_difference).uniform
            worst_p = min([worst_p] + [row.p for row in uniform if row.p is not None])
            worst_gap = max([worst_gap] + [abs(row.error - ref.error) / ref.error
                                           for row, ref in zip(uniform, reference)])
    elapsed = time.perf_counter() - start
    ok = worst_p >= P_UNIFORM_FLOOR and worst_gap <= DEEP_RTOL
    _criterion(11, "two-mesh rows stay put down to eps 2^-300", ok,
               "min p_uniform %.3f, max gap to 2^-18 %.1e, %.2fs"
               % (worst_p, worst_gap, elapsed))
