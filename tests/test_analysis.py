"""Layer envelopes, the constant-coefficient closed form and the harness."""

import math
from dataclasses import replace

import numpy as np
import pytest

import cases
from layerode.analysis import (
    OracleUnavailableError,
    convergence_study,
    default_eps_grid,
    eps_label,
    exact_constant_solution,
    exact_error,
    order_rows,
    two_mesh_difference,
    uniform_sweep,
)
from layerode.mesh import build_mesh, bisect_mesh
from layerode.problem import validate
from layerode.solver import SolveFailureError, march, solve


def test_envelope_reaches_reciprocal_n_at_transition():
    eps, alpha, T, N = (1.0 / 64.0, 1.0 / 16.0), 1.0, 1.0, 64
    mesh = build_mesh(cases.scaled_identity(eps, alpha, T), N)
    assert mesh.b == (1, 1)
    for i, sigma in enumerate(mesh.sigmas):
        value = math.exp(-alpha * sigma / eps[i])
        assert value == pytest.approx(1.0 / N, rel=1e-12)


def test_closed_form_at_time_zero_is_the_initial_value():
    spec = cases.layer_two_scale()
    assert np.array_equal(exact_constant_solution(spec, 0.0)[0], np.array(spec.u0))


@pytest.mark.parametrize("t", [0.003, 0.05, 0.4])
def test_closed_form_semigroup(t):
    # f = 0, so restarting the closed form from u(t) for a time t gives u(2t)
    spec = cases.layer_two_scale()
    once = exact_constant_solution(spec, t)[0]
    restarted = exact_constant_solution(replace(spec, u0=tuple(once.tolist())), t)[0]
    twice = exact_constant_solution(spec, 2.0 * t)[0]
    assert np.abs(restarted - twice).max() <= 2e-16 * np.abs(twice).max()


def test_closed_form_decoupled_exponentials():
    spec = cases.decoupled_identity()
    u = exact_constant_solution(spec, 0.5)[0]
    assert u[0] == pytest.approx(1.2664165549094176e-14, rel=1e-12)
    assert u[1] == pytest.approx(0.1353352832366127, rel=1e-13)


# Yardstick for the oracle against a 50-digit reference, at every 64th point
# of the N = 1024 mesh. Each bound is twice the shared-squaring-count error
# measured when it was set (1.12e-15, 3.84e-11, 1.14e-7); an oracle that
# gives each time its own squaring count should tighten them.
@pytest.mark.parametrize("eps, bound", [
    ((2.0 ** -2, 1.0), 2.3e-15),
    ((2.0 ** -20, 2.0 ** -18), 7.7e-11),
    ((2.0 ** -28, 2.0 ** -18), 2.3e-7),
], ids=["2^-2,1", "2^-20,2^-18", "2^-28,2^-18"])
def test_closed_form_against_50_digit_reference(eps, bound):
    mpmath = pytest.importorskip("mpmath")
    spec = cases.constant_two_scale(eps)
    ts = build_mesh(validate(spec), 1024).points[::64]
    with mpmath.workdps(50):
        A = mpmath.matrix([[c[0] for c in row] for row in spec.A])
        steady = mpmath.lu_solve(A, mpmath.matrix([c[0] for c in spec.f]))
        generator = -(mpmath.diag([1 / mpmath.mpf(e) for e in eps]) * A)
        w0 = mpmath.matrix(spec.u0) - steady
        errors = [
            float(mpmath.norm(mpmath.matrix(u.tolist()) - steady
                              - mpmath.expm(t * generator) * w0, mpmath.inf))
            for t, u in zip(ts.tolist(), exact_constant_solution(spec, ts))
        ]
    assert len(errors) == 17
    assert max(errors) <= bound


def test_closed_form_initial_value():
    spec = cases.constant_two_scale()
    u = exact_constant_solution(spec, 0.0)
    assert u.shape == (1, 2)
    assert np.abs(u[0] - np.array(spec.u0)).max() <= 1e-14


def test_closed_form_steady_state():
    spec = replace(cases.constant_two_scale(), u0=(1.0, 1.0))
    u = exact_constant_solution(spec, [0.0, 0.25, 1.0])
    assert u.shape == (3, 2)
    assert np.abs(u - 1.0).max() <= 1e-13


def test_closed_form_needs_constant_coefficients_and_nonnegative_times():
    with pytest.raises(OracleUnavailableError):
        exact_constant_solution(cases.variable_three_scale(), 0.5)
    with pytest.raises(ValueError):
        exact_constant_solution(cases.constant_two_scale(), [0.5, -0.25])


def test_exact_error_zero_for_steady_problem():
    vp = validate(cases.steady_scalar())
    assert exact_error(solve(vp, 8)) <= 1e-13


def test_exact_error_unavailable_for_varying_coefficients():
    vp = validate(cases.variable_three_scale())
    grid = solve(vp, 16)
    with pytest.raises(OracleUnavailableError):
        exact_error(grid)


def test_oracle_error_decreases_with_refinement():
    vp = validate(cases.layer_two_scale())
    e64 = exact_error(solve(vp, 64))
    e128 = exact_error(solve(vp, 128))
    assert e64 > e128 > 0.0


def test_two_mesh_study_is_the_bisected_march_difference():
    vp = validate(cases.layer_two_scale())
    N = 64
    mesh = build_mesh(vp, N)
    coarse = march(vp, mesh, vp.spec.u0).values
    fine = march(vp, bisect_mesh(mesh), vp.spec.u0).values
    expected = float(np.abs(coarse - fine[::2]).max())
    assert expected > 0.0
    (row,) = convergence_study(vp, [N], two_mesh_difference).rows
    assert row.error == expected


def test_order_rows_first_order_model():
    rows = order_rows([16, 32, 64], [0.4, 0.2, 0.1])
    assert [row.p for row in rows] == [1.0, 1.0, None]
    for row, (nn, err) in zip(rows, [(16, 0.4), (32, 0.2), (64, 0.1)]):
        assert row.c_fit == pytest.approx(err * nn / math.log(nn), rel=1e-15)


def test_order_rows_absent_on_vanishing_errors():
    rows = order_rows([16, 32, 64], [0.1, 0.0, 0.05])
    assert [row.p for row in rows] == [None, None, None]
    assert rows[1].c_fit == 0.0


def test_convergence_study_validates_input():
    vp = validate(cases.steady_scalar())
    with pytest.raises(ValueError, match="must double"):
        convergence_study(vp, [16, 24], two_mesh_difference)
    with pytest.raises(ValueError, match="need at least one mesh size"):
        convergence_study(vp, [], two_mesh_difference)
    with pytest.raises(ValueError, match="empty eps grid"):
        uniform_sweep(vp.spec, [], [16, 32], two_mesh_difference)
    with pytest.raises(OracleUnavailableError):
        convergence_study(validate(cases.variable_three_scale()), [16, 32], exact_error)


def test_convergence_study_rejects_non_finite_error():
    vp = validate(cases.constant_two_scale())
    with pytest.raises(SolveFailureError, match="error at N=16 is not finite"):
        convergence_study(vp, [16, 32], lambda grid: math.inf)


# Every exact propagator of an admissible problem is nonnegative with row
# sums at most 1. At (2^-70, 2^-60) the shared squaring count gives row sums
# up to ~1e49 at the small times, and at (1e-300, 1e-200) infinite ones;
# numpy warns about the overflow on the way.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("eps", [(2.0 ** -70, 2.0 ** -60), (1e-300, 1e-200)])
def test_closed_form_fails_closed_outside_propagator_bounds(eps):
    vp = validate(cases.constant_two_scale(eps))
    with pytest.raises(SolveFailureError, match="closed-form propagator at t=.* leaves its bounds"):
        exact_error(solve(vp, 128))


def test_convergence_study_steady_rows_are_exact():
    vp = validate(cases.steady_scalar())
    report = convergence_study(vp, [8, 16], two_mesh_difference)
    assert [row.error for row in report.rows] == [0.0, 0.0]
    assert [row.p for row in report.rows] == [None, None]
    assert [row.c_fit for row in report.rows] == [0.0, 0.0]


def test_eps_label_spells_powers_of_two():
    assert eps_label((0.25, 1.0)) == "2^-2,2^0"
    assert eps_label((2.0 ** -9, 2.0 ** -3)) == "2^-9,2^-3"
    assert eps_label((0.3,)) == "0.3"


def test_default_grid_shape():
    grid = default_eps_grid(2)
    assert len(grid) == 21
    assert all(len(entry) == 2 for entry in grid)
    assert all(entry[0] < entry[1] <= 1.0 for entry in grid)
    assert (0.25, 1.0) in grid
    assert (2.0 ** -28, 2.0 ** -18) in grid
    assert len(default_eps_grid(1)) == 7
    with pytest.raises(ValueError, match="n must be at least 1"):
        default_eps_grid(0)


def test_uniform_sweep_rows_take_worst_error():
    template = cases.constant_two_scale()
    grid = [(1e-4, 1e-2), (0.0625, 0.25)]
    sweep = uniform_sweep(template, grid, [16, 32], exact_error)
    for k, row in enumerate(sweep.uniform):
        worst = max(report.rows[k].error for report in sweep.reports)
        assert row.error == worst
    # each report is the study `converge` runs for that parameter choice
    for eps, report in zip(sorted(grid), sweep.reports):
        vp = validate(replace(template, eps=eps))
        assert report == convergence_study(vp, [16, 32], exact_error)
