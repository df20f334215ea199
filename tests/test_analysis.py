"""Layer envelopes, the constant-coefficient closed form and the harness."""

import math
from dataclasses import replace

import numpy as np
import pytest

import cases
from layerode import (
    OracleUnavailableError,
    SolveFailureError,
    build_mesh,
    bisect_mesh,
    convergence_study,
    default_eps_grid,
    eps_label,
    exact_constant_solution,
    exact_error,
    march,
    matrix_exponential,
    order_rows,
    solve,
    two_mesh_difference,
    uniform_sweep,
    validate,
)


def test_envelope_reaches_reciprocal_n_at_transition():
    eps, alpha, T, N = (1.0 / 64.0, 1.0 / 16.0), 1.0, 1.0, 64
    mesh = build_mesh(cases.scaled_identity(eps, alpha, T), N)
    assert mesh.b == (1, 1)
    for i, sigma in enumerate(mesh.sigmas):
        value = math.exp(-alpha * sigma / eps[i])
        assert value == pytest.approx(1.0 / N, rel=1e-12)


def test_matrix_exponential_zero_and_nilpotent():
    assert np.array_equal(matrix_exponential(np.zeros((2, 2))), np.eye(2))
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(matrix_exponential(m), np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_matrix_exponential_scalar_and_diagonal():
    assert matrix_exponential(np.array([[-3.0]]))[0, 0] == pytest.approx(
        math.exp(-3.0), rel=1e-14
    )
    m = matrix_exponential(np.diag([-1.0, -2.0]))
    assert np.allclose(
        m, np.diag([math.exp(-1.0), math.exp(-2.0)]), rtol=1e-14, atol=0.0
    )
    assert m[0, 1] == 0.0 and m[1, 0] == 0.0


def test_matrix_exponential_semigroup():
    m = np.array([[-2.0, 1.0], [1.0, -3.0]])
    once = matrix_exponential(m)
    twice = matrix_exponential(2.0 * m)
    assert np.allclose(once @ once, twice, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("bad", [
    np.zeros(3),
    np.zeros((2, 3)),
    np.zeros((0, 0)),
    np.array([[0.0, 1.0], [np.nan, 0.0]]),
], ids=["1-D", "non-square", "empty", "non-finite"])
def test_matrix_exponential_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        matrix_exponential(bad)


def test_matrix_exponential_single_matrix_is_a_one_matrix_stack():
    m = np.array([[-7.0, 2.5], [1.0, -3.25]])
    assert np.array_equal(matrix_exponential(m), matrix_exponential(m[None])[0])


def test_closed_form_decoupled_exponentials():
    spec = cases.decoupled_identity()
    u = exact_constant_solution(spec, 0.5)[0]
    assert u[0] == pytest.approx(1.2664165549094176e-14, rel=1e-12)
    assert u[1] == pytest.approx(0.1353352832366127, rel=1e-13)


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


def test_two_mesh_difference_zero_for_steady_problem():
    vp = validate(cases.steady_scalar())
    assert two_mesh_difference(solve(vp, 16)) == 0.0


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
    with pytest.raises(ValueError):
        convergence_study(vp, [16, 24], two_mesh_difference)
    with pytest.raises(OracleUnavailableError):
        convergence_study(validate(cases.variable_three_scale()), [16, 32], exact_error)


# The closed form overflows inside matrix_exponential at these scales, and
# numpy warns about it on the way.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_convergence_study_rejects_non_finite_error():
    vp = validate(cases.constant_two_scale((1e-300, 1e-200)))
    assert not math.isfinite(exact_error(solve(vp, 16)))
    with pytest.raises(SolveFailureError, match="error at N=16 is not finite"):
        convergence_study(vp, [16, 32], exact_error)


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
