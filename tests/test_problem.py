"""Problem statement, admissibility validation and the JSON layout."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import cases
from layerode import (
    ProblemFormatError,
    ProblemSpec,
    ProblemValidationError,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    sample_A,
    sample_f,
    validate,
)


def _scalar_doc(a, f=0.0):
    return {"n": 1, "T": 2.0, "eps": [1.0], "u0": [0.0], "A": [[a]], "f": [f]}


def test_polynomial_evaluation_and_degree():
    spec = problem_from_dict(_scalar_doc([1, 2, 3], f=5))
    assert spec.A == (((1.0, 2.0, 3.0),),)
    assert spec.f == ((5.0,),)
    assert sample_A(spec, 0.0)[0, 0, 0] == 1.0
    assert sample_A(spec, 2.0)[0, 0, 0] == 17.0
    assert np.array_equal(sample_A(spec, [0.0, 1.0])[:, 0, 0], np.array([1.0, 6.0]))
    assert np.array_equal(sample_f(spec, [0.0, 2.0])[:, 0], np.array([5.0, 5.0]))
    assert not spec.has_constant_coefficients()
    assert problem_from_dict(_scalar_doc([4, 0, 0], f=[5])).has_constant_coefficients()
    # an empty coefficient list is the zero polynomial
    assert problem_from_dict(_scalar_doc(1.0, f=[])).f == ((0.0,),)


def test_polynomial_degree_cap():
    problem_from_dict(_scalar_doc(list(range(17))))
    with pytest.raises(ProblemFormatError, match="degree 17"):
        problem_from_dict(_scalar_doc(list(range(18))))


def test_polynomial_rejects_non_finite_coefficients():
    with pytest.raises(ProblemFormatError, match="finite"):
        problem_from_dict(_scalar_doc([1.0, float("nan")]))
    with pytest.raises(ProblemFormatError, match="finite"):
        problem_from_dict(_scalar_doc(1.0, f=[float("inf")]))
    with pytest.raises(ProblemFormatError, match="sequence of numbers"):
        problem_from_dict(_scalar_doc([1.0, None]))


def test_eps_must_increase_strictly():
    with pytest.raises(ProblemValidationError) as err:
        cases.constant_two_scale(eps=(0.5, 0.25))
    assert err.value.condition == "eps-ordering"


def test_eps_coincident_rejected():
    with pytest.raises(ProblemValidationError) as err:
        cases.constant_two_scale(eps=(0.25, 0.25))
    assert err.value.condition == "eps-coincident"


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
def test_eps_out_of_range_rejected(bad):
    with pytest.raises(ProblemValidationError) as err:
        replace(cases.steady_scalar(), eps=(bad,))
    assert err.value.condition == "eps-range"


def test_positive_offdiagonal_rejected_with_location():
    spec = ProblemSpec(
        n=2,
        A=cases.constant_matrix([[2.0, 1.0], [-1.0, 2.0]]),
        f=(cases.poly(0.0), cases.poly(0.0)),
        u0=(0.0, 0.0),
        T=1.0,
        eps=(0.25, 0.5),
    )
    with pytest.raises(ProblemValidationError) as err:
        validate(spec)
    assert err.value.condition == "off-diagonal-sign"
    assert (err.value.row, err.value.col) == (1, 2)


def test_weak_row_rejected_with_row_index():
    spec = ProblemSpec(
        n=2,
        A=cases.constant_matrix([[1.0, -2.0], [0.0, 1.0]]),
        f=(cases.poly(0.0), cases.poly(0.0)),
        u0=(0.0, 0.0),
        T=1.0,
        eps=(0.25, 0.5),
    )
    with pytest.raises(ProblemValidationError) as err:
        validate(spec)
    assert err.value.condition == "row-dominance"
    assert err.value.row == 1


def test_dominance_checked_away_from_endpoints():
    # row 1 loses dominance only once t grows past 1: 2 - (1 + t) <= 0
    spec = ProblemSpec(
        n=2,
        A=(
            (cases.poly(2.0), cases.poly(-1.0, -1.0)),
            (cases.poly(0.0), cases.poly(1.0)),
        ),
        f=(cases.poly(0.0), cases.poly(0.0)),
        u0=(0.0, 0.0),
        T=2.0,
        eps=(0.25, 0.5),
    )
    with pytest.raises(ProblemValidationError) as err:
        validate(spec)
    assert err.value.condition == "row-dominance"
    assert err.value.t > 0.9


def _scalar(a_coeffs):
    return ProblemSpec(
        n=1, A=((cases.poly(*a_coeffs),),), f=(cases.poly(0.0),), u0=(0.0,),
        T=1.0, eps=(1e-3,),
    )


def test_row_sum_dipping_below_zero_between_samples_rejected():
    # 1e4 (t - c)^2 - 1e-6 with c = 512.5/1023, midway between two points of
    # a 1024-point uniform sample grid on [0, 1]
    c = 512.5 / 1023.0
    spec = _scalar(npoly.polyadd(1e4 * npoly.polypow((-c, 1.0), 2), (-1e-6,)))
    with pytest.raises(ProblemValidationError) as err:
        validate(spec)
    assert err.value.condition == "row-dominance"
    assert err.value.row == 1
    assert abs(err.value.t - c) <= 1e-6


def test_alpha_is_interior_infimum():
    # 0.5 + (t - 0.3)^2 attains its minimum 0.5 at t = 0.3, which is not a
    # point of a 1024-point uniform sample grid on [0, 1]
    spec = _scalar(npoly.polyadd(npoly.polypow((-0.3, 1.0), 2), (0.5,)))
    assert abs(validate(spec).alpha - 0.5) <= 1e-15


def test_offdiagonal_positive_between_samples_rejected():
    # entry (2,1) is -1e4 (t - c)^2 + 1e-6: positive only within 1e-5 of c
    c = 512.5 / 1023.0
    bump = npoly.polyadd(-1e4 * npoly.polypow((-c, 1.0), 2), (1e-6,))
    spec = ProblemSpec(
        n=2,
        A=(
            (cases.poly(1e4), cases.poly(-1.0)),
            (cases.poly(*bump), cases.poly(1e4)),
        ),
        f=(cases.poly(0.0), cases.poly(0.0)),
        u0=(0.0, 0.0),
        T=1.0,
        eps=(0.25, 0.5),
    )
    with pytest.raises(ProblemValidationError) as err:
        validate(spec)
    assert err.value.condition == "off-diagonal-sign"
    assert (err.value.row, err.value.col) == (2, 1)
    assert abs(err.value.t - c) <= 1e-6


# Entries (1,1) = 3 + 1e308 t^2 and (1,2) = -1 - 1e308 t^2 overflow at
# t = 10 (and numpy warns on the way), so the sampled row sum there is
# inf - inf = nan; the row sum polynomial itself is 2.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_row_sum_that_is_not_a_number_rejected():
    spec = problem_from_dict({
        "n": 2, "T": 10.0, "eps": [1e-4, 1e-2], "u0": [0, 0],
        "A": [[[3, 0, 1e308], [-1, 0, -1e308]], [-1, 3]], "f": [2, 2],
    })
    with pytest.raises(ProblemValidationError) as err:
        validate(spec)
    assert err.value.condition == "row-dominance"
    assert (err.value.row, err.value.t) == (1, 10.0)


def test_short_horizon_rejected():
    spec = replace(cases.constant_two_scale(eps=(0.5, 1.0)), T=0.25)
    with pytest.raises(ProblemValidationError) as err:
        validate(spec)
    assert err.value.condition == "horizon"


def test_alpha_is_minimum_row_sum():
    vp = validate(cases.constant_two_scale())
    assert vp.alpha == 2.0
    vp = validate(cases.variable_three_scale())
    assert vp.alpha == 2.0


def test_sampling_shapes():
    spec = cases.variable_three_scale()
    ts = np.linspace(0.0, spec.T, 7)
    assert sample_A(spec, ts).shape == (7, 3, 3)
    assert sample_f(spec, ts).shape == (7, 3)
    assert sample_A(spec, 0.5).shape == (1, 3, 3)
    assert sample_f(spec, 0.5).shape == (1, 3)


def test_evaluation_outside_domain_rejected():
    spec = cases.constant_two_scale()
    with pytest.raises(ValueError):
        sample_A(spec, -0.1)
    with pytest.raises(ValueError):
        sample_f(spec, 1.5)
    with pytest.raises(ValueError):
        sample_A(spec, [0.5, 1.5])


def test_json_round_trip():
    spec = cases.variable_three_scale()
    assert problem_from_dict(problem_to_dict(spec)) == spec


def test_unknown_key_rejected_by_name():
    data = problem_to_dict(cases.steady_scalar())
    data["extra"] = 1
    with pytest.raises(ProblemFormatError, match="extra"):
        problem_from_dict(data)


def test_missing_key_named():
    data = problem_to_dict(cases.steady_scalar())
    del data["u0"]
    with pytest.raises(ProblemFormatError, match="u0"):
        problem_from_dict(data)


def test_load_problem_reads_scalar_entries(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(
        '{"n": 1, "T": 2.0, "eps": [1.0], "u0": [2.0], "A": [[1.0]], "f": [2.0]}',
        encoding="utf-8",
    )
    spec = load_problem(path)
    assert spec == cases.steady_scalar()


# Each edit loaded before strings were rejected: a string is a sequence, so
# it was read one character at a time as digits.
STRING_EDITS = [
    ("constant_two_scale", "u0", "00"),
    ("constant_two_scale", "f", ["12", 2.0]),
    ("constant_two_scale", "A", [["3", [-1.0]], [-1.0, "30"]]),
    ("steady_scalar", "eps", "1"),
    ("constant_two_scale", "T", "1.0"),
]
# Each edit loaded before bools were rejected: JSON true and false are read
# as 1 and 0.
BOOL_EDITS = [
    ("constant_two_scale", "T", True),
    ("constant_two_scale", "u0", [True, False]),
    ("steady_scalar", "eps", [True]),
    ("constant_two_scale", "f", [[1.0, False], 2.0]),
]


@pytest.mark.parametrize(
    "case,key,value", STRING_EDITS + BOOL_EDITS,
    ids=[edit[1] for edit in STRING_EDITS] + [edit[1] + "_bool" for edit in BOOL_EDITS],
)
def test_strings_rejected_where_numbers_expected(case, key, value):
    data = problem_to_dict(getattr(cases, case)())
    data[key] = value
    with pytest.raises(ProblemFormatError, match="must be a number"):
        problem_from_dict(data)


@pytest.mark.parametrize("value", ["2", 2.7, True, None, [2]],
                         ids=["string", "fraction", "bool", "null", "list"])
def test_system_size_must_be_an_integer(value):
    data = problem_to_dict(cases.constant_two_scale())
    data["n"] = value
    with pytest.raises(ProblemFormatError, match="system size n must be an integer"):
        problem_from_dict(data)


def test_integral_float_system_size_loads():
    data = problem_to_dict(cases.constant_two_scale())
    data["n"] = 2.0
    spec = problem_from_dict(data)
    assert spec.n == 2 and type(spec.n) is int
    assert spec == cases.constant_two_scale()


def test_eps_is_a_tuple_of_floats():
    data = problem_to_dict(cases.constant_two_scale())
    data["eps"] = [2 ** -4, 1]
    spec = problem_from_dict(data)
    assert spec.eps == (0.0625, 1.0)
    assert all(type(e) is float for e in spec.eps)


def test_load_problem_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ProblemFormatError):
        load_problem(path)
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ProblemFormatError, match="must be a JSON object"):
        load_problem(path)


# Edits of constant_two_scale (n = 2) whose sizes do not fit n, or whose
# horizon is not positive.
SHAPE_EDITS = [
    ("A", [[3.0, -1.0]], "coefficient matrix must be 2x2"),
    ("A", [[3.0], [-1.0, 3.0]], "coefficient matrix must be 2x2"),
    ("f", [2.0], "forcing must have 2 components"),
    ("u0", [0.0, 0.0, 0.0], "initial value must have 2 components"),
    ("eps", [0.5], "expected 2 perturbation parameters, got 1"),
    ("T", 0.0, "horizon T must be positive"),
    ("T", -1.0, "horizon T must be positive"),
]


@pytest.mark.parametrize("key,value,message", SHAPE_EDITS,
                         ids=["A_rows", "A_cols", "f", "u0", "eps", "T_zero", "T_negative"])
def test_sizes_must_match_n(key, value, message):
    data = problem_to_dict(cases.constant_two_scale())
    data[key] = value
    with pytest.raises(ProblemFormatError, match=message):
        problem_from_dict(data)


def test_replace_eps_changes_only_parameters():
    spec = cases.constant_two_scale()
    moved = replace(spec, eps=(0.125, 0.5))
    assert moved.eps == (0.125, 0.5)
    assert moved.A == spec.A and moved.T == spec.T
