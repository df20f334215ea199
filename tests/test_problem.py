"""Problem statement, admissibility validation and the JSON layout."""

from dataclasses import asdict, replace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import cases
from layerode.problem import (
    ProblemFormatError,
    ProblemSpec,
    ProblemValidationError,
    load_problem,
    problem_from_dict,
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


def test_sampling_matches_numpy_polyval_bit_for_bit():
    # one Horner rule, written as npoly.polyval writes it, at array times
    # and at a scalar time (a one-time array); some coefficients are zero
    rng = np.random.default_rng(0)
    ts = np.concatenate([[0.0, 2.0], rng.uniform(0.0, 2.0, size=30)])
    for _ in range(300):
        degree = int(rng.integers(0, 17))
        coeffs = rng.normal(size=degree + 1) * 10.0 ** rng.integers(-3, 4, size=degree + 1)
        coeffs[rng.random(degree + 1) < 0.2] = 0.0
        spec = problem_from_dict(_scalar_doc(coeffs.tolist(), f=coeffs[::-1].tolist()))
        assert np.array_equal(sample_A(spec, ts)[:, 0, 0], npoly.polyval(ts, coeffs))
        assert np.array_equal(sample_f(spec, ts)[:, 0], npoly.polyval(ts, coeffs[::-1]))
        t = float(ts[2])
        assert sample_A(spec, t)[0, 0, 0] == npoly.polyval(t, coeffs)
        assert sample_f(spec, t)[0, 0] == npoly.polyval(t, coeffs[::-1])


def test_polynomial_degree_cap():
    problem_from_dict(_scalar_doc(list(range(17))))
    with pytest.raises(ProblemFormatError, match="degree 17"):
        problem_from_dict(_scalar_doc(list(range(18))))


def test_polynomial_rejects_non_finite_coefficients():
    with pytest.raises(ProblemFormatError, match="finite"):
        problem_from_dict(_scalar_doc([1.0, float("nan")]))
    with pytest.raises(ProblemFormatError, match="finite"):
        problem_from_dict(_scalar_doc(1.0, f=[float("inf")]))


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


# A row sum is its own polynomial, not the sum of the sampled entries. In
# "cancel", entries (1,1) = 1 + 1e17 t^2 and (1,2) = -1e17 t^2 sum to 0 in
# double at t = 1; in "overflow", (1,1) = 3 + 1e308 t^2 and
# (1,2) = -1 - 1e308 t^2 overflow at t = 10, so their sampled sum is
# inf - inf = nan. The row sums are exactly 1 and 2, and validate's
# arithmetic on Python floats raises no warning.
@pytest.mark.parametrize("row, T, alpha", [
    ([[1, 0, 1e17], [0, 0, -1e17]], 1.0, 1.0),
    ([[3, 0, 1e308], [-1, 0, -1e308]], 10.0, 2.0),
], ids=["cancel", "overflow"])
def test_row_sum_is_exact_where_entries_cancel_or_overflow(row, T, alpha):
    spec = problem_from_dict({
        "n": 2, "T": T, "eps": [1e-4, 1e-2], "u0": [0, 0],
        "A": [row, [-1, 3]], "f": [2, 2],
    })
    assert validate(spec).alpha == alpha


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
    assert problem_from_dict(asdict(spec)) == spec


@pytest.mark.parametrize("extra,names", [
    ({"extra": 1}, "extra"),
    ({1: 0}, "1"),
    ({"extra": 1, 2: 0}, "2, extra"),
], ids=["str", "int", "mixed"])
def test_unknown_key_rejected_by_name(extra, names):
    data = {**asdict(cases.steady_scalar()), **extra}
    with pytest.raises(ProblemFormatError) as err:
        problem_from_dict(data)
    assert str(err.value) == "unknown problem key(s): " + names


def test_missing_key_named():
    data = asdict(cases.steady_scalar())
    del data["u0"], data["A"]
    with pytest.raises(ProblemFormatError) as err:
        problem_from_dict(data)
    assert str(err.value) == "missing problem key(s): A, u0"


def test_load_problem_reads_scalar_entries(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(
        '{"n": 1, "T": 2.0, "eps": [1.0], "u0": [2.0], "A": [[1.0]], "f": [2.0]}',
        encoding="utf-8",
    )
    spec = load_problem(path)
    assert spec == cases.steady_scalar()


@pytest.mark.parametrize("value", ["2", 2.7, True, None, [2]],
                         ids=["string", "fraction", "bool", "null", "list"])
def test_system_size_must_be_an_integer(value):
    data = asdict(cases.constant_two_scale())
    data["n"] = value
    with pytest.raises(ProblemFormatError, match="system size n must be an integer"):
        problem_from_dict(data)


def test_integral_float_system_size_loads():
    data = asdict(cases.constant_two_scale())
    data["n"] = 2.0
    spec = problem_from_dict(data)
    assert spec.n == 2 and type(spec.n) is int
    assert spec == cases.constant_two_scale()


def test_eps_is_a_tuple_of_floats():
    data = asdict(cases.constant_two_scale())
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
    # UTF-16 text, as some editors save it: bytes that are not UTF-8
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(ProblemFormatError) as err:
        load_problem(path)
    assert str(err.value).startswith(
        f"{path}: not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0")
    path.write_text("[" * 10 ** 5 + "]" * 10 ** 5, encoding="utf-8")
    with pytest.raises(ProblemFormatError, match="not valid JSON: maximum recursion depth"):
        load_problem(path)


BIG = 10 ** 400  # a JSON integer that float() cannot convert


def _edit(name, key, value, message, error=ProblemFormatError):
    return pytest.param(key, value, error, message, id=name)


# Edits of constant_two_scale (n = 2), each with the exception it raises and
# its exact message. A string, an object or a bare number where a sequence
# is expected is rejected as a whole, never read item by item; a string or
# a bool where a number is expected is rejected rather than converted; sizes
# must fit n; an integer beyond double range reads as inf, as 1e400 would.
MALFORMED = [
    _edit("u0_string", "u0", "00", "initial value must be a sequence, got '00'"),
    _edit("f_string_entry", "f", ["12", 2],
          "polynomial coefficients must be a sequence, got '12'"),
    _edit("A_string_entries", "A", [["3", [-1.0]], [-1.0, "30"]],
          "polynomial coefficients must be a sequence, got '3'"),
    _edit("eps_string", "eps", "0.1",
          "perturbation parameters must be a sequence, got '0.1'"),
    _edit("eps_string_one", "eps", "1",
          "perturbation parameters must be a sequence, got '1'"),
    _edit("T_string", "T", "1.0", "horizon T must be a number, got '1.0'"),
    _edit("T_bool", "T", True, "horizon T must be a number, got True"),
    _edit("u0_bool", "u0", [True, False], "initial value must be a number, got True"),
    _edit("eps_bool", "eps", [True], "perturbation parameter must be a number, got True"),
    _edit("f_bool_coefficient", "f", [[1.0, False], 2.0],
          "polynomial coefficient must be a number, got False"),
    _edit("A_null_coefficient", "A", [[[1.0, None], -1.0], [-1.0, 3.0]],
          "polynomial coefficient must be a number, got None"),
    _edit("u0_object", "u0", {"a": 0, "b": 0},
          "initial value must be a sequence, got {'a': 0, 'b': 0}"),
    _edit("f_object_entry", "f", [{"a": 1}, 2],
          "polynomial coefficients must be a sequence, got {'a': 1}"),
    _edit("u0_scalar", "u0", 5, "initial value must be a sequence, got 5"),
    _edit("u0_0d_array", "u0", np.array(0.0),
          "initial value must be a sequence, got array(0.)"),
    _edit("A_scalar", "A", 5, "coefficient matrix must be a sequence, got 5"),
    _edit("A_scalar_rows", "A", [5, 5],
          "row of the coefficient matrix must be a sequence, got 5"),
    _edit("f_null", "f", None, "forcing must be a sequence, got None"),
    _edit("T_list", "T", [1.0], "horizon T must be a number, got [1.0]"),
    _edit("u0_nested", "u0", [[0.0], [0.0]], "initial value must be a number, got [0.0]"),
    _edit("eps_scalar", "eps", 0.5, "perturbation parameters must be a sequence, got 0.5"),
    _edit("T_big_int", "T", BIG, "horizon T must be finite, got inf"),
    _edit("u0_big_int", "u0", [BIG, 0], "initial value must be finite, got inf"),
    _edit("f_big_int", "f", [[2, -BIG], 2],
          "polynomial coefficient must be finite, got -inf"),
    _edit("eps_big_int", "eps", [BIG, 0.5],
          "perturbation parameter 1 is inf, expected a value in (0, 1]",
          ProblemValidationError),
    _edit("A_rows", "A", [[3.0, -1.0]], "coefficient matrix must be 2x2"),
    _edit("A_cols", "A", [[3.0], [-1.0, 3.0]], "coefficient matrix must be 2x2"),
    _edit("f_size", "f", [2.0], "forcing must have 2 components"),
    _edit("u0_size", "u0", [0.0, 0.0, 0.0], "initial value must have 2 components"),
    _edit("eps_size", "eps", [0.5], "expected 2 perturbation parameters, got 1"),
    _edit("eps_empty", "eps", [], "at least one perturbation parameter is required"),
    _edit("T_zero", "T", 0.0, "horizon T must be positive"),
    _edit("T_negative", "T", -1.0, "horizon T must be positive"),
    _edit("n_zero", "n", 0, "system size n must be at least 1"),
]


@pytest.mark.parametrize("key,value,error,message", MALFORMED)
def test_malformed_field_named(key, value, error, message):
    # pytest.raises lets any other exception through, so a TypeError or an
    # OverflowError from either entry point fails the test
    data = {**asdict(cases.constant_two_scale()), key: value}
    for build in (problem_from_dict, lambda d: ProblemSpec(**d)):
        with pytest.raises(error) as err:
            build(data)
        assert str(err.value) == message


def test_numpy_values_read_as_plain_numbers():
    plain = asdict(cases.constant_two_scale())
    data = {**plain, "u0": np.array(plain["u0"]), "eps": np.array(plain["eps"]),
            "A": [[np.int64(3), np.int64(-1)], [np.int64(-1), [np.int64(3)]]]}
    assert ProblemSpec(**data) == ProblemSpec(**plain)


def test_replace_eps_changes_only_parameters():
    spec = cases.constant_two_scale()
    moved = replace(spec, eps=(0.125, 0.5))
    assert moved.eps == (0.125, 0.5)
    assert moved.A == spec.A and moved.T == spec.T
