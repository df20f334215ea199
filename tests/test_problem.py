"""Problem statement, admissibility validation and the JSON layout."""

import math
import random
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import cases
from layerode.mesh import build_mesh, interaction_points
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
from layerode.solver import decompose, march


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
    # n = 2..4: every entry has its own degree, so the one Horner pass pads
    # the shorter ones; zeros and -0.0 among the coefficients, t = 0 and T
    # among the times, and each column checked sign bit and all
    for _ in range(300):
        n = int(rng.integers(2, 5))
        entries = []
        for _ in range(n * n + n):
            c = rng.normal(size=int(rng.integers(1, 18))) * 10.0 ** rng.integers(-3, 4)
            c[rng.random(c.size) < 0.2] = 0.0
            c[rng.random(c.size) < 0.1] = -0.0
            entries.append(c)
        doc = {"n": n, "T": 2.0, "eps": list(np.linspace(0.25, 1.0, n)), "u0": [0.0] * n,
               "A": [[c.tolist() for c in entries[i * n:(i + 1) * n]] for i in range(n)],
               "f": [c.tolist() for c in entries[n * n:]]}
        spec = problem_from_dict(doc)
        got = np.column_stack([sample_A(spec, ts).reshape(ts.size, -1), sample_f(spec, ts)])
        want = np.column_stack([npoly.polyval(ts, c) for c in entries])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_polynomial_degree_cap():
    problem_from_dict(_scalar_doc(list(range(17))))
    with pytest.raises(ProblemFormatError, match="degree 17"):
        problem_from_dict(_scalar_doc(list(range(18))))


def test_polynomial_rejects_non_finite_coefficients():
    with pytest.raises(ProblemFormatError, match="finite"):
        problem_from_dict(_scalar_doc([1.0, float("nan")]))
    with pytest.raises(ProblemFormatError, match="finite"):
        problem_from_dict(_scalar_doc(1.0, f=[float("inf")]))


def test_eps_must_not_decrease():
    spec = cases.constant_two_scale(eps=(0.5, 0.25))
    with pytest.raises(ProblemValidationError,
                       match=r"^perturbation parameters must not decrease, "
                             r"got 0\.5 before 0\.25$") as err:
        validate(spec)
    assert err.value.condition == "eps-ordering"


def test_eps_coincident_accepted():
    # the paper assumes distinct scales, but nothing numerical needs them:
    # equal neighbours validate, mesh and march, and their layer envelopes
    # cross at the g -> 0 limit eps_i / alpha
    vp = validate(cases.constant_two_scale(eps=(2.0 ** -10, 2.0 ** -10)))
    mesh = build_mesh(vp, 64)
    full = march(vp, mesh, vp.spec.u0)
    parts = decompose(vp, mesh)
    assert np.isfinite(full.values).all()
    assert np.allclose(parts.smooth.values + parts.singular.values, full.values,
                       rtol=0.0, atol=1e-12)
    assert interaction_points(vp) == {(1, 2): 2.0 ** -10 / vp.alpha}


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
def test_eps_out_of_range_rejected(bad):
    spec = replace(cases.steady_scalar(), eps=(bad,))
    with pytest.raises(ProblemValidationError) as err:
        validate(spec)
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
# inf - inf = nan. The row sums are exactly 1 and 2.
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


def _assert_exact_verdict(coeffs):
    # validate accepts a(t) = c0 + c1 t + c2 t^2 (c2 > 0) on [0, 1] exactly
    # when its least value there is positive, and then alpha is that value
    # to 1e-13 relative; returns alpha, or None for a rejection. eps is tiny
    # so that the horizon never decides.
    c0, c1, c2 = map(Fraction, coeffs)
    t = min(max(-c1 / (2 * c2), 0), 1)
    least = c0 + c1 * t + c2 * t * t
    data = {"n": 1, "T": 1.0, "eps": [1e-300], "u0": [0], "A": [[coeffs]], "f": [[0]]}
    try:
        alpha = validate(problem_from_dict(data)).alpha
    except ProblemValidationError as err:
        assert least <= 0 and err.condition == "row-dominance", (coeffs, float(least))
        return None
    assert least > 0, (coeffs, float(least))
    assert abs(Fraction(alpha) - least) <= least / 10 ** 13, (coeffs, alpha, float(least))
    return alpha


# Near-tangent quadratics, whose least value float Horner loses to
# cancellation: the first had a wrong rejection, the second an alpha 7x its
# least value, and the third, whose least value is -7.6e-16, was accepted.
@pytest.mark.parametrize("coeffs, alpha", [
    ([0.595434046506415, -1.5432874605936704, 1.0], 2.555e-17),
    ([66173574.63025145, -162694283.40326092, 1e8], 1.084e-9),
    ([106.5446990656758, -652.8237099422042, 1000.0], None),
], ids=["accepted", "alpha", "rejected"])
def test_near_tangent_rows(coeffs, alpha):
    result = _assert_exact_verdict(coeffs)
    assert result is None if alpha is None else result == pytest.approx(alpha, rel=1e-3)


@pytest.mark.parametrize("seed, low, high, draws", [(1, -18, -8, 3000), (7, -17, -14, 4000)],
                         ids=["U(-18,-8)", "U(-17,-14)"])
def test_near_tangent_families_are_decided_exactly(seed, low, high, draws):
    # a(t) = k (t - b)^2 + d built in floats, with b in (0.05, 0.95) and
    # d = +-k 10^U: its least value, near d at t = b, is of the order of the
    # rounding of its coefficients
    rng = random.Random(seed)
    for _ in range(draws):
        b = rng.uniform(0.05, 0.95)
        k = rng.choice([1, 3, 1e3, 1e8])
        d = rng.choice([1, -1]) * k * 10 ** rng.uniform(low, high)
        _assert_exact_verdict([k * b * b + d, -2 * k * b, k])


def test_alpha_below_the_least_double_fails_the_horizon():
    # a(t) = 2^-1074 (49 - 37 t + 7 t^2) is positive on [0, 20]; its least
    # value, 3/28 2^-1074 at t = 37/14, rounds to alpha = 0
    u = math.ulp(0.0)
    spec = problem_from_dict({"n": 1, "T": 20.0, "eps": [u], "u0": [0],
                              "A": [[[49 * u, -37 * u, 7 * u]]], "f": [0]})
    with pytest.raises(ProblemValidationError) as err:
        validate(spec)
    assert err.value.condition == "horizon"
    assert "2*max(eps)/alpha=inf" in str(err.value)


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
    with pytest.raises(ValueError, match="outside the problem domain"):
        sample_A(spec, [0.5, math.nan])


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


def _edit(name, key, value, message):
    return pytest.param(key, value, message, id=name)


# Edits of constant_two_scale (n = 2), each with the exact message of the
# ProblemFormatError that building a spec raises. A string, an object or a bare number where a sequence
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


@pytest.mark.parametrize("key,value,message", MALFORMED)
def test_malformed_field_named(key, value, message):
    # pytest.raises lets any other exception through, so a TypeError or an
    # OverflowError from either entry point fails the test
    data = {**asdict(cases.constant_two_scale()), key: value}
    for build in (problem_from_dict, lambda d: ProblemSpec(**d)):
        with pytest.raises(ProblemFormatError) as err:
            build(data)
        assert str(err.value) == message


# eps of constant_two_scale (n = 2) that every way of building a spec
# accepts and validate rejects, with its condition and exact message: the
# range is checked before the order, and BIG reads as inf
INADMISSIBLE_EPS = [
    pytest.param((0.5, 0.25), "eps-ordering",
                 "perturbation parameters must not decrease, got 0.5 before 0.25",
                 id="decreasing"),
    pytest.param((0.5, 0.0), "eps-range",
                 "perturbation parameter 2 is 0.0, expected a value in (0, 1]", id="zero"),
    pytest.param((1.5, 0.5), "eps-range",
                 "perturbation parameter 1 is 1.5, expected a value in (0, 1]", id="above_1"),
    pytest.param((0.5, math.nan), "eps-range",
                 "perturbation parameter 2 is nan, expected a value in (0, 1]", id="nan"),
    pytest.param((math.inf, 0.5), "eps-range",
                 "perturbation parameter 1 is inf, expected a value in (0, 1]", id="inf"),
    pytest.param((BIG, 0.5), "eps-range",
                 "perturbation parameter 1 is inf, expected a value in (0, 1]", id="big_int"),
]


@pytest.mark.parametrize("eps,condition,message", INADMISSIBLE_EPS)
def test_inadmissible_eps_builds_and_fails_validation(eps, condition, message):
    base = cases.constant_two_scale()
    data = {**asdict(base), "eps": list(eps)}
    for spec in (ProblemSpec(**data), problem_from_dict(data), replace(base, eps=eps)):
        with pytest.raises(ProblemValidationError) as err:
            validate(spec)
        assert (err.value.condition, str(err.value)) == (condition, message)


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
