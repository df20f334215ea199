"""Layer-adapted mesh construction, bisection and envelope crossing times."""

import math
import re

import numpy as np
import pytest

import cases
from layerode.mesh import MeshError, bisect_mesh, build_mesh, interaction_points
from layerode.problem import validate


def test_sigmas_two_scales_layer_branch():
    mesh = build_mesh(cases.scaled_identity((1.0 / 64.0, 1.0 / 16.0), 1.0, 1.0), 64)
    assert mesh.b == (1, 1)
    assert mesh.sigmas == pytest.approx(
        (0.06498254817749487, 0.25993019270997947), rel=1e-15
    )


def test_sigmas_halving_branch():
    # eps so large that both transitions fall back to interval halving
    mesh = build_mesh(cases.scaled_identity((0.5, 1.0), 2.0, 1.0), 8)
    assert mesh.b == (0, 0)
    assert mesh.sigmas == (0.25, 0.5)


def test_mesh_reduces_to_uniform_when_halving():
    mesh = build_mesh(cases.scaled_identity((0.5, 1.0), 2.0, 1.0), 8)
    assert np.allclose(mesh.points, np.linspace(0.0, 1.0, 9), rtol=0.0, atol=1e-15)
    assert np.allclose(mesh.deltas, 0.125, rtol=0.0, atol=1e-15)


def test_smallest_scalar_mesh():
    # At the horizon floor T = 2 eps/alpha, halving would need ln N >= 1,
    # so N = 2 always takes the layer branch.
    mesh = build_mesh(cases.scaled_identity((1.0,), 1.0, 2.0), 2)
    assert mesh.points.tolist() == [0.0, math.log(2.0), 2.0]
    assert mesh.b == (1,)


def test_piece_widths_two_scales():
    mesh = build_mesh(cases.scaled_identity((1.0 / 64.0, 1.0 / 16.0), 1.0, 1.0), 64)
    # pieces of 16, 16 and 32 intervals
    assert mesh.points[[16, 32]].tolist() == list(mesh.sigmas)
    assert mesh.deltas[0] == pytest.approx(0.004061409261093429, rel=1e-13)
    assert mesh.deltas[16] == pytest.approx(0.012184227783280287, rel=1e-13)
    assert mesh.deltas[32] == pytest.approx(0.02312718147781314, rel=1e-13)


def test_unusable_n_rejected():
    with pytest.raises(MeshError, match="k a positive integer"):
        build_mesh(cases.scaled_identity((0.25, 0.5), 1.0, 1.0), 6)
    with pytest.raises(MeshError):
        build_mesh(cases.scaled_identity((1.0,), 1.0, 2.0), 0)


def test_underflowing_first_piece_named():
    # eps_1 = 5e-324 validates, but (eps_1/alpha) ln N rounds to 0
    vp = validate(cases.constant_two_scale(eps=(5e-324, 1.0)))
    assert vp.alpha == 2.0
    message = (r"^the first piece \[0, sigma_1\] is 0.0 wide, too narrow for 16 intervals: "
               "their width underflows$")
    with pytest.raises(MeshError, match=message):
        build_mesh(vp, 64)


@pytest.mark.parametrize("eps, message", [
    # the first piece is 25 least doubles wide: room for 16 intervals, but
    # linspace rounds their width up to 2, so the piece's points overrun it
    ((6e-323, 1.0), r"^the first piece \[0, sigma_1\] is 1.24e-322 wide, too narrow "
                    "for 16 intervals: their width underflows$"),
    ((3.5e-323, 9.4e-323), r"^the piece \[sigma_1, sigma_2\] is 1.24e-322 wide, too "
                           "narrow for 16 intervals: their width underflows$"),
], ids=["first", "second"])
def test_subnormal_piece_whose_step_rounds_up_is_named(eps, message):
    vp = validate(cases.constant_two_scale(eps=eps))
    with pytest.raises(MeshError, match=message):
        build_mesh(vp, 64)


def test_subnormal_first_pieces_build_or_are_named():
    # eps_1 = k 2^-1074: each mesh builds or names its first piece
    for k in range(1, 80):
        vp = validate(cases.constant_two_scale(eps=(k * 5e-324, 1.0)))
        try:
            build_mesh(vp, 64)
        except MeshError as exc:
            assert str(exc).startswith("the first piece [0, sigma_1] is "), k


NAMED_PIECE = re.compile(r"the (first )?piece \[(0|sigma_\d), (sigma_\d|T)\] is \S+ wide, "
                         r"too narrow for \d+ intervals: their width underflows")


def test_step_rounded_wider_than_2T_over_N_is_named():
    # T = eps: sigma_1 = T/2 halves, and linspace rounds the step of the
    # first piece's 28 intervals to 7 least doubles, leaving 19 for its
    # last, past 2T/N = 14.9 of them
    vp = cases.scaled_identity((2.055e-321,), 2.0, 2.055e-321)
    message = (r"^the first piece \[0, sigma_1\] is 1.03e-321 wide, too narrow for 28 "
               "intervals: their width underflows$")
    with pytest.raises(MeshError, match=message):
        build_mesh(vp, 56)


def test_subnormal_meshes_fail_only_by_naming_a_piece():
    # eps_i = k 2^-1074 with T at 1 to 4 times its floor 2 eps_n / alpha:
    # each mesh builds within its bounds, or names the piece whose points
    # repeat or whose step rounds wider than 2T/N
    rng = np.random.default_rng(2026)
    named = 0
    for _ in range(2000):
        n = int(rng.integers(1, 4))
        eps = tuple(float(k) * 5e-324 for k in np.sort(rng.integers(1, 4000, size=n)))
        alpha = 2.0 ** int(rng.integers(-3, 4))
        T = 2.0 * eps[-1] / alpha * float(rng.choice([1.0, 1.5, 2.0, 4.0]))
        N = 2 ** n * int(rng.integers(1, 41))
        vp = cases.scaled_identity(eps, alpha, T)
        try:
            mesh = build_mesh(vp, N)
        except MeshError as exc:
            assert NAMED_PIECE.fullmatch(str(exc)), (eps, alpha, T, N, str(exc))
            named += 1
            continue
        assert (mesh.deltas > 0.0).all() and mesh.points[-1] == T
        assert mesh.deltas.max() <= 2.0 * T / N * (1.0 + 1e-12)
    assert 0 < named < 2000


def test_bisected_mesh_names_a_piece_whose_midpoints_repeat():
    # the coarse first piece holds 4 intervals of one least double each;
    # every midpoint rounds onto an end, half to even
    vp = cases.scaled_identity((1.5e-323,), 2.0, 1e-320)
    coarse = build_mesh(vp, 8)
    assert coarse.deltas[:4].tolist() == [5e-324] * 4
    message = (r"^the first piece \[0, sigma_1\] is 2e-323 wide, too narrow for 8 "
               "intervals: their width underflows$")
    with pytest.raises(MeshError, match=message):
        bisect_mesh(coarse)


def test_build_mesh_uses_extracted_alpha():
    vp = validate(cases.layer_two_scale())
    mesh = build_mesh(vp, 128)
    assert mesh.b == (1, 1)
    assert mesh.sigmas == pytest.approx(
        (0.04852030263919617, 0.4852030263919617), rel=1e-15
    )


def test_bisection_is_nested_and_keeps_transitions():
    vp = validate(cases.layer_two_scale())
    coarse = build_mesh(vp, 64)
    fine = bisect_mesh(coarse)
    assert fine.N == 2 * coarse.N
    assert np.array_equal(fine.points[::2], coarse.points)
    assert fine.sigmas == coarse.sigmas
    assert fine.b == coarse.b
    midpoints = 0.5 * (coarse.points[:-1] + coarse.points[1:])
    assert np.allclose(fine.points[1::2], midpoints, rtol=0.0, atol=1e-16)


@pytest.mark.parametrize("eps, alpha, T, expected", [
    ((1.0 / 64.0, 1.0 / 16.0), 1.0, 1.0, math.log(4.0) / 48.0),
    # alpha (eps_2 - eps_1) and eps_1 eps_2 both underflow to 0
    ((1e-200, 2e-200), 1e-200, 1e300, 2.0 * math.log(2.0)),
], ids=["ordinary", "tiny_scales_and_rate"])
def test_crossing_time_closed_form(eps, alpha, T, expected):
    points = interaction_points(cases.scaled_identity(eps, alpha, T))
    assert points[(1, 2)] == pytest.approx(expected, rel=1e-15)


def test_crossing_time_of_adjacent_scales():
    # 1/eps_1 - 1/eps_2 rounds to 0 for these neighbouring floats; the
    # crossing time tends to eps/alpha as the scales meet
    eps = (0.9066351196001362, 0.9066351196001363)
    assert math.nextafter(eps[0], 1.0) == eps[1]
    t = interaction_points(cases.scaled_identity(eps, 2.0, 1.0))[(1, 2)]
    assert math.isfinite(t) and t > 0.0
    assert t == pytest.approx(eps[0] / 2.0, rel=1e-15)


@pytest.mark.parametrize("eps", [
    (2.0 ** -8, 0.25, 0.25), (2.0 ** -8, 2.0 ** -8, 0.25), (0.25,) * 3,
], ids=["upper_pair", "lower_pair", "triple"])
def test_crossing_time_of_coincident_scales(eps):
    # g = 0 takes the limit of the adjacent-float case, eps_i / alpha, and
    # three scales with a coincident pair still pass the ordering checks
    points = interaction_points(cases.scaled_identity(eps, 2.0, 1.0))
    assert len(points) == len(eps) * (len(eps) - 1) // 2
    for (i, j), t in points.items():
        if eps[i - 1] == eps[j - 1]:
            assert t == eps[i - 1] / 2.0


def test_crossing_times_of_near_coincident_scales():
    # rounding puts t(1,3) an ulp after t(2,3), although the exact times
    # increase in both indices
    eps = (1e-4, math.nextafter(1e-4, 1.0), 1e-2)
    points = interaction_points(cases.scaled_identity(eps, 2.0, 1.0))
    assert sorted(points) == [(1, 2), (1, 3), (2, 3)]
    assert points[(1, 3)] == pytest.approx(points[(2, 3)], rel=1e-15)


def test_near_coincident_crossing_times_are_ordered_to_rounding():
    # each scale a few ulps above the one before it, or a ratio up to 4;
    # every time is positive and the order in both indices holds to 1e-15
    rng = np.random.default_rng(2027)
    for _ in range(2000):
        n = int(rng.integers(2, 6))
        eps = [2.0 ** -rng.uniform(1.0, 1000.0)]
        for _ in range(n - 1):
            if rng.random() < 0.3:
                eps.append(eps[-1] * float(rng.uniform(1.0, 4.0)))
            else:
                eps.append(eps[-1] + math.ulp(eps[-1]) * int(rng.integers(0, 4)))
        if eps[-1] > 1.0:
            continue
        alpha = 2.0 ** rng.uniform(-3.0, 3.0)
        vp = cases.scaled_identity(tuple(eps), alpha, 2.0 * eps[-1] / alpha)
        points = interaction_points(vp)
        for (i, j), t in points.items():
            assert t > 0.0
            for later in ((i + 1, j), (i, j + 1)):
                if later in points:
                    assert t <= points[later] * (1.0 + 1e-15), (eps, alpha, (i, j), later)


def test_crossing_time_of_subnormal_scale():
    # g / eps_1 overflows; the reference is a 50-digit evaluation of
    # eps_1 eps_2 ln(eps_2 / eps_1) / (alpha (eps_2 - eps_1))
    t = interaction_points(cases.scaled_identity((1e-310, 0.5), 2.0, 1.0))[(1, 2)]
    assert 0.0 < t <= 1.0
    assert t == pytest.approx(3.56554115823796e-308, rel=1e-12)


def test_underflowing_crossing_time_raises():
    # eps_1 / alpha underflows to 0, so the crossing time is not positive
    vp = cases.scaled_identity((5e-324, 1e-300), 2.0, 1.0)
    with pytest.raises(MeshError, match=r"^crossing time \(1,2\) is not positive$"):
        interaction_points(vp)


def test_mesh_arrays_are_read_only():
    mesh = build_mesh(cases.scaled_identity((0.5, 1.0), 2.0, 1.0), 8)
    with pytest.raises(ValueError):
        mesh.points[0] = 1.0
    with pytest.raises(ValueError):
        mesh.deltas[0] = 1.0
