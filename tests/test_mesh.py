"""Layer-adapted mesh construction, bisection and envelope crossing times."""

import math

import numpy as np
import pytest

import cases
from layerode.mesh import (
    MeshError,
    bisect_mesh,
    build_mesh,
    interaction_points,
)
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


def test_geometry_guard_rejects_repeated_points():
    # eps_1 = 5e-324 validates, but the first transition point is a few
    # subnormals wide, too narrow for the mesh points of its piece to differ
    vp = validate(cases.constant_two_scale(eps=(5e-324, 1.0)))
    assert vp.alpha == 2.0
    with pytest.raises(MeshError, match="^mesh points are not strictly increasing$"):
        build_mesh(vp, 64)


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


def test_crossing_time_closed_form():
    points = interaction_points(cases.scaled_identity((1.0 / 64.0, 1.0 / 16.0), 1.0, 1.0))
    assert points[(1, 2)] == pytest.approx(math.log(4.0) / 48.0, rel=1e-15)


def test_crossing_time_of_adjacent_scales():
    # 1/eps_1 - 1/eps_2 rounds to 0 for these neighbouring floats; the
    # crossing time tends to eps/alpha as the scales meet
    eps = (0.9066351196001362, 0.9066351196001363)
    assert math.nextafter(eps[0], 1.0) == eps[1]
    t = interaction_points(cases.scaled_identity(eps, 2.0, 1.0))[(1, 2)]
    assert math.isfinite(t) and t > 0.0
    assert t == pytest.approx(eps[0] / 2.0, rel=1e-15)


def test_crossing_time_of_subnormal_scale():
    # g / eps_1 overflows; the reference is a 50-digit evaluation of
    # eps_1 eps_2 ln(eps_2 / eps_1) / (alpha (eps_2 - eps_1))
    t = interaction_points(cases.scaled_identity((1e-310, 0.5), 2.0, 1.0))[(1, 2)]
    assert 0.0 < t <= 1.0
    assert t == pytest.approx(3.56554115823796e-308, rel=1e-12)


def test_underflowing_crossing_time_raises():
    # eps_1 eps_2 underflows to 0, so the crossing time is not positive
    vp = cases.scaled_identity((5e-324, 1e-300), 2.0, 1.0)
    with pytest.raises(MeshError, match=r"^crossing time \(1,2\) is not positive$"):
        interaction_points(vp)


def test_mesh_arrays_are_read_only():
    mesh = build_mesh(cases.scaled_identity((0.5, 1.0), 2.0, 1.0), 8)
    with pytest.raises(ValueError):
        mesh.points[0] = 1.0
    with pytest.raises(ValueError):
        mesh.deltas[0] = 1.0
