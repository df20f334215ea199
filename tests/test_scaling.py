"""Power-of-two scaling relations: exact yardsticks for the march at any N.

Multiplying by a power of two is exact in binary floating point while every
value stays normal, so three relations of the scheme hold bit for bit:

- R1: f and u0 times 2^k give U times 2^k.
- R2: A, eps and f times 2^k give alpha times 2^k, the same mesh points and
  the same U (each step matrix E/delta_j + A(t_j) and its right-hand side
  are scaled alike).
- R3: T times 2^k, with each degree-d coefficient of every entry of A and f
  times 2^(-k(d+1)) and eps and u0 unchanged, gives alpha times 2^-k, mesh
  points and sigmas times 2^k and the same U: A and f at 2^k t are 2^-k
  times A and f at t, and so is every step matrix and right-hand side.

Each holds for the march, both parts of decompose and the closed form (at
the mesh points of its own run), also where A varies in time. The
residual guard's `1 +` term is not scale-invariant, so these are relations
between passing runs, not between failure verdicts.
"""

from dataclasses import replace

import numpy as np
import pytest

import cases
from layerode.analysis import exact_constant_solution
from layerode.mesh import build_mesh
from layerode.problem import load_problem, validate
from layerode.solver import decompose, march

# 2^15 + 8 steps cross the march's chunk boundaries
SCALING_N = (64, 2 ** 15 + 8)
R1_POWERS = (-40, 7)
R2_POWER = -3
R3_POWER = 3


def _problems():
    # the suite, both problem files and one pair of coincident scales; a file
    # equal to a suite problem is run once
    named = cases.suite() + [(path.stem, load_problem(path))
                             for path in sorted(cases.PROBLEMS.glob("*.json"))]
    named.append(("coincident_two_scale", cases.constant_two_scale(eps=(2.0 ** -7,) * 2)))
    unique = {}
    for name, spec in named:
        unique.setdefault(spec, name)
    return [pytest.param(spec, id=name) for spec, name in unique.items()]


def _scaled(polys, s):
    return tuple(tuple(c * s for c in entry) for entry in polys)


def _time_scaled(polys, s):
    # each degree-d coefficient times s^-(d+1)
    return tuple(tuple(c * s ** -(d + 1) for d, c in enumerate(entry)) for entry in polys)


def _run(vp, N):
    # the mesh, then the march, both decompose parts and (constant
    # coefficients only) the closed form at the mesh points
    mesh = build_mesh(vp, N)
    parts = decompose(vp, mesh)
    values = [march(vp, mesh, vp.spec.u0).values, parts.smooth.values,
              parts.singular.values]
    if vp.spec.has_constant_coefficients():
        values.append(exact_constant_solution(vp.spec, mesh.points))
    return mesh, values


@pytest.mark.parametrize("spec", _problems())
def test_power_of_two_scaling_is_exact(spec):
    vp = validate(spec)
    for N in SCALING_N:
        mesh, values = _run(vp, N)
        for k in R1_POWERS:
            s = 2.0 ** k
            r1 = replace(spec, f=_scaled(spec.f, s), u0=tuple(u * s for u in spec.u0))
            r1_mesh, r1_values = _run(validate(r1), N)
            assert np.array_equal(r1_mesh.points, mesh.points)
            for u, v in zip(values, r1_values, strict=True):
                assert np.array_equal(v, u * s), (N, k)
        s = 2.0 ** R2_POWER
        r2 = replace(spec, A=tuple(_scaled(row, s) for row in spec.A),
                     f=_scaled(spec.f, s), eps=tuple(e * s for e in spec.eps))
        r2_vp = validate(r2)
        assert r2_vp.alpha == vp.alpha * s
        r2_mesh, r2_values = _run(r2_vp, N)
        assert np.array_equal(r2_mesh.points, mesh.points)
        for u, v in zip(values, r2_values, strict=True):
            assert np.array_equal(v, u), N
        s = 2.0 ** R3_POWER
        r3 = replace(spec, T=spec.T * s, A=tuple(_time_scaled(row, s) for row in spec.A),
                     f=_time_scaled(spec.f, s))
        r3_vp = validate(r3)
        assert r3_vp.alpha == vp.alpha / s
        r3_mesh, r3_values = _run(r3_vp, N)
        assert np.array_equal(r3_mesh.points, mesh.points * s)
        assert np.array_equal(r3_mesh.sigmas, np.multiply(mesh.sigmas, s))
        for u, v in zip(values, r3_values, strict=True):
            assert np.array_equal(v, u), N
