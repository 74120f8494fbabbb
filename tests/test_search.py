import math

import numpy as np
import pytest

from polyharm import catalog, certificates, core, geometry
from polyharm._search import zoom_max
from polyharm.core import PolyharmonicMap

from _gen import random_map


# ---- zoom_max ----


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_zoom_monotone_returns_bracket_end(sign):
    lo, hi = 0.1, 0.7
    x, v = zoom_max(lambda xs: sign * np.exp(xs), lo, hi, 1e-12)
    assert x == (hi if sign > 0 else lo)
    assert v == sign * np.exp(x)


@pytest.mark.parametrize("peak", [0.3, 0.123456789, 0.6999])
def test_zoom_concave_quadratic_within_tol(peak):
    # the peak value is 0, so rounding does not flatten the top
    tol = 1e-10
    x, v = zoom_max(lambda xs: -3.0 * (xs - peak) ** 2, 0.1, 0.7, tol)
    assert abs(x - peak) <= tol
    assert -3.0 * tol ** 2 <= v <= 0.0


def test_zoom_never_below_first_grid():
    # a two-peak f whose first grid sees the higher peak's shoulder best
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rng.uniform(0.0, 1.0, 3)

        def f(xs, c=c):
            return np.sin(7.0 * xs + c[0]) + c[1] * np.cos(19.0 * xs + c[2])

        first = f(np.linspace(0.0, 1.0, 9)).max()
        _, v = zoom_max(f, 0.0, 1.0, 1e-9)
        assert v >= first


def test_zoom_probe_sequence_is_fixed():
    calls = ([], [])
    for seen in calls:
        def f(xs, seen=seen):
            seen.append(np.array(xs))
            return np.cos(3.0 * xs - 1.0)
        zoom_max(f, -0.4, 0.9, 1e-11)
    assert len(calls[0]) == len(calls[1]) > 1
    for a, b in zip(*calls):
        assert np.array_equal(a, b)


def test_zoom_width_below_float_spacing_terminates():
    x, v = zoom_max(lambda xs: -(xs - 0.5) ** 2, 0.25, 0.75, 0.0)
    assert abs(x - 0.5) <= 1e-15 and v <= 0.0


# ---- zoom_max with rtol: stop once the values settle ----


def test_zoom_rtol_constant_takes_one_call():
    calls = []

    def f(xs):
        calls.append(xs)
        return np.full(xs.size, 2.5)

    x, v = zoom_max(f, 0.1, 0.7, 1e-12, rtol=1e-14)
    assert len(calls) == 1 and v == 2.5 and 0.1 <= x <= 0.7


def test_zoom_rtol_rise_into_end_takes_one_round():
    # rule (b): the best is the original hi and the last probes climb into it
    calls = []

    def f(xs):
        calls.append(xs)
        return np.exp(xs)

    x, v = zoom_max(f, 0.1, 0.7, 1e-12, rtol=1e-10)
    assert len(calls) == 1
    assert x == 0.7 and v == np.exp(0.7)


@pytest.mark.parametrize("peak", [0.3, 0.123456789, 0.6999])
def test_zoom_rtol_concave_quadratic_value_within_rtol(peak):
    # peak value 1: rule (a) stops once a round spreads by rtol (1 + 1);
    # 0.123456789 and 0.6999 lie within one first-round probe spacing of an
    # end, where the values rise into the end but the parabola through the
    # last three turns before it, so rule (b) must not stop there
    rtol = 1e-10
    x, v = zoom_max(lambda xs: 1.0 - 3.0 * (xs - peak) ** 2, 0.1, 0.7, 1e-12, rtol=rtol)
    assert 1.0 - 2.0 * rtol <= v <= 1.0
    assert 0.1 <= x <= 0.7


# ---- no polish calls the kernel one point at a time ----


@pytest.fixture
def kernel_sizes(monkeypatch):
    sizes = []
    for module, name in ((core, "wirtinger"), (core, "dilatation"),
                         (geometry, "evaluate"), (certificates, "evaluate")):
        inner = getattr(module, name)

        def counted(F, z, inner=inner):
            sizes.append(np.size(z))
            return inner(F, z)

        monkeypatch.setattr(module, name, counted)
    return sizes


def test_quasiregularity_grid_stays_off_the_pointwise_kernel(monkeypatch):
    # the 256 x 512 grid comes from the ring kernel; only the zooms' 9-point
    # probes reach wirtinger
    sizes = []
    inner = core.wirtinger

    def counted(F, z):
        sizes.append(np.size(z))
        return inner(F, z)

    monkeypatch.setattr(core, "wirtinger", counted)
    core.quasiregularity_constant(catalog.f2())
    assert sizes and max(sizes) <= 9


def test_polishes_make_no_single_point_calls(kernel_sizes):
    F = random_map(np.random.default_rng(5))
    geometry.diameter_estimate(F)
    core.quasiregularity_constant(catalog.f2())
    terms = [(1, j, 1.0 / math.factorial(j), 0.0) for j in range(1, 7)]
    exp6 = PolyharmonicMap.from_terms(1, 6, terms)
    certificates.hadamard_three_circles(exp6, 0.3, 0.9)
    assert len(kernel_sizes) > 10
    assert min(kernel_sizes) > 1
