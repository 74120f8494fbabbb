import math

import numpy as np
import pytest

from polyharm import catalog, geometry
from polyharm.core import conjugate_map, scale_map, wirtinger
from polyharm.errors import InvalidParams, NoConvergence
from polyharm.geometry import (
    RadiusProfile,
    area_growth_excess,
    area_profile,
    area_quadrature,
    area_series,
    curve_length,
    diameter_estimate,
    length_profile,
    phi_area,
    phi_area_profile,
    sup_length,
)

from _gen import random_map


# ---- curve length ----


def test_length_identity():
    assert abs(curve_length(catalog.identity(), 0.5) - math.pi) <= 1e-12


def test_length_f2_pinned():
    # integrand is the constant 1 + r^2 + r^4, so l(r) = 2 pi r (1 + r^2 + r^4)
    F = catalog.f2()
    want = 2.0 * math.pi * 0.5 * 1.3125
    assert abs(curve_length(F, 0.5) - want) <= 1e-10


def test_length_conjugate_monomial():
    # z -> conj(z)^3 traces the circle of radius r^3 three times
    F = catalog.monomial(1, 3, 1.0, conjugate=True)
    r = 0.7
    want = 3.0 * 2.0 * math.pi * r**3
    assert abs(curve_length(F, r) - want) <= 1e-10


def test_sup_length_f2():
    assert abs(sup_length(catalog.f2()) - 6.0 * math.pi) <= 1e-8


def test_sup_length_linear_reference():
    # independent dense-trapezoid reference for the boundary limit
    F = catalog.linear(1.0, 0.5)
    th = 2.0 * np.pi * np.arange(1 << 16) / (1 << 16)
    ref = float(np.mean(np.abs(1.0 - 0.5 * np.exp(-2j * th)))) * 2.0 * np.pi
    assert abs(sup_length(F) - ref) <= 1e-8


def test_sup_length_relaxes_stalled_tolerance():
    # tol 0 can never be met, so the first radius must climb the ladder;
    # the constant-speed integrand then settles at the first loosened step
    got = sup_length(catalog.identity(), integral_tol=0.0)
    assert abs(got - 2.0 * math.pi) <= 1e-8


def test_sup_length_relaxing_samples_no_grid_twice(monkeypatch):
    # the stalled first radius is rescanned at the looser tolerance from
    # the estimates it already has, not integrated again
    calls = []
    inner = geometry._circle_integral

    def counted(F, r, n):
        calls.append((r, n))
        return inner(F, r, n)

    monkeypatch.setattr(geometry, "_circle_integral", counted)
    got = sup_length(catalog.identity(), integral_tol=0.0)
    assert abs(got - 2.0 * math.pi) <= 1e-8
    assert (0.5, 1 << 20) in calls  # the first radius did hit the cap
    assert len(calls) == len(set(calls))


def test_sup_length_relax_limit_exhausted():
    with pytest.raises(NoConvergence):
        sup_length(catalog.identity(), integral_tol=0.0, relax_limit=0.0)


def test_length_dominates_min_dilatation():
    rng = np.random.default_rng(31)
    th = 2.0 * np.pi * np.arange(4096) / 4096
    for _ in range(15):
        F = random_map(rng)
        r = float(rng.uniform(0.2, 0.9))
        fz, fzb = wirtinger(F, r * np.exp(1j * th))
        lam = float(np.min(np.abs(np.abs(fz) - np.abs(fzb))))
        assert curve_length(F, r) >= 2.0 * math.pi * r * lam - 1e-9


def test_length_no_convergence():
    with pytest.raises(NoConvergence):
        curve_length(catalog.f2(), 0.5, n_start=32, tol=0.0, n_max=64)


# ---- area ----


def test_area_series_identity():
    assert area_series(catalog.identity(), 0.5) == 0.25


def test_area_series_f2_closed_form():
    # S(r) = (r + r^3 + r^5)^2 for the depth-3 chain with unit entries
    F = catalog.f2()
    for r in (0.25, 0.5, 0.75):
        want = (r + r**3 + r**5) ** 2
        assert abs(area_series(F, r) - want) <= 1e-14


def test_area_series_monomials():
    F = catalog.monomial(1, 2, 1.0 / math.sqrt(2.0))
    assert abs(area_series(F, 0.5) - 0.5**4) <= 1e-16
    G = catalog.monomial(1, 1, 1.0, conjugate=True)
    # orientation-reversing: signed area is negative
    assert area_series(G, 0.5) == -0.25


def test_area_series_array_and_scalar():
    F = catalog.f2()
    rs = np.array([0.25, 0.5, 0.75])
    arr = area_series(F, rs)
    for k, r in enumerate(rs):
        assert area_series(F, float(r)) == arr[k]


def test_area_quadrature_pinned():
    assert abs(area_quadrature(catalog.identity(), 0.5) - 0.25) <= 1e-12
    G = catalog.monomial(1, 1, 1.0, conjugate=True)
    assert abs(area_quadrature(G, 1.0) + math.pi / math.pi) <= 1e-12


def test_area_series_matches_quadrature():
    rng = np.random.default_rng(41)
    for _ in range(25):
        F = random_map(rng)
        for r in (0.3, 0.6, 0.9):
            s = area_series(F, r)
            q = area_quadrature(F, r)
            assert abs(s - q) <= 1e-8 * (1.0 + abs(s))


def test_area_conjugate_is_negated_bitwise():
    rng = np.random.default_rng(43)
    for _ in range(10):
        F = random_map(rng)
        rs = np.linspace(0.1, 0.95, 7)
        assert np.array_equal(area_series(conjugate_map(F), rs), -area_series(F, rs))


def test_area_scaling_covariance():
    rng = np.random.default_rng(47)
    for _ in range(10):
        F = random_map(rng)
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = float(rng.uniform(0.2, 0.9))
        lhs = area_series(scale_map(F, c), r)
        rhs = abs(c) ** 2 * area_series(F, r)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_area_growth_excess_f2():
    # r S'(r) - 2 S(r) for S = (r + r^3 + r^5)^2, checked symbolically:
    # S' = 2 (r + r^3 + r^5)(1 + 3 r^2 + 5 r^4)
    F = catalog.f2()
    r = 0.6
    s = r + r**3 + r**5
    want = 2.0 * r * s * (1.0 + 3.0 * r**2 + 5.0 * r**4) - 2.0 * s**2
    assert abs(area_growth_excess(F, r) - want) <= 1e-12


def test_phi_area_values_and_domain():
    F = catalog.monomial(1, 2, 1.0)
    # the double cover z^2 has S(r) = 2 r^4, so phi(r) = 2 r^2
    assert abs(phi_area(F, 0.5) - 0.5) <= 1e-15
    with pytest.raises(InvalidParams):
        phi_area(F, 0.0)


# ---- diameter ----


def test_diameter_identity():
    assert abs(diameter_estimate(catalog.identity()) - 2.0) <= 1e-12


def test_diameter_f2():
    # image of the closed disk is the disk of radius 3
    assert abs(diameter_estimate(catalog.f2()) - 6.0) <= 1e-9


def test_diameter_monomials():
    for n, c in ((1, 1.0), (2, 0.5), (3, 2.0), (5, 1.25)):
        F = catalog.monomial(1, n, c)
        assert abs(diameter_estimate(F) - 2.0 * c) <= 1e-9


def test_diameter_monotone_in_radius():
    rng = np.random.default_rng(53)
    for _ in range(5):
        F = random_map(rng)
        d_half = diameter_estimate(F, r=0.5, n_radii=8, n_angles=256, refine_rounds=1)
        d_full = diameter_estimate(F, r=0.9, n_radii=8, n_angles=256, refine_rounds=1)
        assert d_full >= d_half - 1e-9


def test_diameter_is_lower_bound():
    # sampled estimate never exceeds an exhaustive pairwise bound by more
    # than refinement tolerance
    F = catalog.linear(1.0, 0.4j)
    est = diameter_estimate(F)
    th = 2.0 * np.pi * np.arange(8192) / 8192
    w = F(np.exp(1j * th))
    xy = np.column_stack([w.real, w.imag])
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    assert est <= math.hypot(hi[0] - lo[0], hi[1] - lo[1]) + 1e-9


# ---- profiles ----


def test_profiles_shapes_and_meanings():
    F = catalog.f2()
    grid = np.linspace(0.1, 0.9, 9)
    lp = length_profile(F, grid)
    ap = area_profile(F, grid)
    pp = phi_area_profile(F, grid)
    assert lp.meaning == "length" and ap.meaning == "area" and pp.meaning == "phi_area"
    assert np.array_equal(lp.grid, grid)
    assert np.all(np.diff(ap.values) > 0)


def test_radius_profile_validation():
    good = np.linspace(0.1, 0.9, 5)
    with pytest.raises(InvalidParams):
        RadiusProfile(good[::-1].copy(), np.ones(5), "length")
    with pytest.raises(InvalidParams):
        RadiusProfile(good, np.array([1, 2, np.nan, 4, 5.0]), "length")
    with pytest.raises(InvalidParams):
        RadiusProfile(good, np.ones(5), "volume")
    prof = RadiusProfile(good, np.ones(5), "psi")
    with pytest.raises(Exception):
        prof.values[0] = 2.0
