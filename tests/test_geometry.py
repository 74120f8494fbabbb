import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from polyharm import catalog, core, geometry
from polyharm.core import (PolyharmonicMap, _collapse, _wirtinger_terms, evaluate,
                           ring_wirtinger, scale_map, wirtinger)
from polyharm.errors import NoConvergence
from polyharm.geometry import (
    area_growth_excess,
    area_quadrature,
    area_series,
    curve_length,
    diameter_estimate,
    sup_length,
)

from _gen import conjugate_map, convex_map, random_map


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


def test_sup_length_reaches_the_boundary():
    # the identity is one harmonic layer, so its length 2 pi r is largest
    # at r = 1, the one radius sup_length integrates
    F = catalog.identity()
    assert sup_length(F) == curve_length(F, 1.0)


def test_sup_length_relax_limit_exhausted():
    # tol 0 can never be met and sup_length never loosens a tolerance,
    # so the first radius raises
    with pytest.raises(NoConvergence):
        sup_length(catalog.identity(), integral_tol=0.0)


def test_sup_length_integrates_no_radius_twice(monkeypatch):
    # the zoom's bracket ends were scanned already, and each zoom grid
    # shares points with the one before; F1 has two layers, so it scans
    radii = []
    inner = geometry.curve_length

    def counted(F, r, **kw):
        radii.append(r)
        return inner(F, r, **kw)

    monkeypatch.setattr(geometry, "curve_length", counted)
    sup_length(catalog.f1(9))
    assert len(radii) == len(set(radii))


def test_sup_length_interior_maximum_for_two_layers(monkeypatch):
    # z - |z|^2 z has length 2 pi r (1 - r^2): zero at r = 1 and largest at
    # r = 1/sqrt(3), which is why two or more layers keep the radius scan
    F = PolyharmonicMap(2, 1, [[1.0], [-1.0]], [[0.0], [0.0]])
    assert curve_length(F, 1.0) == 0.0
    seen = {}
    inner = geometry.curve_length

    def recorded(F, r, **kw):
        seen[r] = inner(F, r, **kw)
        return seen[r]

    monkeypatch.setattr(geometry, "curve_length", recorded)
    assert abs(sup_length(F) - 4.0 * math.pi / (3.0 * math.sqrt(3.0))) <= 1e-9
    assert abs(max(seen, key=seen.get) - 1.0 / math.sqrt(3.0)) <= 1e-6


def test_sup_length_stops_once_the_lengths_settle(monkeypatch):
    # F1's length climbs into r = 1: the scan takes 20 radii and the first
    # zoom round 3 more, after which nothing can change the result
    calls = []
    inner = geometry.curve_length

    def counted(F, r, **kw):
        calls.append(r)
        return inner(F, r, **kw)

    monkeypatch.setattr(geometry, "curve_length", counted)
    sup_length(catalog.f1(9))
    assert len(calls) <= 24


def _random_table(rng, p, J):
    a = rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))
    b = rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))
    return PolyharmonicMap(p, J, a, b)


def test_length_collapse_matches_fft_oracle():
    # the layers collapsed on the circle against the spectrum of the
    # angular derivative, summed layer by layer in the oracle
    rng = np.random.default_rng(909)
    for p in (2, 3, 4):
        F = _random_table(rng, p, int(rng.integers(2, 7)))
        for r in (0.3, 0.8, 1.0):
            want = _fft_length(F, r)
            assert abs(curve_length(F, r) - want) <= 1e-10 * want


def test_single_layer_length_is_nondecreasing():
    # |d/dtheta F| is subharmonic for a harmonic F, so its circle mean grows
    rng = np.random.default_rng(910)
    rs = np.linspace(0.02, 1.0, 50)
    for _ in range(4):
        F = _random_table(rng, 1, int(rng.integers(1, 7)))
        assert sup_length(F) == curve_length(F, 1.0)
        lengths = [curve_length(F, float(r)) for r in rs]
        for lo, hi in zip(lengths, lengths[1:]):
            assert hi >= lo * (1.0 - 1e-10)


def test_length_runs_the_single_layer_kernel(monkeypatch):
    # every speed sample comes from one collapsed layer, and the samples
    # still pass through geometry.wirtinger, where traced runs count them
    calls = []
    inner = geometry.wirtinger

    def recorded(F, z):
        calls.append((F.p, np.size(z)))
        return inner(F, z)

    monkeypatch.setattr(geometry, "wirtinger", recorded)
    curve_length(catalog.f1(9), 0.9)
    assert calls and all(p == 1 for p, _ in calls)
    assert sum(n for _, n in calls) >= 1


def test_single_layer_sup_length_integrates_once(monkeypatch):
    radii = []
    inner = geometry.curve_length

    def counted(F, r, **kw):
        radii.append(r)
        return inner(F, r, **kw)

    monkeypatch.setattr(geometry, "curve_length", counted)
    sup_length(catalog.f0(9))
    assert radii == [1.0]


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
    # the sample cap stops tol = 0 with the estimates reached so far, and
    # the work stays in bounded blocks however many panels are open
    tracemalloc.start()
    try:
        with pytest.raises(NoConvergence) as exc:
            curve_length(catalog.f2(), 0.5, tol=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    assert "r=0.5" in str(exc.value)
    want = 2.0 * math.pi * 0.5 * 1.3125
    assert abs(exc.value.estimates[-1] - want) <= 1e-12


def _fft_length(F, r, n=1 << 22):
    # periodic trapezoid rule on n points; on |z| = r the angular derivative
    # has coefficient i j A_j(r) at frequency j and -i j B_j(r) at -j
    powers = r ** (2 * np.arange(F.p)[:, None] + np.arange(1, F.J + 1)[None, :])
    j = np.arange(1, F.J + 1)
    spec = np.zeros(n, dtype=complex)
    spec[j] += 1j * j * (F.a * powers).sum(axis=0)
    spec[n - j] -= 1j * j * (np.conj(F.b) * powers).sum(axis=0)
    return float(np.abs(np.fft.ifft(spec)).sum()) * 2.0 * math.pi


def test_length_square_maps_match_fft_oracle():
    # the square maps' speed nearly vanishes at the corners as r -> 1
    for F in (catalog.f0(9), catalog.f1(9)):
        for r in (0.5, 1.0 - 2.0 ** -10, 1.0 - 2.0 ** -20, 1.0):
            want = _fft_length(F, r)
            assert abs(curve_length(F, r) - want) <= 1e-10 * want


def test_length_zero_near_panel_end():
    # f0 at J = 41 and r = 1 - 2^-10 has speed zeros 6.5e-6 inside eight
    # starting panels, where whole and halves are off alike by 5e-9
    F, r = catalog.f0(41), 1.0 - 2.0 ** -10
    want = curve_length(F, r, tol=1e-13)
    assert abs(curve_length(F, r) - want) <= 1e-10 * want


def test_length_zero_speed_settles():
    # the default constant-ratio map has an all-zero table
    F = catalog.builtin("form37")
    assert curve_length(F, 0.5) == 0.0
    assert sup_length(F) == 0.0


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


def _gauss_rings(r, n_radial):
    t, w = np.polynomial.legendre.leggauss(n_radial)
    return 0.5 * r * (t + 1.0), 0.5 * r * w


def _area_from_ring_means(r, n_radial, means):
    rho, wts = _gauss_rings(r, n_radial)
    return float(2.0 * np.sum(wts * rho * means))


def _energies_one_shot(F, rho, n_theta):
    # every Gauss ring at once: each derivative's circle coefficients,
    # squared as they are, or first added into their slots mod n_theta by
    # np.add.at where two of them share a slot; F_z's energy minus F_zbar's
    terms = _wirtinger_terms(F)
    tables = iter(_collapse(rho, -1, *[M for pairs in terms for M, _ in pairs]))
    energy = []
    for pairs in terms:
        c = np.concatenate([next(tables) for _ in pairs], axis=1)
        m = np.concatenate([m for _, m in pairs]) % n_theta
        if np.unique(m).size < m.size:
            spec = np.zeros((len(rho), n_theta), dtype=complex)
            np.add.at(spec, (slice(None), m), c)
            c = spec
        re, im = c.real, c.imag
        energy.append((re * re + im * im).sum(axis=1))
    return energy[0] - energy[1]


def _sampled_means(F, rho, n_theta, pointwise=False):
    # the ring means of the sampled Jacobian: every Gauss ring in one
    # ring_wirtinger call, or in one call of the pointwise Horner kernel on
    # the same equispaced angles
    if pointwise:
        u = np.exp(1j * (2.0 * np.pi * np.arange(n_theta) / n_theta))
        fz, fzb = wirtinger(F, rho[:, None] * u[None, :])
    else:
        fz, fzb = ring_wirtinger(F, rho, n_theta)
    jac = (fz.real * fz.real + fz.imag * fz.imag
           - fzb.real * fzb.real - fzb.imag * fzb.imag)
    return jac.mean(axis=1)


def _check_against_oracles(F, r, n_radial, n_theta, horner=True):
    rho, _ = _gauss_rings(r, n_radial)
    s = area_quadrature(F, r, n_radial, n_theta)
    # blocks of rings give the bits of all rings at once
    assert s == _area_from_ring_means(r, n_radial, _energies_one_shot(F, rho, n_theta))
    # Parseval agrees with the sampled trapezoid rule, aliasing included
    sampled = _area_from_ring_means(r, n_radial, _sampled_means(F, rho, n_theta))
    assert abs(s - sampled) <= 1e-14 * (1.0 + abs(s))
    if horner:  # the Horner kernel stays an independent oracle
        pointwise = _sampled_means(F, rho, n_theta, pointwise=True)
        assert abs(s - _area_from_ring_means(r, n_radial, pointwise)) <= 1e-14 * (1.0 + abs(s))


def test_area_quadrature_blocks_are_bitwise_one_shot():
    rng = np.random.default_rng(59)
    for n_radial, n_theta in ((64, 16), (64, 1000), (64, 2048), (64, 3000),
                              (64, 4096), (8, 30000)):
        F = random_map(rng)
        _check_against_oracles(F, float(rng.uniform(0.2, 1.0)), n_radial, n_theta)


def test_area_quadrature_keeps_the_aliasing_of_its_samples():
    # n_theta <= 2J folds frequencies onto each other, as the samples would
    rng = np.random.default_rng(61)
    for _ in range(12):
        F = random_map(rng, J_max=12)
        r = float(rng.uniform(0.2, 1.0))
        for n_theta in (1, 3, 2 * F.J, 2 * F.J + 1, 2 * F.J + 2):
            _check_against_oracles(F, r, 16, n_theta)


def test_area_quadrature_matches_its_samples_on_f0_at_J_1024():
    # 2048 angles alias J = 1024's frequencies -1025 and 1023
    _check_against_oracles(catalog.f0(1024), 1.0, 64, 2048, horner=False)


def test_area_quadrature_neither_samples_nor_transforms(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("area_quadrature sampled a circle")

    monkeypatch.setattr(np.fft, "ifft", boom)
    monkeypatch.setattr(core, "ring_wirtinger", boom)
    monkeypatch.setattr(core, "_ring_samples", boom)
    F = catalog.f2()
    want = area_series(F, 0.9)
    area_quadrature(F, 0.9, 64, 1 << 14)  # warm the Gauss-Legendre cache
    tracemalloc.start()
    try:
        s = area_quadrature(F, 0.9, 64, 1 << 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(s - want) <= 1e-12 * (1.0 + abs(want))
    assert peak < 1 << 20


@pytest.mark.parametrize("p, J", [(1, 6), (2, 6), (3, 5), (1, 1), (4, 3)])
def test_area_quadrature_radial_rule_is_exact_from_2p_plus_J_minus_2_nodes(p, J):
    # rho times a ring mean has degree <= 4p + 2J - 5 in rho, which n
    # Gauss-Legendre nodes integrate exactly once 2n - 1 reaches it; one
    # node fewer truncates
    rng = np.random.default_rng(100 * p + J)
    n = 2 * p + J - 2
    below = []
    for _ in range(8):
        a = rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))
        b = rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))
        F = PolyharmonicMap(p, J, a, b)
        r = float(rng.uniform(0.5, 1.0))
        s = area_series(F, r)
        assert abs(area_quadrature(F, r, n) - s) <= 1e-14 * (1.0 + abs(s))
        if n > 1:
            below.append(abs(area_quadrature(F, r, n - 1) - s) / (1.0 + abs(s)))
    assert n == 1 or max(below) > 1e-10


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


@pytest.mark.parametrize("F", [catalog.f2(), convex_map(np.random.default_rng(3))],
                         ids=["f2", "convex"])
def test_diameter_polish_makes_few_kernel_calls(monkeypatch, F):
    # the grid is one evaluate call; each Newton step is one evaluate and
    # one wirtinger call on its 9-pair stencil, each rejected step one
    # more evaluate call, and the ascent stops at the pair's local maximum
    calls = []
    for name in ("evaluate", "wirtinger"):
        inner = getattr(geometry, name)

        def counted(F, z, inner=inner):
            calls.append(np.size(z))
            return inner(F, z)

        monkeypatch.setattr(geometry, name, counted)
    diameter_estimate(F)
    assert len(calls) <= 12


@pytest.mark.parametrize("seed", [2, 3, 4, 6])
def test_diameter_reaches_the_local_maximum(monkeypatch, seed):
    boxes = []  # the box of each ascent, and the pair it returned
    inner = geometry._ascend

    def spy(F, x, lo, hi):
        x, d = inner(F, x, lo, hi)
        boxes.append((lo, hi, x))
        return x, d

    monkeypatch.setattr(geometry, "_ascend", spy)
    F = convex_map(np.random.default_rng(seed))
    results = []
    for n_radii, n_angles in ((16, 1024), (2, 4096), (8, 333)):
        d = diameter_estimate(F, n_radii=n_radii, n_angles=n_angles)
        lo, hi, x = boxes[-1]
        results.append(d)
        # at least the farthest sampled pair
        rho = np.arange(1, n_radii + 1) / n_radii
        th = 2.0 * np.pi * np.arange(n_angles) / n_angles
        w = evaluate(F, np.outer(rho, np.exp(1j * th))).ravel()
        v = w[ConvexHull(np.column_stack([w.real, w.imag])).vertices]
        assert d >= max(np.abs(v[k:k + 256, None] - v).max() for k in range(0, v.size, 256))

        # the returned pair realizes d, and no coordinate free to move can
        # still raise |F(z_a) - F(z_b)|^2: its gradient, by central
        # differences of evaluate, is at most 1e-7 of it
        def dist2(s):
            f = evaluate(F, s[0::2] * np.exp(1j * s[1::2]))
            return abs(f[0] - f[1]) ** 2

        assert math.sqrt(dist2(x)) == pytest.approx(d, rel=1e-15)
        g = np.array([(dist2(x + e) - dist2(x - e)) / 2e-6 for e in 1e-6 * np.eye(4)])
        g[((x >= hi) & (g > 0.0)) | ((x <= lo) & (g < 0.0))] = 0.0
        assert np.abs(g).max() <= 1e-7 * d * d
    # the same maximum whichever grid sample the ascent starts from
    assert max(results) - min(results) <= 4.0 * np.spacing(max(results))


@pytest.mark.parametrize("F, want, rtol", [
    (catalog.linear(0.0, 0.0), 0.0, 0.0),
    (catalog.linear(1.0, 1.0), 4.0, 0.0),  # a segment: its sampled ends
    (catalog.identity(), 2.0, 1e-15),
    (catalog.f2(), 6.0, 1e-15),
], ids=["zero", "collinear", "identity", "f2"])
def test_diameter_polish_raises_no_warnings(F, want, rtol):
    # a zero, flat or rotation-invariant distance leaves the Newton system
    # singular
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = diameter_estimate(F)
    assert abs(d - want) <= rtol * want


def test_diameter_monotone_in_radius():
    rng = np.random.default_rng(53)
    for _ in range(5):
        F = random_map(rng)
        d_half = diameter_estimate(F, r=0.5, n_radii=8, n_angles=256)
        d_full = diameter_estimate(F, r=0.9, n_radii=8, n_angles=256)
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


def _farthest_pair_matrix(xy, n_dir=180):
    # exhaustive reference: the distance matrix over every sample at a
    # qhull hull vertex, or over projection extremes on a fan of directions
    # plus the principal axes when qhull rejects the points.  The candidates
    # go in index order, so the first maximum is the least (lower index,
    # higher index) pair among the ties
    try:
        v = ConvexHull(xy).vertices
        cand = np.flatnonzero((xy[:, None, :] == xy[None, v, :]).all(axis=2).any(axis=1))
    except QhullError:
        phis = np.pi * np.arange(n_dir) / n_dir
        proj = xy @ np.column_stack([np.cos(phis), np.sin(phis)]).T
        idx = set(np.argmax(proj, axis=0)) | set(np.argmin(proj, axis=0))
        centered = xy - xy.mean(axis=0)
        _, vecs = np.linalg.eigh(centered.T @ centered)
        for k in range(2):
            s = xy @ vecs[:, k]
            idx |= {int(np.argmax(s)), int(np.argmin(s))}
        cand = np.asarray(sorted(idx), dtype=int)
    pts = xy[cand]
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    ia, ib = divmod(int(np.argmax(d2)), pts.shape[0])
    return int(cand[ia]), int(cand[ib])


def _tagged_clouds():
    # (points, in general position: no three collinear, no two equal)
    rng = np.random.default_rng(61)
    for n in (3, 5, 40, 400):
        yield rng.normal(size=(n, 2)), True
        yield rng.uniform(-1.0, 1.0, size=(n, 2)), True
    # integer points on the circle of radius 5: antipodes tie exactly
    ring = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0),
            (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3)]
    yield np.array(ring, dtype=float), False
    yield np.array(ring[::-1] + ring[:3], dtype=float), False
    for n in (7, 64, 1024):
        th = 2.0 * np.pi * np.arange(n) / n
        yield np.column_stack([np.cos(th), np.sin(th)]), False
        yield np.column_stack([np.cos(th), np.sin(th)]) + 1e-13 * rng.normal(size=(n, 2)), False
    for _ in range(6):
        th = rng.uniform(0.0, 2.0 * np.pi, size=200)
        e = np.column_stack([2.0 * np.cos(th), rng.uniform(0.2, 1.0) * np.sin(th)])
        phi = rng.uniform(0.0, np.pi)
        rot = np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])
        yield e @ rot + rng.normal(size=2), True
    for _ in range(5):  # polar sample grids of random maps
        z = np.outer(np.arange(1, 9) / 8.0, np.exp(2j * np.pi * np.arange(256) / 256))
        w = evaluate(random_map(rng), z).ravel()
        yield np.column_stack([w.real, w.imag]), True
    yield np.array([[0.0, 0.0], [1.0, 2.0]]), False
    yield np.array([[0.0, 0.0], [0.0, 0.0]]), False
    yield np.array([[0.5, -1.0], [0.25, 1.5], [2.0, 0.0]]), True
    t = rng.permutation(np.arange(-8, 9) / 4.0)
    yield np.column_stack([t, 2.0 * t + 0.5]), False  # collinear
    yield np.column_stack([t, np.zeros_like(t)]), False
    yield np.tile([[1.5, -0.5]], (9, 1)), False  # coincident
    yield np.array([[1.0, 1.0]] * 4 + [[-2.0, 3.0]] * 3 + [[1.0, 1.0]]), False
    for xy in _degenerate_clouds():
        yield xy, False


def _point_clouds():
    return (xy for xy, _ in _tagged_clouds())


def _degenerate_clouds():
    rng = np.random.default_rng(62)
    for n in (40, 400, 2000):
        # collinear runs and repeats on a 0.1 lattice, and on a 1/3 one,
        # where rounding leaves some lattice-collinear triples a strict turn
        yield np.round(rng.normal(size=(n, 2)), 1)
        yield np.round(3.0 * rng.normal(size=(n, 2))) / 3.0
    for n in (6, 50, 500):
        # several points share the least and the greatest x
        u = rng.uniform(-1.0, 1.0, size=(n, 2))
        u[rng.choice(n, 4, replace=False), 0] = 1.0
        u[rng.choice(n, 3, replace=False), 0] = -1.0
        yield u
        # repeated points at both ends of the lower and the upper chain
        u = rng.normal(size=(n, 2))
        ends = [np.argmin(u[:, 0]), np.argmax(u[:, 0]), np.argmin(u[:, 1]), np.argmax(u[:, 1])]
        yield np.concatenate([u, u[ends * 2]])[rng.permutation(n + 8)]
    # lattice parabolas, the upper one with its arc over 10 < x < 20
    # replaced by lattice points on the chord and dents just below it: the
    # chord points turn left until the dents go, and 3 dents are too few
    # for another vectorized pass, so the sequential chain must drop them
    t = np.arange(-40.0, 41.0)
    c = np.array([x for x in range(-39, 40) if not 10 < x < 20], dtype=float)
    chord = [(12, 3040), (13, 3008), (14, 2980), (15, 2948), (16, 2920),
             (17, 2888), (18, 2860)]
    pts = np.concatenate([np.column_stack([t, t * t]),
                          np.column_stack([c, 3200.0 - c * c]), np.array(chord, dtype=float)])
    yield pts[rng.permutation(len(pts))]


def test_farthest_pair_matches_distance_matrix():
    for xy in _point_clouds():
        assert geometry._farthest_pair(xy) == _farthest_pair_matrix(xy)


def test_hull_matches_qhull_in_general_position():
    for xy in (xy for xy, general in _tagged_clouds() if general):
        hull = geometry._hull(xy)
        assert len(hull) == len(set(hull.tolist()))
        assert set(hull.tolist()) == set(ConvexHull(xy).vertices.tolist())


def test_farthest_distance_matches_qhull_on_every_cloud():
    # qhull merges turns within its rounding tolerance, so on lattice
    # points it may keep fewer vertices; none of its own may go missing,
    # and the farthest distance must be the same bits
    flat = 0
    for xy in _point_clouds():
        ia, ib = geometry._farthest_pair(xy)
        try:
            v = ConvexHull(xy).vertices
        except QhullError:
            flat += 1
            continue
        pts = xy[v]
        want = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2).max()
        assert ((xy[ia] - xy[ib]) ** 2).sum() == want
        ours = {tuple(q) for q in xy[geometry._hull(xy)].tolist()}
        assert {tuple(q) for q in pts.tolist()} <= ours
    assert flat == 6


def test_hull_turns_strictly_left_in_exact_arithmetic():
    # every vertex kept is a strict left turn of the sampled floats, taken
    # exactly, so a lattice-collinear vertex is dropped whatever rounding
    # does to the turn test
    for xy in _point_clouds():
        hull = geometry._hull(xy)
        if len(hull) < 3:
            continue
        q = [(Fraction(a), Fraction(b)) for a, b in xy[hull].tolist()]
        for (ax, ay), (bx, by), (cx, cy) in zip(q[-1:] + q[:-1], q, q[1:] + q[:1]):
            assert (bx - ax) * (cy - by) - (by - ay) * (cx - bx) > 0


def test_diameter_collinear_image_exact():
    # z + conj(z) = 2 Re z maps the disk onto the segment [-2, 2], whose
    # samples have a hull of two vertices
    assert diameter_estimate(catalog.linear(1.0, 1.0)) == 4.0


def test_diameter_memory_stays_linear_in_hull_size():
    # the 4096 outer samples of the identity are all hull vertices; a
    # pairwise matrix over them would take hundreds of MB
    tracemalloc.start()
    try:
        diameter_estimate(catalog.identity(), n_radii=2, n_angles=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
