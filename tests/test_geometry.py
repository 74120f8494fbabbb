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
from polyharm.errors import InvalidParams, NoConvergence
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


def test_sup_length_never_loosens_the_tolerance(monkeypatch):
    # a length tolerance of 0 can never be met and sup_length never loosens
    # it, so the first radius raises
    monkeypatch.setattr(geometry, "LENGTH_TOL", 0.0)
    with pytest.raises(NoConvergence):
        sup_length(catalog.identity())


def _record_radii(monkeypatch):
    # wraps geometry.curve_length; the list it returns gets one (radius,
    # length) entry per radius asked for, each radius of an array call too
    seen = []
    inner = geometry.curve_length

    def recorded(F, r, **kw):
        out = inner(F, r, **kw)
        seen.extend(zip(np.atleast_1d(r).tolist(), np.atleast_1d(out).tolist()))
        return out

    monkeypatch.setattr(geometry, "curve_length", recorded)
    return seen


def test_sup_length_integrates_no_radius_twice(monkeypatch):
    # the zoom's bracket ends were scanned already, and each zoom grid
    # shares points with the one before; F1 has two layers, so it scans
    seen = _record_radii(monkeypatch)
    sup_length(catalog.f1(9))
    radii = [r for r, _ in seen]
    assert len(radii) >= 20
    assert len(radii) == len(set(radii))


def test_sup_length_interior_maximum_for_two_layers(monkeypatch):
    # z - |z|^2 z has length 2 pi r (1 - r^2): zero at r = 1 and largest at
    # r = 1/sqrt(3), which is why two or more layers keep the radius scan
    F = PolyharmonicMap(2, 1, [[1.0], [-1.0]], [[0.0], [0.0]])
    assert curve_length(F, 1.0) == 0.0
    seen = _record_radii(monkeypatch)
    assert abs(sup_length(F) - 4.0 * math.pi / (3.0 * math.sqrt(3.0))) <= 1e-9
    best = max(seen, key=lambda entry: entry[1])[0]
    assert abs(best - 1.0 / math.sqrt(3.0)) <= 1e-6


def test_sup_length_stops_once_the_lengths_settle(monkeypatch):
    # F1's length climbs into r = 1: the scan takes 20 radii and the first
    # zoom round 3 more, after which nothing can change the result
    seen = _record_radii(monkeypatch)
    sup_length(catalog.f1(9))
    assert 20 <= len(seen) <= 24


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
    seen = _record_radii(monkeypatch)
    sup_length(catalog.f0(9))
    assert [r for r, _ in seen] == [1.0]


def test_length_dominates_min_dilatation():
    rng = np.random.default_rng(31)
    th = 2.0 * np.pi * np.arange(4096) / 4096
    for _ in range(15):
        F = random_map(rng)
        r = float(rng.uniform(0.2, 0.9))
        fz, fzb = wirtinger(F, r * np.exp(1j * th))
        lam = float(np.min(np.abs(np.abs(fz) - np.abs(fzb))))
        assert curve_length(F, r) >= 2.0 * math.pi * r * lam - 1e-9


def test_length_no_convergence(monkeypatch):
    # the sample cap stops a tolerance of 0 with the estimates reached so
    # far, and the work stays in bounded blocks however many panels are open
    monkeypatch.setattr(geometry, "LENGTH_TOL", 0.0)
    tracemalloc.start()
    try:
        with pytest.raises(NoConvergence) as exc:
            curve_length(catalog.f2(), 0.5)
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


def test_length_zero_near_panel_end(monkeypatch):
    # f0 at J = 41 and r = 1 - 2^-10 has speed zeros 6.5e-6 inside eight
    # starting panels, where whole and halves are off alike by 5e-9
    F, r = catalog.f0(41), 1.0 - 2.0 ** -10
    monkeypatch.setattr(geometry, "LENGTH_TOL", 1e-13)
    want = curve_length(F, r)
    monkeypatch.undo()
    assert abs(curve_length(F, r) - want) <= 1e-10 * want


def test_length_zero_speed_settles():
    # the default constant-ratio map has an all-zero table
    F = catalog.builtin("form37")
    assert curve_length(F, 0.5) == 0.0
    assert sup_length(F) == 0.0


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def _one_radius_length(F, r):
    # the adaptive quadrature of curve_length for one radius alone, each
    # round a block of 2^11 panels at a time: the reference the shared
    # pass must match bit for bit
    x, w, to_ends = geometry._panel_rule()
    G = PolyharmonicMap(1, F.J, *_collapse([r], 0, F.a, F.b))

    def panels(left, h):
        sums, hidden = np.empty(left.size), np.empty(left.size)
        for k in range(0, left.size, 1 << 11):
            u = np.exp(1j * (left[k:k + (1 << 11), None] + h * x[None, :]))
            fz, fzb = wirtinger(G, u)
            v = fz - np.conj(u * u) * fzb
            sums[k:k + len(u)] = 0.5 * h * (np.abs(v) @ w)
            ends = v @ to_ends.T
            e, s = np.abs(ends), np.abs(v[:, [0, -1]] - ends)
            q = np.maximum(np.minimum(e, s) / np.maximum(s, 1e-300), 1e-300)
            bend = np.where(q < 1.0, e * q * (1.0 - np.log(q)), 0.0)
            hidden[k:k + len(u)] = x[0] * h * bend.sum(axis=1)
        return sums, hidden

    n0 = 4 * (F.J + F.p)
    h = 2.0 * np.pi / n0
    left = h * np.arange(n0)
    whole, _ = panels(left, h)
    done = 0.0
    scale = geometry.LENGTH_TOL * (r + abs(float(whole.sum()))) / (2.0 * np.pi)
    while whole.size:
        h *= 0.5
        halves, hidden = panels(np.concatenate([left, left + h]), h)
        lo, hi = halves[:whole.size], halves[whole.size:]
        hidden = hidden[:whole.size] + hidden[whole.size:]
        ok = np.abs(lo + hi - whole) + hidden < scale * 2.0 * h
        done += float((lo + hi)[ok].sum())
        left = np.concatenate([left[~ok], left[~ok] + h])
        whole = np.concatenate([lo[~ok], hi[~ok]])
    return done


_SQUARE_RADII = [1.0 - 2.0 ** -k for k in range(1, 21)] + [1.0]


@pytest.mark.parametrize("F, radii", [
    pytest.param(_random_table(np.random.default_rng(900 + p), p, J),
                 [0.3, 0.999, 0.5, 1.0, 0.3, 0.77], id="seeded p=%d J=%d" % (p, J))
    for p, J in ((1, 5), (2, 3), (3, 6), (4, 2))
] + [pytest.param(builtin(J), _SQUARE_RADII, id="%s J=%d" % (builtin.__name__, J))
     for builtin in (catalog.f0, catalog.f1) for J in (9, 41)])
def test_length_array_is_bitwise_the_scalar_calls(monkeypatch, F, radii):
    # one pass over every radius gives each radius the bits it gets alone,
    # from the same samples, all taken through geometry.wirtinger on one
    # collapsed layer while curve_length runs
    samples = {}
    inner_length, inner_kernel = geometry.curve_length, geometry.wirtinger
    current = []

    def length(F, r, **kw):
        current.append(np.ndim(r))
        try:
            return inner_length(F, r, **kw)
        finally:
            current.pop()

    def kernel(G, z):
        assert current and G.p == 1
        samples[current[-1]] = samples.get(current[-1], 0) + np.size(z)
        return inner_kernel(G, z)

    monkeypatch.setattr(geometry, "wirtinger", kernel)
    monkeypatch.setattr(geometry, "curve_length", length)
    together = geometry.curve_length(F, np.array(radii))
    alone = [geometry.curve_length(F, r) for r in radii]
    assert isinstance(together, np.ndarray) and all(type(v) is float for v in alone)
    assert _hex(together) == _hex(alone) == _hex([_one_radius_length(F, r) for r in radii])
    assert samples[1] == samples[0] > 0


def test_length_array_reports_the_first_radius_that_fails(monkeypatch):
    # a tolerance of 0 never settles: the first radius given raises, with
    # the estimates it has alone, whatever the later radii would do
    monkeypatch.setattr(geometry, "LENGTH_TOL", 0.0)
    F = catalog.f1(9)
    with pytest.raises(NoConvergence) as alone:
        curve_length(F, 0.9)
    with pytest.raises(NoConvergence) as together:
        curve_length(F, np.array([0.9, 0.5, 1.0]))
    assert together.value.estimates == alone.value.estimates
    assert str(together.value) == str(alone.value)
    assert str(alone.value).startswith("curve_length at r=0.9 (p=2, J=9, tol=0.0) "
                                       "did not settle within ")
    assert str(alone.value).endswith(" panels still open")


def test_length_rejects_radii_outside_the_disk():
    for r in (0.0, 1.5, float("nan"), np.array([0.5, 1.5]), np.ones((2, 2))):
        with pytest.raises(InvalidParams):
            curve_length(catalog.f2(), r)
    assert curve_length(catalog.f2(), np.array([])).shape == (0,)


@pytest.mark.parametrize("cap", [1 << 12, 1 << 13])
def test_failing_scan_spends_at_most_one_more_radius_budget(monkeypatch, cap):
    # with the sample cap cut down, scanning F1's radii one at a time
    # stops at the first radius that cannot settle; the scan in one pass
    # raises for that same radius, with its estimates, after at most one
    # more cap of samples spent on the radii after it
    monkeypatch.setattr(geometry, "_MAX_SAMPLES", cap)
    taken = [0]
    inner = geometry.wirtinger

    def counted(G, z):
        taken[0] += np.size(z)
        return inner(G, z)

    monkeypatch.setattr(geometry, "wirtinger", counted)
    F = catalog.f1(9)
    for r in 1.0 - 2.0 ** -np.arange(1, 21):
        try:
            curve_length(F, float(r))
        except NoConvergence as exc:
            first = exc
            break
    one_by_one, taken[0] = taken[0], 0
    with pytest.raises(NoConvergence) as exc:
        sup_length(F)
    assert exc.value.estimates == first.estimates
    assert str(exc.value) == "sup_length radius scan: " + str(first)
    assert taken[0] <= one_by_one + cap


def test_sup_length_memory_stays_bounded_at_the_layer_cap():
    # a seeded (4096, 1) table: 20 radii share one pass, in blocks of
    # panels, and the layers are collapsed once for all of them
    rng = np.random.default_rng(4096)
    a, b = (rng.normal(0, 1e-3, (4096, 1)) + 1j * rng.normal(0, 1e-3, (4096, 1))
            for _ in range(2))
    F = PolyharmonicMap(4096, 1, a, b)
    tracemalloc.start()
    try:
        sup_length(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


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


def _area_coefficients_oracle(F):
    # the pair-by-pair sum the coefficient pass replaced: every layer pair
    # n1 <= n2, in lexicographic order, adds its row at m = n1 + n2 + j - 2
    j = np.arange(1, F.J + 1)
    c = np.zeros(2 * F.p + F.J - 2)
    for n1 in range(1, F.p + 1):
        for n2 in range(n1, F.p + 1):
            a1, a2 = F.a[n1 - 1], F.a[n2 - 1]
            b1, b2 = F.b[n1 - 1], F.b[n2 - 1]
            re_a = a1.real * a2.real + a1.imag * a2.imag
            re_b = b1.real * b2.real + b1.imag * b2.imag
            weight = j if n1 == n2 else 2.0 * j
            c[n1 + n2 - 2:n1 + n2 - 2 + F.J] += weight * (re_a - re_b)
    return c


def test_area_coefficients_are_bitwise_the_pair_loop():
    rng = np.random.default_rng(2061)
    tables = [catalog.f0(), catalog.f1(), catalog.f2(),
              catalog.builtin("form37", {"eta": 1.0, "zeta2": {"1": 1.0}})]
    for k in range(320):
        F = random_map(rng, p_max=9, J_max=7, scale=10.0 ** rng.uniform(-3, 3))
        tables.append(conjugate_map(F) if k % 4 == 3 else F)
    for F in tables:
        got, want = geometry._area_coefficients(F), _area_coefficients_oracle(F)
        # compared as bit patterns, so a zero's sign counts too
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), F.label


def test_area_quadrature_pinned():
    assert abs(area_quadrature(catalog.identity(), 0.5) - 0.25) <= 1e-12
    G = catalog.monomial(1, 1, 1.0, conjugate=True)
    assert abs(area_quadrature(G, 1.0) + math.pi / math.pi) <= 1e-12


def _gauss_rings(F, r, n=None):
    # area_quadrature's circles and its weights in x = rho^2: n Gauss-Legendre
    # nodes, by default the derived count p + ceil(J/2) - 1
    t, w = geometry._gauss_nodes(n or F.p + (F.J + 1) // 2 - 1)
    return np.sqrt(0.5 * r * r * (t + 1.0)), w


def _area_from_ring_means(F, r, means, n=None):
    _, w = _gauss_rings(F, r, n)
    return float(0.5 * r * r * np.sum(w * means))


def _energies_one_shot(F, rho):
    # every ring at once: the squared moduli of each derivative's circle
    # coefficients summed; F_z's energy minus F_zbar's
    terms = _wirtinger_terms(F)
    tables = iter(_collapse(rho, -1, *[M for pairs in terms for M, _ in pairs]))
    energy = []
    for pairs in terms:
        c = np.concatenate([next(tables) for _ in pairs], axis=1)
        energy.append((c.real * c.real + c.imag * c.imag).sum(axis=1))
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


def _check_against_oracles(F, r):
    rho, _ = _gauss_rings(F, r)
    s = area_quadrature(F, r)
    # blocks of rings give the bits of all rings at once
    assert s == _area_from_ring_means(F, r, _energies_one_shot(F, rho))
    # Parseval agrees with the trapezoid rule on 2J + 1 angles, the fewest
    # that alias no frequency of |F_z|^2 or |F_zbar|^2, and on more
    for n_theta in (2 * F.J + 1, 4 * F.J + 7):
        sampled = _area_from_ring_means(F, r, _sampled_means(F, rho, n_theta))
        assert abs(s - sampled) <= 1e-14 * (1.0 + abs(s))
        # the Horner kernel stays an independent oracle
        pointwise = _sampled_means(F, rho, n_theta, pointwise=True)
        assert abs(s - _area_from_ring_means(F, r, pointwise)) <= 1e-14 * (1.0 + abs(s))


def test_area_quadrature_blocks_are_bitwise_one_shot():
    rng = np.random.default_rng(59)
    for _ in range(6):
        _check_against_oracles(random_map(rng), float(rng.uniform(0.2, 1.0)))
    # 64 rings of J = 64 fill a block, and (40, 64) needs 71; (2, 120)
    # needs 61 in blocks of 34
    for p, J in ((40, 64), (2, 120)):
        a = rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))
        b = rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))
        _check_against_oracles(PolyharmonicMap(p, J, a / p, b / p),
                               float(rng.uniform(0.2, 1.0)))


def _seeded_table(p, J, seed):
    rng = np.random.default_rng(seed)
    a, b = (1e-3 * (rng.normal(size=(p, J)) + 1j * rng.normal(size=(p, J)))
            for _ in range(2))
    return PolyharmonicMap(p, J, a, b)


@pytest.mark.parametrize("F", [catalog.f0(1024), catalog.f0(4096), catalog.f1(2048),
                               _seeded_table(1024, 4, 1024)],
                         ids=["f0 J=1024", "f0 J=4096", "F1 J=2048", "seeded (1024, 4)"])
def test_area_quadrature_is_exact_near_the_table_cap(F):
    # a fixed count of 64 radii left f0 at J = 1024 7e-7 (1 + |S|) off
    s = area_series(F, 1.0)
    assert abs(area_quadrature(F, 1.0) - s) <= 1e-14 * (1.0 + abs(s))


@pytest.mark.parametrize("n", [1, 2, 8, 4096])
def test_gauss_nodes_integrate_monomials_up_to_degree_2n_minus_1(n):
    # 8 nodes are the panel rule's; 4096 the most the area quadrature takes
    t, w = geometry._gauss_nodes(n)
    assert t.size == w.size == n and np.all(np.diff(t) > 0.0)
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
    power = np.ones(n)  # t^k
    eps = np.finfo(float).eps
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = float(w @ power)
        # rounding: t^k carries about k ulps, and the sum log2(n) more
        assert abs(got - exact) <= 2.0 * (k + 16) * eps * float(w @ np.abs(power)), k
        power = power * t


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_gauss_nodes_match_the_eigenvalue_solve(n):
    # numpy's leggauss takes the nodes from an n x n eigenvalue problem
    t, w = geometry._gauss_nodes(n)
    t_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert np.allclose(t, t_ref, rtol=0.0, atol=1e-14)
    assert np.allclose(w, w_ref, rtol=0.0, atol=1e-14)


def test_area_quadrature_neither_samples_nor_transforms(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("area_quadrature sampled a circle")

    monkeypatch.setattr(np.fft, "ifft", boom)
    monkeypatch.setattr(core, "ring_wirtinger", boom)
    monkeypatch.setattr(core, "_ring_samples", boom)
    F = catalog.f2()
    want = area_series(F, 0.9)
    area_quadrature(F, 0.9)  # warm the Gauss-Legendre cache
    tracemalloc.start()
    try:
        s = area_quadrature(F, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(s - want) <= 1e-12 * (1.0 + abs(want))
    assert peak < 1 << 20


@pytest.mark.parametrize("p, J", [(1, 6), (2, 6), (3, 5), (1, 1), (4, 3), (2, 1)])
def test_area_quadrature_radial_rule_is_exact_at_its_derived_count(p, J):
    # a ring mean has degree <= 2p + J - 3 in x = rho^2, which n
    # Gauss-Legendre nodes integrate exactly once 2n - 1 reaches it; one
    # node fewer truncates
    rng = np.random.default_rng(100 * p + J)
    n = p + (J + 1) // 2 - 1
    below = []
    for _ in range(8):
        a = rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))
        b = rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))
        F = PolyharmonicMap(p, J, a, b)
        r = float(rng.uniform(0.5, 1.0))
        s = area_series(F, r)
        assert abs(area_quadrature(F, r) - s) <= 1e-14 * (1.0 + abs(s))
        if n > 1:
            rho, _ = _gauss_rings(F, r, n - 1)
            ez, ezb = core._ring_energies(F, rho)
            fewer = _area_from_ring_means(F, r, ez - ezb, n - 1)
            below.append(abs(fewer - s) / (1.0 + abs(s)))
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


def _brute_farthest_pairs(xy, rows=256):
    # every pair whose squared distance, computed as the calipers do, is
    # the largest over all pairs of rows, in blocks of rows
    x, y = xy[:, 0], xy[:, 1]
    best, pairs = -1.0, []
    for k in range(0, len(xy), rows):
        d2 = (x[k:k + rows, None] - x) ** 2 + (y[k:k + rows, None] - y) ** 2
        top = float(d2.max())
        if top > best:
            best, pairs = top, []
        if top == best:
            pairs += [(k + int(i), int(j)) for i, j in zip(*np.nonzero(d2 == top))]
    return pairs


def _polar_grids():
    # polar sample grids as diameter_estimate takes them; the inner rings
    # of 2z - |z|^2 z, of modulus up to 1.089 near r = 0.82, reach past its
    # boundary ring, of modulus 1
    rng = np.random.default_rng(63)
    maps = [PolyharmonicMap(2, 1, [[2.0], [-1.0]], [[0.0], [0.0]]),
            catalog.linear(1.0, 0.3), catalog.f2(), convex_map(rng)]
    maps += [random_map(rng) for _ in range(6)]
    for F in maps:
        for n_radii, n_angles in ((16, 256), (2, 1024), (5, 333)):
            z = np.outer(np.arange(1, n_radii + 1) / n_radii,
                         np.exp(2j * np.pi * np.arange(n_angles) / n_angles))
            w = evaluate(F, z).ravel()
            yield np.column_stack([w.real, w.imag])


def test_candidates_hold_both_ends_of_every_farthest_pair():
    for xy in list(_point_clouds()) + list(_polar_grids()):
        cand = geometry._candidates(xy)
        assert np.all(np.diff(cand) > 0)
        kept = set(cand.tolist())
        for pair in _brute_farthest_pairs(xy):
            assert kept.issuperset(pair)
    # 2z - |z|^2 z on 16 x 256 keeps samples of ring 13 (r = 0.8125, of
    # modulus 1.0886) only, none of its boundary ring
    assert set((geometry._candidates(next(_polar_grids())) // 256).tolist()) == {12}


def test_candidates_of_an_ellipse_are_few(monkeypatch):
    # z + 0.3 conj(z) maps the disk onto an ellipse: only the samples at
    # the ends of its major axis can end a farthest pair
    sizes = []
    inner = geometry._candidates

    def recorded(xy):
        cand = inner(xy)
        sizes.append((len(xy), cand.size))
        return cand

    monkeypatch.setattr(geometry, "_candidates", recorded)
    assert diameter_estimate(catalog.linear(1.0, 0.3)) == pytest.approx(2.6, rel=1e-15)
    [(n, kept)] = sizes
    assert n == 16384 and 8 * kept < n


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
