import math
import warnings

import numpy as np
import pytest

from polyharm.errors import InvalidDiameter, InvalidParams, NoSignChange
from polyharm import landau
from polyharm.landau import LandauResult, landau_from_diameter, landau_from_length


def least_positive_root(phi):
    # the root solver behind both bounds, without their normalization
    return landau._decreasing_root(phi)[0]


def _grid_bracket(phi, n=1_000_001):
    # coarse independent root bracket: first sign change on a uniform grid
    rs = np.linspace(1e-12, 1.0 - 1e-9, n)
    vals = np.asarray([phi(float(r)) for r in rs]) if not _vectorizable(phi) \
        else np.asarray(phi(rs), dtype=float)
    neg = np.nonzero(vals <= 0.0)[0]
    assert neg.size > 0 and neg[0] > 0
    i = int(neg[0])
    return float(rs[i - 1]), float(rs[i])


def _vectorizable(phi):
    try:
        out = phi(np.array([0.1, 0.2]))
    except Exception:
        return False
    return np.shape(out) == (2,)


# ---- generic root finder ----


def test_least_positive_root_on_line():
    root = least_positive_root(lambda r: 0.5 - r)
    assert abs(root - 0.5) <= 1e-12


def test_least_positive_root_requires_sign_change():
    with pytest.raises(NoSignChange):
        least_positive_root(lambda r: 1.0 + r * 0.0)


def test_least_positive_root_rejects_nonpositive_start():
    with pytest.raises(InvalidParams):
        least_positive_root(lambda r: -1.0 - r)


def test_bisection_stops_at_float_resolution():
    # a jump has no residual below ROOT_TOL, so the bracket closes on 0.3
    # and its float neighbour below, and the search stops there
    res = landau._decreasing_root(lambda r: 1.0 if r < 0.3 else -1.0)
    assert res == (0.29999999999999993, 53, (0.29999999999999993, 0.3), 1.0)
    assert math.nextafter(0.3, 0.0) == 0.29999999999999993


# ---- diameter-driven radius ----


def test_diameter_radius_quadratic_closed_form():
    # p = 1, alpha = 1, diam = 2: the majorant vanishes where
    # (1 + sqrt(2)) r^2 - (2 + 2 sqrt(2)) r + 1 = 0 (smaller root)
    res = landau_from_diameter(1, 1.0, 2.0)
    s = math.sqrt(2.0)
    aa, bb, cc = 1.0 + s, 2.0 + 2.0 * s, 1.0
    r_exact = (bb - math.sqrt(bb * bb - 4.0 * aa * cc)) / (2.0 * aa)
    assert abs(res.r_univ - r_exact) <= 1e-10
    rho_exact = r_exact * (1.0 - s * r_exact / (1.0 - r_exact))
    assert abs(res.rho_cover - rho_exact) <= 1e-10
    # sampled just inside the bracket, so equal to alpha only to ~1e-11
    assert abs(res.phi_at_zero - 1.0) <= 1e-9


def test_diameter_radius_grid_bracket():
    for p, alpha, diam in ((1, 1.0, 2.0), (2, 1.0, 0.5), (3, 2.0, 1.0)):
        res = landau_from_diameter(p, alpha, diam)

        def phi(r, p=p, alpha=alpha, diam=diam):
            r = np.asarray(r, dtype=float)
            c = 0.5 * math.sqrt(2.0 * p) * diam
            s = (2.0 * r - r**2) / (1.0 - r) ** 2
            for n in range(2, p + 1):
                s = s + r ** (2 * (n - 1)) / (1.0 - r) ** 2
                s = s + 2.0 * (n - 1) * r ** (2 * (n - 1)) / (1.0 - r)
            return alpha - c * s

        lo, hi = _grid_bracket(phi)
        assert lo <= res.r_univ <= hi


def test_diameter_radius_monotone_in_diameter():
    rs = [landau_from_diameter(2, 1.0, d).r_univ for d in (0.5, 1.0, 2.0, 4.0)]
    assert all(x > y for x, y in zip(rs, rs[1:]))
    rhos = [landau_from_diameter(2, 1.0, d).rho_cover for d in (0.5, 1.0, 2.0, 4.0)]
    assert all(x > 0 for x in rhos)


def test_diameter_radius_rejects_bad_params():
    with pytest.raises(InvalidParams):
        landau_from_diameter(0, 1.0, 2.0)
    with pytest.raises(InvalidParams):
        landau_from_diameter(True, 1.0, 2.0)
    with pytest.raises(InvalidParams):
        landau_from_diameter(1, 0.0, 2.0)
    with pytest.raises(InvalidDiameter):
        landau_from_diameter(1, 1.0, -2.0)


def test_diameter_radius_no_sign_change():
    with pytest.raises(NoSignChange):
        landau_from_diameter(1, 1.0, 1e-30)


# ---- length-driven radius ----


def test_length_radius_harmonic_closed_form():
    # p = 1, alpha = 1, K = 1, l1 = 2 pi: the majorant is 1 - r/(1-r),
    # so r = 1/2 and the covered radius is 1 - log 2
    res = landau_from_length(1, 1.0, 1.0, 2.0 * math.pi)
    assert abs(res.r_univ - 0.5) <= 1e-12
    assert abs(res.rho_cover - (1.0 - math.log(2.0))) <= 1e-12


def test_length_radius_scaled_alpha():
    res = landau_from_length(1, 2.0, 1.0, 2.0 * math.pi)
    assert abs(res.r_univ - 2.0 / 3.0) <= 1e-12


def test_length_radius_depth3_quartic():
    # K = 3, l1 = 6 pi: phi = 0 becomes 27 r^4 + 27 r^2 + 10 r - 1 = 0
    res = landau_from_length(3, 1.0, 3.0, 6.0 * math.pi)

    def quartic(r):
        return 27.0 * r**4 + 27.0 * r**2 + 10.0 * r - 1.0

    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if quartic(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    r_ref = 0.5 * (lo + hi)
    assert abs(res.r_univ - r_ref) <= 1e-10
    assert res.rho_cover > 0.0


def test_length_radius_grid_bracket():
    res = landau_from_length(2, 1.0, 2.0, 4.0 * math.pi)

    def phi(r):
        r = np.asarray(r, dtype=float)
        q = 2.0 * (4.0 * math.pi) / (2.0 * math.pi)
        return 1.0 - q / (1.0 - r) * (r + 3.0 * r**2)

    lo, hi = _grid_bracket(phi)
    assert lo <= res.r_univ <= hi


def test_length_radius_monotone_in_k():
    rs = [landau_from_length(1, 1.0, K, 2.0 * math.pi).r_univ
          for K in (1.0, 1.5, 2.0, 4.0)]
    assert all(x > y for x, y in zip(rs, rs[1:]))


def test_length_radius_rejects_bad_params():
    with pytest.raises(InvalidParams):
        landau_from_length(1, 1.0, 0.5, 2.0)
    with pytest.raises(InvalidParams):
        landau_from_length(1, -1.0, 1.0, 2.0)
    with pytest.raises(InvalidParams):
        landau_from_length(1, 1.0, 1.0, 0.0)


# ---- depth-2 unit-normalization case ----


def _fourgon_phi(diam):
    # the p = 2, alpha = 1 diameter majorant written out literally
    def phi(r):
        rr = np.asarray(r, dtype=float)
        one = 1.0 - rr
        return 1.0 - 2.0 * diam * (rr + rr * rr - rr * rr * rr) / (one * one)
    return phi


def _fourgon_oracle(diam):
    root = least_positive_root(_fourgon_phi(diam))
    rho = root * (1.0 - diam * (root + 2.0 * root * root) / (1.0 - root))
    return root, rho


def test_fourgon_matches_general_route():
    for diam in (0.5, 1.0, 2.0, 6.0):
        root, rho = _fourgon_oracle(diam)
        b = landau_from_diameter(2, 1.0, diam)
        assert abs(root - b.r_univ) <= 1e-9
        assert abs(rho - b.rho_cover) <= 1e-9


def test_fourgon_grid_bracket():
    res = landau_from_diameter(2, 1.0, 1.0)
    lo, hi = _grid_bracket(_fourgon_phi(1.0))
    assert lo <= res.r_univ <= hi


def test_fourgon_no_sign_change():
    with pytest.raises(NoSignChange):
        least_positive_root(_fourgon_phi(1e-30))
    with pytest.raises(NoSignChange):
        landau_from_diameter(2, 1.0, 1e-30)


# ---- residual quality ----


def test_root_residual_invariant():
    cases = [
        landau_from_diameter(1, 1.0, 2.0),
        landau_from_diameter(3, 1.0, 1.0),
        landau_from_length(1, 1.0, 1.0, 2.0 * math.pi),
        landau_from_length(3, 1.0, 3.0, 6.0 * math.pi),
        landau_from_diameter(2, 1.0, 2.0),
    ]
    for res in cases:
        assert isinstance(res, LandauResult)
        lo, hi = res.bracket
        assert hi - lo <= 1e-11
        assert lo <= res.r_univ <= hi
        assert 0.0 < res.r_univ < 1.0
        assert res.iterations > 0


# ---- the radius returned is certified ----


def _solve_recording_phi(monkeypatch, bound, *args):
    # the majorant the bound solves, taken from the root solver's call
    seen = []
    inner = landau._decreasing_root

    def recorded(phi):
        seen.append(phi)
        return inner(phi)

    monkeypatch.setattr(landau, "_decreasing_root", recorded)
    return bound(*args), seen[0]


def _landau_inputs():
    from polyharm import catalog, geometry
    from polyharm.core import dilatation, quasiregularity_constant
    from polyharm.errors import DegenerateMap
    for F in (catalog.identity(), catalog.f2(), catalog.f0(9), catalog.f1(9),
              catalog.monomial(2, 3, 0.5), catalog.linear(1.0, 0.3)):
        alpha = float(dilatation(F, 0.0).lambda_small)
        try:
            K = quasiregularity_constant(F)
        except DegenerateMap:
            K = None
        yield F.p, alpha, geometry.diameter_estimate(F), K, geometry.sup_length(F)
    rng = np.random.default_rng(97)
    for _ in range(40):
        yield (int(rng.integers(1, 5)), float(rng.uniform(0.2, 3.0)),
               float(rng.uniform(0.1, 10.0)), float(rng.uniform(1.0, 5.0)),
               float(rng.uniform(0.5, 20.0)))


def test_radius_lies_where_the_majorant_is_positive(monkeypatch):
    # r_univ is the largest probed radius with phi > 0, so it never lies
    # above the least root; the bracket's hi end has phi <= 0
    solved = 0
    for p, alpha, diam, K, l1 in _landau_inputs():
        runs = [(landau_from_diameter, (p, alpha, diam))]
        if K is not None:
            runs.append((landau_from_length, (p, alpha, K, l1)))
        for bound, args in runs:
            try:
                res, phi = _solve_recording_phi(monkeypatch, bound, *args)
            except (NoSignChange, InvalidParams):
                continue
            lo, hi = res.bracket
            assert lo <= res.r_univ <= hi
            assert float(phi(res.r_univ)) > 0.0
            assert float(phi(hi)) <= 0.0
            solved += 1
    assert solved >= 40


def test_overflowing_majorants_warn_nothing():
    # phi overflows to -inf near r = 1 for these inputs; the solver reads
    # only its sign, and numpy's overflow warnings stay off stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert landau_from_diameter(1, 1e300, 1e299).rho_cover > 0.0
        assert landau_from_length(3, 1e300, 1e10, 1e290).rho_cover > 0.0


def test_majorants_strictly_decrease(monkeypatch):
    # the root solver takes the decrease on trust; both public majorants
    # are alpha minus a positive multiple of terms increasing in r
    grid = np.linspace(landau.BRACKET_LO, landau.BRACKET_HI, 1024)
    checked, depths = 0, set()
    for p, alpha, diam, K, l1 in _landau_inputs():
        runs = [(landau_from_diameter, (p, alpha, diam))]
        if K is not None:
            runs.append((landau_from_length, (p, alpha, K, l1)))
        for bound, args in runs:
            try:
                _, phi = _solve_recording_phi(monkeypatch, bound, *args)
            except (NoSignChange, InvalidParams):
                continue
            vals = np.asarray(phi(grid), dtype=float)
            assert np.all(np.isfinite(vals))
            assert np.all(np.diff(vals) < 0.0), (bound.__name__, args)
            checked += 1
            depths.add(p)
    assert checked >= 40 and depths == {1, 2, 3, 4}
