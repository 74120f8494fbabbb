import cmath
import math
import tracemalloc

import numpy as np
import pytest

from polyharm import catalog, certificates
from polyharm.certificates import (
    ANGLE_TOL,
    ZERO_COEFF_REL,
    Margin,
    area_schwarz,
    arg_condition,
    diameter_coefficient_bounds,
    hadamard_three_circles,
    length_coefficient_bounds,
    three_circles_area,
)
from polyharm.core import PolyharmonicMap, evaluate
from polyharm.errors import InvalidDiameter, InvalidParams, NotAnalytic
from polyharm.geometry import area_series, diameter_estimate
from polyharm.report import check_to_dict, render_json

from _gen import conjugate_map, random_analytic_poly, random_area_cond_map, random_map


def _table(p, J, terms):
    return PolyharmonicMap.from_terms(p, J, terms)


_MISALIGNED = _table(2, 1, [(1, 1, 1.0, 0.0), (2, 1, -1.0, 0.0)])  # a-pair at pi


# ---- angle conditions ----


def test_arg_condition_kinds_on_aligned_map():
    F = catalog.f2()
    for kind in ("diameter", "length", "area"):
        rep = arg_condition(F, kind)
        assert rep.verdict == "pass"
    # all entries real positive: every pair angle is exactly zero
    rep = arg_condition(F, "length")
    assert all(m.lhs == 0.0 for m in rep.margins)


def test_arg_condition_quarter_turn_rows_zero_slack():
    # second layer is an exact quarter turn of the first, so the diameter
    # condition holds with zero slack in every pair margin
    rep = arg_condition(catalog.f1(), "diameter")
    assert rep.verdict == "pass"
    assert len(rep.margins) > 0
    assert all(m.slack == 0.0 for m in rep.margins)


def test_arg_condition_rejects_misalignment():
    assert arg_condition(_MISALIGNED, "diameter").verdict == "fail"
    assert arg_condition(_MISALIGNED, "length").verdict == "fail"
    assert arg_condition(_MISALIGNED, "area").verdict == "fail"


def test_arg_condition_area_wants_spread_b():
    # aligned b entries break the area condition, spread ones satisfy it
    aligned = _table(2, 1, [(1, 1, 1.0, 0.5), (2, 1, 1.0, 0.5)])
    assert arg_condition(aligned, "area").verdict == "fail"
    spread = _table(2, 1, [(1, 1, 1.0, 0.5), (2, 1, 1.0, -0.5)])
    assert arg_condition(spread, "area").verdict == "pass"


def test_arg_condition_area_needs_modulus_domination():
    big_b = _table(1, 1, [(1, 1, 0.5, 1.0)])
    rep = arg_condition(big_b, "area")
    assert rep.verdict == "fail"
    assert rep.worst_margin.check_id.startswith("modulus")


def test_arg_condition_ignores_dead_entries():
    # an aligned-but-negligible coefficient must not create a pair
    t = _table(2, 1, [(1, 1, 1.0, 0.0), (2, 1, -1e-18, 0.0)])
    rep = arg_condition(t, "length")
    assert rep.verdict == "pass" and len(rep.margins) == 0


def _arg_condition_oracle(F, kind):
    # the triple loop the column blocks replaced: one Margin per layer pair,
    # the phase from cmath, then the moduli; returns the margins, the
    # indices of the failing ones by slack, and the witnesses
    cut = ZERO_COEFF_REL * F.max_coefficient()
    half = math.pi / 2.0
    margins = []

    def angle(x, y):
        ang = abs(cmath.phase(x * y.conjugate()))
        return 0.0 if ang < ANGLE_TOL else ang

    for j in range(1, F.J + 1):
        for n1 in range(1, F.p + 1):
            for n2 in range(n1 + 1, F.p + 1):
                for t, X in (("a", F.a), ("b", F.b)):
                    x, y = X[n1 - 1, j - 1], X[n2 - 1, j - 1]
                    if not (abs(x) > cut and abs(y) > cut):
                        continue
                    ang = angle(x, y)
                    cid = "%s-pair n1=%d n2=%d j=%d" % (t, n1, n2, j)
                    if kind == "length":
                        margins.append(Margin(cid, ang, 0.0, -ang, ANGLE_TOL))
                    elif kind == "diameter" or t == "a":
                        margins.append(Margin(cid, ang, half, half - ang, ANGLE_TOL))
                    else:
                        margins.append(Margin(cid, half, ang, ang - half, ANGLE_TOL))
    if kind == "area":
        for n in range(1, F.p + 1):
            for j in range(1, F.J + 1):
                a, b = F.a[n - 1, j - 1], F.b[n - 1, j - 1]
                if abs(a) > cut or abs(b) > cut:
                    margins.append(Margin("modulus n=%d j=%d" % (n, j),
                                          abs(b), abs(a), abs(a) - abs(b)))
    order = sorted(range(len(margins)), key=lambda i: margins[i].slack)
    failing = [i for i in order if margins[i].slack < -margins[i].tol]
    picked = failing + [i for i in order[:1] if i not in failing]
    return margins, failing, [margins[i] for i in picked[:16]]


def _bits(x) -> str:
    return float(x).hex()  # tells -0.0 from 0.0


def _same_margin(got, want, kind):
    # bitwise, or the angle (the lhs, or the rhs of an area b-pair) within
    # 1 ulp of the cmath one, with the other values following it
    assert got.check_id == want.check_id and got.tol == want.tol
    on_rhs = kind == "area" and want.check_id.startswith("b-pair")
    ang = want.rhs if on_rhs else want.lhs
    if _bits(got.rhs if on_rhs else got.lhs) == _bits(ang):
        assert list(map(_bits, (got.lhs, got.rhs, got.slack))) == \
            list(map(_bits, (want.lhs, want.rhs, want.slack)))
        return
    assert not want.check_id.startswith("modulus")
    for g, w, rounding in ((got.lhs, want.lhs, 0.0), (got.rhs, want.rhs, 0.0),
                           (got.slack, want.slack, np.spacing(abs(want.slack)))):
        assert abs(g - w) <= np.spacing(ang) + rounding


def _tables(rng, count):
    # _gen tables, their mirror images, real-valued ones with many equal
    # slacks (so the tie order gets tested too), and ones whose analytic
    # layers turn by less than ANGLE_TOL, which counts as aligned
    for k in range(count):
        F = random_area_cond_map(rng, p_max=5, J_max=5) if k % 3 == 0 else \
            random_map(rng, p_max=6, J_max=5)
        if k % 5 == 1:
            F = conjugate_map(F)
        if k % 4 == 2:
            F = PolyharmonicMap(F.p, F.J, np.sign(F.a.real), np.round(F.b.real))
        if k % 7 == 3:
            turn = np.exp(1j * (np.angle(F.a[:1]) + 1e-13 * np.arange(F.p)[:, None]))
            F = PolyharmonicMap(F.p, F.J, np.abs(F.a) * turn, F.b)
        yield F


def _matches_the_pair_loop(F):
    for kind in ("diameter", "length", "area"):
        # a fresh map each time: a report is reused for the same map
        rep = arg_condition(PolyharmonicMap(F.p, F.J, F.a, F.b), kind)
        margins, failing, witnesses = _arg_condition_oracle(F, kind)
        assert rep.verdict == ("fail" if failing else "pass")
        assert rep.count == rep.extras["pairs"] == len(margins)
        got = rep.margins
        assert len(got) == len(margins)
        for g, w in zip(got, margins):
            _same_margin(g, w, kind)
        if margins:  # the worst margin: the first of the smallest slacks
            _same_margin(rep.worst_margin, min(margins, key=lambda m: m.slack), kind)
        else:
            assert rep.worst_margin is None
        assert [w["check_id"] for w in rep.witnesses] == [m.check_id for m in witnesses]
        by_id = {m.check_id: m for m in got}
        assert all(_bits(w["slack"]) == _bits(by_id[w["check_id"]].slack)
                   for w in rep.witnesses)


def test_arg_condition_matches_the_pair_loop(monkeypatch):
    rng = np.random.default_rng(1913)
    short = 0
    for k, F in enumerate(_tables(rng, 330)):
        if k % 3 == 0:  # the table in one block
            monkeypatch.undo()
        else:  # blocks of 1, then of 3 or 4 first layers, so blocks interleave
            h = 1 if k % 3 == 1 else 3 + k // 3 % 2
            monkeypatch.setattr(certificates, "_PAIR_ROWS", h * F.p * F.J)
            short += h < F.p and F.p % h > 1  # a last block short of h but with pairs
        _matches_the_pair_loop(F)
    assert short >= 10


@pytest.mark.parametrize("p, J", [(20, 50), (100, 3)])
def test_arg_condition_over_blocks_with_a_short_last_one(p, J):
    # the default block size gives 16 and 54 first layers a block, so the
    # last block of each table holds only 4 and 46
    rng = np.random.default_rng(p * J)
    shape = (p, J)
    F = PolyharmonicMap(p, J, rng.normal(size=shape) + 1j * rng.normal(size=shape),
                        rng.normal(size=shape) + 1j * rng.normal(size=shape))
    h = certificates._PAIR_ROWS // (p * J)
    assert h < p and p % h > 1
    _matches_the_pair_loop(F)


def test_arg_condition_reuses_a_report_for_its_own_map_only():
    # a kind asked again of the same map gets the same report; another map,
    # even an equal one, gets its own
    rng = np.random.default_rng(1917)
    for F in _tables(rng, 40):
        G = PolyharmonicMap(F.p, F.J, F.a, F.b)
        for kind in ("area", "diameter", "area", "length"):
            rep = arg_condition(F, kind)
            assert arg_condition(F, kind) is rep
            other = arg_condition(G, kind)
            assert other is not rep
            assert render_json(check_to_dict(other)) == render_json(check_to_dict(rep))


def test_arg_condition_at_the_table_cap_keeps_no_margin_per_pair():
    # (512, 8) has 2.09 M a- and b-pairs per kind; a report keeps the count,
    # the worst margin and 16 witnesses, and the blocks stay O(p J)
    rng = np.random.default_rng(512)
    shape = (512, 8)
    F = PolyharmonicMap(512, 8, rng.normal(size=shape) + 1j * rng.normal(size=shape),
                        rng.normal(size=shape) + 1j * rng.normal(size=shape))
    tracemalloc.start()
    try:
        rep = arg_condition(F, "diameter")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert rep.count == 2 * 8 * 512 * 511 // 2
    assert rep.verdict == "fail" and len(rep.witnesses) == 16
    slacks = [w["slack"] for w in rep.witnesses]
    assert slacks == sorted(slacks) and slacks[0] == rep.worst_margin.slack


def test_arg_condition_unknown_kind():
    with pytest.raises(InvalidParams):
        arg_condition(catalog.identity(), "volume")


# ---- coefficient bounds from the diameter ----


def test_diameter_bounds_monomial_zero_slack():
    F = catalog.monomial(1, 3, 1.0)
    rep = diameter_coefficient_bounds(F, 2.0)
    assert rep.verdict == "pass"
    tight = [m for m in rep.margins if m.check_id == "sum|a| j=3"]
    assert len(tight) == 1 and tight[0].slack == 0.0


def test_diameter_bounds_f2():
    rep = diameter_coefficient_bounds(catalog.f2(), 6.0)
    assert rep.verdict == "pass"
    # sqrt(3)/2 * 6 = 3 sqrt(3) against a column sum of 3
    want = 3.0 * math.sqrt(3.0) - 3.0
    got = [m for m in rep.margins if m.check_id == "sum|a| j=1"][0]
    assert abs(got.slack - want) <= 1e-12


def test_diameter_bounds_hypothesis_gate():
    rep = diameter_coefficient_bounds(_MISALIGNED, 2.0)
    assert rep.verdict == "hypotheses-not-met"


def test_diameter_bounds_rejects_bad_diameter():
    # a zero diameter is an unmet hypothesis, tested after the angle condition
    rep = diameter_coefficient_bounds(catalog.identity(), 0.0)
    assert rep.verdict == "hypotheses-not-met"
    assert rep.extras["reason"] == "image diameter estimate is zero"
    rep = diameter_coefficient_bounds(_MISALIGNED, 0.0)
    assert rep.extras["reason"] == "layer angle condition fails"
    for diam in (math.inf, math.nan, -1.0):
        with pytest.raises(InvalidDiameter):
            diameter_coefficient_bounds(catalog.identity(), diam)


def test_diameter_bounds_poukka_consistency():
    # single-layer analytic tables: every stored modulus must fit under
    # half the measured image diameter
    rng = np.random.default_rng(61)
    for _ in range(200):
        F = random_analytic_poly(rng)
        d = diameter_estimate(F, n_radii=2, n_angles=4096)
        rep = diameter_coefficient_bounds(F, d)
        assert rep.verdict == "pass"


# ---- coefficient bounds from the boundary length ----


def test_length_bounds_identity_zero_slack():
    rep = length_coefficient_bounds(catalog.identity(), 1.0, 2.0 * math.pi)
    assert rep.verdict == "pass"
    assert rep.margins[0].slack == 0.0


def test_length_bounds_f2_margins():
    rep = length_coefficient_bounds(catalog.f2(), 3.0, 6.0 * math.pi)
    assert rep.verdict == "pass"
    for n in (1, 2, 3):
        got = [m for m in rep.margins if m.check_id == "|a|+|b| n=%d j=1" % n][0]
        assert abs(got.slack - (9.0 / n - 1.0)) <= 1e-8


def test_length_bounds_hypothesis_gate():
    assert length_coefficient_bounds(_MISALIGNED, 1.0, 2.0).verdict == "hypotheses-not-met"


def test_length_bounds_rejects_bad_params():
    with pytest.raises(InvalidParams):
        length_coefficient_bounds(catalog.identity(), 0.5, 1.0)
    with pytest.raises(InvalidParams):
        length_coefficient_bounds(catalog.identity(), 1.0, -1.0)


def test_length_bounds_without_finite_K():
    # K None (no finite constant) is tested after the alignment condition,
    # and a zero boundary length is accepted
    zero = catalog.monomial(1, 1, 0.0)
    for F, reason in ((zero, "map is degenerate on the closed disk"),
                      (_MISALIGNED, "layer alignment condition fails")):
        rep = length_coefficient_bounds(F, None, 0.0)
        assert rep.verdict == "hypotheses-not-met"
        assert rep.extras["reason"] == reason
    assert length_coefficient_bounds(zero, 1.0, 0.0).verdict == "pass"


def test_length_bounds_take_K_from_the_map():
    # K None is the map's constant, once the alignment condition holds
    rep = length_coefficient_bounds(catalog.identity(), None, 2.0 * math.pi)
    assert rep.verdict == "pass" and rep.extras["K"] == 1.0


# ---- three circles for the area series ----


def test_three_circles_linear_zero_slack():
    F = catalog.linear(math.sqrt(2.0), 1.0)
    rep = three_circles_area(F, 0.5, 0.25)
    assert rep.verdict == "pass"
    assert max(abs(m.slack) for m in rep.margins) <= 1e-9


def test_three_circles_identity_zero_slack():
    rep = three_circles_area(catalog.identity(), 0.3, 0.09)
    assert rep.verdict == "pass"
    assert max(abs(m.slack) for m in rep.margins) <= 1e-9


def test_three_circles_needs_unit_area_budget():
    # boundary area of the depth-3 chain is about 9, violating the budget
    rep = three_circles_area(catalog.f2(), 0.3, 0.5)
    assert rep.verdict == "hypotheses-not-met"
    assert rep.extras["S_near_boundary"] > 1.0


def test_three_circles_needs_angle_condition():
    assert three_circles_area(_MISALIGNED, 0.3, 0.5).verdict == "hypotheses-not-met"


def test_three_circles_rejects_bad_params():
    with pytest.raises(InvalidParams):
        three_circles_area(catalog.identity(), 1.5, 0.5)
    # 0 < m < 1 is a hypothesis, so a finite m outside it is not a bad request
    for m in (-0.1, 0.0):
        assert three_circles_area(catalog.identity(), 0.3, m).verdict == "hypotheses-not-met"
    for m in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParams):
            three_circles_area(catalog.identity(), 0.3, m)


@pytest.mark.parametrize("F, m, reason, radii", [
    (_MISALIGNED, 0.5, "area angle condition fails", []),
    (catalog.identity(), 0.0, "normalized area at r1 is not positive", []),
    (catalog.identity(), -0.1, "normalized area at r1 is not positive", []),
    (catalog.f2(), 0.5, "normalized area exceeds the unit budget", [certificates.R_EDGE]),
    (catalog.identity(), 1.0, "normalized area exceeds the unit budget",
     [certificates.R_EDGE]),
    (catalog.identity(), 0.05, "normalized area at r1 exceeds m",
     [certificates.R_EDGE, 0.3]),
], ids=["angle", "m-zero", "m-negative", "edge-area", "m-one", "area-at-r1"])
def test_three_circles_reasons_in_order(monkeypatch, F, m, reason, radii):
    # each unmet hypothesis gives its reason, and only the areas that
    # hypothesis and the ones before it need are computed
    asked = []

    def counted(F, r):
        asked.append(r)
        return area_series(F, r)

    monkeypatch.setattr(certificates, "area_series", counted)
    rep = three_circles_area(F, 0.3, m)
    assert rep.verdict == "hypotheses-not-met"
    assert rep.extras["reason"] == reason
    assert asked == radii


@pytest.mark.parametrize("m", [0.0, 1.0])
def test_three_circles_m_at_either_end_of_its_interval_is_hnm(m):
    # identity has S(r) = r^2, so every other hypothesis holds
    rep = three_circles_area(catalog.identity(), 0.3, m)
    assert rep.verdict == "hypotheses-not-met"
    assert rep.extras["m"] == m and not rep.margins


# ---- analytic three circles ----


def test_hadamard_equality_on_monomials():
    for k, c in ((1, 1.0), (2, 0.5), (4, 2.0)):
        F = catalog.monomial(1, k, c)
        rep = hadamard_three_circles(F, 0.3, 0.9)
        assert rep.verdict == "pass"
        assert max(abs(m.slack) for m in rep.margins) <= 1e-9


def test_hadamard_strict_on_truncated_exponential():
    terms = [(1, j, 1.0 / math.factorial(j), 0.0) for j in range(1, 7)]
    F = _table(1, 6, terms)
    rep = hadamard_three_circles(F, 0.2, 0.8)
    assert rep.verdict == "pass"
    assert rep.worst_margin.slack > 0.0


def test_hadamard_rejects_non_analytic():
    with pytest.raises(NotAnalytic):
        hadamard_three_circles(catalog.f2(), 0.3, 0.9)
    with pytest.raises(NotAnalytic):
        hadamard_three_circles(catalog.linear(1.0, 0.5), 0.3, 0.9)


def test_hadamard_takes_r1_up_to_the_edge():
    assert hadamard_three_circles(catalog.identity(), certificates.R_EDGE,
                                  1.0).verdict == "pass"


def test_hadamard_zero_map_and_bad_radii():
    Z = _table(1, 1, [])
    assert hadamard_three_circles(Z, 0.3, 0.9).verdict == "pass"
    with pytest.raises(InvalidParams):
        hadamard_three_circles(catalog.identity(), 0.9, 0.3)


# ---- area-ratio monotonicity ----


def test_area_schwarz_identity_constant():
    rep = area_schwarz(catalog.identity())
    assert rep.verdict == "pass"
    assert rep.extras["classification"] == "constant"
    assert rep.extras["phi_min"] == 1.0 and rep.extras["phi_max"] == 1.0
    assert rep.extras["unit_area_budget"] is True


def test_area_schwarz_square_strictly_increasing():
    rep = area_schwarz(catalog.monomial(1, 2, 1.0))
    assert rep.verdict == "pass"
    assert rep.extras["classification"] == "strictly-increasing"
    # phi(r) = 2 r^2 on the default grid endpoints
    assert abs(rep.extras["phi_min"] - 2.0 * 0.01**2) <= 1e-12
    assert abs(rep.extras["phi_max"] - 2.0 * 0.99**2) <= 1e-12
    assert rep.extras["unit_area_budget"] is False


def test_area_schwarz_mixed_quarter_turn_instance():
    F = catalog.builtin("form37", {"eta": 1.0, "zeta2": {"1": 1.0}})
    rep = area_schwarz(F)
    assert rep.verdict == "pass"
    assert rep.extras["classification"] == "constant"
    assert abs(rep.extras["phi_min"] - 1.0) <= 1e-10
    assert abs(rep.extras["phi_max"] - 1.0) <= 1e-10
    # the map really is z + i|z|^2 (z + conj(z))
    rng = np.random.default_rng(3)
    zs = rng.uniform(-0.9, 0.9, 50) + 1j * rng.uniform(-0.9, 0.9, 50)
    want = zs + 1j * np.abs(zs) ** 2 * (zs + np.conj(zs))
    got = evaluate(F, zs)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_area_schwarz_hypothesis_gate():
    assert area_schwarz(_MISALIGNED).verdict == "hypotheses-not-met"


def test_area_schwarz_random_soundness():
    rng = np.random.default_rng(67)
    for _ in range(50):
        F = random_area_cond_map(rng)
        rep = area_schwarz(F)
        assert rep.verdict == "pass"


def test_area_schwarz_unit_budget_comparison():
    from polyharm.core import scale_map

    rng = np.random.default_rng(71)
    for _ in range(10):
        F = random_area_cond_map(rng)
        G = scale_map(F, 1.0 / math.sqrt(area_series(F, 1.0)))
        rep = area_schwarz(G)
        assert rep.verdict == "pass"
        assert rep.extras["unit_area_budget"] is True
        comp = [m for m in rep.margins if m.check_id.startswith("S<=r^2")]
        assert comp and all(m.slack >= -1e-9 for m in comp)


# ---- report plumbing ----


def test_margin_worst_and_witnesses():
    rep = diameter_coefficient_bounds(catalog.monomial(1, 3, 1.0), 2.0)
    worst = rep.worst_margin
    assert isinstance(worst, Margin)
    assert worst.slack == min(m.slack for m in rep.margins)
    assert rep.witnesses  # the binding margin is always reported
    assert rep.witnesses[0]["slack"] == worst.slack


def test_a_margin_that_cannot_be_evaluated_fails():
    # a NaN lhs is no evidence that the bound holds: its slack is -inf, so
    # it is the worst margin and a failing witness, among 300 passing rows
    lhs = np.zeros(300)
    lhs[250] = math.nan
    rep = certificates._report("t", [(lambda i: "row %d" % i, np.arange(300), lhs, 1.0,
                                      1e-9)])
    assert rep.verdict == "fail" and rep.count == 300
    assert rep.worst_margin.check_id == "row 250" and rep.worst_margin.slack == -math.inf
    assert rep.witnesses == ({"check_id": "row 250", "slack": -math.inf},)
