import math

import numpy as np
import pytest

from polyharm import catalog
from polyharm.certificates import (
    Margin,
    area_schwarz,
    arg_condition,
    diameter_coefficient_bounds,
    hadamard_three_circles,
    length_coefficient_bounds,
    three_circles_area,
)
from polyharm.core import CoefficientTable, PolyharmonicMap, evaluate
from polyharm.errors import InvalidDiameter, InvalidParams, NotAnalytic
from polyharm.geometry import area_series, diameter_estimate

from _gen import random_analytic_poly, random_area_cond_map


def _table(p, J, terms):
    return PolyharmonicMap(CoefficientTable.from_terms(p, J, terms))


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
    assert rep.worst().check_id.startswith("modulus")


def test_arg_condition_ignores_dead_entries():
    # an aligned-but-negligible coefficient must not create a pair
    t = _table(2, 1, [(1, 1, 1.0, 0.0), (2, 1, -1e-18, 0.0)])
    rep = arg_condition(t, "length")
    assert rep.verdict == "pass" and len(rep.margins) == 0


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
    with pytest.raises(InvalidDiameter):
        diameter_coefficient_bounds(catalog.identity(), 0.0)
    with pytest.raises(InvalidDiameter):
        diameter_coefficient_bounds(catalog.identity(), math.inf)


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
    with pytest.raises(InvalidParams):
        three_circles_area(catalog.identity(), 0.3, -0.1)
    with pytest.raises(InvalidParams):
        three_circles_area(catalog.identity(), 0.3, 0.09, n_grid=0)


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
    assert rep.worst().slack > 0.0


def test_hadamard_rejects_non_analytic():
    with pytest.raises(NotAnalytic):
        hadamard_three_circles(catalog.f2(), 0.3, 0.9)
    with pytest.raises(NotAnalytic):
        hadamard_three_circles(catalog.linear(1.0, 0.5), 0.3, 0.9)


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


def test_area_schwarz_grid_validation():
    # two radii are the fewest that test one monotonicity step
    with pytest.raises(InvalidParams):
        area_schwarz(catalog.identity(), n_grid=1)
    with pytest.raises(InvalidParams):
        area_schwarz(catalog.identity(), n_grid=0)
    assert area_schwarz(catalog.identity(), n_grid=2).verdict == "pass"


# ---- report plumbing ----


def test_margin_worst_and_witnesses():
    rep = diameter_coefficient_bounds(catalog.monomial(1, 3, 1.0), 2.0)
    worst = rep.worst()
    assert isinstance(worst, Margin)
    assert worst.slack == min(m.slack for m in rep.margins)
    assert rep.witnesses  # the binding margin is always reported
    assert rep.witnesses[0]["slack"] == worst.slack
