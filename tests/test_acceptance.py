"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``[PASS] criterion NN`` or ``[FAIL] criterion NN`` line (visible under
``pytest -s``); the assertions themselves carry the tolerances.
"""

import json
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

from polyharm import catalog, mapspec
from polyharm.certificates import (
    area_schwarz,
    arg_condition,
    diameter_coefficient_bounds,
    length_coefficient_bounds,
    three_circles_area,
)
from polyharm.cli import main as cli_main
from polyharm.core import (
    build_map,
    dilatation,
    evaluate,
    quasiregularity_constant,
    scale_map,
    wirtinger,
)
from polyharm.geometry import area_quadrature, area_series, sup_length
from polyharm.landau import landau_from_diameter, landau_from_length
from polyharm.metrics import (
    contraction_check,
    harmonic_lipschitz_check,
    mobius_j_distortion,
    psi_profile,
)
from polyharm.render import render_paths

from _gen import (
    random_area_cond_map,
    random_harmonic_poly,
    random_map,
    random_sum_normalized,
)


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        sys.stdout.write("[FAIL] criterion %02d: %s\n" % (num, text))
        raise
    sys.stdout.write("[PASS] criterion %02d: %s\n" % (num, text))


def test_criterion_01_derivatives_match_finite_differences():
    with criterion(1, "closed-form derivatives vs central differences"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1001)
        h = 1e-5
        for _ in range(100):
            F = random_map(rng)
            z = rng.uniform(-0.65, 0.65, 20) + 1j * rng.uniform(-0.65, 0.65, 20)
            fz, fzb = wirtinger(F, z)
            fx = (evaluate(F, z + h) - evaluate(F, z - h)) / (2.0 * h)
            fy = (evaluate(F, z + 1j * h) - evaluate(F, z - 1j * h)) / (2.0 * h)
            assert np.allclose(fz, 0.5 * (fx - 1j * fy), rtol=1e-6, atol=1e-6)
            assert np.allclose(fzb, 0.5 * (fx + 1j * fy), rtol=1e-6, atol=1e-6)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_02_area_series_matches_quadrature():
    with criterion(2, "closed-form area series vs radial-angular quadrature"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1002)
        for _ in range(100):
            F = random_map(rng)
            for r in (0.3, 0.6, 0.9):
                s = area_series(F, r)
                q = area_quadrature(F, r)
                assert abs(s - q) <= 1e-8 * (1.0 + abs(s))
        assert time.perf_counter() - t0 < 60.0


def test_criterion_03_depth3_chain_quantities():
    with criterion(3, "depth-3 chain: K, boundary length, margins, radii"):
        F = catalog.f2()
        K = quasiregularity_constant(F)
        assert abs(K - 3.0) <= 1e-6
        l1 = sup_length(F)
        assert abs(l1 - 6.0 * math.pi) <= 1e-8
        rep = length_coefficient_bounds(F, 3.0, 6.0 * math.pi)
        assert rep.verdict == "pass"
        for n in (1, 2, 3):
            got = [m for m in rep.margins
                   if m.check_id == "|a|+|b| n=%d j=1" % n][0]
            assert abs(got.slack - (9.0 / n - 1.0)) <= 1e-8
        res = landau_from_length(3, 1.0, 3.0, 6.0 * math.pi)
        lo, hi = 0.0, 0.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 27.0 * mid**4 + 27.0 * mid**2 + 10.0 * mid - 1.0 > 0.0:
                hi = mid
            else:
                lo = mid
        assert abs(res.r_univ - 0.5 * (lo + hi)) <= 1e-10
        assert res.rho_cover > 0.0


def test_criterion_04_radius_closed_forms():
    with criterion(4, "univalence radii against closed forms"):
        res_d = landau_from_diameter(1, 1.0, 2.0)
        s = math.sqrt(2.0)
        aa, bb = 1.0 + s, 2.0 + 2.0 * s
        r_exact = (bb - math.sqrt(bb * bb - 4.0 * aa)) / (2.0 * aa)
        assert abs(res_d.r_univ - r_exact) <= 1e-10
        rho_exact = r_exact * (1.0 - s * r_exact / (1.0 - r_exact))
        assert abs(res_d.rho_cover - rho_exact) <= 1e-10
        res_l = landau_from_length(1, 1.0, 1.0, 2.0 * math.pi)
        assert abs(res_l.r_univ - 0.5) <= 1e-12
        assert abs(res_l.rho_cover - (1.0 - math.log(2.0))) <= 1e-12


def test_criterion_05_zero_slack_cases():
    with criterion(5, "equality cases certify with zero slack"):
        for n in (1, 2, 3, 5):
            rep = diameter_coefficient_bounds(catalog.monomial(1, n, 1.0), 2.0)
            assert rep.verdict == "pass"
            tight = [m for m in rep.margins if m.check_id == "sum|a| j=%d" % n][0]
            assert tight.slack == 0.0
        rep = length_coefficient_bounds(catalog.identity(), 1.0, 2.0 * math.pi)
        assert rep.verdict == "pass"
        assert rep.margins[0].slack == 0.0
        rep = three_circles_area(catalog.linear(math.sqrt(2.0), 1.0), 0.5, 0.25)
        assert rep.verdict == "pass"
        assert max(abs(m.slack) for m in rep.margins) <= 1e-9
        rep = three_circles_area(catalog.identity(), 0.3, 0.09)
        assert rep.verdict == "pass"
        assert max(abs(m.slack) for m in rep.margins) <= 1e-9


def test_criterion_06_three_circles_equality_family():
    with criterion(6, "power maps are equality cases of the growth bound"):
        grid = np.linspace(0.3, 1.0 - 1e-6, 50)
        for k in (1, 2, 3, 5):
            F = catalog.monomial(1, k, 1.0 / math.sqrt(k))
            m = float(area_series(F, 0.3))
            s = np.atleast_1d(area_series(F, grid))
            bound = np.exp(math.log(m) * np.log(grid) / math.log(0.3))
            assert np.max(np.abs(s - bound)) <= 1e-12


def test_criterion_07_area_ratio_monotonicity():
    with criterion(7, "area ratio phi never decreases under the angle condition"):
        rng = np.random.default_rng(1007)
        for _ in range(200):
            rep = area_schwarz(random_area_cond_map(rng))
            assert rep.verdict == "pass"
        F = catalog.builtin("form37", {"eta": 1.0, "zeta2": {"1": 1.0}})
        rep = area_schwarz(F)
        assert rep.extras["classification"] == "constant"
        assert abs(rep.extras["phi_min"] - 1.0) <= 1e-10
        assert abs(rep.extras["phi_max"] - 1.0) <= 1e-10
        zs = (np.linspace(-0.9, 0.9, 10)[:, None]
              + 1j * np.linspace(-0.9, 0.9, 10)[None, :]).ravel()
        want = zs + 1j * np.abs(zs) ** 2 * (zs + np.conj(zs))
        assert np.max(np.abs(evaluate(F, zs) - want)) <= 1e-13
        G = catalog.monomial(1, 2, 1.0)
        rep = area_schwarz(G)
        assert rep.extras["classification"] == "strictly-increasing"
        grid = np.linspace(0.05, 0.95, 19)
        phi = np.atleast_1d(area_series(G, grid)) / grid**2
        assert np.max(np.abs(phi - 2.0 * grid**2)) <= 1e-12


def test_criterion_08_unit_area_budget_schwarz():
    with criterion(8, "unit-area normalization forces S(r) <= r^2"):
        rng = np.random.default_rng(1008)
        grid = np.linspace(0.01, 0.999, 100)
        for _ in range(50):
            F = random_area_cond_map(rng)
            G = scale_map(F, 1.0 / math.sqrt(float(area_series(F, 1.0))))
            s = np.atleast_1d(area_series(G, grid))
            assert np.all(s <= grid**2 + 1e-9)


def test_criterion_09_metric_contraction_family():
    with criterion(9, "distance-ratio metric bounds across map families"):
        rng = np.random.default_rng(1009)
        for _ in range(100):
            rep = contraction_check(random_sum_normalized(rng), 1.0)
            assert rep.verdict == "pass"
            assert rep.worst_margin.lhs <= 1.0 + 1e-9
        rep = contraction_check(catalog.monomial(2, 1, 1.0), 1.0)
        assert rep.worst_margin.lhs >= 0.999
        for _ in range(100):
            rep = harmonic_lipschitz_check(random_harmonic_poly(rng))
            assert rep.verdict == "pass"
            assert rep.extras["sup_ratio"] <= rep.extras["bound"] + 1e-9
        psi = psi_profile(np.linspace(0.0, 1.0 - 1e-6, 1024))
        assert psi[0] == 1.0
        assert np.all(np.diff(psi) > 0.0)
        assert np.all(psi < math.pi / 2.0)
        for _ in range(20):
            a = rng.uniform(0.0, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            rep = mobius_j_distortion(complex(a))
            assert rep.worst_margin.lhs <= 2.0 + 1e-9


def test_criterion_10_square_image_truncation():
    with criterion(10, "square-image truncation: stretch, angles, rendering"):
        F = catalog.f1()
        assert abs(dilatation(F, 0.0).lambda_small - 1.0) <= 1e-12
        rep = arg_condition(F, "diameter")
        assert rep.verdict == "pass"
        assert len(rep.margins) > 0
        assert all(m.slack == 0.0 for m in rep.margins)
        paths = render_paths(F)
        bx, by = paths["boundary"].real, paths["boundary"].imag
        lo_x, hi_x = bx.min() - 1e-6, bx.max() + 1e-6
        lo_y, hi_y = by.min() - 1e-6, by.max() + 1e-6
        for group in ("rings", "rays"):
            for path in paths[group]:
                assert np.all(path.real >= lo_x) and np.all(path.real <= hi_x)
                assert np.all(path.imag >= lo_y) and np.all(path.imag <= hi_y)


def test_criterion_11_cli_round_trip_and_exit_codes(tmp_path, capsys):
    with criterion(11, "mapping files round-trip; CLI exit codes 0/1/2"):
        rng = np.random.default_rng(1011)
        F = random_map(rng)
        spec = mapspec.from_map(F)
        path = tmp_path / "rt.map"
        mapspec.dump(spec, path)
        again = mapspec.load(path)
        assert again == spec
        G = build_map(again)
        assert np.array_equal(G.a, F.a)
        assert np.array_equal(G.b, F.b)

        f2_path = tmp_path / "f2.map"
        mapspec.dump(mapspec.loads('{"builtin": "f2"}'), f2_path)
        assert cli_main(["verify", "--map", str(f2_path)]) == 0
        first = capsys.readouterr().out
        assert cli_main(["verify", "--map", str(f2_path)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["summary"]["exit_code"] == 0

        big = tmp_path / "big.map"
        big.write_text('{"p": 1, "J": 2, "terms": ['
                       '{"n": 1, "j": 1, "a": [1, 0]},'
                       '{"n": 1, "j": 2, "a": [10, 0]}]}', encoding="utf-8")
        assert cli_main(["verify", "--map", str(big), "--K", "1.0",
                         "--l1", "6.283185307179586"]) == 1
        mis = tmp_path / "mis.map"
        mis.write_text('{"p": 2, "J": 1, "terms": ['
                       '{"n": 1, "j": 1, "a": [1, 0]},'
                       '{"n": 2, "j": 1, "a": [-1, 0]}]}', encoding="utf-8")
        assert cli_main(["schwarz", "--map", str(mis)]) == 2
        capsys.readouterr()
