import math
import warnings

import numpy as np
import pytest

from polyharm import catalog
from polyharm.core import PolyharmonicMap, evaluate, ring_values
from polyharm.errors import InvalidParams, OutsideDomain
from polyharm import metrics
from polyharm.metrics import (
    N_BOUNDARY,
    contraction_check,
    harmonic_lipschitz_check,
    j_metric,
    mobius_j_distortion,
    psi_profile,
)

from _gen import coefficient_sum_counterexample, random_harmonic_poly, random_sum_normalized

# ---- the metric itself ----


def test_j_metric_pinned_values():
    assert abs(j_metric(0.0, 0.5) - math.log(2.0)) <= 1e-15
    assert abs(j_metric(0.5, -0.5) - math.log(3.0)) <= 1e-15
    assert abs(j_metric(0.0, 1.0, 2.0) - math.log(2.0)) <= 1e-15


def test_j_metric_axioms():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-0.97, 0.97, (200, 2))
    pts = [complex(x, y) for x, y in pts if math.hypot(x, y) < 0.97]
    for k in range(0, len(pts) - 1, 2):
        z, w = pts[k], pts[k + 1]
        assert j_metric(z, w) == j_metric(w, z)
        assert j_metric(z, w) > 0.0
        assert j_metric(z, z) == 0.0


def test_j_metric_triangle_inequality():
    rng = np.random.default_rng(17)
    n = 10_000
    zs = (rng.uniform(-0.97, 0.97, (3, n))
          + 1j * rng.uniform(-0.97, 0.97, (3, n)))
    keep = np.all(np.abs(zs) < 0.97, axis=0)
    z1, z2, z3 = zs[0, keep], zs[1, keep], zs[2, keep]
    for a, b, c in zip(z1, z2, z3):
        lhs = j_metric(complex(a), complex(c))
        rhs = j_metric(complex(a), complex(b)) + j_metric(complex(b), complex(c))
        assert lhs <= rhs + 1e-12


def test_j_metric_domain_guard():
    with pytest.raises(OutsideDomain):
        j_metric(1.0, 0.0)
    with pytest.raises(InvalidParams):
        j_metric(0.0, 0.0, -1.0)


@pytest.mark.parametrize("z, w", [(complex("nan"), 0.0), (0.5, float("nan")),
                                  (0.0, complex(0.0, float("nan")))], ids=["z", "w", "w-imag"])
def test_j_metric_refuses_a_nan_point(z, w):
    # a NaN compares false with the radius, so it is refused, not measured
    with pytest.raises(OutsideDomain):
        j_metric(z, w)


# ---- sampler ----


def test_pair_sampler_is_deterministic():
    z1, w1 = metrics._pairs(7)
    z2, w2 = metrics._pairs(7)
    assert np.array_equal(z1, z2) and np.array_equal(w1, w2)
    assert z1.size == metrics.N_RANDOM + metrics.N_RAY
    assert np.all(np.abs(z1) < 1.0) and np.all(np.abs(w1) < 1.0)


def test_pair_values_are_drawn_once_per_map_and_seed_and_read_only():
    F = catalog.identity()
    got = metrics._pair_values(F, 7)
    assert metrics._pair_values(F, 7) is got
    z, w = metrics._pairs(7)
    want = (z, w, evaluate(F, z), evaluate(F, w))
    assert all(np.array_equal(g, v) for g, v in zip(got, want))
    for v in got:
        with pytest.raises(ValueError):
            v[0] = 0.0
    assert metrics._pair_values(F, 8)[0][0] != z[0]
    assert metrics._pair_values(catalog.identity(), 7) is not got


def test_a_map_keeps_one_pair_draw():
    # a new seed replaces the draw of the last one, so a loop over seeds on
    # one map holds one draw
    F = catalog.identity()
    first = metrics._pair_values(F, 7)
    assert metrics._pair_values(F, 8) is not first
    again = metrics._pair_values(F, 7)
    assert again is not first and np.array_equal(again[2], first[2])
    assert [len(entries) for entries in F.__dict__["_store"].values()] == [1]


# ---- contraction ----


def test_contraction_identity_is_isometry():
    rep = contraction_check(catalog.identity(), 1.0)
    assert rep.verdict == "pass"
    assert rep.worst_margin.lhs == 1.0 and rep.worst_margin.rhs == 1.0
    assert rep.samples == rep.count == 512 + 64


def test_contraction_cubic_is_sharp():
    # |z|^2 z: the ray pairs push the ratio to 1 from below
    rep = contraction_check(catalog.monomial(2, 1, 1.0), 1.0)
    assert rep.verdict == "pass"
    assert 0.999 <= rep.worst_margin.lhs <= 1.0 + 1e-9


def test_contraction_f2_into_triple_disk():
    rep = contraction_check(catalog.f2(), 3.0)
    assert rep.verdict == "pass"
    assert rep.worst_margin.lhs <= 1.0 + 1e-9
    assert rep.extras["coefficient_sum"] == 3.0


def test_contraction_random_normalized_maps():
    rng = np.random.default_rng(29)
    for _ in range(30):
        F = random_sum_normalized(rng)
        rep = contraction_check(F, 1.0)
        assert rep.verdict == "pass"
        assert rep.worst_margin.lhs <= 1.0 + 1e-9


def test_contraction_hypothesis_gate():
    rep = contraction_check(catalog.linear(1.0, 0.5), 1.2)
    assert rep.verdict == "hypotheses-not-met"
    assert rep.worst_margin is None and rep.samples == 0


def test_contraction_sum_condition_is_not_necessary():
    # coefficient sum 1.01 forces the gate even though the image stays
    # inside the unit disk; the gate is about the hypothesis, not the map
    F = coefficient_sum_counterexample()
    rep = contraction_check(F, 1.0)
    assert rep.verdict == "hypotheses-not-met"
    th = 2.0 * np.pi * np.arange(4096) / 4096
    assert float(np.abs(F(np.exp(1j * th))).max()) < 0.9


def test_contraction_rejects_bad_target():
    with pytest.raises(InvalidParams):
        contraction_check(catalog.identity(), 0.0)


def test_contraction_reasons():
    # the zero map's coefficient sum, 0, is a target radius with no disk
    zero = catalog.monomial(1, 1, 0.0)
    for F, M, reason in ((zero, 0.0, "zero map has no target disk"),
                         (catalog.linear(1.0, 0.5), 1.2,
                          "coefficient sum exceeds the target radius")):
        rep = contraction_check(F, M)
        assert rep.verdict == "hypotheses-not-met"
        assert rep.extras["reason"] == reason and rep.samples == 0
    for M in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidParams):
            contraction_check(zero, M)


# ---- harmonic polynomial Lipschitz bound ----


def test_harmonic_check_identity():
    rep = harmonic_lipschitz_check(catalog.identity())
    assert rep.verdict == "pass"
    assert rep.extras["degree"] == 1
    assert abs(rep.extras["bound"] - 0.5 * math.sqrt(2.0) * math.pi) <= 1e-15
    assert rep.extras["sup_ratio"] <= 1.0 + 1e-12
    assert rep.extras["parseval_sum"] == 1.0
    # the pairs, then the Parseval and coefficient sums; Parseval is tight
    assert rep.count == 512 + 64 + 2
    assert (rep.worst_margin.check_id, rep.worst_margin.slack) == ("parseval sum", 0.0)


def test_harmonic_check_counterexample_map_passes():
    # the large coefficient sum is fine here: the degree-2 budget is 2
    rep = harmonic_lipschitz_check(coefficient_sum_counterexample())
    assert rep.verdict == "pass"
    assert rep.extras["degree"] == 2
    assert abs(rep.extras["coefficient_sum"] - 1.01) <= 1e-15
    assert rep.extras["schwarz_envelope_violations"] == 0


def test_harmonic_check_random_scaled_polys():
    rng = np.random.default_rng(37)
    for _ in range(30):
        F = random_harmonic_poly(rng)
        rep = harmonic_lipschitz_check(F)
        assert rep.verdict == "pass"
        assert rep.extras["sup_ratio"] <= rep.extras["bound"] + 1e-9


def test_harmonic_check_guards():
    # each unmet hypothesis is a verdict with its reason, and no pair is
    # sampled; Re z = linear(0.5, 0.5) reaches |F| = 1 only at the samples
    # z = +-1, but the upper end of its boundary enclosure lies above 1
    for F, reason in ((catalog.f2(), "table has more than one layer"),
                      (catalog.linear(2.0, 0.0), "map does not send the disk into itself"),
                      (catalog.linear(0.5, 0.5), "map does not send the disk into itself")):
        rep = harmonic_lipschitz_check(F)
        assert rep.verdict == "hypotheses-not-met"
        assert rep.extras["reason"] == reason
        assert rep.worst_margin is None and rep.samples == 0


def _leaves_between_samples():
    # z^512 / sqrt(2) + i conj(z)^512 / sqrt(2): |F|^2 = 1 + sin(1024 theta)
    # on |z| = 1, so |F| reads 1 at all 2048 angles of the old boundary
    # sample but reaches sqrt(2) between them
    J = 512
    a, b = np.zeros((1, J), complex), np.zeros((1, J), complex)
    a[0, -1], b[0, -1] = 1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)
    return PolyharmonicMap(1, J, a, b)


def test_harmonic_check_refuses_a_map_that_leaves_the_disk_between_samples(capfd):
    F = _leaves_between_samples()
    assert abs(np.abs(ring_values(F, [1.0], N_BOUNDARY)).max() - 1.0) <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = harmonic_lipschitz_check(F)
    assert rep.verdict == "hypotheses-not-met"
    assert sorted(rep.extras) == ["boundary_sup", "degree", "reason"]
    assert rep.extras["reason"] == "map does not send the disk into itself"
    assert rep.extras["degree"] == 512
    # 16384 = 32 * 512 samples hit the peaks
    assert abs(rep.extras["boundary_sup"] - math.sqrt(2.0)) <= 1e-12
    assert capfd.readouterr().err == ""


def test_harmonic_check_refuses_a_pair_point_outside_the_disk(monkeypatch):
    # with the boundary enclosure out of the way, the pair points' own
    # images still refuse the hypothesis before any ratio is taken
    monkeypatch.setattr(metrics, "_circle_range", lambda *args: (-math.inf, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = harmonic_lipschitz_check(_leaves_between_samples())
    assert rep.verdict == "hypotheses-not-met"
    assert rep.extras["reason"] == "map does not send the disk into itself"


def test_harmonic_check_boundary_samples_grow_with_the_degree(monkeypatch):
    counts = []
    inner = metrics.ring_values

    def recorded(F, radii, n):
        counts.append(n)
        return inner(F, radii, n)

    monkeypatch.setattr(metrics, "ring_values", recorded)
    for J, n in ((1, 2048), (64, 2048), (65, 4096), (100, 4096), (129, 8192)):
        a = np.zeros((1, J), complex)
        a[0, -1] = 0.5
        harmonic_lipschitz_check(PolyharmonicMap(1, J, a, np.zeros((1, J), complex)))
        assert counts.pop() == n


# ---- envelope comparison profile ----


def test_psi_profile_shape():
    grid = np.linspace(0.0, 1.0 - 1e-6, 1024)
    psi = psi_profile(grid)
    assert psi.shape == grid.shape
    assert psi[0] == 1.0
    assert np.all(np.diff(psi) > 0.0)
    assert np.all(psi < math.pi / 2.0)
    assert psi[-1] > 1.57


def test_psi_profile_domain():
    with pytest.raises(InvalidParams):
        psi_profile(np.array([0.0, 1.0]))


# ---- disk automorphisms ----


def test_mobius_rotation_is_isometry():
    rep = mobius_j_distortion(0.0)
    assert rep.verdict == "pass"
    assert rep.worst_margin.lhs == 1.0


def test_mobius_distortion_bounded_by_two():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = rng.uniform(0.0, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        rep = mobius_j_distortion(complex(a))
        assert rep.verdict == "pass"
        assert rep.worst_margin.lhs <= 2.0 + 1e-9


def test_mobius_distortion_not_trivial():
    # a genuine shift does distort: the sup stays clearly above 1
    rep = mobius_j_distortion(0.6)
    assert rep.worst_margin.lhs > 1.1


def test_mobius_rejects_boundary_parameter():
    with pytest.raises(InvalidParams):
        mobius_j_distortion(1.0)


def test_mobius_takes_no_angle():
    # the former rotation angle was the second positional parameter; the
    # seed is keyword-only, so an old call cannot become a different seed
    with pytest.raises(TypeError):
        mobius_j_distortion(0.5, 3)
    assert mobius_j_distortion(0.5, seed=3).extras == {"a": (0.5, 0.0)}


_SEEDED = {
    "contraction": lambda seed: contraction_check(catalog.linear(0.5, 0), 1.0, seed=seed),
    "harmonic": lambda seed: harmonic_lipschitz_check(catalog.linear(0.5, 0), seed=seed),
    "mobius": lambda seed: mobius_j_distortion(0.5, seed=seed),
}


_BAD_SEEDS = {"-1": -1, "2.5": 2.5, "bool": True, "str": "7"}


# the last two calls fail their hypotheses, which are read after the seed
@pytest.mark.parametrize("check, seed", [pytest.param(_SEEDED[c], s, id=f"{k}-{c}")
                                         for k, s in _BAD_SEEDS.items() for c in sorted(_SEEDED)]
                         + [pytest.param(lambda seed: contraction_check(catalog.linear(1, 0.5), 1.2,
                                                                        seed=seed),
                                         -1, id="-1-contraction-unmet"),
                            pytest.param(lambda seed: harmonic_lipschitz_check(catalog.f2(),
                                                                               seed=seed),
                                         "7", id="str-harmonic-unmet")])
def test_checks_refuse_a_seed_that_is_no_count(check, seed):
    # True would run as seed 1; the others died in numpy's own errors
    with pytest.raises(InvalidParams, match="seed must be an integer >= 0, got "):
        check(seed)


@pytest.mark.parametrize("check", sorted(_SEEDED))
def test_checks_take_a_numpy_integer_seed(check):
    assert _SEEDED[check](np.int64(3)).worst_margin == _SEEDED[check](3).worst_margin


@pytest.mark.parametrize("theta", [0.7, 2.5, -1.0])
def test_mobius_distortion_is_rotation_invariant(theta):
    # j depends on |z - w| and max(|z|, |w|) only, so a rotation after the
    # automorphism changes no ratio beyond rounding
    a = 0.6 - 0.2j
    z, w = metrics._pairs(7)

    def j(u, v):
        return np.log1p(np.abs(u - v) / (1.0 - np.maximum(np.abs(u), np.abs(v))))

    def mob(q):
        return np.exp(1j * theta) * (q - a) / (1.0 - np.conj(a) * q)

    rotated = float(np.max(j(mob(z), mob(w)) / j(z, w)))
    assert rotated == pytest.approx(mobius_j_distortion(a).worst_margin.lhs, rel=1e-14)
