import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyharm import catalog, core
from polyharm._search import zoom_max
from polyharm.core import (
    MAX_TABLE_ENTRIES,
    PolyharmonicMap,
    build_map,
    dilatation,
    evaluate,
    jacobian,
    quasiregularity_constant,
    ring_values,
    ring_wirtinger,
    scale_map,
    wirtinger,
)
from polyharm.errors import DegenerateMap, MalformedSpec

from _gen import conjugate_map, random_map


def _fd_wirtinger(F, z, h=1e-5):
    # central differences in x and y, combined into the complex derivatives
    fx = (evaluate(F, z + h) - evaluate(F, z - h)) / (2.0 * h)
    fy = (evaluate(F, z + 1j * h) - evaluate(F, z - 1j * h)) / (2.0 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


# ---- table construction ----


def test_table_shape_and_freeze():
    F = PolyharmonicMap(2, 3, np.zeros((2, 3), complex), np.zeros((2, 3), complex))
    assert F.p == 2 and F.J == 3 and F.label == ""
    with pytest.raises(Exception):
        F.a[0, 0] = 1.0  # arrays are read-only


def test_table_rejects_bad_shapes():
    with pytest.raises(MalformedSpec):
        PolyharmonicMap(0, 1, np.zeros((0, 1), complex), np.zeros((0, 1), complex))
    with pytest.raises(MalformedSpec):
        PolyharmonicMap(2, 2, np.zeros((2, 1), complex), np.zeros((2, 2), complex))
    bad = np.zeros((1, 1), complex)
    bad[0, 0] = np.nan
    with pytest.raises(MalformedSpec):
        PolyharmonicMap(1, 1, bad, np.zeros((1, 1), complex))


def test_from_terms_round_trip():
    F = PolyharmonicMap.from_terms(2, 2, [(1, 1, 1 + 2j, 0), (2, 2, 0, 3 - 1j)])
    assert F.a[0, 0] == 1 + 2j
    assert F.b[1, 1] == 3 - 1j
    assert F.a[1, 1] == 0 and F.b[0, 0] == 0


def test_from_terms_rejects_bad_indices():
    with pytest.raises(MalformedSpec):
        PolyharmonicMap.from_terms(1, 1, [(2, 1, 1.0, 0.0)])
    with pytest.raises(MalformedSpec):
        PolyharmonicMap.from_terms(1, 1, [(1, 0, 1.0, 0.0)])
    with pytest.raises(MalformedSpec):
        PolyharmonicMap.from_terms(1, 1, [(1.5, 1, 1.0, 0.0)])


def test_from_terms_rejects_a_repeated_term():
    # as a mapping file does, instead of keeping the last of the two
    with pytest.raises(MalformedSpec, match=r"duplicate term for \(n=1, j=1\)"):
        PolyharmonicMap.from_terms(1, 2, [(1, 1, 1.0, 0), (1, 1, 5.0, 0)])


def test_table_size_is_capped_before_allocation():
    # a table one entry over the cap is refused on its p and J alone
    with pytest.raises(MalformedSpec, match=r"has 4097 entries.* 131104 bytes"):
        PolyharmonicMap.from_terms(17, 241, [])
    with pytest.raises(MalformedSpec, match="100000000000 entries"):
        PolyharmonicMap.from_terms(1, 10 ** 11, [])
    with pytest.raises(MalformedSpec, match="over the cap"):
        PolyharmonicMap(1, MAX_TABLE_ENTRIES + 1, np.zeros((1, 1), complex),
                         np.zeros((1, 1), complex))
    assert PolyharmonicMap.from_terms(1, MAX_TABLE_ENTRIES, []).J == MAX_TABLE_ENTRIES


def test_max_coefficient():
    F = PolyharmonicMap.from_terms(1, 2, [(1, 1, 3 + 4j, 0), (1, 2, 0, 1.0)])
    assert F.max_coefficient() == 5.0


# ---- evaluation ----


def test_identity_and_linear_values():
    I = catalog.identity()
    assert evaluate(I, 0.3 + 0.4j) == 0.3 + 0.4j
    L = catalog.linear(2.0, 0.5j)
    z = 0.2 - 0.7j
    assert evaluate(L, z) == 2.0 * z + 0.5j * np.conj(z)


def test_f2_pinned_values():
    F = catalog.f2()
    assert evaluate(F, 0.0) == 0.0
    # z (1 + r^2 + r^4) at z = 0.5
    assert evaluate(F, 0.5) == 0.65625
    fz, fzb = wirtinger(F, 0.5)
    assert fz == 1.6875
    assert fzb == 0.375
    assert jacobian(F, 0.5) == 1.6875**2 - 0.375**2


def test_scalar_matches_array_evaluation_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(10):
        F = random_map(rng)
        zs = rng.uniform(-0.7, 0.7, 8) + 1j * rng.uniform(-0.7, 0.7, 8)
        arr = evaluate(F, zs)
        for k, z in enumerate(zs):
            assert evaluate(F, complex(z)) == arr[k]
        fz_a, fzb_a = wirtinger(F, zs)
        for k, z in enumerate(zs):
            fz_s, fzb_s = wirtinger(F, complex(z))
            assert fz_s == fz_a[k] and fzb_s == fzb_a[k]


def test_evaluate_matches_naive_reversed_sum():
    # independent accumulation in the opposite term order
    rng = np.random.default_rng(5)
    for _ in range(20):
        F = random_map(rng)
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        acc = 0.0 + 0.0j
        for n in range(F.p, 0, -1):
            for j in range(F.J, 0, -1):
                w = (abs(z) ** 2) ** (n - 1)
                acc += w * (F.a[n - 1, j - 1] * z**j
                            + np.conj(F.b[n - 1, j - 1]) * np.conj(z) ** j)
        ref = evaluate(F, z)
        assert abs(acc - ref) <= 1e-13 * (1.0 + abs(ref))


def test_call_is_evaluate():
    F = catalog.f2()
    z = 0.3 + 0.1j
    assert F(z) == evaluate(F, z)


# ---- derivatives ----


def test_wirtinger_against_finite_differences():
    rng = np.random.default_rng(101)
    for _ in range(100):
        F = random_map(rng)
        zs = rng.uniform(-0.65, 0.65, 20) + 1j * rng.uniform(-0.65, 0.65, 20)
        fz, fzb = wirtinger(F, zs)
        fd_z, fd_zb = _fd_wirtinger(F, zs)
        assert np.allclose(fz, fd_z, rtol=1e-6, atol=1e-6)
        assert np.allclose(fzb, fd_zb, rtol=1e-6, atol=1e-6)


def _termwise_wirtinger(F, z):
    # closed forms of a single (n, j) term, summed term by term:
    #   d/dz:    (n+j-1) a z^(n+j-2) zbar^(n-1) + (n-1) conj(b) z^(n-2) zbar^(n+j-1)
    #   d/dzbar: (n-1) a z^(n+j-1) zbar^(n-2) + (n+j-1) conj(b) z^(n-1) zbar^(n+j-2)
    # the (n-1) factors vanish exactly where an exponent would go negative
    zb = z.conjugate()
    fz = fzb = 0j
    for n in range(1, F.p + 1):
        for j in range(1, F.J + 1):
            a = complex(F.a[n - 1, j - 1])
            bc = complex(F.b[n - 1, j - 1]).conjugate()
            fz += (n + j - 1) * a * z ** (n + j - 2) * zb ** (n - 1)
            fzb += (n + j - 1) * bc * z ** (n - 1) * zb ** (n + j - 2)
            if n >= 2:
                fz += (n - 1) * bc * z ** (n - 2) * zb ** (n + j - 1)
                fzb += (n - 1) * a * z ** (n + j - 1) * zb ** (n - 2)
    return fz, fzb


def test_wirtinger_matches_termwise_closed_forms():
    rng = np.random.default_rng(13)
    for _ in range(40):
        F = random_map(rng)
        zs = list(rng.uniform(-0.7, 0.7, 6) + 1j * rng.uniform(-0.7, 0.7, 6))
        zs += [0j, complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))), 1 + 0j, -1j]
        fz, fzb = wirtinger(F, np.array(zs))
        for k, z in enumerate(zs):
            rz, rzb = _termwise_wirtinger(F, z)
            assert abs(fz[k] - rz) <= 1e-13 * (1.0 + abs(rz))
            assert abs(fzb[k] - rzb) <= 1e-13 * (1.0 + abs(rzb))


def test_wirtinger_memory_is_linear_in_points():
    # a few point-sized temporaries, however many (n, j) terms the table has
    F = catalog.builtin("F1", {})
    assert (F.p, F.J) == (2, 41)
    z = 0.9 * np.exp(2j * np.pi * np.arange(1 << 16) / (1 << 16))
    tracemalloc.start()
    try:
        wirtinger(F, z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * z.nbytes


def test_wirtinger_at_origin():
    # only the pure n=1 linear entries survive at z = 0
    F = catalog.linear(2.5, -1j)
    fz, fzb = wirtinger(F, 0.0)
    assert fz == 2.5 and fzb == -1j
    G = catalog.f2()
    fz, fzb = wirtinger(G, 0.0)
    assert fz == 1.0 and fzb == 0.0


def test_conjugate_entry_derivatives():
    # F(z) = conj(z)^2: F_z = 0, F_zbar = 2 conj(z)
    F = catalog.monomial(1, 2, 1.0, conjugate=True)
    z = 0.4 - 0.3j
    fz, fzb = wirtinger(F, z)
    assert fz == 0.0
    assert abs(fzb - 2.0 * np.conj(z)) <= 1e-15


# ---- polyharmonicity ----


def polyharmonic_residual(F, z, h, order=None):
    """Iterated 5-point discrete Laplacian of F at ``z``, applied ``order``
    times (default: the table depth).

    Exact polyharmonicity makes this O(h^2) as h -> 0.
    """
    times = F.p if order is None else int(order)

    def laplacian(g):
        def out(w):
            return (g(w + h) + g(w - h) + g(w + 1j * h) + g(w - 1j * h)
                    - 4.0 * g(w)) / (h * h)
        return out

    def base(w):
        return evaluate(F, w)

    g = base
    for _ in range(times):
        g = laplacian(g)
    return g(complex(z))


def test_residual_small_for_true_tables():
    rng = np.random.default_rng(7)
    for _ in range(12):
        F = random_map(rng, p_max=2, J_max=3)
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        res = polyharmonic_residual(F, z, 1e-2)
        scale = 1.0 + F.max_coefficient()
        assert abs(res) <= 1e-3 * scale


def test_residual_second_order_convergence():
    # pure truncation error, so halving h divides the residual by about 4
    F = PolyharmonicMap.from_terms(1, 6, [(1, 6, 1.0, 0.0)])
    z = 0.3 + 0.2j
    r1 = abs(polyharmonic_residual(F, z, 1e-2))
    r2 = abs(polyharmonic_residual(F, z, 5e-3))
    assert r2 > 0
    assert math.isclose(r1 / r2, 4.0, rel_tol=0.2)


def test_residual_fails_at_wrong_order():
    # depth-2 table is not harmonic: the depth-1 residual stays O(1)
    F = catalog.f2()
    res = polyharmonic_residual(F, 0.5 + 0.1j, 1e-3, order=1)
    assert abs(res) > 1.0


# ---- dilatation and quasiregularity ----


def test_dilatation_linear():
    F = catalog.linear(1.0, 1.0 / 3.0)
    d = dilatation(F, 0.37 - 0.11j)
    assert abs(d.lambda_small - 2.0 / 3.0) <= 1e-15
    assert abs(d.lambda_big - 4.0 / 3.0) <= 1e-15


def test_quasiregularity_identity():
    K = quasiregularity_constant(catalog.identity())
    assert abs(K - 1.0) <= 1e-12


def test_quasiregularity_linear():
    K = quasiregularity_constant(catalog.linear(1.0, 1.0 / 3.0))
    assert abs(K - 2.0) <= 1e-12


def test_quasiregularity_f2():
    K = quasiregularity_constant(catalog.f2())
    assert abs(K - 3.0) <= 1e-6


def test_quasiregularity_degenerate():
    with pytest.raises(DegenerateMap):
        quasiregularity_constant(catalog.linear(1.0, 1.0))


@pytest.mark.parametrize("J", [9, 41])
@pytest.mark.parametrize("name", ["f0", "F1"])
def test_quasiregularity_folding_square_maps(name, J):
    # the truncated square series folds near |z| = 1: the Jacobian takes
    # both signs on the scan grid, so lambda_small vanishes between them
    with pytest.raises(DegenerateMap) as exc:
        quasiregularity_constant(catalog.builtin(name, {"J": J}))
    m = re.search(r"both signs: (\S+) at z = .+, (\S+) at z = ", str(exc.value))
    assert float(m.group(1)) > 0.0 > float(m.group(2))


def test_quasiregularity_sense_reversing():
    # the conjugate part dominates everywhere: no sign change, finite K
    K = quasiregularity_constant(catalog.linear(1.0 / 3.0, 1.0))
    assert abs(K - 2.0) <= 1e-12


def _certified_single_layer(rng, J):
    # h' = sum j a_j z^(j-1) with a_1 outweighing the rest, and a g' of
    # random size, so the boundary certificate holds on most draws
    a = rng.normal(size=J) + 1j * rng.normal(size=J)
    b = rng.normal(size=J) + 1j * rng.normal(size=J)
    a *= rng.uniform(0.05, 1.0)
    b *= rng.uniform(0.05, 1.0) * rng.uniform(0.0, 1.0)
    a[0] = (1.0 + rng.uniform(0.0, 0.5)) * np.sum(np.arange(2, J + 1) * np.abs(a[1:])) \
        + rng.uniform(0.01, 0.3)
    return PolyharmonicMap(1, J, a[None], b[None])


def test_quasiregularity_boundary_route_is_bitwise_the_grid():
    # each certified map's best grid sample lies on |z| = 1, where the
    # boundary route takes the same samples and the same zoom; with a and
    # b swapped the map reverses orientation and g' takes h's role
    rng = np.random.default_rng(2029)
    certified = [0, 0]
    for _ in range(300):
        F = _certified_single_layer(rng, int(rng.integers(1, 13)))
        for reverses, G in enumerate((F, conjugate_map(F))):
            K = core._k_boundary(G)
            if K is None:
                continue
            certified[reverses] += 1
            assert quasiregularity_constant(G) == K == core._k_grid(G)
    assert min(certified) >= 150


def _k_rings(monkeypatch, F):
    # the radii quasiregularity_constant hands to ring_wirtinger, and its
    # result or its DegenerateMap message
    radii = []
    inner = core.ring_wirtinger

    def recorded(F, r, n):
        radii.extend(np.asarray(r, dtype=float).tolist())
        return inner(F, r, n)

    monkeypatch.setattr(core, "ring_wirtinger", recorded)
    try:
        out = quasiregularity_constant(F)
    except DegenerateMap as exc:
        out = str(exc)
    monkeypatch.undo()
    return radii, out


def test_quasiregularity_certified_map_samples_only_the_unit_circle(monkeypatch):
    # the last two reverse orientation
    for F in (catalog.linear(1.0, 0.25), catalog.linear(0.25, 1.0),
              catalog.linear(1.0 / 3.0, 1.0)):
        radii, K = _k_rings(monkeypatch, F)
        assert radii == [1.0]
        assert K == core._k_boundary(F)


# h = z + z^2 has h'(-1/2) = 0, so the Jacobian of h + conj(z) / 10 is
# negative there although |h'| > |g'| on |z| = 1
_ZERO_INSIDE = PolyharmonicMap(1, 2, [[1.0, 1.0]], [[0.1, 0.0]])


@pytest.mark.parametrize("F", [_ZERO_INSIDE, catalog.linear(1.0, 1.0)]
                         + [catalog.builtin(name, {"J": J}) for name in ("f0", "F1")
                            for J in (9, 41)],
                         ids=["h-prime-zero-inside", "linear-1-1", "f0-9", "f0-41", "F1-9",
                              "F1-41"])
def test_quasiregularity_uncertified_maps_take_the_grid(monkeypatch, F):
    # linear(1, 1) passes the coefficient test, so the route reads |z| = 1
    # before its certificate fails
    radii, out = _k_rings(monkeypatch, F)
    assert radii[-256:] == (np.arange(1, 257) / 256).tolist()
    assert radii[:-256] == ([1.0] if F.J == 1 else [])
    with pytest.raises(DegenerateMap) as exc:
        core._k_grid(F)
    assert out == str(exc.value)
    if F.J > 2:  # f0 and F1 keep their witnesses of both signs
        assert "the Jacobian takes both signs" in out


# ---- the ring kernel against the pointwise kernel ----


def _seeded_table(p, J, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))
    b = rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))
    return PolyharmonicMap(p, J, a, b)


@pytest.mark.parametrize("J", [1, 8, 300])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_ring_wirtinger_matches_pointwise(p, J):
    # J = 300 puts frequencies -(J+1)..J+1 past n = 512, so they alias;
    # n = 2J and n = 1 alias for every J
    F = _seeded_table(p, J, 1000 * p + J)
    radii = np.array([1.0 / 256.0, 0.5, 1.0])
    # the coefficient sum of the derivative series, which bounds |F_z|
    weight = np.arange(1, J + 1)[None, :] + np.arange(p)[:, None]
    scale = float(np.sum(weight * (np.abs(F.a) + np.abs(F.b))))
    for n in (512, 2 * J, 1):
        fz, fzb = ring_wirtinger(F, radii, n)
        values = ring_values(F, radii, n)
        assert fz.shape == fzb.shape == values.shape == (3, n)
        z = radii[:, None] * np.exp(2j * np.pi * np.arange(n) / n)[None, :]
        wz, wzb = wirtinger(F, z)
        assert np.abs(fz - wz).max() <= 1e-13 * scale
        assert np.abs(fzb - wzb).max() <= 1e-13 * scale
        w = evaluate(F, z)
        assert np.abs(values - w).max() <= 1e-13 * np.abs(w).max()


def test_ring_values_match_evaluate_on_f0_at_J_1024():
    # a long table, where Horner's rounding grows with J: on |z| = 1 it is
    # off by up to 1.3e-13 against a 40-digit sum, the spectrum by 4e-16
    F = catalog.f0(1024)
    radii = np.array([0.5, 0.99, 1.0])
    n = 4096
    z = radii[:, None] * np.exp(2j * np.pi * np.arange(n) / n)[None, :]
    w = evaluate(F, z)
    assert np.abs(ring_values(F, radii, n) - w).max() <= 1e-12 * np.abs(w).max()


def _pointwise_grid_K(F):
    # the grid scan run on the pointwise kernel, then the same two zooms,
    # for a map whose Jacobian is known to stay positive
    def ratios(z):
        m, mm = (np.abs(w) for w in wirtinger(F, z))
        return (m + mm) / (m - mm)

    radii = np.arange(1, 257) / 256
    th = 2.0 * np.pi * np.arange(512) / 512
    ratio = ratios(radii[:, None] * np.exp(1j * th)[None, :])
    i0, j0 = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    th0 = float(th[j0])
    r_lo = float(radii[i0 - 1]) if i0 > 0 else 1.0 / 256 ** 2
    r_hi = float(radii[i0 + 1]) if i0 < 255 else 1.0
    r_best, v_r = zoom_max(lambda rs: ratios(rs * np.exp(1j * th0)), r_lo, r_hi, 1e-10)
    dth = 2.0 * np.pi / 512
    _, v_th = zoom_max(lambda ts: ratios(r_best * np.exp(1j * ts)),
                       th0 - dth, th0 + dth, 1e-10)
    return max(float(ratio[i0, j0]), v_r, v_th)


def test_quasiregularity_matches_pointwise_grid_oracle():
    rng = np.random.default_rng(41)
    for _ in range(12):
        G = random_map(rng, p_max=3, J_max=6)
        # a first power that outweighs every other derivative term keeps
        # the Jacobian positive, so K is finite
        weight = np.arange(1, G.J + 1)[None, :] + np.arange(G.p)[:, None]
        a = G.a.copy()
        a[0, 0] = 1.0 + np.sum(weight * (np.abs(G.a) + np.abs(G.b)))
        F = PolyharmonicMap(G.p, G.J, a, G.b)
        expected = _pointwise_grid_K(F)
        assert abs(quasiregularity_constant(F) - expected) <= 1e-12 * expected


# ---- structural maps ----


def test_conjugate_map_pointwise():
    rng = np.random.default_rng(23)
    for _ in range(10):
        F = random_map(rng)
        G = conjugate_map(F)
        zs = rng.uniform(-0.8, 0.8, 16) + 1j * rng.uniform(-0.8, 0.8, 16)
        lhs = evaluate(G, zs)
        rhs = np.conj(evaluate(F, zs))
        assert np.all(np.abs(lhs - rhs) <= 1e-13 * (1.0 + np.abs(rhs)))


@settings(deadline=None, max_examples=60)
@given(
    cre=st.floats(-2, 2, allow_nan=False),
    cim=st.floats(-2, 2, allow_nan=False),
    zre=st.floats(-0.7, 0.7, allow_nan=False),
    zim=st.floats(-0.7, 0.7, allow_nan=False),
)
def test_scale_map_pointwise(cre, cim, zre, zim):
    F = catalog.f2()
    c = complex(cre, cim)
    z = complex(zre, zim)
    lhs = evaluate(scale_map(F, c), z)
    rhs = c * evaluate(F, z)
    assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(rhs))


def test_build_map_dispatch():
    from polyharm import mapspec

    F = build_map(mapspec.loads('{"builtin": "identity"}'))
    assert evaluate(F, 0.5j) == 0.5j
    assert F.label == "identity"
    named = build_map(mapspec.loads('{"builtin": "identity", "label": "mine"}'))
    assert named.label == "mine"
    G = build_map(mapspec.loads(
        '{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1, "a": [2.0, 0.0]}]}'))
    assert evaluate(G, 0.25) == 0.5
    with pytest.raises(MalformedSpec):
        build_map({"builtin": "identity"})
