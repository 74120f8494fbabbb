import gc
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyharm import catalog, certificates, core, geometry, metrics
from polyharm._search import zoom_max
from polyharm.core import (
    MAX_SCALE,
    MAX_TABLE_ENTRIES,
    PolyharmonicMap,
    dilatation,
    evaluate,
    jacobian,
    quasiregularity_constant,
    ring_values,
    ring_wirtinger,
    scale_map,
    wirtinger,
)
from polyharm.errors import DegenerateMap, InvalidParams, MalformedSpec

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
    # a count is an int or a numpy integer, never a bool: True is not p = 1
    for p, J in ((True, 1), (1, np.bool_(True)), (1.0, 1), (1, "1")):
        with pytest.raises(MalformedSpec, match="p and J must be integers"):
            PolyharmonicMap(p, J, np.zeros((1, 1), complex), np.zeros((1, 1), complex))


def test_from_terms_round_trip():
    F = PolyharmonicMap.from_terms(2, 2, [(1, 1, 1 + 2j, 0), (2, 2, 0, 3 - 1j)])
    assert F.a[0, 0] == 1 + 2j
    assert F.b[1, 1] == 3 - 1j
    assert F.a[1, 1] == 0 and F.b[0, 0] == 0
    G = PolyharmonicMap.from_terms(np.int64(2), np.int32(2),
                                   [(np.int8(1), np.uint16(1), np.complex64(1 + 2j), 0),
                                    (2, 2, np.int64(0), 3 - 1j)])
    assert G.p == 2 and type(G.p) is int
    assert np.array_equal(G.a, F.a) and np.array_equal(G.b, F.b)


def test_from_terms_rejects_bad_indices():
    with pytest.raises(MalformedSpec):
        PolyharmonicMap.from_terms(1, 1, [(2, 1, 1.0, 0.0)])
    with pytest.raises(MalformedSpec):
        PolyharmonicMap.from_terms(1, 1, [(1, 0, 1.0, 0.0)])
    with pytest.raises(MalformedSpec):
        PolyharmonicMap.from_terms(1, 1, [(1.5, 1, 1.0, 0.0)])
    with pytest.raises(MalformedSpec, match="bad term entry"):
        PolyharmonicMap.from_terms(1, 2, [(1, 1, 0)])
    # a bool index is refused, not read as n = 1
    with pytest.raises(MalformedSpec, match="term indices must be integers"):
        PolyharmonicMap.from_terms(2, 2, [(True, 1, 1, 0)])
    with pytest.raises(MalformedSpec, match="p and J must be integers"):
        PolyharmonicMap.from_terms(True, 2, [])
    # a coefficient is a number, as for the catalog's complex parameters:
    # complex() would read "1" and True as 1
    for bad in ("1", "x", True, None):
        for term in ((1, 1, bad, 0), (1, 1, 0, bad)):
            with pytest.raises(MalformedSpec, match="term coefficients must be numbers"):
                PolyharmonicMap.from_terms(1, 1, [term])
    # an int beyond float range, as the catalog's complex parameters
    for term in ((1, 1, 10**400, 0), (1, 1, 0, -10**400)):
        with pytest.raises(MalformedSpec, match=r"term coefficient for \(n=1, j=1\) is too "
                                                "large for a float"):
            PolyharmonicMap.from_terms(1, 1, [term])


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
    # 2^16 x 2^16 wraps to 0 as an int32 product; the cap reads the true count
    with pytest.raises(MalformedSpec, match="4294967296 entries"):
        core.check_table_size(np.int32(1 << 16), np.int32(1 << 16))


def test_table_scale_is_capped():
    # (p + J) * sum(|a| + |b|) bounds every derivative; above MAX_SCALE
    # squares of them would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert PolyharmonicMap.from_terms(1, 1, [(1, 1, 0.49 * MAX_SCALE, 0)]).p == 1
        assert PolyharmonicMap.from_terms(1, 2, [(1, 1, 0.3 * MAX_SCALE, 0),
                                                 (1, 2, 0, 1e100j)]).J == 2
        too_large = [
            (1, 1, [(1, 1, 0.51 * MAX_SCALE, 0)]),
            (1, 1, [(1, 1, 0.3 * MAX_SCALE, 0.3j * MAX_SCALE)]),
            # the table that gave K = nan: the sum is finite, times p + J it is not
            (2, 150, [(2, 150, 1e307, 0), (1, 1, 1, 3)]),
            # each coefficient finite, their sum is not
            (1, 2, [(1, 1, 1.7e308, 0), (1, 2, 1.7e308, 0)]),
            (1, 1, [(1, 1, complex(1.7e308, 1.7e308), 0)]),
        ]
        for p, J, terms in too_large:
            with pytest.raises(MalformedSpec, match=r"coefficients too large: .* over "
                                                    r"the cap of 1e\+150"):
                PolyharmonicMap.from_terms(p, J, terms)
        for bad in (math.nan, math.inf, complex(-math.inf, 0.0), complex(1.0, math.nan)):
            for term in ((1, 2, bad, 0), (1, 2, 0, bad)):
                with pytest.raises(MalformedSpec, match="coefficients must be finite"):
                    PolyharmonicMap.from_terms(1, 2, [(1, 1, 1.0, 0), term])
        with pytest.raises(MalformedSpec, match="coefficients too large"):
            scale_map(catalog.f2(), 1e149)


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


def _per_call_horner_deriv(c, w):
    # the derivative table built from c on every call, as the kernel once did
    d = c * np.arange(1, len(c) + 1)
    if d.size == 1:
        return np.full(w.shape, d[0])
    return core._horner(d[1:], w) + d[0]


def _per_call_evaluate(F, z):
    # evaluate with conj(b) taken afresh on every call: the bitwise oracle
    # of the per-map tables
    scalar, zz, zc, s = core._points(z, F.p)
    out = None
    for n in range(F.p, 0, -1):
        h = core._horner(F.a[n - 1], zz)
        h += core._horner(np.conj(F.b[n - 1]), zc)
        out = h if out is None else out * s + h
    return complex(out[0]) if scalar else out


def _per_call_wirtinger(F, z):
    scalar, zz, zc, s = core._points(z, F.p)
    fz = fzb = g = None
    for n in range(F.p, 0, -1):
        a = F.a[n - 1]
        bc = np.conj(F.b[n - 1])
        dp = _per_call_horner_deriv(a, zz)
        dq = _per_call_horner_deriv(bc, zc)
        fz = dp if fz is None else fz * s + dp
        fzb = dq if fzb is None else fzb * s + dq
        if n >= 2:
            h = core._horner((n - 1) * a, zz)
            h += core._horner((n - 1) * bc, zc)
            g = h if g is None else g * s + h
    if g is not None:
        fz += zc * g
        fzb += zz * g
    if scalar:
        return complex(fz[0]), complex(fzb[0])
    return fz, fzb


def _bits(v):
    return np.asarray(v, dtype=complex).reshape(-1).view(np.uint64)


@pytest.mark.parametrize("p, J", [(1, 1), (1, 9), (3, 1), (3, 6), (300, 1), (293, 13)])
def test_kernels_read_the_per_map_tables_bitwise(p, J):
    # signed zeros in the table and at the points, z = 0 among them
    rng = np.random.default_rng(7 * p + J)
    a = rng.normal(size=(p, J)) + 1j * rng.normal(size=(p, J))
    b = rng.normal(size=(p, J)) + 1j * rng.normal(size=(p, J))
    zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for table in (a, b):
        cells = rng.random((p, J)) < 0.3
        table[cells] = rng.choice(zeros, size=int(cells.sum()))
    F = PolyharmonicMap(p, J, a, b)
    z = np.concatenate([zeros, [1.0, -1j, 0.5 + 0.5j],
                        rng.uniform(-0.7, 0.7, 25) + 1j * rng.uniform(-0.7, 0.7, 25)])
    for pts in (z, z.reshape(4, -1)):
        assert np.array_equal(_bits(evaluate(F, pts)), _bits(_per_call_evaluate(F, pts)))
        for got, want in zip(wirtinger(F, pts), _per_call_wirtinger(F, pts)):
            assert np.array_equal(_bits(got), _bits(want))
    for w in (*zeros, complex(z[-1])):
        assert _bits(evaluate(F, w)).tolist() == _bits(_per_call_evaluate(F, w)).tolist()
        assert _bits(wirtinger(F, w)).tolist() == _bits(_per_call_wirtinger(F, w)).tolist()
    # built once per map and read-only; another map, even an equal one, has its own
    tables = F._tables
    assert F._tables is tables and len(tables) == 5
    for n in range(1, p + 1):
        bc = np.conj(F.b[n - 1])
        rows = (bc, F.a[n - 1] * np.arange(1, J + 1), bc * np.arange(1, J + 1),
                (n - 1) * F.a[n - 1], (n - 1) * bc)
        for t, row in zip(tables, rows):
            assert np.array_equal(_bits(t[n - 1]), _bits(row))
    for t in tables:
        with pytest.raises(ValueError):
            t[0, 0] = 1.0
    assert PolyharmonicMap(p, J, a, b)._tables[0] is not tables[0]


def test_circle_maps_are_the_maps_of_their_rows():
    # the per-radius maps of curve_length skip the constructor; each holds
    # its row, read-only, and the tables of a map built from it, bit for bit
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    b = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    b[0, ::2] = complex(-0.0, 0.0)
    A, B = core._collapse([1.0, 0.5, 0.1], 0, a, b)
    maps = core._circle_maps(A, B)
    assert len(maps) == 3
    for i, G in enumerate(maps):
        H = PolyharmonicMap(1, 5, A[i:i + 1], B[i:i + 1])
        assert (G.p, G.J, G.label) == (H.p, H.J, H.label)
        for got, want in zip((G.a, G.b, *G._tables), (H.a, H.b, *H._tables)):
            assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))
            with pytest.raises(ValueError):
                got[0, 0] = 1.0


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


def test_a_dropped_map_is_freed_with_its_store():
    # what is worked out from a map lives in the map's own store and refers
    # to no map, so reference counting alone frees a dropped map
    F = catalog.f2()
    certificates.arg_condition(F, "area")
    metrics.contraction_check(F, 3.0)
    geometry.area_series(F, 0.5)
    assert len(F.__dict__["_store"]) == 3
    gone = weakref.ref(F)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del F
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


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


def test_quasiregularity_certified_exit_is_bitwise_the_full_scan(monkeypatch):
    # each certified map's best grid sample lies on |z| = 1, where the
    # certified exit takes the same samples and the same zoom as a scan of
    # the whole grid; with a and b swapped the map reverses orientation and
    # g' takes h's role
    rng = np.random.default_rng(2029)
    certified = [0, 0]
    for _ in range(300):
        F = _certified_single_layer(rng, int(rng.integers(1, 13)))
        for reverses, G in enumerate((F, conjugate_map(F))):
            radii, K = _k_rings(monkeypatch, G)
            if radii != [1.0] or isinstance(K, str):  # not certified, or folds on |z| = 1
                continue
            certified[reverses] += 1
            assert K == _k_full_scan(G)
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


# the last two reverse orientation
_CERTIFIED = [catalog.linear(1.0, 0.25), catalog.linear(0.25, 1.0),
              catalog.linear(1.0 / 3.0, 1.0)]


def test_quasiregularity_certified_map_samples_only_the_unit_circle(monkeypatch):
    for F in _CERTIFIED:
        radii, K = _k_rings(monkeypatch, F)
        assert radii == [1.0]
        assert K == _k_full_scan(F)


# h = z + z^2 has h'(-1/2) = 0, so the Jacobian of h + conj(z) / 10 is
# negative there although |h'| > |g'| on |z| = 1
_ZERO_INSIDE = PolyharmonicMap(1, 2, [[1.0, 1.0]], [[0.1, 0.0]])


def _k_scan_order(last):
    # the radii of the grid route's scan from |z| = 1 inward, down to the
    # block that starts at ring `last`: |z| = 1 alone, then blocks of
    # _K_BLOCK rings, each in ascending order
    radii = np.arange(1, core._K_RADII + 1) / core._K_RADII
    out, stop = [1.0], core._K_RADII - 1
    while stop > last:
        k = max(stop - core._K_BLOCK, 0)
        out += radii[k:stop].tolist()
        stop = k
    return out


# each with the first ring of the last block its scan reads
_UNCERTIFIED = ([(_ZERO_INSIDE, 127), (catalog.linear(1.0, 1.0), 0)]
                + [(catalog.builtin(name, {"J": J}), 255) for name in ("f0", "F1")
                   for J in (9, 41)])
_UNCERTIFIED_IDS = ["h-prime-zero-inside", "linear-1-1", "f0-9", "f0-41", "F1-9", "F1-41"]


@pytest.mark.parametrize("F, last", _UNCERTIFIED, ids=_UNCERTIFIED_IDS)
def test_quasiregularity_uncertified_maps_take_the_grid(monkeypatch, F, last):
    # linear(1, 1) passes the coefficient test, but not its certificate on
    # |z| = 1; its Jacobian vanishes, so the scan reads every ring and then
    # fails the floor.  f0 and F1 fold on |z| = 1 and _ZERO_INSIDE in the
    # block that holds r = 1/2, and the scan stops there
    radii, out = _k_rings(monkeypatch, F)
    assert radii == _k_scan_order(last)
    if F.J > 1:  # the folding maps name witnesses of both signs
        assert "the Jacobian takes both signs" in out
    else:  # both scans read the whole grid
        assert out == str(_k_full_scan(F))
        assert out.startswith("lambda_small = 0.000e+00")


@pytest.mark.parametrize("F", _CERTIFIED + [F for F, _ in _UNCERTIFIED],
                         ids=["linear-1-0.25", "linear-0.25-1", "linear-1/3-1"]
                         + _UNCERTIFIED_IDS)
def test_quasiregularity_reads_each_ring_once(monkeypatch, F):
    # certified or not, no ring is read twice, |z| = 1 included
    radii, _ = _k_rings(monkeypatch, F)
    assert len(set(radii)) == len(radii)


def _k_full_scan(F):
    # the scan with all 256 rings in one ring_wirtinger call, no early exit,
    # both checks on the whole grid, then the zooms: K, or the DegenerateMap
    floor = core._k_floor(F)
    radii = np.arange(1, core._K_RADII + 1) / core._K_RADII
    th = 2.0 * np.pi * np.arange(core._K_ANGLES) / core._K_ANGLES
    m, mm = (np.abs(w) for w in ring_wirtinger(F, radii, core._K_ANGLES))
    at = lambda i: radii[i // core._K_ANGLES] * np.exp(1j * th[i % core._K_ANGLES])  # noqa: E731
    try:
        ratio = core._k_ratios(m - mm, m + mm, at, floor)
    except DegenerateMap as exc:
        return exc
    i0, j0 = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    th0 = float(th[j0])
    r_lo = radii[i0 - 1] if i0 > 0 else radii[0] / core._K_RADII
    r_hi = radii[i0 + 1] if i0 + 1 < core._K_RADII else 1.0
    r_best, v_r = zoom_max(lambda rs: core._k_probe(F, rs * np.exp(1j * th0), floor),
                           float(r_lo), float(r_hi), core._K_TOL)
    dth = 2.0 * np.pi / core._K_ANGLES
    _, v_th = zoom_max(lambda ts: core._k_probe(F, r_best * np.exp(1j * ts), floor),
                       th0 - dth, th0 + dth, core._K_TOL)
    return float(max(float(ratio[i0, j0]), v_r, v_th))


def _verdict(K):
    if not isinstance(K, DegenerateMap):
        return "finite"
    return "both signs" if "both signs" in str(K) else "floor"


def test_quasiregularity_grid_agrees_with_a_full_scan():
    # the scan from |z| = 1 inward stops at the first block where the
    # Jacobian takes both signs, so its witnesses may differ from the full
    # scan's; each is still a grid point of the printed sign, and every
    # finite K keeps its bits
    rng = np.random.default_rng(3039)
    radii = np.arange(1, core._K_RADII + 1) / core._K_RADII
    verdicts = []
    for t in range(60):
        F = random_map(rng, p_max=3, J_max=8)
        if t % 2:  # a dominant a[1,1] keeps some maps from folding
            a = F.a.copy()
            weight = np.arange(1, F.J + 1) + np.arange(F.p)[:, None]
            a[0, 0] = rng.uniform(0.5, 2.0) * np.sum(weight * (np.abs(F.a) + np.abs(F.b)))
            F = PolyharmonicMap(F.p, F.J, a, F.b)
        expected = _k_full_scan(F)
        try:
            K = quasiregularity_constant(F)
        except DegenerateMap as exc:
            K = exc
        verdicts.append(_verdict(K))
        assert verdicts[-1] == _verdict(expected)
        if verdicts[-1] == "finite":
            assert K == expected  # bit for bit
        elif verdicts[-1] == "floor":  # both scans read the whole grid
            assert str(K) == str(expected)
        else:
            m = re.fullmatch(r"the Jacobian takes both signs: (\S+) at z = (\S+), "
                             r"(\S+) at z = (\S+)", str(K))
            for sign, value, zs in ((1, *m.group(1, 2)), (-1, *m.group(3, 4))):
                z = complex(zs)
                i = round(abs(z) * core._K_RADII) - 1
                j = round(np.angle(z) / (2.0 * np.pi) * core._K_ANGLES) % core._K_ANGLES
                w = radii[i] * np.exp(2j * np.pi * j / core._K_ANGLES)
                assert f"{w:.6g}" == zs
                jac, v = jacobian(F, w), float(value)
                assert sign * jac > 0.0 and sign * v > 0.0
                half_digit = 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 3)
                assert abs(jac - v) <= 1.01 * half_digit
    assert min(verdicts.count("finite"), verdicts.count("both signs")) >= 15


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


@pytest.mark.parametrize("sampler", [ring_values, ring_wirtinger])
@pytest.mark.parametrize("n, message", [
    (0, "n_angles must be an integer >= 1, got 0"),
    (-3, "n_angles must be an integer >= 1, got -3"),
    (2.5, "n_angles must be an integer >= 1, got 2.5"),
    (True, "n_angles must be an integer >= 1, got True"),
    (1 << 21, r"len\(radii\) x n_angles asks for 4194304 points, over the cap"),
], ids=["0", "-3", "2.5", "bool", "2^21"])
def test_ring_samplers_refuse_bad_counts(sampler, n, message):
    # refused before anything of len(radii) x n_angles is allocated
    with pytest.raises(InvalidParams, match=message):
        sampler(catalog.f2(), [0.5, 1.0], n)


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


def test_maps_compare_and_hash_by_identity():
    F, G = catalog.f2(), catalog.f2()
    assert (F == G) is False and F == F and F != G
    assert {F, G, F} == {F, G} and hash(F) != hash(G)
    assert {F: 1}[F] == 1


def test_build_map_dispatch():
    from polyharm.mapspec import build_map, loads

    F = build_map(loads('{"builtin": "identity"}'))
    assert evaluate(F, 0.5j) == 0.5j
    assert F.label == "identity"
    named = build_map(loads('{"builtin": "identity", "label": "mine"}'))
    assert named.label == "mine"
    G = build_map(loads(
        '{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1, "a": [2.0, 0.0]}]}'))
    assert evaluate(G, 0.25) == 0.5
    with pytest.raises(MalformedSpec):
        build_map({"builtin": "identity"})
