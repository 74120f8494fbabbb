"""Truncated planar polyharmonic mappings and their pointwise calculus.

A :class:`PolyharmonicMap` is the one map type of the package: a label and
the Almansi coefficient arrays ``a``, ``b`` of depth ``p`` and truncation
``J``, which represent

    F(z) = sum_{n=1}^{p} |z|^(2(n-1)) sum_{j=1}^{J}
           ( a[n,j] * z**j + conj(b[n,j]) * conj(z)**j )

on the closed unit disk.  Every |z|^(2(n-1)) factor multiplies a harmonic
polynomial, so F solves the p-th iterated Laplace equation identically.

Writing s = |z|^2, P_n(z) = sum_j a[n,j] z^j and Q*_n(zbar) = sum_j
conj(b[n,j]) zbar^j, the map is F = sum_n s^(n-1) H_n with H_n = P_n + Q*_n,
and its Wirtinger derivatives are

    F_z    = sum_n s^(n-1) P_n'(z)    + zbar * G
    F_zbar = sum_n s^(n-1) Q*_n'(zbar) + z * G,   G = sum_{n>=2} (n-1) s^(n-2) H_n.

There are two kernels, one per access pattern.  At scattered points,
:func:`evaluate` and :func:`wirtinger` take every sum by Horner's rule: in z
(or zbar) within a layer and in s across layers, so a call holds a handful
of len(z)-sized temporaries whatever p and J are.  The order of operations
is fixed and elementwise, so a scalar call returns exactly the bits of the
matching entry of an array call.  On a circle |z| = r the factor s is the
constant r^2, so the layers fold into one trigonometric series per circle;
:func:`ring_values` and :func:`ring_wirtinger` take F and both derivatives
at n equispaced points of each circle from it with one inverse FFT, and
``_ring_energies`` takes the exact circle means of |F_z|^2 and |F_zbar|^2
from it by Parseval, with no samples and no FFT.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._search import zoom_max
from .errors import DegenerateMap, InvalidParams, MalformedSpec

__all__ = [
    "PolyharmonicMap",
    "DilatationPair",
    "build_map",
    "evaluate",
    "wirtinger",
    "ring_values",
    "ring_wirtinger",
    "jacobian",
    "dilatation",
    "quasiregularity_constant",
    "scale_map",
]


# caps that keep a mapping file or a sample count from making the tool
# allocate without bound
MAX_TABLE_ENTRIES = 4096  # p * J of one table
MAX_GRID_POINTS = 1 << 20  # points of one sample grid


def check_table_size(p: int, J: int, error=MalformedSpec) -> None:
    """Raise ``error`` when a p x J table is over ``MAX_TABLE_ENTRIES``;
    called before anything of that size is allocated."""
    if p * J > MAX_TABLE_ENTRIES:
        raise error("a p=%d by J=%d table has %d entries, over the cap of %d; "
                    "its two coefficient arrays would take %d bytes"
                    % (p, J, p * J, MAX_TABLE_ENTRIES, 32 * p * J))


def check_grid_size(points: int, what: str) -> None:
    """Raise InvalidParams when a sample grid of ``points`` points (``what``
    names the counts it comes from) is over ``MAX_GRID_POINTS``."""
    if points > MAX_GRID_POINTS:
        raise InvalidParams("%s asks for %d points, over the cap of %d; one "
                            "complex array of them would take %d bytes"
                            % (what, points, MAX_GRID_POINTS, 16 * points))


def _check_dims(p, J) -> None:
    # p and J are checked, the table cap too, before anything is allocated
    if not isinstance(p, (int, np.integer)) or not isinstance(J, (int, np.integer)):
        raise MalformedSpec("p and J must be integers")
    if p < 1 or J < 1:
        raise MalformedSpec(f"need p >= 1 and J >= 1, got p={p}, J={J}")
    check_table_size(int(p), int(J))


@dataclass(frozen=True)
class PolyharmonicMap:
    """A truncated map: dense (p x J) coefficient arrays and a label.

    ``a[n-1, j-1]`` multiplies ``z**j`` inside the ``|z|**(2(n-1))`` block and
    ``conj(b[n-1, j-1])`` multiplies ``conj(z)**j`` there.  Instances are
    immutable: the arrays are copied on construction and flagged read-only.
    Calling a map evaluates it.
    """

    p: int
    J: int
    a: np.ndarray
    b: np.ndarray
    label: str = ""

    def __post_init__(self):
        _check_dims(self.p, self.J)
        a = np.array(self.a, dtype=np.complex128)
        b = np.array(self.b, dtype=np.complex128)
        shape = (int(self.p), int(self.J))
        if a.shape != shape or b.shape != shape:
            raise MalformedSpec(f"coefficient arrays must have shape {shape}, "
                                f"got {a.shape} and {b.shape}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise MalformedSpec("coefficients must be finite")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "J", int(self.J))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_terms(cls, p: int, J: int, terms) -> "PolyharmonicMap":
        """Build from an iterable of ``(n, j, a, b)`` entries; omitted entries
        are zero.  Indices are 1-based, must fall inside (p, J) and may not
        repeat."""
        _check_dims(p, J)
        A = np.zeros((p, J), dtype=np.complex128)
        B = np.zeros((p, J), dtype=np.complex128)
        seen = set()
        for entry in terms:
            try:
                n, j, av, bv = entry
            except (TypeError, ValueError) as exc:
                raise MalformedSpec(f"bad term entry {entry!r}") from exc
            if not (isinstance(n, (int, np.integer)) and isinstance(j, (int, np.integer))):
                raise MalformedSpec(f"term indices must be integers, got ({n!r}, {j!r})")
            if not (1 <= n <= p and 1 <= j <= J):
                raise MalformedSpec(f"term index (n={n}, j={j}) outside table (p={p}, J={J})")
            if (n, j) in seen:
                raise MalformedSpec(f"duplicate term for (n={n}, j={j})")
            seen.add((n, j))
            A[n - 1, j - 1] = complex(av)
            B[n - 1, j - 1] = complex(bv)
        return cls(int(p), int(J), A, B)

    def max_coefficient(self) -> float:
        """Largest coefficient modulus; the scale used by tolerance rules."""
        return float(max(np.abs(self.a).max(), np.abs(self.b).max()))

    def __call__(self, z):
        return evaluate(self, z)


@dataclass(frozen=True)
class DilatationPair:
    """Directional-derivative extrema at a point: ``lambda_small`` is
    | |F_z| - |F_zbar| | and ``lambda_big`` is |F_z| + |F_zbar|."""

    lambda_small: float
    lambda_big: float


def build_map(spec) -> PolyharmonicMap:
    """Construct a validated map from a :class:`~polyharm.mapspec.MappingSpec`.

    Builtin references resolve through the catalog; explicit tables are
    checked for index range and finiteness.
    """
    from .mapspec import MappingSpec  # deferred: mapspec is format-only
    if not isinstance(spec, MappingSpec):
        raise MalformedSpec(f"expected a MappingSpec, got {type(spec).__name__}")
    if spec.builtin is not None:
        from . import catalog  # deferred to keep the import graph acyclic
        F = catalog.builtin(spec.builtin, spec.params)
        if spec.label:
            F = replace(F, label=spec.label)
        return F
    if spec.p is None or spec.J is None:
        raise MalformedSpec("explicit table form needs both p and J")
    F = PolyharmonicMap.from_terms(spec.p, spec.J, spec.terms)
    return replace(F, label=spec.label or f"table(p={F.p},J={F.J})")


# Complex-by-complex products are formed out of place (acc = acc * w): the
# in-place product takes a different numpy loop for one element than for
# many, which would break the scalar/array bit equality.  In-place sums are
# not affected.

def _horner(c, w):
    # sum_{k=1}^{len(c)} c[k-1] * w**k
    acc = c[-1] * w
    for ck in c[-2::-1]:
        acc += ck
        acc = acc * w
    return acc


def _horner_deriv(c, w):
    # d/dw of _horner(c, w)
    d = c * np.arange(1, len(c) + 1)
    if d.size == 1:
        return np.full(w.shape, d[0])
    return _horner(d[1:], w) + d[0]


def _points(z):
    zz = np.asarray(z, dtype=np.complex128)
    scalar = zz.ndim == 0
    zz = np.atleast_1d(zz)
    zc = np.conj(zz)
    return scalar, zz, zc, (zz * zc).real


def evaluate(F: PolyharmonicMap, z):
    """Value of the truncated series at ``z`` (scalar or ndarray)."""
    scalar, zz, zc, s = _points(z)
    out = None
    for n in range(F.p, 0, -1):
        h = _horner(F.a[n - 1], zz)
        h += _horner(np.conj(F.b[n - 1]), zc)
        out = h if out is None else out * s + h
    return complex(out[0]) if scalar else out


def wirtinger(F: PolyharmonicMap, z):
    """Both Wirtinger derivatives ``(F_z, F_zbar)`` at ``z`` from the
    layer formulas in the module docstring."""
    scalar, zz, zc, s = _points(z)
    fz = fzb = g = None
    for n in range(F.p, 0, -1):
        a = F.a[n - 1]
        bc = np.conj(F.b[n - 1])
        dp = _horner_deriv(a, zz)
        dq = _horner_deriv(bc, zc)
        fz = dp if fz is None else fz * s + dp
        fzb = dq if fzb is None else fzb * s + dq
        if n >= 2:
            h = _horner((n - 1) * a, zz)
            h += _horner((n - 1) * bc, zc)
            g = h if g is None else g * s + h
    if g is not None:
        fz += zc * g
        fzb += zz * g
    if scalar:
        return complex(fz[0]), complex(fzb[0])
    return fz, fzb


def _collapse(r, shift, *tables):
    # for each (p, J) array M of tables, the (len(r), J) array of
    # sum_n M[n-1, j-1] r^(2(n-1)+j+shift) over the radii r: the layers
    # folded into one series per circle, built a layer at a time so the
    # memory is O(len(r) J) whatever p is
    r = np.asarray(r, dtype=float).reshape(-1, 1)
    e = np.arange(1, tables[0].shape[1] + 1) + shift
    pw = r ** e
    out = [M[0] * pw for M in tables]
    for n in range(1, tables[0].shape[0]):
        pw = r ** (2 * n + e)
        for acc, M in zip(out, tables):
            acc += M[n] * pw
    return out


def _ring_samples(radii, n_angles, shift, *outputs):
    # one (len(radii), n_angles) array per output, each a list of (table,
    # frequencies) pairs folded as ring_wirtinger describes; circles go in
    # blocks of ~2^14 entries so _collapse's tables stay small for any J
    radii = np.asarray(radii, dtype=float).ravel()
    tables = [M for terms in outputs for M, _ in terms]
    rows = max(1, (1 << 14) // max(n_angles, tables[0].shape[1]))
    specs = [np.zeros((radii.size, n_angles), dtype=np.complex128) for _ in outputs]
    for k in range(0, radii.size, rows):
        coeffs = iter(_collapse(radii[k:k + rows], shift, *tables))
        for spec, terms in zip(specs, outputs):
            for _, m in terms:
                np.add.at(spec[k:k + rows], (slice(None), m % n_angles), next(coeffs))
    return [np.fft.ifft(spec, axis=1, norm="forward") for spec in specs]


def ring_values(F: PolyharmonicMap, radii, n_angles: int):
    """F at the points of :func:`ring_wirtinger`, as a (len(radii), n_angles)
    array: on |z| = r, F has sum_n a[n,j] r^(2n+j-2) at frequency j and
    sum_n conj(b[n,j]) r^(2n+j-2) at -j."""
    j = np.arange(1, F.J + 1)
    return _ring_samples(radii, n_angles, 0, [(F.a, j), (np.conj(F.b), -j)])[0]


def ring_wirtinger(F: PolyharmonicMap, radii, n_angles: int):
    """``(F_z, F_zbar)`` at ``radii[i] * exp(2 pi i k / n_angles)`` for
    k = 0..n_angles-1, as two (len(radii), n_angles) arrays.

    On |z| = r the layer formulas in the module docstring are trigonometric
    series: F_z has sum_n (j+n-1) a[n,j] r^(2n+j-3) at frequency j-1 and
    sum_n (n-1) conj(b[n,j]) r^(2n+j-3) at -(j+1); F_zbar has
    sum_n (j+n-1) conj(b[n,j]) r^(2n+j-3) at -(j-1) and
    sum_n (n-1) a[n,j] r^(2n+j-3) at j+1.  Each coefficient is added into
    slot m mod n_angles of its circle's spectrum, so the samples stay exact
    when frequencies alias (n_angles <= 2J), and one inverse FFT per
    circle gives its samples.
    """
    return tuple(_ring_samples(radii, n_angles, -1, *_wirtinger_terms(F)))


def _wirtinger_terms(F: PolyharmonicMap):
    # the (table, frequencies) pairs of F_z and of F_zbar on a circle, as
    # ring_wirtinger's docstring gives them, for _collapse's shift -1
    j = np.arange(1, F.J + 1)
    layer = np.arange(F.p)[:, None]  # n - 1
    bc = np.conj(F.b)
    return ([((j + layer) * F.a, j - 1), (layer * bc, -j - 1)],
            [((j + layer) * bc, 1 - j), (layer * F.a, j + 1)])


def _ring_energies(F: PolyharmonicMap, radii):
    # the means of |F_z|^2 and of |F_zbar|^2 on the circles |z| = radii, two
    # len(radii) arrays, by Parseval: each derivative's frequencies are
    # distinct, so its mean is the sum of |c|^2 over its circle
    # coefficients c.  Circles go in blocks of ~2^14 coefficient entries
    radii = np.asarray(radii, dtype=float).ravel()
    tables = [M for terms in _wirtinger_terms(F) for M, _ in terms]
    rows = max(1, (1 << 14) // (4 * F.J))
    energies = np.empty((2, radii.size))
    for k in range(0, radii.size, rows):
        # one row per circle: F_z's coefficients, then F_zbar's
        c = np.concatenate(_collapse(radii[k:k + rows], -1, *tables), axis=1)
        for out, part in zip(energies, np.split(c, 2, axis=1)):
            out[k:k + len(c)] = (part.real * part.real + part.imag * part.imag).sum(axis=1)
    return energies


def jacobian(F: PolyharmonicMap, z):
    """|F_z|^2 - |F_zbar|^2 at ``z`` (scalar or ndarray)."""
    fz, fzb = wirtinger(F, z)
    if np.ndim(fz) == 0:
        return abs(fz) ** 2 - abs(fzb) ** 2
    return np.abs(fz) ** 2 - np.abs(fzb) ** 2


def dilatation(F: PolyharmonicMap, z) -> DilatationPair:
    """Directional-derivative extrema at a single point."""
    fz, fzb = wirtinger(F, complex(z))
    m, mm = abs(fz), abs(fzb)
    return DilatationPair(abs(m - mm), m + mm)


_K_RADII, _K_ANGLES = 256, 512
_K_BLOCK = 32  # rings per ring_wirtinger call
_K_TOL = 1e-10
# rounding allowance of a sampled squared modulus, relative to the square
# of its series' coefficient sum; the FFT's own error is below 1e-13 of it
_RING_ROUNDING = 1e-12


def _circle_range(samples, degree: int, scale: float):
    # bounds (lo, hi) on the whole circle of a real trigonometric polynomial
    # T of degree `degree` from its samples at n > 2 degree equispaced
    # angles.  With m the samples' midrange, T - m has the same degree, so
    # (van der Corput and Schaake, 1935) |T - m| <= sec(pi degree / n) times
    # its sample maximum, which rounding raises by at most
    # _RING_ROUNDING * scale.  Fewer samples bound nothing
    n = samples.size
    if 2 * degree >= n:
        return -np.inf, np.inf
    lo, hi = float(samples.min()), float(samples.max())
    mid = 0.5 * (lo + hi)
    half = (0.5 * (hi - lo) + _RING_ROUNDING * scale) / np.cos(np.pi * degree / n)
    return mid - half, mid + half


def _k_ratios(d, big, at, floor):
    # lambda_big / lambda_small from d = |F_z| - |F_zbar|, which has the sign
    # of the Jacobian, and big = |F_z| + |F_zbar|, both overwritten; at(i)
    # is the point of flat index i
    if d.max() > 0.0 > d.min():
        jac = d * big
        pos, neg = int(np.argmax(jac)), int(np.argmin(jac))
        raise DegenerateMap(f"the Jacobian takes both signs: {jac.flat[pos]:.3e} "
                            f"at z = {at(pos):.6g}, {jac.flat[neg]:.3e} "
                            f"at z = {at(neg):.6g}")
    lam = np.abs(d, out=d)
    if lam.min() < floor:
        i = int(np.argmin(lam))
        raise DegenerateMap(f"lambda_small = {lam.flat[i]:.3e} near z = {at(i):.6g}")
    return np.divide(big, lam, out=big)


def _k_probe(F, z, floor):
    # the ratios at the points z, on the pointwise kernel
    m, mm = (np.abs(w) for w in wirtinger(F, z))
    return _k_ratios(m - mm, m + mm, lambda i: z.flat[i], floor)


def _k_floor(F):
    # the smallest lambda_small either route accepts
    return 1e-12 * (1.0 + F.max_coefficient())


def _k_theta_zoom(F, floor, th0, r, v):
    # the largest of v and of the ratios on |z| = r within a grid step of th0
    dth = 2.0 * np.pi / _K_ANGLES
    _, v_th = zoom_max(lambda ts: _k_probe(F, r * np.exp(1j * ts), floor),
                       th0 - dth, th0 + dth, _K_TOL)
    return float(max(v, v_th))


def _k_grid(F: PolyharmonicMap) -> float:
    # quasiregularity_constant's grid route
    floor = _k_floor(F)
    radii = np.arange(1, _K_RADII + 1) / _K_RADII
    th = 2.0 * np.pi * np.arange(_K_ANGLES) / _K_ANGLES
    u = np.exp(1j * th)
    # the spectra of 32 rings (2^14 samples) are reused from the heap
    # instead of being page-faulted in afresh on every call
    d = np.empty((_K_RADII, _K_ANGLES))
    big = np.empty_like(d)
    for k in range(0, _K_RADII, _K_BLOCK):
        m, mm = (np.abs(w) for w in ring_wirtinger(F, radii[k:k + _K_BLOCK], _K_ANGLES))
        np.subtract(m, mm, out=d[k:k + _K_BLOCK])
        np.add(m, mm, out=big[k:k + _K_BLOCK])
    ratio = _k_ratios(d, big, lambda i: radii[i // _K_ANGLES] * u[i % _K_ANGLES], floor)
    i0, j0 = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    th0 = float(th[j0])
    r_lo = float(radii[i0 - 1]) if i0 > 0 else float(radii[0]) / _K_RADII
    r_hi = float(radii[i0 + 1]) if i0 + 1 < _K_RADII else 1.0
    r_best, v_r = zoom_max(lambda rs: _k_probe(F, rs * np.exp(1j * th0), floor),
                           r_lo, r_hi, _K_TOL)
    return _k_theta_zoom(F, floor, th0, r_best, max(float(ratio[i0, j0]), v_r))


def _k_boundary(F: PolyharmonicMap):
    # quasiregularity_constant's boundary route for a single layer
    # F = h + conj(g), or None where its certificate does not hold.  The
    # certificate makes the weaker derivative over the stronger analytic
    # and below 1 in modulus, so at z = 0 the stronger has the larger first
    # coefficient: h' unless |b_1| > |a_1|, where the map reverses
    # orientation.  Below, h' and g' name the stronger and the weaker
    j = np.arange(1, F.J + 1)
    da, db = j * np.abs(F.a[0]), j * np.abs(F.b[0])
    flip = db[0] > da[0]
    if flip:
        da, db = db, da
    if not da[0] > da[1:].sum():  # h' has no zero on the closed disk
        return None
    floor = _k_floor(F)
    m, mm = (np.abs(w[0]) for w in ring_wirtinger(F, [1.0], _K_ANGLES))
    if flip:
        m, mm = mm, m
    sa, sb = float(da.sum()) ** 2, float(db.sum()) ** 2  # bound |h'|^2, |g'|^2
    hh, gg = m * m, mm * mm
    # |h'|^2, |g'|^2 and their difference are trigonometric polynomials of
    # degree J - 1 on the circle; m + mm and m - mm are the grid's
    # |F_z| + |F_zbar| and |F_z| - |F_zbar| bit for bit, the latter up to sign
    if not (_circle_range(hh - gg, F.J - 1, sa + sb)[0] > 0.0
            and np.sqrt(max(_circle_range(hh, F.J - 1, sa)[0], 0.0))
            - np.sqrt(_circle_range(gg, F.J - 1, sb)[1]) >= floor):
        return None
    ratio = (m + mm) / (m - mm)
    j0 = int(np.argmax(ratio))
    th0 = float(2.0 * np.pi * j0 / _K_ANGLES)
    # the pointwise value there, which the grid's zoom in radius takes
    # when it peaks at r = 1
    v = _k_probe(F, np.array([np.exp(1j * th0)]), floor)[0]
    return _k_theta_zoom(F, floor, th0, 1.0, max(float(ratio[j0]), v))


def quasiregularity_constant(F: PolyharmonicMap) -> float:
    """Supremum of lambda_big / lambda_small over the closed unit disk.

    Two routes give a lower bound for the true supremum.

    The boundary route takes a single layer F = h + conj(g) whose
    certificate holds: |a_1| > sum_{j>=2} j |a_j|, so h' has no zero on the
    closed disk, and on |z| = 1, by the van der Corput-Schaake bound on the
    512 samples of :func:`ring_wirtinger`, |h'|^2 - |g'|^2 > 0 and
    min |h'| - max |g'| at least ``1e-12 * (1 + max coefficient)``.  Then
    g'/h' is analytic with modulus below 1, so the ratio peaks on |z| = 1
    and the floor below holds on the whole disk.  A map with |b_1| > |a_1|
    reverses orientation: it takes the same certificate with h and g
    swapped, on the same samples.  The route takes the best of the 512
    boundary samples, the pointwise value at its angle and a zoom in angle
    on |z| = 1 around it.

    Every other map takes the grid route.  It scans a polar grid of 256
    radii x 512 angles, taken from each circle's spectrum by
    :func:`ring_wirtinger`, then zooms in radius and then in angle around
    the best sample, each down to a 1e-10 bracket, on the pointwise
    :func:`wirtinger`.  It raises :class:`DegenerateMap` when the Jacobian
    takes both signs among the probed points, since lambda_small then
    vanishes between the two witnesses and the map folds, and as soon as
    lambda_small drops below ``1e-12 * (1 + max coefficient)`` at any probed
    point.  Both checks see the whole grid before any zoom.  Where the
    grid's best sample lies on |z| = 1 and the zoom in radius peaks there,
    the two routes return the same bits.
    """
    K = _k_boundary(F) if F.p == 1 else None
    return _k_grid(F) if K is None else K


def scale_map(F: PolyharmonicMap, c) -> PolyharmonicMap:
    """The map ``z -> c * F(z)``: scales a by c and b by conj(c) because b is
    stored under conjugation."""
    c = complex(c)
    return replace(F, a=c * F.a, b=np.conj(c) * F.b)
