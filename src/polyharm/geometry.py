"""Geometric quantities of a truncated polyharmonic map on disks.

Everything here is derived from the coefficient table alone: perimeter of
the image of a circle, normalized image area (two independent routes: the
exact coefficient series, and an exact Gauss-Legendre quadrature in
x = rho^2 of the Jacobian's circle means, taken by Parseval from the
circle spectra, with its node count derived from p and J), the area
growth excess r*S'(r) - 2*S(r) in closed form, and a sampled lower
estimate of the image diameter.

The two area routes are kept deliberately separate so they can be played
against each other in tests; do not "simplify" one into the other.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._search import zoom_max
from .core import (PolyharmonicMap, _circle_maps, _collapse, _horner, _is_int,
                   _ring_energies, check_grid_size, evaluate, wirtinger)
from .errors import InvalidParams, NoConvergence

__all__ = [
    "curve_length",
    "sup_length",
    "area_series",
    "area_quadrature",
    "area_growth_excess",
    "diameter_estimate",
]


def _legendre(n: int, x: np.ndarray):
    # P_n(x) and P_n'(x) by the recurrence (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1)
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=8)
def _gauss_nodes(n: int):
    # the n Gauss-Legendre nodes on [-1, 1], ascending, and their weights.
    # Newton on the recurrence moves all the nonnegative nodes at once from
    # Tricomi's estimates until a step is at rounding level (at most 16
    # steps), then they are mirrored: O(n) memory and O(n^2) time, where
    # an eigenvalue solve holds an n x n matrix (Hale & Townsend, 2013)
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0  # the middle node, where P_n is exactly 0
    for _ in range(16):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= 4.0 * np.finfo(float).eps:
            break
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w = np.concatenate([w[:n // 2], w[::-1]])
    # scaled to sum to 2, as numpy's leggauss does, so constants integrate exactly
    return np.concatenate([-x[:n // 2], x[::-1]]), w * (2.0 / w.sum())


# ---- curve length ----


LENGTH_TOL = 1e-10  # curve_length's relative tolerance, read at each call
_MAX_SAMPLES = 1 << 20
_PANELS = 1 << 11  # panels per block


@lru_cache(maxsize=1)
def _panel_rule():
    # 8-point Gauss-Legendre nodes on [0, 1] with their weights on [-1, 1],
    # and the Lagrange weights that carry node values to the two panel ends
    t, w = _gauss_nodes(8)
    to_ends = np.array([[np.prod((e - np.delete(t, k)) / (t[k] - np.delete(t, k)))
                         for k in range(t.size)] for e in (-1.0, 1.0)])
    return 0.5 * (t + 1.0), w, to_ends


def _panel_sums(starts, widths, steps, hiding):
    # the integral of the speed over each panel [s, s + h) and, if hiding,
    # the length it may hide (a first pass reads none), for the panels
    # (starts, widths) of each step (table, count), which follow one
    # another.  A table's panels go to the kernel 2^11 at a time, as they
    # would for its radius alone.  Runs of up to 2^11 panels share the
    # elementwise work, and a call whose panels equal the last call's
    # reuses its node exponentials.  The weighted node sum is a BLAS product
    # whose last bits depend on its row count, so it is taken per kernel call
    x, w, to_ends = _panel_rule()
    sums, hidden = np.empty(starts.size), np.empty(starts.size)
    runs, at = [], 0  # [first panel, end, kernel calls (table, first, end)]
    for G, n in steps:
        for a in range(at, at + n, _PANELS):
            b = min(a + _PANELS, at + n)
            if not runs or b - runs[-1][0] > _PANELS:
                runs.append([a, b, []])
            runs[-1][1] = b
            runs[-1][2].append((G, a, b))
        at += n
    for a0, b0, calls in runs:
        parts, seen = [], None
        for G, a, b in calls:
            key = starts[a:b].tobytes() + widths[a:b].tobytes()
            if key != seen:  # else the same nodes as the last call
                seen = key
                u = np.exp(1j * (starts[a:b, None] + widths[a:b, None] * x[None, :]))
                uu = np.conj(u * u)
            fz, fzb = wirtinger(G, u)
            parts.append(fz - uu * fzb)
        v = np.concatenate(parts)
        speed = np.abs(v)
        for _, a, b in calls:
            sums[a:b] = 0.5 * widths[a:b] * (speed[a - a0:b - a0] @ w)
        if not hiding:
            continue
        # q < 1 where a zero of v may sit between an end and its nearest
        # node; bend is the length it can hide there, over g
        ends = v @ to_ends.T
        e, s = np.abs(ends), np.abs(v[:, ::x.size - 1] - ends)
        q = np.maximum(np.minimum(e, s) / np.maximum(s, 1e-300), 1e-300)
        bend = np.where(q < 1.0, e * q * (1.0 - np.log(q)), 0.0)
        hidden[a0:b0] = x[0] * widths[a0:b0] * bend.sum(axis=1)
    return sums, hidden


def _equal_panels(F: PolyharmonicMap):
    # the 4 (J + p) equal panels every circle starts from, as (starts, widths)
    n0 = 4 * (F.J + F.p)
    h0 = 2.0 * np.pi / n0
    return h0 * np.arange(n0), np.full(n0, h0)


def _merged(panels, h0, least):
    # the sorted panels (starts, widths), made by bisecting panels of width
    # h0, with every panel narrower than w merged into the cell of width w
    # that holds it, w = h0 / 2^k being the narrowest such width >= least
    s, h = panels
    if h.min() >= least:
        return panels
    w = h0
    while 0.5 * w >= least:
        w *= 0.5
    deep = h < w
    cell = np.floor((s + 0.5 * h) / w)
    first = deep & np.concatenate([[True], cell[1:] != cell[:-1]])
    keep = ~deep | first
    return s[keep], np.where(deep[keep], w, h[keep])


def _lengths(F: PolyharmonicMap, rs: np.ndarray, starts=None):
    # curve_length's integrator on the radii rs, each starting from its
    # panels in starts, as (starts, widths), or from the equal panels.
    # Returns the lengths and the panels rs[0] accepted, as a list of
    # (starts, widths) pieces: they partition [0, 2 pi).  A radius whose
    # given start cannot settle within _MAX_SAMPLES begins again from the
    # equal panels, under a budget of its own, so it raises only where the
    # equal panels do
    A, B = _collapse(rs, 0, F.a, F.b)
    tables = _circle_maps(A, B)
    nodes = _panel_rule()[0].size
    equal = _equal_panels(F)
    n0 = equal[0].size
    # per radius: its starting panels, the open panels' starts, widths and
    # sums (None before the first pass), the samples used, the sum of the
    # accepted panels, the estimate after each round and the acceptance scale
    begin = [equal] * rs.size if starts is None else list(starts)
    left, width, whole = [None] * rs.size, [None] * rs.size, [None] * rs.size
    used, done = [0] * rs.size, [0.0] * rs.size
    estimates, scale = [[] for _ in rs], [0.0] * rs.size
    accepted = []
    pending = list(range(rs.size))
    while pending:
        fresh, going = [], []
        pool = sum(used[pending[0] + 1:])
        for i in pending:
            cost = nodes * (begin[i][0].size if left[i] is None else 2 * whole[i].size)
            if i == pending[0] and used[i] + cost > _MAX_SAMPLES:
                if begin[i] is not equal:
                    begin[i], left[i], used[i], done[i], estimates[i] = equal, None, 0, 0.0, []
                    if i == 0:
                        accepted = []
                    cost = nodes * n0
                elif left[i] is not None:
                    raise NoConvergence(
                        "curve_length at r=%r (p=%d, J=%d, tol=%r) did not settle "
                        "within %d samples; %d panels still open"
                        % (float(rs[i]), F.p, F.J, LENGTH_TOL, used[i], whole[i].size),
                        estimates[i])
            elif i != pending[0]:
                if used[i] + cost > _MAX_SAMPLES or pool + cost > _MAX_SAMPLES:
                    break
                pool += cost
            used[i] += cost
            (fresh if left[i] is None else going).append(i)
        half = [0.5 * width[i] for i in going]
        at = np.concatenate([part for i, h in zip(going, half) for part in (left[i], left[i] + h)]
                            + [begin[i][0] for i in fresh])
        widths = np.concatenate([part for h in half for part in (h, h)]
                                + [begin[i][1] for i in fresh])
        sums, hidden = _panel_sums(at, widths,
                                   [(tables[i], 2 * whole[i].size) for i in going]
                                   + [(tables[i], begin[i][0].size) for i in fresh],
                                   bool(going))
        a = 0
        for i, h in zip(going, half):
            n = whole[i].size
            lo, hi = sums[a:a + n], sums[a + n:a + 2 * n]
            both = lo + hi
            ok = (np.abs(both - whole[i]) + (hidden[a:a + n] + hidden[a + n:a + 2 * n])
                  < scale[i] * 2.0 * h)
            done[i] += float(both[ok].sum())
            if i == 0:
                accepted.append((left[i][ok], width[i][ok]))
            split = ~ok  # all False once the radius settles
            kept, hs = left[i][split], h[split]
            left[i], width[i] = np.concatenate([kept, kept + hs]), np.concatenate([hs, hs])
            whole[i] = np.concatenate([lo[split], hi[split]])
            estimates[i].append(done[i] + float(whole[i].sum()))
            a += 2 * n
        for i in fresh:
            left[i], width[i] = begin[i]
            n = left[i].size
            whole[i] = sums[a:a + n]
            estimates[i].append(float(whole[i].sum()))
            scale[i] = LENGTH_TOL * (rs[i] + abs(estimates[i][0])) / (2.0 * np.pi)
            a += n
        pending = [i for i in pending if whole[i] is None or whole[i].size]
    return done, accepted


def curve_length(F: PolyharmonicMap, r):
    """Length of the image of the circle |z| = r, for one radius or a 1-D
    array of radii (then an array of lengths).

    On |z| = r the factors |z|^(2(n-1)) are constants, so the p layers
    collapse into one harmonic polynomial G(u) = F(r u) with coefficients
    A_j = sum_n a[n,j] r^(2n-2+j) (B_j likewise from b), and each speed
    sample costs the single-layer kernel.  The speed of G on |u| = 1 is
    |v|, v = G_u - conj(u^2) G_ubar at u = e^(i theta), r times that of F.

    Globally adaptive 8-point Gauss-Legendre bisection on [0, 2 pi)
    (Gander & Gautschi, 2000) of |v|.  The circle starts as 4 (J + p) equal
    panels.  Each round evaluates both halves of every open panel and
    accepts a panel of width h when

        |left + right - whole| + hidden < LENGTH_TOL (r + |L0|) h / (2 pi),

    L0 being the first-pass integral of |v|; every other panel is split.
    Divided by r, this is the test on F's own speed at LENGTH_TOL (1 + |L0| / r).
    ``hidden`` covers what the halving test cannot see.  Where v, carried
    to an end of a half, is smaller than its change across the gap g to
    the nearest node, q = |v(end)| / |change| < 1, a zero of v may sit in
    that gap and bend |v| unseen by the whole and by both halves alike.
    On the line through the two values the length it hides is at most
    g |v(end)| q (1 - log q).  The accepted errors thus add up to about
    LENGTH_TOL (r + |L0|).  A speed that is identically zero settles in the
    first round; a tolerance of 0 never settles.

    Several radii share one pass: the layers are collapsed for all of them
    at once, and each round evaluates the open panels of every radius
    together, each radius with its own table, panels, scale and estimates,
    so its length is bitwise the one it gets alone.  A radius spends at
    most 2^20 speed samples.  The radii after the first open one, in the
    order given, spend at most 2^20 of them together; the rest wait.

    Raises NoConvergence, holding that radius's estimate after every
    round, for the first radius whose next round would take its samples
    past 2^20.  The tolerance is never loosened.
    """
    radii = np.asarray(r, dtype=float)
    if radii.ndim > 1:
        raise InvalidParams("radii must be a number or a 1-D array, got shape %r"
                            % (radii.shape,))
    rs = np.atleast_1d(radii)
    bad = ~((rs > 0.0) & (rs <= 1.0))
    if bad.any():
        raise InvalidParams("radius must be in (0, 1], got %r" % (float(rs[bad][0]),))
    done = _lengths(F, rs)[0]
    return done[0] if radii.ndim == 0 else np.array(done)


_SCAN_RADII = 20  # sup_length scans r = 1 - 2^-k, k = 1..20
_RADIUS_TOL = 1e-12
_MERGE = 0.25  # sup_length merges the starting panels of radius r below _MERGE (1 - r)


def sup_length(F: PolyharmonicMap) -> float:
    """sup over 0 < r <= 1 of curve_length(F, r).

    For p = 1 the angular derivative i (z h' - conj(z g')) of F = h + conj(g)
    is harmonic, so its modulus is subharmonic and the length, its circle
    mean, is nondecreasing in r (Duren, Harmonic Mappings in the Plane,
    2004): the supremum is curve_length(F, 1.0).  For p >= 2 it can be
    interior (z - |z|^2 z has length 2 pi r (1 - r^2)), so radii 1 - 2^-k
    are scanned, then a five-point bracket zoom closes in on the best one;
    the scan's last bracket ends at r = 1 itself, where F is still a
    polynomial, so a length that grows all the way out is measured at the
    boundary.  The zoom stops once a round's five lengths spread by at most
    LENGTH_TOL (1 + best), below which they are no more accurate, or once
    the best is the length at r = 1, the three radii nearest it rise into
    it, and the parabola through them still climbs there.  That second
    rule assumes no bump in the length between the last probe and r = 1;
    it is a heuristic, not a bound.  The zoom also stops at a bracket of
    1e-12.

    Every radius is integrated once, by curve_length's rule at LENGTH_TOL.
    The outermost scan radius, 1 - 2^-20, whose image has the sharpest
    corners, goes first and alone, from the 4 (J + p) equal panels.  Every
    other radius r starts from the panels it accepted, those narrower than
    (1 - r) / 4 merged into dyadic cells at least that wide: a speed zero
    that sharpens a corner near |z| = 1 lies about 1 - r away from |z| = r,
    so finer panels would only cost samples there.  The other 19 scan
    radii share one pass, and the radii each zoom round has not seen yet
    one more.  A start sets only where the bisection begins; every panel
    still passes curve_length's test, so the lengths agree with
    curve_length's to the tolerance, and where the outermost radius
    accepts the equal panels at its first halving, every radius starts
    from them and gets curve_length's bits.  A radius spends at most 2^20
    samples from its start; one whose start cannot settle within them
    begins again from the equal panels, under a budget of its own, so it
    raises only where curve_length does.  A radius that does not settle
    raises NoConvergence, naming the stage, for the first such radius in
    the order of its pass, so the outermost radius raises before any other
    is integrated.
    """
    if F.p == 1:
        return curve_length(F, 1.0)
    seen, seed = {}, None
    h0 = _equal_panels(F)[1][0]

    def measure(rs, stage):
        nonlocal seed
        new = [r for r in dict.fromkeys(map(float, rs)) if r not in seen]
        if new:  # zoom grids share their ends with earlier grids
            starts = None if seed is None else [_merged(seed, h0, _MERGE * (1.0 - r)) for r in new]
            try:
                lengths, accepted = _lengths(F, np.array(new), starts)
            except NoConvergence as exc:
                raise NoConvergence("sup_length %s: %s" % (stage, exc),
                                    exc.estimates) from None
            seen.update(zip(new, lengths))
            if seed is None:  # the first radius measured starts every later one
                s, w = map(np.concatenate, zip(*accepted))
                order = np.argsort(s, kind="stable")
                seed = s[order], w[order]
        return [seen[float(r)] for r in rs]

    rs = 1.0 - 2.0 ** (-np.arange(1, _SCAN_RADII + 1))
    measure(rs[-1:], "radius scan")
    vals = measure(rs, "radius scan")
    i0 = int(np.argmax(vals))
    lo = float(rs[i0 - 1]) if i0 > 0 else 1e-9
    hi = float(rs[i0 + 1]) if i0 < _SCAN_RADII - 1 else 1.0
    _, refined = zoom_max(lambda xs: measure(xs, "zoom"),
                          lo, hi, _RADIUS_TOL, k=5, rtol=LENGTH_TOL)
    return max(max(vals), refined)


# ---- area ----


# area_series and area_growth_excess ask for these about six times in one
# verify; maps hash by identity, so the read-only result holds for its map
@lru_cache(maxsize=2)
def _area_coefficients(F: PolyharmonicMap) -> np.ndarray:
    """Coefficients c of S(r) = sum_{m>=1} c[m-1] * (r^2)^m, read-only.

    A layer pair n1 <= n2 sharing the power j contributes to
    m = n1 + n2 + j - 2: j*(|a_nj|^2 - |b_nj|^2) on the diagonal and
    2*j*Re(a1*conj(a2) - b1*conj(b2)) across layers.  Moduli are expanded
    as re^2 + im^2 so that exactly mirrored tables cancel exactly.
    """
    j = np.arange(1, F.J + 1)
    at = np.add.outer(np.arange(F.p), j - 1)  # m - 1 - 2 (n1 - 1) for rows n2 >= n1
    c = np.zeros(2 * F.p + F.J - 2)
    for n1 in range(F.p):
        a1, a2, b1, b2 = F.a[n1], F.a[n1:], F.b[n1], F.b[n1:]
        d = a1.real * a2.real + a1.imag * a2.imag - (b1.real * b2.real + b1.imag * b2.imag)
        d[1:] *= 2.0  # exact, so j * d is bitwise (2.0 * j) * d off the diagonal
        np.add.at(c, 2 * n1 + at[:F.p - n1], j * d)  # row by row: c[m] sums in n2 order
    c.setflags(write=False)
    return c


def _area_polynomial(c: np.ndarray, r):
    # Horner's rule in x = r^2
    rr = np.asarray(r, dtype=float)
    out = _horner(c, np.atleast_1d(rr) ** 2)
    return float(out[0]) if rr.ndim == 0 else out


def area_series(F: PolyharmonicMap, r):
    """Normalized image area S(r) = area(F, r)/pi from the coefficient series.

    Counts multiplicity: this is the integral of the Jacobian, not the
    measure of the image set.  Accepts a scalar or an array of radii.
    """
    return _area_polynomial(_area_coefficients(F), r)


def area_quadrature(F: PolyharmonicMap, r: float) -> float:
    """S(r) by exact Gauss-Legendre quadrature of the Jacobian's circle means.

    With x = rho^2, S(r) is the integral over 0 <= x <= r^2 of the mean of
    |F_z|^2 - |F_zbar|^2 on the circle |z| = sqrt(x).  By Parseval that mean
    is the sum of the squared moduli of the circle's Wirtinger coefficients,
    with no sampling.  Each coefficient sums powers rho^e over the layers,
    all e of one parity and at most 2p + J - 3, so the mean is a polynomial
    of degree at most 2p + J - 3 in x, and p + ceil(J/2) - 1 nodes in x
    (at most 4096 under the table cap) integrate it exactly.  The radial
    direction does no coefficient algebra, so the route stays independent
    of area_series.
    """
    if not (0.0 < r <= 1.0):
        raise InvalidParams("radius must be in (0, 1], got %r" % (r,))
    t, w = _gauss_nodes(F.p + (F.J + 1) // 2 - 1)
    x = 0.5 * r * r * (t + 1.0)
    ez, ezb = _ring_energies(F, np.sqrt(x))
    return float(0.5 * r * r * np.sum(w * (ez - ezb)))


def area_growth_excess(F: PolyharmonicMap, r):
    """r * S'(r) - 2 * S(r), i.e. the defect of S(r)/r^2 being constant.

    Each series term c * (r^2)^m contributes 2*c*(m - 1)*(r^2)^m, so the
    quantity is a polynomial in r^2 with the same cross structure as S.
    """
    c = _area_coefficients(F)
    m = np.arange(1, c.size + 1)
    return _area_polynomial(2.0 * c * (m - 1), r)


# ---- diameter ----


_BLOCK = 1 << 14  # hull edges scored at once by the calipers


def _candidates(xy: np.ndarray) -> np.ndarray:
    # indices, ascending, of the rows of xy that can end a farthest pair.
    # With c the centre of the bounding box of the extremes in 8
    # directions, R the largest |p - c| and L the longest distance between
    # two extremes, a farthest pair (a, b) has L <= |a - b| <= |a - c| + R,
    # so both ends have |p - c| >= L - R.  Each distance is computed within
    # 2 eps of its exact value, so the bound is lowered by 8 eps (L + R);
    # every pair whose computed squared distance ties the largest keeps
    # both ends.  All rows are kept when the bound is not positive or its
    # square is near underflow
    x, y = np.ascontiguousarray(xy.T)  # contiguous rows make argmin/argmax faster
    s, d = x + y, x - y
    ends = xy[[np.argmin(y), np.argmax(d), np.argmax(x), np.argmax(s),
               np.argmax(y), np.argmin(d), np.argmin(x), np.argmin(s)]]
    c = 0.5 * (ends.min(axis=0) + ends.max(axis=0))
    # s and d are spent: their buffers take the squared offsets from c
    r2 = np.square(np.subtract(x, c[0], out=s), out=s)
    r2 += np.square(np.subtract(y, c[1], out=d), out=d)
    gap = ends[:, None, :] - ends[None, :, :]
    L, R = np.sqrt((gap * gap).sum(axis=2).max()), np.sqrt(r2.max())
    eps = np.finfo(float).eps
    t = L - R - 8.0 * eps * (L + R)
    if not t * t > np.finfo(float).tiny / eps:
        return np.arange(len(xy))
    return np.flatnonzero(r2 >= t * t)


def _hull(xy: np.ndarray) -> np.ndarray:
    # sample indices of the strict convex-hull vertices of the rows of xy,
    # counter-clockwise from the least (x, y); a repeated point counts once,
    # by its lowest index.  Fewer than 3 when the points are collinear or
    # coincident.  No filter runs first: _farthest_pair hands over only
    # the _candidates
    x, y = xy[:, 0], xy[:, 1]
    # Andrew's monotone chain: sort by (x, y), stably, so that the first of
    # each run of equal points has the lowest index, and keep only that one
    idx = np.lexsort((y, x))
    px, py = x[idx], y[idx]
    idx = idx[np.concatenate([[True], (px[1:] != px[:-1]) | (py[1:] != py[:-1])])]
    if idx.size < 3:
        return idx
    lo, hi = idx[0], idx[-1]
    px, py = x[idx[1:-1]], y[idx[1:-1]]
    side = (x[hi] - x[lo]) * (py - y[lo]) - (y[hi] - y[lo]) * (px - x[lo])
    # the polygon: lo, the points below the line lo -> hi left to right,
    # hi, the points above it right to left
    seq = np.concatenate([[lo], idx[1:-1][side < 0.0], [hi],
                          idx[1:-1][side > 0.0][::-1]])
    # vectorized passes drop every point that is no strict left turn; they
    # stop once the polygon is convex, or hand over to a sequential chain
    # once a pass drops less than 1/8 of the points
    while True:
        ring = np.concatenate((seq[-1:], seq, seq[:1]))  # with each end's neighbour
        px, py = x[ring], y[ring]
        dx, dy = px[1:] - px[:-1], py[1:] - py[:-1]  # the edges into and out of each
        turn = dx[:-1] * dy[1:] - dy[:-1] * dx[1:]
        keep = (turn > 0.0) | (seq == lo) | (seq == hi)
        dropped = seq.size - int(keep.sum())
        seq = seq[keep]
        if dropped == 0:
            return seq
        if 8 * dropped < seq.size + dropped:
            break
    xs, ys, top = x[seq].tolist(), y[seq].tolist(), int(np.flatnonzero(seq == hi)[0])
    stack, floor = [0], 1  # stack entries below floor are lo and hi: never dropped
    for k in list(range(1, seq.size)) + [0]:
        while len(stack) > floor:
            a, b = stack[-2], stack[-1]
            if (xs[b] - xs[a]) * (ys[k] - ys[b]) - (ys[b] - ys[a]) * (xs[k] - xs[b]) > 0.0:
                break
            stack.pop()
        stack.append(k)
        if k == top:
            floor = len(stack)
    return seq[stack[:-1]]


def _farthest_pair(xy: np.ndarray):
    # sample indices (ia, ib), ia < ib, of a farthest pair of the rows of xy
    cand = _candidates(xy)
    hull = cand[_hull(xy[cand])]
    h = hull.size
    x, y = xy[hull, 0], xy[hull, 1]
    ex, ey = np.concatenate((x[1:], x[:1])) - x, np.concatenate((y[1:], y[:1])) - y
    # rotating calipers, vectorized: edge i (vertex i to i+1) points at
    # angle theta[i], unwrapped from the turns between edges; the vertex
    # farthest from its line starts the first edge turned by pi or more
    nx, ny = np.concatenate((ex[1:], ex[:1])), np.concatenate((ey[1:], ey[:1]))
    turn = np.maximum(np.arctan2(ex * ny - ey * nx, ex * nx + ey * ny), 0.0)
    theta = np.concatenate([[0.0], np.cumsum(turn[:-1])])
    j = np.searchsorted(np.concatenate([theta, theta + theta[-1] + turn[-1]]),
                        theta + np.pi)
    # candidates {i, i+1} x {j-1 .. j+2}: the wide window keeps rounding in
    # the angles from dropping the farthest pair
    da = np.repeat([0, 1], 4)[:, None]
    db = np.tile([-1, 0, 1, 2], 2)[:, None]
    n, best, key = len(xy), -1.0, 0
    for start in range(0, h, _BLOCK):
        i = np.arange(start, min(h, start + _BLOCK))
        pa, pb = (i + da) % h, (j[i] + db) % h
        d2 = (x[pa] - x[pb]) ** 2 + (y[pa] - y[pb]) ** 2
        top = float(d2.max())
        if top >= best:
            # ties: the least (lower index, higher index) pair
            a, b = hull[pa][d2 == top], hull[pb][d2 == top]
            tied = np.minimum(a, b) * n + np.maximum(a, b)
            key = int(tied.min()) if top > best else min(key, int(tied.min()))
            best = top
    return divmod(key, n)


_STEP = 1e-6  # central-difference step of the polish's Hessian
_NEWTON_STEPS = 8
_HALVINGS = 4
_GAIN_RTOL = 1e-15
_STEP_TOL = 1e-13
# the pair itself, then the pairs _STEP away in each of its 4 coordinates
_STENCIL = np.vstack([np.zeros(4), _STEP * np.eye(4), -_STEP * np.eye(4)])


def _ascend(F: PolyharmonicMap, x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    # projected Newton ascent of D = |F(z_a) - F(z_b)|^2 over the pair
    # x = (rho_a, th_a, rho_b, th_b) in the box lo <= x <= hi, from x;
    # returns the last accepted pair and its distance
    def stencil(x):
        s = x + _STENCIL
        u = np.exp(1j * s[:, 1::2])
        z = s[:, 0::2] * u
        return u, z, evaluate(F, z)

    def slopes(u, z, f):
        # the gradient of D at each stencil pair from the exact derivatives
        # dF/drho = u F_z + conj(u) F_zbar and dF/dth = i (z F_z - conj(z) F_zbar)
        fz, fzb = wirtinger(F, z)
        dw = np.stack([u * fz + np.conj(u) * fzb,
                       1j * (z * fz - np.conj(z) * fzb)], axis=2)
        dw[:, 1] *= -1.0
        w = f[:, 0] - f[:, 1]
        g = 2.0 * (np.conj(w)[:, None] * dw.reshape(-1, 4)).real
        hess = (g[1:5] - g[5:]) / (2.0 * _STEP)
        return g[0], 0.5 * (hess + hess.T)

    u, z, f = stencil(x)
    d = abs(f[0, 0] - f[0, 1])
    for _ in range(_NEWTON_STEPS):
        g, hess = slopes(u, z, f)
        # a coordinate at a bound of the box, with the gradient pointing
        # out of it, is held fixed
        free = ~(((x >= hi) & (g > 0.0)) | ((x <= lo) & (g < 0.0)))
        lam, vec = np.linalg.eigh(hess[np.ix_(free, free)])
        top = np.abs(lam).max(initial=0.0)
        if top == 0.0:
            break
        # Newton's step along each eigenvector, uphill also where D is not
        # concave, with the curvature floored at 1e-8 of the largest
        s = np.zeros(4)
        s[free] = vec @ ((vec.T @ g[free]) / np.maximum(np.abs(lam), 1e-8 * top))
        s = np.clip(x + s, lo, hi) - x
        if g @ s <= _GAIN_RTOL * d * d or np.abs(s).max() < _STEP_TOL:
            break
        for t in 0.5 ** np.arange(_HALVINGS + 1):
            trial = np.clip(x + t * s, lo, hi)
            ut, zt, ft = stencil(trial)
            dt = abs(ft[0, 0] - ft[0, 1])
            if dt > d:
                break
        else:
            break
        x, u, z, f, d = trial, ut, zt, ft, dt
    return x, d


def diameter_estimate(F: PolyharmonicMap, r: float = 1.0, n_radii: int = 16,
                      n_angles: int = 1024) -> float:
    """Lower estimate of diam F(|z| <= r) from a polar sample grid.

    The farthest sampled pair is found in numpy.  One pass first keeps
    only the samples that can end a farthest pair: with c the centre of
    the bounding box of the extremes in 8 directions, R the largest
    |w - c| and L the longest distance between two extremes, both ends of
    every farthest pair have |w - c| >= L - R, by the triangle inequality.
    The bound is lowered by 8 eps (L + R) for the rounding of the computed
    distances.  On a strictly convex image only the samples near the ends
    of its diameter pass.  Andrew's monotone chain (1979) runs over the
    candidates, sorted by (x, y): vectorized passes drop every non-left
    turn while each pass drops at least 1/8 of the points, then a
    sequential chain finishes.  Rotating calipers (Toussaint, 1983),
    vectorized, pair each edge of the candidates' hull with the vertex
    farthest from its line, found by a binary search on the unwrapped edge
    angles, and score a window of neighbouring pairs.  Ties go to the least
    (lower sample index, higher sample index) pair.  A hull of one or two
    vertices goes through the same calipers: both edges of a two-vertex
    hull turn by pi, so each end's window holds the other end.

    A projected Newton ascent then polishes the pair's radii and angles,
    each within one grid step of its sample and the radii within [0, r].
    The gradient of |F(z_a) - F(z_b)|^2 is exact, from the Wirtinger
    derivatives; the Hessian is its central difference at step 1e-6.  Each
    pair tried costs one evaluate call on the 9 pairs of its difference
    stencil, and each pair accepted (the sampled one included) one
    wirtinger call on them.  A coordinate at a bound with the gradient
    pointing outward is held fixed.  A step is taken only if the distance
    grows, after at most 4 halvings; the ascent stops once the step's
    predicted gain g . s is at most 1e-15 of |F(z_a) - F(z_b)|^2, the step
    is below 1e-13, no halving helps, or after 8 steps.  The result is the
    larger of the sampled and the polished distance, each realized by two
    points of the disk: a lower bound on the true diameter up to rounding,
    at the pair's local maximum.  Raises InvalidParams unless n_radii and
    n_angles are integers >= 1 (an int or a numpy integer, never a bool or
    a float), and when the grid is over MAX_GRID_POINTS.
    """
    if not (0.0 < r <= 1.0):
        raise InvalidParams("radius must be in (0, 1], got %r" % (r,))
    if not (_is_int(n_radii) and _is_int(n_angles)):
        raise InvalidParams("n_radii and n_angles must be integers, got %r and %r"
                            % (n_radii, n_angles))
    if n_radii < 1 or n_angles < 1:
        raise InvalidParams("need n_radii >= 1 and n_angles >= 1, got %r and %r"
                            % (n_radii, n_angles))
    check_grid_size(int(n_radii) * int(n_angles), "n_radii x n_angles")
    radii = r * np.arange(1, n_radii + 1) / n_radii
    th = 2.0 * np.pi * np.arange(n_angles) / n_angles
    # radius times the real and the imaginary part of e^(i th): real
    # products on the interleaved parts, where a complex product would
    # also form and add the zero terms
    z = (radii[:, None] * np.exp(1j * th).view(float)[None, :]).view(complex)
    w = evaluate(F, z).ravel()
    xy = np.column_stack([w.real, w.imag])
    ia, ib = _farthest_pair(xy)
    best = float(np.sqrt(((xy[ia] - xy[ib]) ** 2).sum()))

    (ra, ta), (rb, tb) = divmod(ia, n_angles), divmod(ib, n_angles)
    x = np.array([radii[ra], th[ta], radii[rb], th[tb]])
    half = np.array([r / n_radii, 2.0 * np.pi / n_angles] * 2)
    lo, hi = x - half, x + half
    lo[0::2], hi[0::2] = np.maximum(lo[0::2], 0.0), np.minimum(hi[0::2], r)
    _, polished = _ascend(F, x, lo, hi)
    return max(best, float(polished))
