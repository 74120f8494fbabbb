"""Geometric quantities of a truncated polyharmonic map on disks.

Everything here is derived from the coefficient table alone: perimeter of
the image of a circle, normalized image area (two independent routes: the
exact coefficient series, and a tensor Gauss-Legendre x trapezoid
quadrature of Jacobian samples taken from the circle spectra), the area
growth excess r*S'(r) - 2*S(r) in closed form, and a sampled lower
estimate of the image diameter.

The two area routes are kept deliberately separate so they can be played
against each other in tests; do not "simplify" one into the other.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._search import zoom_max
from .core import (PolyharmonicMap, _collapse, _horner, check_grid_size,
                   evaluate, ring_wirtinger, wirtinger)
from .errors import InvalidParams, NoConvergence

__all__ = [
    "curve_length",
    "sup_length",
    "area_series",
    "area_quadrature",
    "area_growth_excess",
    "diameter_estimate",
]


@lru_cache(maxsize=8)
def _gauss_nodes(n: int):
    t, w = np.polynomial.legendre.leggauss(n)
    return t, w


# ---- curve length ----


_MAX_SAMPLES = 1 << 20


@lru_cache(maxsize=1)
def _panel_rule():
    # 8-point Gauss-Legendre nodes on [0, 1] with their weights on [-1, 1],
    # and the Lagrange weights that carry node values to the two panel ends
    t, w = _gauss_nodes(8)
    to_ends = np.array([[np.prod((e - np.delete(t, k)) / (t[k] - np.delete(t, k)))
                         for k in range(t.size)] for e in (-1.0, 1.0)])
    return 0.5 * (t + 1.0), w, to_ends


def curve_length(F: PolyharmonicMap, r: float, tol: float = 1e-10) -> float:
    """Length of the image of the circle |z| = r.

    On |z| = r the factors |z|^(2(n-1)) are constants, so the p layers
    collapse into one harmonic polynomial G(u) = F(r u) with coefficients
    A_j = sum_n a[n,j] r^(2n-2+j) (B_j likewise from b), and each speed
    sample costs the single-layer kernel.  The speed of G on |u| = 1 is
    |v|, v = G_u - conj(u^2) G_ubar at u = e^(i theta), r times that of F.

    Globally adaptive 8-point Gauss-Legendre bisection on [0, 2 pi)
    (Gander & Gautschi, 2000) of |v|.  The circle starts as 4 (J + p) equal
    panels.  Each round evaluates both halves of every open panel and
    accepts a panel of width h when

        |left + right - whole| + hidden < tol (r + |L0|) h / (2 pi),

    L0 being the first-pass integral of |v|; every other panel is split.
    Divided by r, this is the test on F's own speed at tol (1 + |L0| / r).
    ``hidden`` covers what the halving test cannot see.  Where v, carried
    to an end of a half, is smaller than its change across the gap g to
    the nearest node, q = |v(end)| / |change| < 1, a zero of v may sit in
    that gap and bend |v| unseen by the whole and by both halves alike.
    On the line through the two values the length it hides is at most
    g |v(end)| q (1 - log q).  The accepted errors thus add up to about
    tol (r + |L0|).  A speed that is identically zero settles in the first
    round; tol = 0 never settles.

    Raises NoConvergence, holding the estimate after every round, once the
    next round would take the speed samples past 2^20.  The tolerance is
    never loosened.
    """
    if not (0.0 < r <= 1.0):
        raise InvalidParams("radius must be in (0, 1], got %r" % (r,))
    x, w, to_ends = _panel_rule()
    G = PolyharmonicMap(1, F.J, *_collapse([r], 0, F.a, F.b))

    def panels(left, h):
        # blocks of 2^11 panels (2^14 points) keep the kernel's temporaries
        # small whatever the number of open panels
        sums, hidden = np.empty(left.size), np.empty(left.size)
        for k in range(0, left.size, 1 << 11):
            u = np.exp(1j * (left[k:k + (1 << 11), None] + h * x[None, :]))
            fz, fzb = wirtinger(G, u)
            v = fz - np.conj(u * u) * fzb
            sums[k:k + len(u)] = 0.5 * h * (np.abs(v) @ w)
            # q < 1 where a zero of v may sit between an end and its
            # nearest node; bend is the length it can hide there, over g
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
    used, done = n0 * x.size, 0.0
    estimates = [float(whole.sum())]
    scale = tol * (r + abs(estimates[0])) / (2.0 * np.pi)
    while whole.size:
        if used + 2 * whole.size * x.size > _MAX_SAMPLES:
            raise NoConvergence(
                "circle-length quadrature at r=%r did not settle within %d "
                "samples; %d panels still open" % (r, used, whole.size),
                estimates)
        h *= 0.5
        halves, hidden = panels(np.concatenate([left, left + h]), h)
        used += halves.size * x.size
        lo, hi = halves[:whole.size], halves[whole.size:]
        hidden = hidden[:whole.size] + hidden[whole.size:]
        ok = np.abs(lo + hi - whole) + hidden < scale * 2.0 * h
        done += float((lo + hi)[ok].sum())
        left = np.concatenate([left[~ok], left[~ok] + h])
        whole = np.concatenate([lo[~ok], hi[~ok]])
        estimates.append(done + float(whole.sum()))
    return done


_SCAN_RADII = 20  # sup_length scans r = 1 - 2^-k, k = 1..20
_RADIUS_TOL = 1e-12


def sup_length(F: PolyharmonicMap, integral_tol: float = 1e-10) -> float:
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
    integral_tol (1 + best), below which they are no more accurate, or once
    the best is the length at r = 1, the three radii nearest it rise into
    it, and the parabola through them still climbs there.  That second
    rule assumes no bump in the length between the last probe and r = 1;
    it is a heuristic, not a bound.  The zoom also stops at a bracket of
    1e-12.  Every radius is integrated once, at integral_tol; a radius that
    does not settle raises NoConvergence.
    """
    if F.p == 1:
        return curve_length(F, 1.0, tol=integral_tol)
    seen = {}

    def measure(r: float) -> float:
        if r not in seen:  # zoom grids share their ends with earlier grids
            seen[r] = curve_length(F, r, tol=integral_tol)
        return seen[r]

    rs = 1.0 - 2.0 ** (-np.arange(1, _SCAN_RADII + 1))
    vals = [measure(float(r)) for r in rs]
    i0 = int(np.argmax(vals))
    lo = float(rs[i0 - 1]) if i0 > 0 else 1e-9
    hi = float(rs[i0 + 1]) if i0 < _SCAN_RADII - 1 else 1.0
    _, refined = zoom_max(lambda xs: [measure(float(x)) for x in xs],
                          lo, hi, _RADIUS_TOL, k=5, rtol=integral_tol)
    return max(max(vals), refined)


# ---- area ----


def _area_coefficients(F: PolyharmonicMap) -> np.ndarray:
    """Coefficients c of S(r) = sum_{m>=1} c[m-1] * (r^2)^m.

    A layer pair n1 <= n2 sharing the power j contributes to
    m = n1 + n2 + j - 2: j*(|a_nj|^2 - |b_nj|^2) on the diagonal and
    2*j*Re(a1*conj(a2) - b1*conj(b2)) across layers.  Moduli are expanded
    as re^2 + im^2 so that exactly mirrored tables cancel exactly.
    """
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


def area_quadrature(F: PolyharmonicMap, r: float, n_radial: int = 64,
                    n_theta: int = 2048) -> float:
    """S(r) by quadrature of the Jacobian over the disk |z| <= r.

    Gauss-Legendre in the radial variable (exact for the polynomial radial
    profile at these orders) times a periodic trapezoid rule in the angle.
    Independent of area_series by construction.  Raises InvalidParams
    unless n_radial >= 1 and n_theta >= 1, and when the n_radial x n_theta
    grid or the n_radial x n_radial matrix behind the Gauss-Legendre nodes
    is over MAX_GRID_POINTS.
    """
    if not (0.0 < r <= 1.0):
        raise InvalidParams("radius must be in (0, 1], got %r" % (r,))
    if n_radial < 1 or n_theta < 1:
        raise InvalidParams("need n_radial >= 1 and n_theta >= 1, got %r and %r"
                            % (n_radial, n_theta))
    check_grid_size(n_radial * n_theta, "n_radial x n_theta")
    check_grid_size(n_radial * n_radial, "the Gauss-Legendre matrix n_radial x n_radial")
    t, w = _gauss_nodes(int(n_radial))
    rho = 0.5 * r * (t + 1.0)
    wts = 0.5 * r * w
    # rings in blocks of ~2^14 points: temporaries that small are reused
    # from the heap instead of being page-faulted in afresh on every call
    rows = max(1, (1 << 14) // int(n_theta))
    ring_means = np.empty(rho.size)
    for k in range(0, rho.size, rows):
        fz, fzb = ring_wirtinger(F, rho[k:k + rows], int(n_theta))
        jac = (fz.real * fz.real + fz.imag * fz.imag
               - fzb.real * fzb.real - fzb.imag * fzb.imag)
        ring_means[k:k + rows] = jac.mean(axis=1)
    # (1/pi) * int_0^2pi int_0^r J rho drho dth  ==  2 * sum w_q rho_q mean_th J
    return float(2.0 * np.sum(wts * rho * ring_means))


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


def _hull(xy: np.ndarray) -> np.ndarray:
    # sample indices of the strict convex-hull vertices of the rows of xy,
    # counter-clockwise from the least (x, y); a repeated point counts once,
    # by its lowest index.  Fewer than 3 when the points are collinear or
    # coincident.
    x, y = xy[:, 0], xy[:, 1]
    # Akl-Toussaint filter: the extremes in 8 directions, taken in
    # counter-clockwise order, span an octagon inside the hull; a point
    # strictly inside it, by more than rounding, is no vertex
    s, d = x + y, x - y
    octagon = [int(k) for k in (np.argmin(y), np.argmax(d), np.argmax(x), np.argmax(s),
                                np.argmax(y), np.argmin(d), np.argmin(x), np.argmin(s))]
    size = max(abs(x[octagon]).max(), abs(y[octagon]).max())
    inside = None
    for a, b in zip(octagon, octagon[1:] + octagon[:1]):
        ex, ey = x[b] - x[a], y[b] - y[a]
        if ex or ey:
            margin = 16.0 * np.finfo(float).eps * size * (abs(ex) + abs(ey))
            left = ex * (y - y[a]) - ey * (x - x[a]) > margin
            inside = left if inside is None else inside & left
    idx = np.arange(len(xy)) if inside is None else np.flatnonzero(~inside)
    # Andrew's monotone chain: sort by (x, y), stably, so that the first of
    # each run of equal points has the lowest index, and keep only that one
    idx = idx[np.lexsort((y[idx], x[idx]))]
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
        px, py = x[seq], y[seq]
        turn = ((px - np.roll(px, 1)) * (np.roll(py, -1) - py)
                - (py - np.roll(py, 1)) * (np.roll(px, -1) - px))
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
    hull = _hull(xy)
    h = hull.size
    if h < 3:  # collinear or coincident: ends of the principal axis
        centered = xy - xy.mean(axis=0)
        s = xy @ np.linalg.eigh(centered.T @ centered)[1][:, 1]
        return tuple(sorted((int(np.argmin(s)), int(np.argmax(s)))))
    x, y = xy[hull, 0], xy[hull, 1]
    ex, ey = np.roll(x, -1) - x, np.roll(y, -1) - y
    # rotating calipers, vectorized: edge i (vertex i to i+1) points at
    # angle theta[i], unwrapped from the turns between edges; the vertex
    # farthest from its line starts the first edge turned by pi or more
    nx, ny = np.roll(ex, -1), np.roll(ey, -1)
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


_POLISH_ROUNDS = 3
_POLISH_TOL = 1e-10
_POLISH_RTOL = 1e-14  # a few ulps of the distance


def diameter_estimate(F: PolyharmonicMap, r: float = 1.0, n_radii: int = 16,
                      n_angles: int = 1024) -> float:
    """Lower estimate of diam F(|z| <= r) from a polar sample grid.

    The farthest sampled pair is found on the convex hull of the sampled
    image, in numpy.  An Akl-Toussaint filter (1978) drops the samples
    strictly inside the octagon of the extremes in 8 directions.  Andrew's
    monotone chain (1979) runs over the rest, sorted by (x, y): vectorized
    passes drop every non-left turn while each pass drops at least 1/8 of
    the points, then a sequential chain finishes.  Rotating calipers
    (Toussaint, 1983), vectorized, pair each hull edge with the vertex
    farthest from its line, found by a binary search on the unwrapped edge
    angles, and score a window of neighbouring pairs.  Ties go to the least
    (lower sample index, higher sample index) pair.  A hull of fewer than
    3 vertices (collinear or coincident samples) uses the ends along the
    principal axis instead.  Three rounds of coordinate-wise bracket zoom
    polish the pair's radii and angles, one grid step either way; each
    zoom stops once a round's distances agree to a few ulps (or its bracket
    is below 1e-10), and each zoom round is one evaluate call.  Three
    rounds do not reach the pair's local maximum: on the default grid the
    result can stay up to ~5e-8 relative short of it, by an amount that
    depends on which end of the pair moves first.  So this is a lower
    estimate, not a polished maximum, and a lower bound on the true
    diameter up to rounding.  Raises
    InvalidParams unless n_radii >= 1 and n_angles >= 1, and when the grid
    is over MAX_GRID_POINTS.
    """
    if not (0.0 < r <= 1.0):
        raise InvalidParams("radius must be in (0, 1], got %r" % (r,))
    if n_radii < 1 or n_angles < 1:
        raise InvalidParams("need n_radii >= 1 and n_angles >= 1, got %r and %r"
                            % (n_radii, n_angles))
    check_grid_size(n_radii * n_angles, "n_radii x n_angles")
    radii = r * np.arange(1, n_radii + 1) / n_radii
    th = 2.0 * np.pi * np.arange(n_angles) / n_angles
    z = radii[:, None] * np.exp(1j * th)[None, :]
    w = evaluate(F, z).ravel()
    xy = np.column_stack([w.real, w.imag])
    ia, ib = _farthest_pair(xy)
    best = float(np.sqrt(((xy[ia] - xy[ib]) ** 2).sum()))

    (ra, ta), (rb, tb) = divmod(ia, n_angles), divmod(ib, n_angles)
    state = [float(radii[ra]), float(th[ta]), float(radii[rb]), float(th[tb])]
    half = (r / n_radii, 2.0 * np.pi / n_angles)

    def dist(k, xs):
        # coordinate k of the pair [rho_a, th_a, rho_b, th_b] runs over xs
        s = np.tile(state, (xs.size, 1))
        s[:, k] = xs
        w = evaluate(F, s[:, 0::2] * np.exp(1j * s[:, 1::2]))
        return np.abs(w[:, 0] - w[:, 1])

    refined = best
    for _ in range(_POLISH_ROUNDS):
        for k in range(4):
            lo, hi = state[k] - half[k % 2], state[k] + half[k % 2]
            if k % 2 == 0:
                lo, hi = max(0.0, lo), min(r, hi)
            x_best, v = zoom_max(lambda xs: dist(k, xs), lo, hi, _POLISH_TOL,
                                 rtol=_POLISH_RTOL)
            if v > refined:
                refined = v
                state[k] = x_best
    return max(best, refined)
