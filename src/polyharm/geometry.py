"""Geometric quantities of a truncated polyharmonic map on disks.

Everything here is derived from the coefficient table alone: perimeter of
the image of a circle, normalized image area (two independent routes: the
exact coefficient series and a tensor Gauss-Legendre x trapezoid quadrature
of the Jacobian), the area growth excess r*S'(r) - 2*S(r) in closed form,
and a sampled lower estimate of the image diameter.

The two area routes are kept deliberately separate so they can be played
against each other in tests; do not "simplify" one into the other.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._search import zoom_max
from .core import (CoefficientTable, PolyharmonicMap, _collapse, _horner,
                   check_grid_size, evaluate, wirtinger)
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
    t = F.table
    G = PolyharmonicMap(CoefficientTable(1, t.J, *_collapse([r], 0, t.a, t.b)))

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

    n0 = 4 * (t.J + t.p)
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
    are scanned, then a five-point bracket zoom closes in on the best one
    down to a bracket of 1e-12; the scan's last bracket ends at r = 1
    itself, where F is still a polynomial, so a length that grows all the
    way out is measured at the boundary.  Every radius is integrated once,
    at integral_tol; a radius that does not settle raises NoConvergence.
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
                          lo, hi, _RADIUS_TOL, k=5)
    return max(max(vals), refined)


# ---- area ----


def _area_coefficients(F: PolyharmonicMap) -> np.ndarray:
    """Coefficients c of S(r) = sum_{m>=1} c[m-1] * (r^2)^m.

    A layer pair n1 <= n2 sharing the power j contributes to
    m = n1 + n2 + j - 2: j*(|a_nj|^2 - |b_nj|^2) on the diagonal and
    2*j*Re(a1*conj(a2) - b1*conj(b2)) across layers.  Moduli are expanded
    as re^2 + im^2 so that exactly mirrored tables cancel exactly.
    """
    t = F.table
    j = np.arange(1, t.J + 1)
    c = np.zeros(2 * t.p + t.J - 2)
    for n1 in range(1, t.p + 1):
        for n2 in range(n1, t.p + 1):
            a1, a2 = t.a[n1 - 1], t.a[n2 - 1]
            b1, b2 = t.b[n1 - 1], t.b[n2 - 1]
            re_a = a1.real * a2.real + a1.imag * a2.imag
            re_b = b1.real * b2.real + b1.imag * b2.imag
            weight = j if n1 == n2 else 2.0 * j
            c[n1 + n2 - 2:n1 + n2 - 2 + t.J] += weight * (re_a - re_b)
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
    th = 2.0 * np.pi * np.arange(int(n_theta)) / int(n_theta)
    u = np.exp(1j * th)
    # rings in blocks of ~2^14 points: temporaries that small are reused
    # from the heap instead of being page-faulted in afresh on every call
    rows = max(1, (1 << 14) // u.size)
    ring_means = np.empty(rho.size)
    for k in range(0, rho.size, rows):
        fz, fzb = wirtinger(F, rho[k:k + rows, None] * u[None, :])
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


def _farthest_pair(xy: np.ndarray):
    # sample indices (ia, ib) of a farthest pair of the rows of xy; scipy is
    # imported here because a module-level import slows every start-up
    from scipy.spatial import ConvexHull, QhullError
    try:
        hull = ConvexHull(xy).vertices  # counter-clockwise in 2-d
    except QhullError:  # collinear or coincident: ends of the principal axis
        centered = xy - xy.mean(axis=0)
        s = xy @ np.linalg.eigh(centered.T @ centered)[1][:, 1]
        return tuple(sorted((int(np.argmin(s)), int(np.argmax(s)))))
    pts, h = xy[hull], len(hull)
    ex, ey = (np.roll(pts, -1, axis=0) - pts).T.tolist()
    # rotating calipers: j moves forward while edge j still turns left of
    # edge i; {i, i+1} x {j, j+1} are the candidates, the j+1 ones kept so
    # that rounding in the turn test cannot drop the farthest pair
    pairs, j = [], 1
    for i in range(h):
        j = max(j, i + 1)  # never behind edge i, whatever the rounding
        while ex[i] * ey[j % h] - ey[i] * ex[j % h] > 0.0:
            j += 1
        pairs += [(i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)]
    a, b = (np.asarray(pairs) % h).T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    d2 = ((pts[lo] - pts[hi]) ** 2).sum(axis=1)
    # ties: the lowest hull positions, the earlier one first
    ia, ib = divmod(int((lo * h + hi)[d2 == d2.max()].min()), h)
    return int(hull[ia]), int(hull[ib])


_POLISH_ROUNDS = 3
_POLISH_TOL = 1e-10


def diameter_estimate(F: PolyharmonicMap, r: float = 1.0, n_radii: int = 16,
                      n_angles: int = 1024) -> float:
    """Lower estimate of diam F(|z| <= r) from a polar sample grid.

    Rotating calipers (Toussaint, 1983) on the counter-clockwise qhull hull
    of the sampled image find the farthest sampled pair; ties go to the
    lowest hull positions.  Collinear or coincident samples, which qhull
    rejects, use the ends along the principal axis.  Three rounds of
    coordinate-wise bracket zoom polish the pair's radii and angles, one
    grid step either way, down to 1e-10; each zoom round is one evaluate
    call.  Always a lower bound on the true diameter.  Raises
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
            x_best, v = zoom_max(lambda xs: dist(k, xs), lo, hi, _POLISH_TOL)
            if v > refined:
                refined = v
                state[k] = x_best
    return max(best, refined)
