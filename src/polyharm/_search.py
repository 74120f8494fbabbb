"""Bracketed searches: a batched bracket zoom for maxima and bisection.

These are deliberately hand-rolled: the call sites need deterministic probe
sequences (for byte-identical reports) and best-seen-so-far semantics (so a
grid maximum is never made worse by refinement).
"""
from __future__ import annotations

import math

import numpy as np


def zoom_max(f, lo: float, hi: float, tol: float, k: int = 9, rtol: float = 0.0):
    """Maximize f on [lo, hi] by zooming in on a k-point grid (k >= 4).

    Each round calls f once on the array of k equispaced points of the
    bracket, ends included, and narrows the bracket to the best point's two
    neighbours (its one neighbour at an end).  The search stops once that
    bracket is narrower than tol.  Returns ``(x_best, f_best)`` over every
    probed point, so the result is a valid lower bound for the true maximum
    even when f is monotone and the supremum sits on a bracket end, which
    is then returned exactly.

    With rtol > 0 a round also ends the search once the values have
    settled: (a) its k values spread by at most rtol (1 + |f_best|), or
    (b) f_best sits on an end of the original [lo, hi], this round probed
    it, the three probes nearest that end rise strictly into it, and the
    parabola through those three still climbs at the end.  Near an
    interior maximum the values vary as f'' d^2 / 2 over a bracket of
    width d, so (a) stops once zooming on can only gain about rtol.  (b)
    is a heuristic: it assumes f has no bump between the last interior
    probe and the end, which the parabola test cannot see.
    """
    ends = (lo, hi)
    best_x, best_f = lo, -math.inf
    while True:
        xs = np.linspace(lo, hi, k)
        vals = np.asarray(f(xs), dtype=float)
        i = int(np.argmax(vals))
        if vals[i] > best_f:
            best_x, best_f = float(xs[i]), float(vals[i])
        a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, k - 1)])
        if b - a < tol or b - a >= hi - lo:  # narrow, or stalled at float spacing
            return best_x, best_f
        if rtol > 0.0:
            if vals.max() - vals.min() <= rtol * (1.0 + abs(best_f)):
                return best_x, best_f
            # y0 < y1 < y2 toward the end, and the parabola through them
            # still climbs at the end: its slope there, 3 y2 - 4 y1 + y0
            y0, y1, y2 = vals[:3][::-1] if i == 0 else vals[-3:]
            if (i in (0, k - 1) and xs[i] in ends and (best_x, best_f) == (xs[i], vals[i])
                    and y0 < y1 < y2 and 3.0 * y2 - 4.0 * y1 + y0 >= 0.0):
                return best_x, best_f
        lo, hi = a, b


def bisect_decreasing(phi, lo: float, hi: float, tol: float,
                      residual_target: float = math.inf):
    """Bisection for a decreasing phi with phi(lo) > 0 > phi(hi).

    Narrows until the bracket is below ``tol`` and |phi(mid)| is below
    ``residual_target`` (or float resolution stops progress, or 400 steps
    are taken).  Returns ``(x, iterations, (lo, hi))``, x being the largest
    probed point with phi > 0: the last midpoint when phi is positive there,
    else the bracket's lo.  So x never lies above the least root.
    """
    it = 0
    mid = 0.5 * (lo + hi)
    val = phi(mid)
    while it < 400:  # float resolution stops a bisection well before this
        if (hi - lo) <= tol and abs(val) <= residual_target:
            break
        if val > 0.0:
            lo = mid
        else:
            hi = mid
        new_mid = 0.5 * (lo + hi)
        if new_mid <= lo or new_mid >= hi:
            break
        mid = new_mid
        val = phi(mid)
        it += 1
    return (mid if val > 0.0 else lo), it, (lo, hi)
