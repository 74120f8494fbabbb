"""Landau-style univalence and covering radii from decreasing majorants.

Each bound takes caller-supplied aggregates (a normalization alpha for the
smallest directional stretch at 0, an image diameter, or a quasiregularity
constant together with the sup of circle-image lengths) and brackets the
least positive root of an explicitly decreasing majorant phi on (0, 1).
It returns the largest probed radius where phi is still positive, within
the bracket width below the root, plus the covering radius of the
schlicht disk guaranteed there.

This module never inspects a map; composition with the geometry estimators
happens at the command-line layer.  That keeps the root-solving testable
against closed forms on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _is_int
from .errors import InvalidDiameter, InvalidParams, NoSignChange

BRACKET_LO = 1e-12
BRACKET_HI = 1.0 - 1e-9
ROOT_TOL = 1e-12  # bracket width and residual scale of the root, read at each call

__all__ = [
    "BRACKET_LO",
    "BRACKET_HI",
    "ROOT_TOL",
    "LandauResult",
    "landau_from_diameter",
    "landau_from_length",
]


@dataclass(frozen=True)
class LandauResult:
    r_univ: float
    rho_cover: float
    phi_at_zero: float
    iterations: int
    bracket: tuple


@np.errstate(over="ignore", divide="ignore")
def _decreasing_root(phi):
    # least positive root of a strictly decreasing phi with phi(0+) > 0:
    # bisection on (0, 1) to bracket width ROOT_TOL and residual
    # |phi(mid)| <= ROOT_TOL (1 + phi(0+)).  The radius returned is the largest
    # probed one with phi > 0, never above the root.  The decrease holds by
    # construction: each majorant is alpha minus a positive multiple of a
    # sum of terms that increase in r, and the callers check that alpha,
    # diam, K and l1 are finite with diam > 0, K >= 1 and l1 > 0.  Near
    # r = 1 phi may overflow to -inf, unwarned; the bisection reads its sign
    lo, hi = BRACKET_LO, BRACKET_HI
    f_lo = float(phi(lo))
    if not (math.isfinite(f_lo) and f_lo > 0.0):
        raise InvalidParams("majorant must start positive, phi(0+)=%r" % (f_lo,))
    if float(phi(hi)) >= 0.0:
        raise NoSignChange("majorant stays nonnegative on (0, 1); "
                           "no univalence radius below 1 is certified")
    it = 0
    mid = 0.5 * (lo + hi)
    val = phi(mid)
    while it < 400:  # float resolution stops a bisection well before this
        if hi - lo <= ROOT_TOL and abs(val) <= ROOT_TOL * (1.0 + f_lo):
            break
        if val > 0.0:
            lo = mid
        else:
            hi = mid
        new_mid = 0.5 * (lo + hi)
        if not lo < new_mid < hi:  # the bracket is two adjacent floats
            break
        mid, val = new_mid, phi(new_mid)
        it += 1
    return (mid if val > 0.0 else lo), it, (lo, hi), f_lo


# ---- bounds from the image diameter ----


def _check_common(p: int, alpha: float) -> None:
    if not (_is_int(p) and p >= 1):
        raise InvalidParams("layer count must be an integer >= 1, got %r" % (p,))
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise InvalidParams("alpha must be positive and finite, got %r" % (alpha,))


def landau_from_diameter(p: int, alpha: float, diam: float) -> LandauResult:
    """Univalence and covering radii from a bound on the image diameter."""
    _check_common(p, alpha)
    if not (math.isfinite(diam) and diam > 0.0):
        raise InvalidDiameter("diameter must be positive and finite, got %r" % (diam,))
    c = 0.5 * math.sqrt(2.0 * p) * diam

    def phi(r):
        rr = np.asarray(r, dtype=float)
        one = 1.0 - rr
        s = (2.0 * rr - rr * rr) / (one * one)
        for n in range(2, p + 1):
            rp = rr ** (2 * (n - 1))
            s = s + rp / (one * one) + (2.0 * (n - 1)) * rp / one
        return alpha - c * s

    root, iters, bracket, f_lo = _decreasing_root(phi)
    tail = sum(2.0 * root ** (2 * (n - 1)) for n in range(2, p + 1))
    rho = root * (alpha - c * (root + tail) / (1.0 - root))
    return LandauResult(r_univ=root, rho_cover=rho, phi_at_zero=f_lo,
                        iterations=iters, bracket=bracket)


def landau_from_length(p: int, alpha: float, K: float, l1: float) -> LandauResult:
    """Univalence and covering radii from quasiregularity and the supremum
    of circle-image lengths."""
    _check_common(p, alpha)
    if not (math.isfinite(K) and K >= 1.0):
        raise InvalidParams("quasiregularity constant must be >= 1, got %r" % (K,))
    if not (math.isfinite(l1) and l1 > 0.0):
        raise InvalidParams("length bound must be positive, got %r" % (l1,))
    q = K * l1 / (2.0 * math.pi)

    def phi(r):
        rr = np.asarray(r, dtype=float)
        s = rr * 1.0
        for n in range(2, p + 1):
            s = s + 3.0 * rr ** (2 * (n - 1))
        return alpha - q * s / (1.0 - rr)

    root, iters, bracket, f_lo = _decreasing_root(phi)
    big_l = -math.log1p(-root)
    tail = sum(root ** (2 * (n - 1)) for n in range(2, p + 1))
    rho = alpha * root - q * (big_l - root + 2.0 * big_l * tail)
    if not rho > 0.0:
        raise InvalidParams("covering radius came out nonpositive; "
                            "parameters outside the certified regime")
    return LandauResult(r_univ=root, rho_cover=rho, phi_at_zero=f_lo,
                        iterations=iters, bracket=bracket)

