"""Checkable inequality certificates for truncated polyharmonic maps.

Each check returns a CheckReport: a verdict ("pass", "fail", or
"hypotheses-not-met"), a list of margins (one per tested inequality
instance, slack = rhs - lhs for bounds of the form lhs <= rhs), and
witnesses for the smallest or negative slacks.  A report fails exactly
when some margin's slack drops below minus that margin's tolerance.

Layer-pair angle conditions are evaluated on arguments of coefficient
ratios, computed as the phase of x * conj(y) so that zero-angle and
quarter-turn families come out exact in floating point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from ._search import zoom_max
from .core import PolyharmonicMap, check_grid_size, evaluate
from .errors import InvalidDiameter, InvalidParams, NotAnalytic
from .geometry import area_growth_excess, area_series

TOL_REPORT = 1e-9
ANGLE_TOL = 1e-12
ZERO_COEFF_REL = 1e-14
R_EDGE = 1.0 - 1e-6  # "near the boundary": where S is compared with 1

__all__ = [
    "TOL_REPORT",
    "ANGLE_TOL",
    "ZERO_COEFF_REL",
    "R_EDGE",
    "Margin",
    "CheckReport",
    "arg_condition",
    "diameter_coefficient_bounds",
    "length_coefficient_bounds",
    "three_circles_area",
    "hadamard_three_circles",
    "area_schwarz",
]


@dataclass(frozen=True)
class Margin:
    check_id: str
    lhs: float
    rhs: float
    slack: float
    tol: float = TOL_REPORT


@dataclass(frozen=True)
class CheckReport:
    name: str
    verdict: str  # "pass" | "fail" | "hypotheses-not-met"
    margins: tuple = ()
    witnesses: tuple = ()
    extras: dict = field(default_factory=dict)

    def worst(self):
        if not self.margins:
            return None
        return min(self.margins, key=lambda m: m.slack)


def _verdict(margins) -> str:
    for m in margins:
        if m.slack < -m.tol:
            return "fail"
    return "pass"


def _witnesses(margins) -> tuple:
    # every failing margin and the smallest slack, at most 16 of them
    if not margins:
        return ()
    order = sorted(range(len(margins)), key=lambda i: margins[i].slack)
    picked = [i for i in order if margins[i].slack < -margins[i].tol]
    if order and order[0] not in picked:
        picked.append(order[0])
    out = []
    for i in picked[:16]:
        m = margins[i]
        out.append({"check_id": m.check_id, "slack": m.slack})
    return tuple(out)


def _report(name, margins, extras=None):
    margins = tuple(margins)
    return CheckReport(name=name, verdict=_verdict(margins), margins=margins,
                       witnesses=_witnesses(margins), extras=extras or {})


# ---- layer-pair angle conditions ----


def _pair_angle(x: complex, y: complex) -> float:
    ang = abs(cmath.phase(x * y.conjugate()))
    if ang < ANGLE_TOL:
        return 0.0
    return ang


def arg_condition(F: PolyharmonicMap, kind: str) -> CheckReport:
    """Coefficient angle condition across layer pairs sharing a power j.

    kind="diameter": both the a-pair and b-pair angles stay within a
    quarter turn.  kind="length": all pair angles are exactly zero.
    kind="area": a-pair angles within a quarter turn, b-pair angles at
    least a quarter turn, and |a| >= |b| entry-wise.

    Zero coefficients (below ZERO_COEFF_REL relative to the largest entry)
    take part in no pair.
    """
    if kind not in ("diameter", "length", "area"):
        raise InvalidParams("unknown angle condition kind %r" % (kind,))
    t = F.table
    scale = t.max_coefficient()
    cut = ZERO_COEFF_REL * scale
    margins = []
    half = math.pi / 2.0

    def live(x):
        return abs(x) > cut

    for j in range(1, t.J + 1):
        for n1 in range(1, t.p + 1):
            for n2 in range(n1 + 1, t.p + 1):
                a1, a2 = t.a[n1 - 1, j - 1], t.a[n2 - 1, j - 1]
                b1, b2 = t.b[n1 - 1, j - 1], t.b[n2 - 1, j - 1]
                if live(a1) and live(a2):
                    ang = _pair_angle(a1, a2)
                    cid = "a-pair n1=%d n2=%d j=%d" % (n1, n2, j)
                    if kind == "length":
                        margins.append(Margin(cid, ang, 0.0, -ang, ANGLE_TOL))
                    else:
                        margins.append(Margin(cid, ang, half, half - ang, ANGLE_TOL))
                if live(b1) and live(b2):
                    ang = _pair_angle(b1, b2)
                    cid = "b-pair n1=%d n2=%d j=%d" % (n1, n2, j)
                    if kind == "length":
                        margins.append(Margin(cid, ang, 0.0, -ang, ANGLE_TOL))
                    elif kind == "diameter":
                        margins.append(Margin(cid, ang, half, half - ang, ANGLE_TOL))
                    else:
                        # area condition wants the b layers to disagree
                        margins.append(Margin(cid, half, ang, ang - half, ANGLE_TOL))
    if kind == "area":
        for n in range(1, t.p + 1):
            for j in range(1, t.J + 1):
                a, b = t.a[n - 1, j - 1], t.b[n - 1, j - 1]
                if live(a) or live(b):
                    cid = "modulus n=%d j=%d" % (n, j)
                    margins.append(Margin(cid, abs(b), abs(a), abs(a) - abs(b)))
    return _report("arg-condition-%s" % kind, margins,
                   extras={"kind": kind, "pairs": len(margins)})


# ---- coefficient bounds ----


def diameter_coefficient_bounds(F: PolyharmonicMap, diam: float) -> CheckReport:
    """Column sums of the table against sqrt(p)/2 (and sqrt(2p)/2) times
    the image diameter, one margin per power j plus the combined sum."""
    if not (diam > 0.0 and math.isfinite(diam)):
        raise InvalidDiameter("diameter must be positive and finite, got %r" % (diam,))
    t = F.table
    hyp = arg_condition(F, "diameter")
    if hyp.verdict != "pass":
        return CheckReport(name="diameter-coefficient-bounds",
                           verdict="hypotheses-not-met",
                           extras={"reason": "layer angle condition fails",
                                   "hypothesis": hyp.name})
    ca = 0.5 * math.sqrt(t.p) * diam
    cab = 0.5 * math.sqrt(2.0 * t.p) * diam
    margins = []
    for j in range(1, t.J + 1):
        sa = float(np.sum(np.abs(t.a[:, j - 1])))
        sb = float(np.sum(np.abs(t.b[:, j - 1])))
        margins.append(Margin("sum|a| j=%d" % j, sa, ca, ca - sa))
        margins.append(Margin("sum|b| j=%d" % j, sb, ca, ca - sb))
        margins.append(Margin("sum|a|+|b| j=%d" % j, sa + sb, cab, cab - (sa + sb)))
    return _report("diameter-coefficient-bounds", margins,
                   extras={"diameter": diam})


def length_coefficient_bounds(F: PolyharmonicMap, K: float, l1: float) -> CheckReport:
    """Entry-wise |a| + |b| against K * l1 / (2 pi (n + j - 1)) for maps
    whose layer coefficients are aligned."""
    if not (K >= 1.0 and math.isfinite(K)):
        raise InvalidParams("quasiregularity constant must be >= 1, got %r" % (K,))
    if not (l1 > 0.0 and math.isfinite(l1)):
        raise InvalidParams("boundary length must be positive, got %r" % (l1,))
    t = F.table
    hyp = arg_condition(F, "length")
    if hyp.verdict != "pass":
        return CheckReport(name="length-coefficient-bounds",
                           verdict="hypotheses-not-met",
                           extras={"reason": "layer alignment condition fails",
                                   "hypothesis": hyp.name})
    margins = []
    for n in range(1, t.p + 1):
        for j in range(1, t.J + 1):
            lhs = abs(t.a[n - 1, j - 1]) + abs(t.b[n - 1, j - 1])
            rhs = K * l1 / (2.0 * math.pi * (n + j - 1))
            margins.append(Margin("|a|+|b| n=%d j=%d" % (n, j), lhs, rhs, rhs - lhs))
    return _report("length-coefficient-bounds", margins,
                   extras={"K": K, "l1": l1})


# ---- three-circles style growth bounds ----


def three_circles_area(F: PolyharmonicMap, r1: float, m: float,
                       n_grid: int = 50) -> CheckReport:
    """Interpolation bound S(r) <= m ** (log r / log r1) on n_grid
    equispaced radii from r1 to R_EDGE, ends included.

    Hypotheses: the area angle condition, S bounded by 1 near the boundary,
    and 0 < m < 1 with S(r1) <= m.  Raises InvalidParams unless
    0 < r1 <= R_EDGE, m is positive and finite, and 1 <= n_grid <=
    MAX_GRID_POINTS.
    """
    if not (0.0 < r1 <= R_EDGE):
        raise InvalidParams("r1 must be in (0, 1 - 1e-6], got %r" % (r1,))
    if not (math.isfinite(m) and m > 0.0):
        raise InvalidParams("m must be positive and finite, got %r" % (m,))
    if n_grid < 1:
        raise InvalidParams("need n_grid >= 1, got %r" % (n_grid,))
    check_grid_size(n_grid, "n_grid")
    hyp = arg_condition(F, "area")
    s_r1 = float(area_series(F, r1))
    s_edge = float(area_series(F, R_EDGE))
    hyp_notes = {
        "angle_condition": hyp.verdict,
        "S_at_r1": s_r1,
        "S_near_boundary": s_edge,
        "m": m,
    }
    if (hyp.verdict != "pass" or m >= 1.0 or s_r1 > m + TOL_REPORT
            or s_edge > 1.0 + TOL_REPORT):
        return CheckReport(name="three-circles-area",
                           verdict="hypotheses-not-met", extras=hyp_notes)
    grid = np.linspace(r1, R_EDGE, n_grid)
    s = area_series(F, grid)
    bound = np.exp(math.log(m) * np.log(grid) / math.log(r1))
    margins = [Margin("S(r) r=%.17g" % grid[i], float(s[i]), float(bound[i]),
                      float(bound[i] - s[i]))
               for i in range(grid.size)]
    return _report("three-circles-area", margins, extras=hyp_notes)


def _circle_log_max(F: PolyharmonicMap, r: float, n_theta: int) -> float:
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    vals = np.abs(evaluate(F, r * np.exp(1j * th)))
    i0 = int(np.argmax(vals))
    d_th = 2.0 * np.pi / n_theta
    _, v = zoom_max(lambda xs: np.abs(evaluate(F, r * np.exp(1j * xs))),
                    float(th[i0] - d_th), float(th[i0] + d_th), tol=1e-12)
    return math.log(max(float(vals[i0]), v))


def hadamard_three_circles(F: PolyharmonicMap, r1: float, r2: float,
                           n_theta: int = 4096) -> CheckReport:
    """Classical log-convexity of the circle maximum for analytic tables,
    on the 23 radii that split [r1, r2] into 24 equal steps.

    Each circle maximum is the best of n_theta equispaced samples, zoomed
    in on.  Only meaningful when the map is a single analytic layer (p = 1
    and no conjugate-power coefficients); anything else raises NotAnalytic.
    Raises InvalidParams unless 1 <= n_theta <= MAX_GRID_POINTS.
    """
    t = F.table
    if t.p != 1 or np.any(t.b != 0):
        raise NotAnalytic("three-circles log-convexity needs an analytic map")
    if not (0.0 < r1 < r2 <= 1.0):
        raise InvalidParams("need 0 < r1 < r2 <= 1")
    if n_theta < 1:
        raise InvalidParams("need n_theta >= 1, got %r" % (n_theta,))
    check_grid_size(n_theta, "n_theta")
    if t.max_coefficient() == 0.0:
        return CheckReport(name="hadamard-three-circles", verdict="pass",
                           extras={"reason": "zero map"})
    grid = np.linspace(r1, r2, 25)[1:-1]
    log_m1 = _circle_log_max(F, r1, n_theta)
    log_m2 = _circle_log_max(F, r2, n_theta)
    lr1, lr2 = math.log(r1), math.log(r2)
    margins = []
    for r in grid:
        lm = _circle_log_max(F, float(r), n_theta)
        lr = math.log(float(r))
        # log M(r) <= [(lr2 - lr) log M1 + (lr - lr1) log M2] / (lr2 - lr1)
        rhs = ((lr2 - lr) * log_m1 + (lr - lr1) * log_m2) / (lr2 - lr1)
        margins.append(Margin("logM r=%.17g" % r, lm, rhs, rhs - lm))
    return _report("hadamard-three-circles", margins,
                   extras={"r1": r1, "r2": r2, "log_max_r1": log_m1,
                           "log_max_r2": log_m2})


# ---- area-ratio monotonicity ----


def area_schwarz(F: PolyharmonicMap, n_grid: int = 100) -> CheckReport:
    """Monotonicity of phi(r) = S(r)/r^2 under the area angle condition,
    with the closed-form growth excess as a second route, and the induced
    S(r) <= r^2 comparison when S stays within the unit-area budget, on
    n_grid equispaced radii from 0.01 to 0.99.  Raises InvalidParams unless
    n_grid >= 2, so that at least one monotonicity step is tested, and
    n_grid <= MAX_GRID_POINTS."""
    if n_grid < 2:
        raise InvalidParams("need n_grid >= 2, got %r" % (n_grid,))
    check_grid_size(n_grid, "n_grid")
    hyp = arg_condition(F, "area")
    if hyp.verdict != "pass":
        return CheckReport(name="area-schwarz", verdict="hypotheses-not-met",
                           extras={"reason": "area angle condition fails"})
    grid = np.linspace(0.01, 0.99, n_grid)
    s = area_series(F, grid)
    phi = s / grid ** 2
    margins = []
    for i in range(grid.size - 1):
        margins.append(Margin("phi step r=%.17g" % grid[i + 1],
                              float(phi[i]), float(phi[i + 1]),
                              float(phi[i + 1] - phi[i])))
    excess = area_growth_excess(F, grid)
    for i in range(grid.size):
        margins.append(Margin("growth excess r=%.17g" % grid[i],
                              0.0, float(excess[i]), float(excess[i]), 1e-12))
    s_edge = float(area_series(F, R_EDGE))
    if s_edge <= 1.0 + TOL_REPORT:
        for i in range(grid.size):
            rhs = float(grid[i] ** 2)
            margins.append(Margin("S<=r^2 r=%.17g" % grid[i], float(s[i]),
                                  rhs, rhs - float(s[i])))
    spread = float(phi.max() - phi.min())
    if spread < 1e-10:
        classification = "constant"
    elif np.all(np.diff(phi) > 1e-10):
        classification = "strictly-increasing"
    else:
        classification = "nondecreasing"
    extras = {
        "classification": classification,
        "phi_min": float(phi.min()),
        "phi_max": float(phi.max()),
        "S_near_boundary": s_edge,
        "unit_area_budget": s_edge <= 1.0 + TOL_REPORT,
    }
    return _report("area-schwarz", margins, extras=extras)
