"""Checkable inequality certificates for truncated polyharmonic maps.

Each check returns a CheckReport: a verdict ("pass", "fail", or
"hypotheses-not-met"), the number of margins (one per tested inequality
instance, slack = rhs - lhs for bounds of the form lhs <= rhs), the worst
margin, and witnesses for the smallest or negative slacks.  A report fails
exactly when some margin's slack drops below minus that margin's
tolerance.  Margins travel as numpy columns; ``margins`` rebuilds them.

Each check tests its hypotheses in a fixed order and reports the first
unmet one as a "hypotheses-not-met" verdict with ``extras["reason"]``;
only arguments outside their domain raise.

Layer-pair angle conditions are evaluated on arguments of coefficient
ratios, computed as the phase of x * conj(y) so that zero-angle and
quarter-turn families come out exact in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._search import zoom_max
from .core import PolyharmonicMap, evaluate, ring_values
from .errors import InvalidDiameter, InvalidParams, NotAnalytic
from .geometry import area_growth_excess, area_series

TOL_REPORT = 1e-9
ANGLE_TOL = 1e-12
ZERO_COEFF_REL = 1e-14
R_EDGE = 1.0 - 1e-6  # "near the boundary": where S is compared with 1
THREE_CIRCLES_GRID = 50  # radii of three_circles_area, from r1 to R_EDGE
SCHWARZ_GRID = 100  # radii of area_schwarz, from 0.01 to 0.99
HADAMARD_ANGLES = 4096  # samples of each circle maximum of hadamard_three_circles
_PAIR_ROWS = 1 << 14  # (j, n1, n2) cells of one dense block of layer-pair angles

__all__ = [
    "TOL_REPORT",
    "ANGLE_TOL",
    "ZERO_COEFF_REL",
    "R_EDGE",
    "THREE_CIRCLES_GRID",
    "SCHWARZ_GRID",
    "HADAMARD_ANGLES",
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
    count: int = 0  # margins tested
    worst_margin: Margin | None = None
    witnesses: tuple = ()
    extras: dict = field(default_factory=dict)
    blocks: object = field(default=(), repr=False, compare=False)

    def worst(self):
        return self.worst_margin

    @property
    def margins(self) -> tuple:
        """Every margin in check order, rebuilt from the column blocks."""
        rows = []
        for ids, key, lhs, rhs, slack, tol in _columns(self.blocks):
            lhs, rhs = np.broadcast_arrays(lhs, rhs, slack)[:2]
            rows += [(k, Margin(ids(i), float(lhs[i]), float(rhs[i]), float(slack[i]), tol))
                     for i, k in enumerate(key.tolist())]
        return tuple(m for _, m in sorted(rows, key=lambda row: row[0]))


def _columns(blocks):
    # each block with its slack; rhs None is the bound lhs <= 0 (slack -lhs keeps -0.0)
    for ids, key, lhs, rhs, tol in blocks:
        yield (ids, key, lhs, 0.0, -lhs, tol) if rhs is None else \
            (ids, key, lhs, rhs, rhs - lhs, tol)


def _report(name, blocks, extras=None):
    """CheckReport of the (ids, key, lhs, rhs, tol) column blocks in
    ``blocks``: ``ids(i)`` formats row i's check_id, ``key`` is each row's
    place in check order (rising within a block), and one tol per block
    puts its failing rows first by slack.  Kept are the count, the worst
    margin (ties to the lower key) and as witnesses the first 16 of the
    failing margins by slack, then the worst if it passes."""
    count, worst, failing = 0, None, []
    for block in _columns(blocks):
        _, key, _, _, slack, tol = block
        count += slack.size
        # the 16 smallest slacks' rows (ties in row order, NaN last), sorted
        rows = np.arange(slack.size) if slack.size <= 256 else \
            np.flatnonzero(~(slack > np.partition(slack, 15)[15]))
        picked = rows[np.argsort(slack[rows], kind="stable")[:16]]
        cands = list(zip(slack[picked].tolist(), key[picked].tolist(), picked.tolist(),
                         [block] * picked.size))
        if cands and (worst is None or cands[0][:2] < worst[:2]):
            worst = cands[0]
        failing = sorted(failing + [c for c in cands if c[0] < -tol])[:16]
    verdict, margin = "fail" if failing else "pass", None
    if worst is not None:
        slack, _, i, (ids, _, lhs, rhs, _, tol) = worst
        lhs, rhs = (float(v[i] if isinstance(v, np.ndarray) else v) for v in (lhs, rhs))
        margin = Margin(ids(i), lhs, rhs, slack, tol)
        failing = failing if slack < -tol else (failing + [worst])[:16]
    # check_ids are formatted only for the margins reported
    witnesses = tuple({"check_id": r[3][0](r[2]), "slack": r[0]} for r in failing)
    return CheckReport(name, verdict, count, margin, witnesses, extras or {}, blocks)


def _unmet(name, reason, **extras):
    # the report of a check whose hypothesis ``reason`` names does not hold
    return CheckReport(name, "hypotheses-not-met", extras=dict(extras, reason=reason))


# ---- layer-pair angle conditions ----


class _AngleBlocks:
    """The column blocks of one kind's angle condition, worked out afresh on
    each pass: the layer pairs a block of first layers n1 at a time, dense
    over (j, n1, n2, a|b) so that memory stays O(p J), then the moduli."""

    def __init__(self, F: PolyharmonicMap, kind: str):
        self.F, self.kind = F, kind

    def __iter__(self):
        p, J, kind, half = self.F.p, self.F.J, self.kind, math.pi / 2.0
        T = np.ascontiguousarray(np.array((self.F.a, self.F.b)).T)  # (j, n, a|b)
        re, im = T.real, T.imag
        mod = np.hypot(re, im)  # bitwise abs() of each entry
        live = mod > ZERO_COEFF_REL * mod.max()
        h = min(p, max(1, _PAIR_ROWS // (p * J)))
        for lo in range(0, p - 1, h):
            hb = min(h, p - lo)  # first layers n1 in [lo, lo + hb)
            x = re[:, lo:lo + hb, None], im[:, lo:lo + hb, None]
            y = re[:, None], im[:, None]
            # the phase of x * conj(y), the product formed as Python forms it
            ang = np.abs(np.arctan2(x[1] * y[0] - x[0] * y[1], x[0] * y[0] + x[1] * y[1]))
            ang[ang < ANGLE_TOL] = 0.0
            upper = (np.arange(lo, lo + hb)[:, None] < np.arange(p))[:, :, None]  # n1 < n2
            at = (live[:, lo:lo + hb, None] & live[:, None] & upper).ravel().nonzero()[0]
            # key = ((j * p + n1) * p + n2) * 2 + (0 for a, 1 for b)
            key = at + (at // (2 * hb * p) * (p - hb) + lo) * 2 * p
            lhs, rhs = ang.ravel()[at], None if kind == "length" else half
            if kind == "area":  # b-pairs are wanted a quarter turn apart or more
                lhs, rhs = np.where(key & 1, half, lhs), np.where(key & 1, lhs, half)

            def ids(i, key=key):
                j_n1, n2_t = divmod(key.item(i), 2 * p)
                (j, n1), (n2, t) = divmod(j_n1, p), divmod(n2_t, 2)
                return "%s-pair n1=%d n2=%d j=%d" % ("ab"[t], n1 + 1, n2 + 1, j + 1)

            yield ids, key, lhs, rhs, ANGLE_TOL
        if kind == "area":
            n, j = (live[..., 0] | live[..., 1]).T.nonzero()
            yield (lambda i: "modulus n=%d j=%d" % (n.item(i) + 1, j.item(i) + 1),
                   2 * J * p * p + n * J + j, mod[j, n, 1], mod[j, n, 0], TOL_REPORT)


# the map last asked about and its angle reports by kind: verify asks for
# each kind, and then each conclusion asks again for the kind it assumes
_asked = {"map": None}


def arg_condition(F: PolyharmonicMap, kind: str) -> CheckReport:
    """Coefficient angle condition across layer pairs sharing a power j.

    kind="diameter": both the a-pair and b-pair angles stay within a
    quarter turn.  kind="length": all pair angles are exactly zero.
    kind="area": a-pair angles within a quarter turn, b-pair angles at
    least a quarter turn, and |a| >= |b| entry-wise.

    Zero coefficients (below ZERO_COEFF_REL relative to the largest entry)
    take part in no pair.  Margins run over (j, n1, n2), the a-pair before
    the b-pair, then the area moduli over (n, j).
    """
    if kind not in ("diameter", "length", "area"):
        raise InvalidParams("unknown angle condition kind %r" % (kind,))
    if _asked["map"] is not F:  # maps are immutable, so a report holds for its map
        _asked.clear()
        _asked["map"] = F
    if kind not in _asked:
        rep = _asked[kind] = _report("arg-condition-%s" % kind, _AngleBlocks(F, kind),
                                     extras={"kind": kind})
        rep.extras["pairs"] = rep.count
    return _asked[kind]


# ---- coefficient bounds ----


def diameter_coefficient_bounds(F: PolyharmonicMap, diam: float) -> CheckReport:
    """Column sums of the table against sqrt(p)/2 (and sqrt(2p)/2) times
    the image diameter, one margin per power j plus the combined sum.
    Hypotheses: the diameter angle condition, then diam > 0."""
    if not (diam >= 0.0 and math.isfinite(diam)):
        raise InvalidDiameter("diameter must be finite and >= 0, got %r" % (diam,))
    if arg_condition(F, "diameter").verdict != "pass":
        return _unmet("diameter-coefficient-bounds", "layer angle condition fails")
    if diam == 0.0:
        return _unmet("diameter-coefficient-bounds", "image diameter estimate is zero")
    ca = 0.5 * math.sqrt(F.p) * diam
    cab = 0.5 * math.sqrt(2.0 * F.p) * diam
    # one contiguous row per power, summed as a column on its own would be
    sa, sb = (np.ascontiguousarray(np.abs(X).T).sum(axis=1) for X in (F.a, F.b))
    lhs = np.array((sa, sb, sa + sb)).T.ravel()  # per power: a, b, then both
    ids = ("sum|a| j=%d", "sum|b| j=%d", "sum|a|+|b| j=%d")
    return _report("diameter-coefficient-bounds",
                   [(lambda i: ids[i % 3] % (i // 3 + 1), np.arange(lhs.size), lhs,
                     np.array((ca, ca, cab) * F.J), TOL_REPORT)],
                   extras={"diameter": diam})


def length_coefficient_bounds(F: PolyharmonicMap, K: float | None, l1: float) -> CheckReport:
    """Entry-wise |a| + |b| against K * l1 / (2 pi (n + j - 1)).  Hypotheses:
    layer alignment, then a finite K (None where the map has none)."""
    if not (K is None or 1.0 <= K < math.inf):
        raise InvalidParams("quasiregularity constant must be >= 1, got %r" % (K,))
    if not (l1 >= 0.0 and math.isfinite(l1)):
        raise InvalidParams("boundary length must be finite and >= 0, got %r" % (l1,))
    if arg_condition(F, "length").verdict != "pass":
        return _unmet("length-coefficient-bounds", "layer alignment condition fails")
    if K is None:
        return _unmet("length-coefficient-bounds", "map is degenerate on the closed disk")
    lhs = np.hypot(F.a.real, F.a.imag) + np.hypot(F.b.real, F.b.imag)
    rhs = K * l1 / (2.0 * math.pi * (np.arange(F.p)[:, None] + np.arange(1, F.J + 1)))
    return _report("length-coefficient-bounds",
                   [(lambda i: "|a|+|b| n=%d j=%d" % (i // F.J + 1, i % F.J + 1),
                     np.arange(lhs.size), lhs.ravel(), rhs.ravel(), TOL_REPORT)],
                   extras={"K": K, "l1": l1})


# ---- three-circles style growth bounds ----


def three_circles_area(F: PolyharmonicMap, r1: float, m: float) -> CheckReport:
    """Interpolation bound S(r) <= m ** (log r / log r1) on
    THREE_CIRCLES_GRID equispaced radii from r1 to R_EDGE, ends included.

    Hypotheses, in order: the area angle condition, m > 0, the unit budget
    (m < 1 and S <= 1 near the boundary), and S(r1) <= m; no area is
    computed before a hypothesis needs it.  Raises InvalidParams unless
    0 < r1 <= R_EDGE and m is finite.
    """
    if not (0.0 < r1 <= R_EDGE):
        raise InvalidParams("r1 must be in (0, 1 - 1e-6], got %r" % (r1,))
    if not math.isfinite(m):
        raise InvalidParams("m must be finite, got %r" % (m,))
    hyp = arg_condition(F, "area")
    notes = {"angle_condition": hyp.verdict, "m": m}
    if hyp.verdict != "pass":
        return _unmet("three-circles-area", "area angle condition fails", **notes)
    if not m > 0.0:
        return _unmet("three-circles-area", "normalized area at r1 is not positive", **notes)
    notes["S_near_boundary"] = float(area_series(F, R_EDGE))
    if not (m < 1.0 and notes["S_near_boundary"] <= 1.0 + TOL_REPORT):
        return _unmet("three-circles-area", "normalized area exceeds the unit budget",
                      **notes)
    notes["S_at_r1"] = float(area_series(F, r1))
    if notes["S_at_r1"] > m + TOL_REPORT:
        return _unmet("three-circles-area", "normalized area at r1 exceeds m", **notes)
    grid = np.linspace(r1, R_EDGE, THREE_CIRCLES_GRID)
    s = area_series(F, grid)
    bound = np.exp(math.log(m) * np.log(grid) / math.log(r1))
    return _report("three-circles-area",
                   [(lambda i: "S(r) r=%.17g" % grid[i], np.arange(grid.size), s, bound,
                     TOL_REPORT)], extras=notes)


def _circle_log_max(F: PolyharmonicMap, r: float) -> float:
    vals = np.abs(ring_values(F, [r], HADAMARD_ANGLES)[0])
    i0 = int(np.argmax(vals))
    th0, d_th = 2.0 * np.pi * i0 / HADAMARD_ANGLES, 2.0 * np.pi / HADAMARD_ANGLES
    _, v = zoom_max(lambda xs: np.abs(evaluate(F, r * np.exp(1j * xs))),
                    th0 - d_th, th0 + d_th, tol=1e-12)
    return math.log(max(float(vals[i0]), v))


def hadamard_three_circles(F: PolyharmonicMap, r1: float, r2: float) -> CheckReport:
    """Classical log-convexity of the circle maximum for analytic tables,
    on the 23 radii that split [r1, r2] into 24 equal steps.

    Each circle maximum is the best of HADAMARD_ANGLES equispaced samples,
    zoomed in on.  Only meaningful when the map is a single analytic layer
    (p = 1 and no conjugate-power coefficients); anything else raises
    NotAnalytic.
    """
    if F.p != 1 or np.any(F.b != 0):
        raise NotAnalytic("three-circles log-convexity needs an analytic map")
    if not (0.0 < r1 < r2 <= 1.0):
        raise InvalidParams("need 0 < r1 < r2 <= 1")
    if F.max_coefficient() == 0.0:
        return CheckReport(name="hadamard-three-circles", verdict="pass",
                           extras={"reason": "zero map"})
    grid = np.linspace(r1, r2, 25)[1:-1]
    log_m1 = _circle_log_max(F, r1)
    log_m2 = _circle_log_max(F, r2)
    lr1, lr2 = math.log(r1), math.log(r2)
    lhs, rhs = [], []
    for r in grid:
        lhs.append(_circle_log_max(F, float(r)))
        lr = math.log(float(r))
        # log M(r) <= [(lr2 - lr) log M1 + (lr - lr1) log M2] / (lr2 - lr1)
        rhs.append(((lr2 - lr) * log_m1 + (lr - lr1) * log_m2) / (lr2 - lr1))
    return _report("hadamard-three-circles",
                   [(lambda i: "logM r=%.17g" % grid[i], np.arange(grid.size),
                     np.array(lhs), np.array(rhs), TOL_REPORT)],
                   extras={"r1": r1, "r2": r2, "log_max_r1": log_m1,
                           "log_max_r2": log_m2})


# ---- area-ratio monotonicity ----


def area_schwarz(F: PolyharmonicMap) -> CheckReport:
    """Monotonicity of phi(r) = S(r)/r^2 under the area angle condition,
    with the closed-form growth excess as a second route, and the induced
    S(r) <= r^2 comparison when S stays within the unit-area budget, on
    SCHWARZ_GRID equispaced radii from 0.01 to 0.99."""
    if arg_condition(F, "area").verdict != "pass":
        return _unmet("area-schwarz", "area angle condition fails")
    grid = np.linspace(0.01, 0.99, SCHWARZ_GRID)
    s = area_series(F, grid)
    phi = s / grid ** 2
    n = grid.size
    blocks = [(lambda i: "phi step r=%.17g" % grid[i + 1], np.arange(n - 1),
               phi[:-1], phi[1:], TOL_REPORT)]
    excess = area_growth_excess(F, grid)
    blocks.append((lambda i: "growth excess r=%.17g" % grid[i], np.arange(n - 1, 2 * n - 1),
                   0.0, excess, 1e-12))
    s_edge = float(area_series(F, R_EDGE))
    if s_edge <= 1.0 + TOL_REPORT:
        blocks.append((lambda i: "S<=r^2 r=%.17g" % grid[i],
                       np.arange(2 * n - 1, 3 * n - 1), s, grid ** 2, TOL_REPORT))
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
    return _report("area-schwarz", blocks, extras=extras)
