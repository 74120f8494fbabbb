"""Correctness checks of one operation's output.

Each check recomputes what it can with :mod:`oracle` from the map's
coefficients, or tests a property the method must have (a bound, a sign
change, a verdict a theorem guarantees, a count that must add up).  None
compares against stored output.  ``check`` returns the list of problems
found; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracle

GRID_EDGE = 1.0 - 1e-6  # the outermost radius verify and three-circles use
TOL_REPORT = 1e-9  # polyharm's report tolerance on margins
LENGTH_RTOL = 1e-6  # sup_length may relax its quadrature tolerance to 1e-7


def _fields(out: str) -> dict:
    vals = {}
    for line in out.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            vals[key.strip()] = val.strip()
    return vals


class _Problems(list):
    def need(self, ok, what, *args):
        if not ok:
            self.append(what % args if args else what)

    def close(self, got, want, what, rtol, atol=0.0):
        self.need(got is not None and abs(got - want) <= rtol * abs(want) + atol,
                  "%s = %r, expected %r", what, got, want)


def _diameter_range(m):
    """|F(1) - F(-1)| <= diam <= 2 sum (|a| + |b|): both ends of the real
    diameter are sampled by every polar grid with an even angle count."""
    ends = oracle.evaluate(m.a, m.b, np.array([1.0, -1.0]))
    return abs(ends[0] - ends[1]), 2.0 * oracle.coefficient_sum(m.a, m.b)


def _check_diameter(probs, m, diam):
    lo, hi = m.cached("diam", lambda: _diameter_range(m))
    probs.need(diam >= lo * (1.0 - 1e-12), "diam %r below |F(1) - F(-1)| = %r", diam, lo)
    probs.need(diam <= hi * (1.0 + 1e-12), "diam %r above 2 sum |coeff| = %r", diam, hi)


def _alpha0(m) -> float:
    return abs(abs(m.a[0, 0]) - abs(m.b[0, 0]))


def _area(m, r):
    poly = m.area_poly()
    return float(oracle.poly_eval(poly, r)), float(oracle.poly_scale(poly, r))


def check_verify(op, rc, out) -> list:
    m = op.map
    probs = _Problems()
    doc = json.loads(out)
    d = doc["derived"]
    probs.need(d["p"] == m.p and d["J"] == m.a.shape[1], "table shape %r x %r",
               d["p"], d["J"])
    probs.close(d["coefficient_sum"], oracle.coefficient_sum(m.a, m.b),
                "coefficient_sum", 1e-12)
    probs.close(d["alpha_at_zero"], _alpha0(m), "alpha_at_zero", 1e-12, 1e-15)
    s_edge, scale = _area(m, GRID_EDGE)
    probs.close(d["S_near_boundary"], s_edge, "S_near_boundary", 0.0,
                1e-10 * (1.0 + scale))

    l1 = d["l1"]
    boundary = m.cached("l1", lambda: oracle.circle_length(m.a, m.b, 1.0))
    probs.need(l1 >= boundary * (1.0 - LENGTH_RTOL),
               "l1 %r below the boundary length %r", l1, boundary)
    bound = oracle.speed_bound(m.a, m.b)
    probs.need(l1 <= bound * (1.0 + 1e-12), "l1 %r above 2 pi sum j|coeff| = %r",
               l1, bound)
    if m.monotone_length:
        probs.need(l1 <= boundary * (1.0 + LENGTH_RTOL),
                   "l1 %r above the boundary length %r", l1, boundary)
    _check_diameter(probs, m, d["diam"])
    probs.need(d["K"] is None or d["K"] >= 1.0 - 1e-12, "K = %r below 1", d["K"])
    for key, want in m.expect.items():
        if key in d:
            probs.close(d[key], want, key, 1e-9)

    checks = {e["name"]: e for e in doc["checks"]}
    for kind in m.angle_kinds:
        e = checks.get("arg-condition-" + kind)
        probs.need(e is not None and e["verdict"] == "pass",
                   "angle condition %s does not pass on a table built for it", kind)
    if "classification" in m.expect:
        e = checks.get("area-schwarz", {})
        got = e.get("extras", {}).get("classification")
        probs.need(got == m.expect["classification"], "classification %r", got)

    counts = {"pass": 0, "fail": 0, "hypotheses-not-met": 0, "skipped": 0}
    failed = unmet = False
    for e in doc["checks"]:
        counts[e["verdict"]] += 1
        failed |= e["counts_as"] == "conclusion" and e["verdict"] == "fail"
        unmet |= (e["verdict"] == "hypotheses-not-met"
                  or (e["counts_as"] == "hypothesis" and e["verdict"] == "fail"))
    code = 1 if failed else 2 if unmet else 0
    summary = doc["summary"]
    probs.need(summary == dict(counts, exit_code=code),
               "summary %r does not match the checks %r", summary, counts)
    probs.need(rc == code, "exit code %d, checks say %d", rc, code)
    return probs


def check_diam(op, rc, out) -> list:
    probs = _Problems()
    _, _, val = out.partition("diameter >=")
    _check_diameter(probs, op.map, float(val))
    return probs


def check_area(op, rc, out) -> list:
    f = _fields(out)
    r = float(op.args[op.args.index("--r") + 1])
    want, scale = _area(op.map, r)
    method = op.args[op.args.index("--method") + 1]
    probs = _Problems()
    routes = [k for k in ("S_series", "S_quadrature")
              if method in ("both", k[2:])]
    for key in routes:
        probs.close(float(f[key]), want, key, 0.0, 1e-10 * (1.0 + scale))
    if method == "both":
        diff = abs(float(f["S_series"]) - float(f["S_quadrature"]))
        probs.close(float(f["difference"]), diff, "difference", 6e-3)  # printed %.3g
    return probs


def check_landau(op, rc, out) -> list:
    m = op.map
    f = _fields(out)
    probs = _Problems()
    p, alpha, diam = int(f["p"]), float(f["alpha"]), float(f["diam"])
    r, rho = float(f["r_univ"]), float(f["rho_cover"])
    probs.need(p == m.p, "p = %r", p)
    probs.close(alpha, _alpha0(m), "alpha", 1e-12, 1e-15)
    _check_diameter(probs, m, diam)
    below = oracle.landau_diameter_phi(p, alpha, diam, r * (1.0 - 1e-9))
    above = oracle.landau_diameter_phi(p, alpha, diam, r * (1.0 + 1e-9))
    probs.need(below > 0.0 > above, "majorant does not change sign across "
               "r_univ = %r: %r, %r", r, below, above)
    probs.close(rho, oracle.landau_diameter_cover(p, alpha, diam, r),
                "rho_cover", 1e-9, 1e-12)
    return probs


def _worst(out):
    line = _fields(out).get("worst slack")
    return float(line.split()[0]) if line else None


def check_three_circles(op, rc, out) -> list:
    """The map satisfies the area angle condition and S(1) < 1, so the
    interpolation bound holds and the verdict must be pass."""
    m = op.map
    r1 = float(op.args[op.args.index("--r1") + 1])
    grid = np.linspace(r1, GRID_EDGE, 50)
    poly = m.area_poly()
    s = oracle.poly_eval(poly, grid)
    mm = float(oracle.poly_eval(poly, r1))
    slack = np.exp(math.log(mm) * np.log(grid) / math.log(r1)) - s
    probs = _Problems()
    probs.need(_fields(out).get("verdict") == "pass", "verdict %r",
               _fields(out).get("verdict"))
    probs.need(slack.min() >= -TOL_REPORT, "own worst slack %r", slack.min())
    probs.close(_worst(out), float(slack.min()), "worst slack", 1e-5, 1e-12)
    return probs


def _schwarz_margins(poly, grid):
    s = oracle.poly_eval(poly, grid)
    phi = s / grid ** 2
    steps = np.diff(phi)
    excess = oracle.growth_excess(poly, grid)
    slacks = [steps, excess]
    if oracle.poly_eval(poly, GRID_EDGE) <= 1.0 + TOL_REPORT:
        slacks.append(grid ** 2 - s)
    return phi, steps, min(float(x.min()) for x in slacks)


def check_schwarz(op, rc, out) -> list:
    """Under the area angle condition S(r)/r^2 is nondecreasing and, with
    S(1) < 1, stays below 1: the verdict must be pass."""
    f = _fields(out)
    grid = np.linspace(0.01, 0.99, 100)
    phi, steps, worst = _schwarz_margins(op.map.area_poly(), grid)
    probs = _Problems()
    probs.need(f.get("verdict") == "pass", "verdict %r", f.get("verdict"))
    probs.need(worst >= -1e-12, "own worst slack %r", worst)
    probs.close(_worst(out), worst, "worst slack", 1e-5, 1e-12)
    spread = float(phi.max() - phi.min())
    if spread > 1e-9 and (steps.min() > 1e-9 or steps.min() < 1e-11):
        want = "strictly-increasing" if steps.min() > 1e-9 else "nondecreasing"
        probs.need(f.get("classification") == want, "classification %r, expected %r",
                   f.get("classification"), want)
    return probs


def check_jmetric(op, rc, out) -> list:
    """A disk automorphism distorts the j metric by at most a factor 2."""
    f = _fields(out)
    probs = _Problems()
    sup = float(f["sup_ratio"])
    probs.need(0.0 < sup <= 2.0 + TOL_REPORT, "sup_ratio %r outside (0, 2]", sup)
    probs.need(float(f["bound"]) == 2.0 and f["verdict"] == "pass",
               "bound %r, verdict %r", f["bound"], f["verdict"])
    return probs


_CHECKS = {
    "verify": check_verify,
    "diam": check_diam,
    "area": check_area,
    "landau": check_landau,
    "three-circles": check_three_circles,
    "schwarz": check_schwarz,
    "jmetric": check_jmetric,
}


def check(op, rc: int, out: str) -> list:
    """Problems with one operation's exit code and standard output."""
    if rc not in (0, 1, 2):
        return ["exit code %d" % rc]
    try:
        return _CHECKS[op.kind](op, rc, out)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return ["unreadable output: %r" % (exc,)]
