#!/usr/bin/env python3
"""Margins of the growth inequalities on equality cases and random tables.

Equality families should certify with slack at the tolerance floor, random
tables under the angle condition with honest positive slack.
"""

import math

import numpy as np

from polyharm import catalog
from polyharm.certificates import (
    area_schwarz,
    diameter_coefficient_bounds,
    length_coefficient_bounds,
    three_circles_area,
)
from polyharm.core import PolyharmonicMap
from polyharm.geometry import area_series


def show(rep):
    worst = rep.worst_margin
    print("  %-28s verdict=%-20s margins=%3d  worst slack=%s"
          % (rep.name, rep.verdict, rep.count,
             "%.3e" % worst.slack if worst else "n/a"))


def random_area_cond(rng):
    # two aligned analytic layers, conjugate layer pushed a half turn apart
    p = 2
    a = np.zeros((p, 2), dtype=complex)
    b = np.zeros((p, 2), dtype=complex)
    base = rng.uniform(0.0, 2.0 * np.pi)
    for n in range(p):
        a[n, 0] = rng.uniform(0.2, 1.0) * np.exp(1j * (base + rng.uniform(-0.6, 0.6)))
    b[0, 0] = 0.5 * abs(a[0, 0])
    b[1, 0] = -0.5 * abs(a[1, 0])
    return PolyharmonicMap(p, 2, a, b, label="random")


def main():
    print("equality cases")
    show(diameter_coefficient_bounds(catalog.monomial(1, 3, 1.0), 2.0))
    show(length_coefficient_bounds(catalog.identity(), 1.0, 2.0 * math.pi))
    show(three_circles_area(catalog.identity(), 0.3, 0.09))
    show(three_circles_area(catalog.linear(math.sqrt(2.0), 1.0), 0.5, 0.25))
    print()

    print("depth-3 chain against its exact constants (K=3, l1=6 pi)")
    rep = length_coefficient_bounds(catalog.f2(), 3.0, 6.0 * math.pi)
    show(rep)
    for m in rep.margins:
        print("    %-16s slack=%.12f  (9/n - 1)" % (m.check_id, m.slack))
    print()

    print("area-ratio monotonicity")
    for F in (catalog.identity(), catalog.monomial(1, 2, 1.0),
              catalog.builtin("form37", {"eta": 1.0, "zeta2": {"1": 1.0}})):
        rep = area_schwarz(F)
        print("  %-12s %-20s classification=%s"
              % (F.label, rep.verdict, rep.extras["classification"]))
    print()

    print("random tables under the angle condition")
    rng = np.random.default_rng(20240817)
    for _ in range(5):
        F = random_area_cond(rng)
        rep = area_schwarz(F)
        s1 = float(area_series(F, 1.0))
        print("  S(1)=%8.4f  verdict=%-6s classification=%s"
              % (s1, rep.verdict, rep.extras["classification"]))


if __name__ == "__main__":
    main()
