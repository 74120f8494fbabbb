#!/usr/bin/env python3
"""Tour of the geometric quantities attached to a coefficient table.

Walks a few catalog maps through curve length, image area (both routes),
and the diameter estimate, printing a small table for each.
"""

import numpy as np

from polyharm import catalog
from polyharm.core import quasiregularity_constant
from polyharm.geometry import (
    area_quadrature,
    area_series,
    curve_length,
    diameter_estimate,
    sup_length,
)

MAPS = [
    catalog.identity(),
    catalog.linear(1.0, 1.0 / 3.0),
    catalog.monomial(1, 2, 1.0 / np.sqrt(2.0)),
    catalog.f2(),
    catalog.f1(),
]


def describe(F):
    print("== %s (p=%d, J=%d)" % (F.label, F.p, F.J))
    for r in (0.3, 0.6, 0.9):
        l = curve_length(F, r)
        s = area_series(F, r)
        q = area_quadrature(F, r)
        print("  r=%.1f  length=%10.6f  S=%12.8f  S_quad=%12.8f  gap=%8.1e"
              % (r, l, s, q, abs(s - q)))
    print("  sup length over all radii: %.10f" % sup_length(F))
    print("  diameter estimate:         %.10f" % diameter_estimate(F))
    try:
        print("  quasiregularity constant:  %.10g" % quasiregularity_constant(F))
    except Exception as exc:
        print("  quasiregularity constant:  n/a (%s)" % exc)
    print()


def main():
    # the depth-3 chain has everything in closed form; the others bracket
    # the interesting behaviors (isometry, affine stretch, double cover)
    for F in MAPS:
        describe(F)
    F = catalog.f2()
    print("depth-3 chain sanity: l(r)/2 pi r should be 1 + r^2 + r^4")
    for r in (0.25, 0.5, 0.75):
        ratio = curve_length(F, r) / (2.0 * np.pi * r)
        print("  r=%.2f  ratio=%.12f  target=%.12f"
              % (r, ratio, 1.0 + r**2 + r**4))


if __name__ == "__main__":
    main()
