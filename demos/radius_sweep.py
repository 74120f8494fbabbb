#!/usr/bin/env python3
"""Sweep the univalence/covering radii over their driving parameters.

Shows how the diameter-driven radius decays as the image grows, and how
the length-driven radius reacts to the quasiregularity constant, at a few
table depths.
"""

import argparse
import math

import numpy as np

from polyharm.errors import NoSignChange
from polyharm.landau import landau_from_diameter, landau_from_length


def sweep_diameter(p, diams):
    print("diameter-driven radii at depth p=%d" % p)
    print("  %-8s %-22s %-22s" % ("diam", "r_univ", "rho_cover"))
    for d in diams:
        try:
            res = landau_from_diameter(p, 1.0, float(d))
            print("  %-8.3f %-22.16f %-22.16f" % (d, res.r_univ, res.rho_cover))
        except NoSignChange:
            print("  %-8.3f (majorant never reaches zero)" % d)
    print()


def sweep_length(p, ks, l1):
    print("length-driven radii at depth p=%d, l1=%.6f" % (p, l1))
    print("  %-8s %-22s %-22s" % ("K", "r_univ", "rho_cover"))
    for K in ks:
        res = landau_from_length(p, 1.0, float(K), l1)
        print("  %-8.3f %-22.16f %-22.16f" % (K, res.r_univ, res.rho_cover))
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=8, help="sweep resolution")
    args = ap.parse_args()

    diams = np.geomspace(0.25, 8.0, args.points)
    for p in (1, 2, 3):
        sweep_diameter(p, diams)

    ks = np.linspace(1.0, 4.0, args.points)
    for p in (1, 3):
        sweep_length(p, ks, 2.0 * math.pi)

    # pinned closed forms worth eyeballing: the harmonic unit case has
    # r = 1/2 and covered radius 1 - log 2
    res = landau_from_length(1, 1.0, 1.0, 2.0 * math.pi)
    print()
    print("unit harmonic case: r_univ=%.16f (1/2), rho=%.16f (1-log 2 = %.16f)"
          % (res.r_univ, res.rho_cover, 1.0 - math.log(2.0)))


if __name__ == "__main__":
    main()
