#!/usr/bin/env python3
"""Distance-ratio metric experiments: contraction sups and distortion.

The sampled supremum of j(F(z), F(w)) / j(z, w) stays at or below 1 for
coefficient-sum normalized maps, approaches the degree bound for harmonic
polynomials, and stays under 2 for disk automorphisms.
"""

import numpy as np

from polyharm import catalog
from polyharm.core import PolyharmonicMap, evaluate, scale_map
from polyharm.metrics import (
    contraction_check,
    harmonic_lipschitz_check,
    mobius_j_distortion,
    psi_profile,
)


def normalized_random_map(rng):
    p = int(rng.integers(1, 4))
    J = int(rng.integers(1, 5))
    a = rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))
    b = rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))
    F = PolyharmonicMap(p, J, a, b)
    total = float(np.sum(np.abs(a)) + np.sum(np.abs(b)))
    return scale_map(F, 1.0 / total)


def main():
    rng = np.random.default_rng(99)

    print("contraction sups for coefficient-sum normalized maps")
    sups = []
    for _ in range(20):
        rep = contraction_check(normalized_random_map(rng), 1.0)
        sups.append(rep.sup_ratio)
    print("  max over 20 draws: %.12f (must stay <= 1)" % max(sups))
    rep = contraction_check(catalog.monomial(2, 1, 1.0), 1.0)
    print("  |z|^2 z pushes the sup to %.12f" % rep.sup_ratio)
    print()

    print("harmonic polynomials scaled to boundary sup 0.999")
    for _ in range(5):
        J = int(rng.integers(1, 6))
        a = rng.uniform(-1, 1, (1, J)) + 1j * rng.uniform(-1, 1, (1, J))
        b = rng.uniform(-1, 1, (1, J)) + 1j * rng.uniform(-1, 1, (1, J))
        F = PolyharmonicMap(1, J, a, b)
        th = 2.0 * np.pi * np.arange(4096) / 4096
        F = scale_map(F, 0.999 / float(np.abs(evaluate(F, np.exp(1j * th))).max()))
        rep = harmonic_lipschitz_check(F)
        print("  degree=%d  sup=%.6f  bound=%.6f  verdict=%s"
              % (rep.extras["degree"], rep.sup_ratio, rep.bound, rep.verdict))
    print()

    print("envelope comparison factor psi on [0, 1)")
    grid = np.array([0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999999])
    for r, v in zip(grid, psi_profile(grid)):
        print("  psi(%.6f) = %.12f" % (r, v))
    print("  (increases from 1 toward pi/2 = %.12f)" % (np.pi / 2.0))
    print()

    print("disk automorphism distortion (bound is 2)")
    for a in (0.0, 0.3, 0.6, 0.9):
        rep = mobius_j_distortion(a)
        print("  |a|=%.1f  sup=%.12f  verdict=%s" % (a, rep.sup_ratio, rep.verdict))


if __name__ == "__main__":
    main()
