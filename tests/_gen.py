"""Shared random-map generators for the test suite.

All generators take a numpy Generator so tests stay reproducible; the
area-condition generator builds tables that satisfy the layer angle
condition by construction (per-power phase sectors for the analytic
entries, spread or single-host conjugate entries, moduli dominated by the
analytic side).
"""

import numpy as np

from polyharm.core import PolyharmonicMap, evaluate, scale_map


def conjugate_map(F):
    """The map with the a and b arrays swapped, so that G(z) = conj(F(z))."""
    return PolyharmonicMap(F.p, F.J, F.b.copy(), F.a.copy(), label="conj")


def random_map(rng, p_max=3, J_max=6, scale=1.0):
    p = int(rng.integers(1, p_max + 1))
    J = int(rng.integers(1, J_max + 1))
    a = (rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))) * scale
    b = (rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))) * scale
    a[rng.random((p, J)) < 0.2] = 0
    b[rng.random((p, J)) < 0.2] = 0
    if not np.any(a) and not np.any(b):
        a[0, 0] = 0.5 * scale
    return PolyharmonicMap(p, J, a, b, label="random")


def random_area_cond_map(rng, p_max=3, J_max=4):
    p = int(rng.integers(1, p_max + 1))
    J = int(rng.integers(1, J_max + 1))
    a = np.zeros((p, J), dtype=complex)
    b = np.zeros((p, J), dtype=complex)
    for j in range(J):
        if J > 1 and rng.random() < 0.25:
            continue
        base = rng.uniform(0.0, 2.0 * np.pi)
        keep = rng.random(p) < 0.8
        if not keep.any():
            keep[int(rng.integers(0, p))] = True
        mags = rng.uniform(0.1, 1.0, p)
        # analytic entries of one power stay inside a quarter-turn sector
        phases = base + rng.uniform(-np.pi / 4, np.pi / 4, p)
        for n in range(p):
            if keep[n]:
                a[n, j] = mags[n] * np.exp(1j * phases[n])
        style = int(rng.integers(0, 3))
        hosts = np.nonzero(keep)[0]
        if style == 1:
            n0 = int(rng.choice(hosts))
            b[n0, j] = (rng.uniform(0.0, 0.95) * abs(a[n0, j])
                        * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        elif style == 2 and p >= 2:
            # conjugate entries fanned out so each pair disagrees by at
            # least a quarter turn
            jit = np.pi / 12 if p == 3 else np.pi / 4
            base_b = rng.uniform(0.0, 2.0 * np.pi)
            for n in hosts:
                ph = base_b + 2.0 * np.pi * n / p + rng.uniform(-jit / 2, jit / 2)
                b[n, j] = (rng.uniform(0.0, 0.95) * abs(a[n, j])
                           * np.exp(1j * ph))
    if not np.any(a):
        a[0, 0] = 0.5
    return PolyharmonicMap(p, J, a, b, label="area-cond")


def random_sum_normalized(rng, target=1.0, p_max=3, J_max=5):
    F = random_map(rng, p_max=p_max, J_max=J_max)
    total = float(np.sum(np.abs(F.a)) + np.sum(np.abs(F.b)))
    return scale_map(F, target / total)


def random_harmonic_poly(rng, J_max=5, boundary_target=0.999, n_grid=4096):
    J = int(rng.integers(1, J_max + 1))
    a = rng.uniform(-1, 1, (1, J)) + 1j * rng.uniform(-1, 1, (1, J))
    b = rng.uniform(-1, 1, (1, J)) + 1j * rng.uniform(-1, 1, (1, J))
    a[rng.random((1, J)) < 0.3] = 0
    b[rng.random((1, J)) < 0.3] = 0
    if not np.any(a) and not np.any(b):
        a[0, 0] = 0.5
    F = PolyharmonicMap(1, J, a, b, label="harmonic")
    th = 2.0 * np.pi * np.arange(n_grid) / n_grid
    sup = float(np.abs(evaluate(F, np.exp(1j * th))).max())
    return scale_map(F, boundary_target / sup)


def coefficient_sum_counterexample():
    """Harmonic quadratic whose coefficient moduli sum to 1.01 although the
    image stays well inside the unit disk (boundary sup is about 0.888).
    Used to show the sum condition is sufficient but not necessary."""
    a = np.array([[0.26, 0.25j]], dtype=complex)
    # stored entries act through their conjugates on the conjugate powers
    b = np.array([[0.25, 0.25j]], dtype=complex)
    return PolyharmonicMap(1, 2, a, b, label="sum-1.01")


def random_analytic_poly(rng, J_max=4, min_terms=2):
    """Single-layer analytic table with at least two live coefficients."""
    J = int(rng.integers(max(2, min_terms), J_max + 1))
    a = np.zeros((1, J), dtype=complex)
    count = int(rng.integers(min_terms, J + 1))
    cols = rng.choice(J, size=count, replace=False)
    for j in cols:
        mag = rng.uniform(0.1, 1.0)
        a[0, j] = mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return PolyharmonicMap(1, J, a, np.zeros_like(a),
                           label="analytic")


def convex_map(rng, J=7):
    """Single-layer table of a dominant first power, |b_1| <= 0.3 |a_1|, and
    higher powers with sum_j j^2 (|a_j| + |b_j|) <= 0.24, so the boundary
    image is a convex curve close to the ellipse of the first power."""
    a = np.zeros((1, J), dtype=complex)
    b = np.zeros((1, J), dtype=complex)
    a[0, 0] = np.exp(2j * np.pi * rng.random())
    b[0, 0] = rng.uniform(0.0, 0.3) * np.exp(2j * np.pi * rng.random())
    for j in range(2, J + 1):
        w = 0.2 / (J - 1) / (j * j)
        a[0, j - 1] = rng.uniform(0.2, 1.0) * w * np.exp(2j * np.pi * rng.random())
        b[0, j - 1] = rng.uniform(0.0, 0.2) * w * np.exp(2j * np.pi * rng.random())
    return PolyharmonicMap(1, J, a, b, label="convex")


def dominant_map(rng, p, J, aligned=False):
    """(p, J) table with a[1,1] = 1 and the other entries weighted so that
    sum (j + 2 (n - 1)) (|a| + |b|) = 1/2, so |F_z| - |F_zbar| >= 1/2 and K
    is finite.  Entries are random complex numbers, 20 % of them zero; with
    ``aligned`` only their moduli are kept, so every layer pair shares its
    angle and the length alignment condition holds."""
    a = rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))
    b = rng.uniform(-1, 1, (p, J)) + 1j * rng.uniform(-1, 1, (p, J))
    a[rng.random((p, J)) < 0.2] = 0
    b[rng.random((p, J)) < 0.2] = 0
    if aligned:
        a, b = np.abs(a).astype(complex), np.abs(b).astype(complex)
    a[0, 0] = 0
    weight = np.arange(1, J + 1) + 2 * np.arange(p)[:, None]
    total = float(np.sum(weight * (np.abs(a) + np.abs(b))))
    a, b = a * (0.5 / total), b * (0.5 / total)
    a[0, 0] = 1
    return PolyharmonicMap(p, J, a, b, label="dominant")
