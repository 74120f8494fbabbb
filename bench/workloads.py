"""Seeded inputs of the three benchmark workloads.

A workload is a fixed list of operations, one ``polyharm`` command line
each, together with the mapping files they read.  The seed chooses the
coefficients; the shapes (p, J), the number of maps and the kind of every
operation are fixed per workload, so the amount of work in a round does
not depend on the seed.  Every map keeps its coefficient arrays so the
checks can recompute what the program reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracle

WORKLOADS = ("square-verify", "small-maps-verify", "quantity-calls")

ANGLE_KINDS = ("diameter", "length", "area")


@dataclass
class Map:
    """A mapping file's content and the coefficients it stands for.

    ``angle_kinds`` names the layer angle conditions the map was built to
    satisfy; ``monotone_length`` says that the circle-image length grows
    with the radius, so its supremum is the boundary length.
    """

    name: str
    a: np.ndarray
    b: np.ndarray
    doc: dict
    angle_kinds: tuple = ()
    monotone_length: bool = False
    expect: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def p(self) -> int:
        return self.a.shape[0]

    def cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def area_poly(self) -> dict:
        return self.cached("area", lambda: oracle.area_polynomial(self.a, self.b))


@dataclass
class Op:
    kind: str
    args: list
    map: Map | None = None

    def argv(self, workdir) -> list:
        out = [self.kind] + [str(x) for x in self.args]
        if self.map is not None:
            out += ["--map", str(workdir / (self.map.name + ".json"))]
        return out


def _table_doc(a, b, label) -> dict:
    terms = []
    for n in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[n, j] != 0 or b[n, j] != 0:
                terms.append({"n": n + 1, "j": j + 1,
                              "a": [float(a[n, j].real), float(a[n, j].imag)],
                              "b": [float(b[n, j].real), float(b[n, j].imag)]})
    return {"p": a.shape[0], "J": a.shape[1], "terms": terms, "label": label}


def _table(name, a, b, **kw) -> Map:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return Map(name, a, b, _table_doc(a, b, name), **kw)


def _cpx(rng, shape=None):
    return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)


def _unit(rng) -> complex:
    return complex(np.exp(2j * math.pi * rng.random()))


def _dominate(rng, a, b):
    """Make a[0,0] outweigh the rest: with |a00| = (1 + d) * (|b00| + sum of
    j (|a| + |b|) over the other entries), every circle |z| = r has speed
    |dF/dtheta| >= d/(1+d) * |a00| * r.  Speed that nearly vanishes on a
    circle makes the trapezoid doublings run long; that regime belongs to
    square-verify, not to this per-call-overhead workload."""
    j = np.arange(1, a.shape[1] + 1)
    rest = float(((np.abs(a) + np.abs(b)) * j).sum() - abs(a[0, 0]))
    u = a[0, 0] / abs(a[0, 0])
    a[0, 0] = (1.0 + rng.uniform(0.2, 0.5)) * max(rest, 0.5) * u


def _scale_area(a, b, target):
    """Scale (a, b) by a positive real so that S(1) equals ``target``."""
    s1 = oracle.poly_eval(oracle.area_polynomial(a, b), 1.0)
    if not s1 > 0.0:
        raise ValueError("table has no positive area to scale")
    c = math.sqrt(target / float(s1))
    return a * c, b * c


# ---- square-verify ----

_SQUARE_SCALE = 2.0 * math.sqrt(2.0) / math.pi
SQUARE_J = 9


def square_series(J: int):
    """f0, the square-image series truncated at power J: analytic powers
    4k+1 carry (-1)^k / (4k+1), conjugate powers 4k-1 carry
    (-1)^(k+1) / (4k-1), all times 2 sqrt(2) / pi."""
    a = np.zeros((1, J), dtype=complex)
    b = np.zeros((1, J), dtype=complex)
    for j in range(1, J + 1):
        if j % 4 == 1:
            a[0, j - 1] = _SQUARE_SCALE * (-1.0) ** (j // 4) / j
        elif j % 4 == 3:
            b[0, j - 1] = _SQUARE_SCALE * (-1.0) ** ((j + 1) // 4 + 1) / j
    return a, b


def _square_verify(rng) -> list:
    # A unit rotation w -> u w of the image changes no length, area or
    # angle condition, so the seed moves every input without moving the
    # amount of work: the trapezoid doublings stay the same.
    a0, b0 = square_series(SQUARE_J)
    u = _unit(rng)
    f0 = _table("f0", u * a0, np.conj(u) * b0, monotone_length=True)
    c = math.sqrt(2.0) * math.pi / 4.0
    # F1 = c (f0 + i |z|^2 f0)
    a1 = np.vstack([c * a0, 1j * c * a0])
    b1 = np.vstack([c * b0, -1j * c * b0])
    u = _unit(rng)
    F1 = _table("F1", u * a1, np.conj(u) * b1, monotone_length=True)
    return [Op("verify", [], f0), Op("verify", [], F1)]


# ---- small-maps-verify ----


def _free_table(rng, name, p, J) -> Map:
    a = _cpx(rng, (p, J))
    b = _cpx(rng, (p, J))
    a[rng.random((p, J)) < 0.2] = 0
    b[rng.random((p, J)) < 0.2] = 0
    a[0, 0] = _cpx(rng)
    _dominate(rng, a, b)
    return _table(name, a, b, monotone_length=(p == 1))


def _aligned_table(rng, name, p, J) -> Map:
    """Satisfies all three angle conditions: the analytic entries of one
    power are positive multiples of each other across layers, the
    conjugate entry of a power sits in one layer only and is smaller than
    the analytic entry there.  Scaled so that S(1) < 1."""
    a = np.zeros((p, J), dtype=complex)
    b = np.zeros((p, J), dtype=complex)
    for j in range(J):
        if j > 0 and rng.random() < 0.25:
            continue
        mags = rng.uniform(0.1, 1.0, p)
        mags[rng.random(p) < 0.2] = 0.0
        mags[0] = max(mags[0], 0.1)
        a[:, j] = mags * _unit(rng)
        host = int(rng.integers(0, p))
        if mags[host] > 0.0:
            b[host, j] = rng.uniform(0.0, 0.9) * mags[host] * _unit(rng)
    _dominate(rng, a, b)
    a, b = _scale_area(a, b, rng.uniform(0.4, 0.9))
    return _table(name, a, b, angle_kinds=ANGLE_KINDS,
                  monotone_length=(p == 1))


def _disk_table(rng, name, J, analytic) -> Map:
    """A single layer scaled to coefficient sum 0.9, so |F| < 1 on the disk."""
    a = _cpx(rng, (1, J))
    b = np.zeros((1, J), dtype=complex) if analytic else 0.5 * _cpx(rng, (1, J))
    _dominate(rng, a, b)
    total = oracle.coefficient_sum(a, b)
    return _table(name, a * (0.9 / total), b * (0.9 / total),
                  monotone_length=True)


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _builtins(rng) -> list:
    out = [Map("f2", np.ones((3, 1), dtype=complex),
               np.zeros((3, 1), dtype=complex), {"builtin": "f2"},
               expect={"K": 3.0, "l1": 6.0 * math.pi}),
           Map("identity", np.ones((1, 1), dtype=complex),
               np.zeros((1, 1), dtype=complex), {"builtin": "identity"},
               monotone_length=True)]
    alpha = _cpx(rng)
    beta = 0.6 * abs(alpha) * rng.random() * _unit(rng)
    out.append(Map("linear", np.array([[alpha]]), np.array([[np.conj(beta)]]),
                   {"builtin": "linear",
                    "params": {"alpha": _pair(alpha), "beta": _pair(beta)}},
                   monotone_length=True))
    c = _cpx(rng)
    a = np.zeros((2, 3), dtype=complex)
    a[1, 2] = c
    out.append(Map("monomial", a, np.zeros((2, 3), dtype=complex),
                   {"builtin": "monomial",
                    "params": {"p": 2, "j": 3, "c": _pair(c)}}))
    out.append(_form37(rng))
    return out


def _form37(rng) -> Map:
    """Two layers with constant S(r)/r^2: first-power weights eta >= xi,
    equal-modulus analytic and conjugate entries at the higher powers, and
    a second layer turned a quarter turn against the first."""
    eta = rng.uniform(0.3, 0.8)
    xi = rng.uniform(0.0, eta)
    zeta1 = {2: rng.uniform(0.05, 0.3), 3: rng.uniform(0.05, 0.3)}
    zeta2 = {1: rng.uniform(0.05, 0.3), 2: rng.uniform(0.05, 0.3)}
    theta = {k: rng.uniform(0.0, 2.0 * math.pi) for k in (1, 2, 3)}
    phi = {k: rng.uniform(0.0, 2.0 * math.pi) for k in (1, 2, 3)}
    sign_a = {1: -1}
    a = np.zeros((2, 3), dtype=complex)
    b = np.zeros((2, 3), dtype=complex)

    def e(angle):
        return complex(math.cos(angle), math.sin(angle))

    a[0, 0] = eta * e(theta[1])
    b[0, 0] = xi * e(-phi[1])
    for k, w in zeta1.items():
        a[0, k - 1] = w * e(theta[k])
        b[0, k - 1] = w * e(-phi[k])
    for k, w in zeta2.items():
        a[1, k - 1] = 1j * sign_a.get(k, 1) * w * e(theta[k])
        b[1, k - 1] = -1j * w * e(-phi[k])
    params = {"eta": eta, "xi": xi,
              "zeta1": {str(k): v for k, v in zeta1.items()},
              "zeta2": {str(k): v for k, v in zeta2.items()},
              "theta": {str(k): v for k, v in theta.items()},
              "phi": {str(k): v for k, v in phi.items()},
              "sign_a": {str(k): v for k, v in sign_a.items()}}
    return Map("form37", a, b, {"builtin": "form37", "params": params},
               angle_kinds=("diameter", "area"),
               expect={"classification": "constant"})


def _small_maps_verify(rng) -> list:
    maps = []
    for p in (1, 2, 3):
        for J in (2, 4, 6, 8):
            maps.append(_free_table(rng, "free_p%d_J%d" % (p, J), p, J))
            maps.append(_aligned_table(rng, "aligned_p%d_J%d" % (p, J), p, J))
    for J in (3, 5, 8):
        maps.append(_disk_table(rng, "disk_analytic_J%d" % J, J, True))
    maps.append(_disk_table(rng, "disk_harmonic_J4", 4, False))
    maps += _builtins(rng)
    return [Op("verify", [], m) for m in maps]


# ---- quantity-calls ----


def _convex_table(rng, name, p, J) -> Map:
    """Dominant first power and small higher powers, so the boundary image
    is a strictly convex curve and every boundary sample is a hull vertex;
    satisfies the area angle condition and S(1) < 1."""
    a = np.zeros((p, J), dtype=complex)
    b = np.zeros((p, J), dtype=complex)
    a[0, 0] = _unit(rng)
    b[0, 0] = rng.uniform(0.0, 0.3) * _unit(rng)
    budget = 0.2  # bound on sum j^2 (|a| + |b|) over the powers j >= 2
    for j in range(2, J + 1):
        w = budget / (J - 1) / (j * j) / p
        u = _unit(rng)
        for n in range(p):
            a[n, j - 1] = rng.uniform(0.2, 1.0) * w * u
        b[int(rng.integers(0, p)), j - 1] = rng.uniform(0.0, 0.2) * w * _unit(rng)
    if p > 1:
        a[1:, 0] = rng.uniform(0.05, 0.2, p - 1) * a[0, 0]
    a, b = _scale_area(a, b, rng.uniform(0.5, 0.9))
    return _table(name, a, b, angle_kinds=ANGLE_KINDS)


def _quantity_calls(rng) -> list:
    ops = []
    for i, (p, J) in enumerate(((1, 4), (1, 7), (2, 3), (2, 6))):
        m = _convex_table(rng, "convex_%d_p%d_J%d" % (i, p, J), p, J)
        ops += [
            Op("diam", ["--grid", 2, "--theta-samples", 4096], m),
            Op("area", ["--r", repr(float(rng.uniform(0.5, 0.95))),
                        "--method", "both"], m),
            Op("area", ["--r", repr(float(rng.uniform(0.5, 0.95))),
                        "--method", "quadrature"], m),
            Op("landau", ["--mode", "diameter"], m),
            Op("three-circles", ["--r1", 0.3], m),
            Op("schwarz", [], m),
            Op("jmetric", ["--mobius-a=" + repr(0.9 * rng.random() * _unit(rng)),
                           "--seed", int(rng.integers(0, 2 ** 31))]),
        ]
    return ops


_BUILDERS = {
    "square-verify": _square_verify,
    "small-maps-verify": _small_maps_verify,
    "quantity-calls": _quantity_calls,
}


def build(workload: str, seed: int) -> list:
    """The operations of one round of ``workload`` for ``seed``."""
    # numpy seeds must be nonnegative; the modulus leaves those unchanged
    rng = np.random.default_rng([seed % (1 << 63), WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng)


def write_maps(ops, workdir) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for m in {op.map.name: op.map for op in ops if op.map is not None}.values():
        (workdir / (m.name + ".json")).write_text(json.dumps(m.doc) + "\n",
                                                  encoding="utf-8")
