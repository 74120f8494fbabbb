"""Distance-ratio metric on disks and sampled Lipschitz-type checks.

The metric on the disk of radius M is
    j(z, w) = log(1 + |z - w| / (M - max(|z|, |w|)))
and the checks here estimate sup over sampled pairs of the ratio
j(F(z), F(w)) / j(z, w) against the proved bounds: 1 for coefficient-sum
contractions into the target disk, (d sqrt(2d)/2) pi for harmonic
polynomials of degree d mapping into the unit disk, and 2 for disk
automorphisms.  Sampled suprema are lower estimates; the checks assert the
upper bounds and additionally report how close the samples get.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certificates import TOL_REPORT
from .core import PolyharmonicMap, evaluate, ring_values
from .errors import (InvalidParams, NotHarmonicPolynomial, NotIntoDisk,
                     OutsideDomain)

# sizes of the pair sample and the largest radius of a random point;
# verify reports all three
N_RANDOM = 512
N_RAY = 64
R_CAP = 1.0 - 1e-7
N_BOUNDARY = 2048  # boundary samples of harmonic_lipschitz_check

__all__ = [
    "j_metric",
    "LipschitzReport",
    "contraction_check",
    "harmonic_lipschitz_check",
    "mobius_j_distortion",
    "psi_profile",
]


def j_metric(z: complex, w: complex, M: float = 1.0) -> float:
    """Distance-ratio metric between two points of the open disk |z| < M."""
    if not (math.isfinite(M) and M > 0.0):
        raise InvalidParams("disk radius must be positive and finite, got %r"
                            % (M,))
    m = max(abs(z), abs(w))
    if m >= M:
        raise OutsideDomain("points must lie strictly inside the disk of radius %g"
                            % M)
    return math.log1p(abs(z - w) / (M - m))


def _j_vec(z: np.ndarray, w: np.ndarray, M: float) -> np.ndarray:
    gap = M - np.maximum(np.abs(z), np.abs(w))
    return np.log1p(np.abs(z - w) / gap)


def _pairs(seed: int):
    # deterministic point pairs (z, w) for the ratio estimates: N_RANDOM
    # radius-stratified random pairs, then N_RAY same-ray pairs pushed
    # toward the boundary, where the metric ratio of near-isometries peaks
    rng = np.random.default_rng(seed)
    k = np.arange(N_RANDOM)
    rz = (k + rng.random(N_RANDOM)) / N_RANDOM * R_CAP
    rw = (rng.permutation(N_RANDOM) + rng.random(N_RANDOM)) / N_RANDOM * R_CAP
    tz = 2.0 * np.pi * rng.random(N_RANDOM)
    tw = 2.0 * np.pi * rng.random(N_RANDOM)
    z = rz * np.exp(1j * tz)
    w = rw * np.exp(1j * tw)
    delta = np.geomspace(1e-1, 1e-6, N_RAY)
    phi = 2.0 * np.pi * np.arange(N_RAY) / N_RAY
    u = np.exp(1j * phi)
    z = np.concatenate([z, (1.0 - delta) * u])
    w = np.concatenate([w, (1.0 - 2.0 * delta) * u])
    return z, w


@dataclass(frozen=True)
class LipschitzReport:
    name: str
    verdict: str  # "pass" | "fail" | "hypotheses-not-met"
    sup_ratio: float
    bound: float
    worst_pair: tuple = ((0.0, 0.0), (0.0, 0.0))
    samples: int = 0
    extras: dict = field(default_factory=dict)


def _ratio_sup(fz, fw, z, w, m_target: float):
    num = _j_vec(fz, fw, m_target)
    den = _j_vec(z, w, 1.0)
    ratio = num / den
    i0 = int(np.argmax(ratio))
    pair = ((float(z[i0].real), float(z[i0].imag)),
            (float(w[i0].real), float(w[i0].imag)))
    return float(ratio[i0]), pair


def contraction_check(F: PolyharmonicMap, M: float,
                      seed: int = 7) -> LipschitzReport:
    """j-metric contraction from the unit disk into the disk of radius M,
    sampled on the point pairs drawn with ``seed``.

    Hypothesis: the total coefficient sum is at most M, which forces
    |F(z)| <= M |z| < M.  When it fails the report says so instead of
    sampling a map that may leave the target disk.
    """
    if not (math.isfinite(M) and M > 0.0):
        raise InvalidParams("target radius must be positive and finite, got %r"
                            % (M,))
    coeff_sum = float(np.sum(np.abs(F.a)) + np.sum(np.abs(F.b)))
    extras = {"coefficient_sum": coeff_sum, "M": M}
    if coeff_sum > M + 1e-12:
        return LipschitzReport(name="j-contraction", verdict="hypotheses-not-met",
                               sup_ratio=float("nan"), bound=1.0, samples=0,
                               extras=extras)
    z, w = _pairs(seed)
    fz = evaluate(F, z)
    fw = evaluate(F, w)
    sup, pair = _ratio_sup(fz, fw, z, w, M)
    verdict = "pass" if sup <= 1.0 + TOL_REPORT else "fail"
    return LipschitzReport(name="j-contraction", verdict=verdict, sup_ratio=sup,
                           bound=1.0, worst_pair=pair, samples=z.size,
                           extras=extras)


def harmonic_lipschitz_check(F: PolyharmonicMap, seed: int = 7) -> LipschitzReport:
    """j-metric Lipschitz bound for harmonic polynomials into the unit disk,
    sampled on the point pairs drawn with ``seed``.

    The bound grows with the polynomial degree d as (d sqrt(2d) / 2) pi.
    Raises NotHarmonicPolynomial unless the table has a single layer, and
    NotIntoDisk when the maximum over N_BOUNDARY equispaced boundary points
    exceeds 1.
    """
    if F.p != 1:
        raise NotHarmonicPolynomial("need a single-layer table, got p=%d" % F.p)
    live = (np.abs(F.a[0]) > 0) | (np.abs(F.b[0]) > 0)
    degree = int(np.max(np.nonzero(live)[0]) + 1) if np.any(live) else 1
    boundary = np.abs(ring_values(F, [1.0], N_BOUNDARY)[0])
    sup_boundary = float(boundary.max())
    if sup_boundary > 1.0 + 1e-9:
        raise NotIntoDisk("boundary modulus reaches %.6g > 1" % sup_boundary)
    bound = 0.5 * degree * math.sqrt(2.0 * degree) * math.pi
    parseval = float(np.sum(np.abs(F.a[0]) ** 2 + np.abs(F.b[0]) ** 2))
    coeff_sum = float(np.sum(np.abs(F.a[0]) + np.abs(F.b[0])))
    z, w = _pairs(seed)
    fz = evaluate(F, z)
    fw = evaluate(F, w)
    sup, pair = _ratio_sup(fz, fw, z, w, 1.0)
    # circle-average step: |f| cannot beat the harmonic Schwarz envelope
    envelope = (4.0 / math.pi) * np.arctan(np.abs(np.concatenate([z, w])))
    fvals = np.abs(np.concatenate([fz, fw]))
    violations = int(np.sum(fvals > envelope + 1e-9))
    extras = {
        "degree": degree,
        "boundary_sup": sup_boundary,
        "parseval_sum": parseval,
        "coefficient_sum": coeff_sum,
        "coefficient_sum_bound": math.sqrt(2.0 * degree),
        "schwarz_envelope_violations": violations,
    }
    ok = (sup <= bound + TOL_REPORT
          and parseval <= 1.0 + TOL_REPORT
          and coeff_sum <= math.sqrt(2.0 * degree) + TOL_REPORT)
    return LipschitzReport(name="harmonic-j-lipschitz",
                           verdict="pass" if ok else "fail",
                           sup_ratio=sup, bound=bound, worst_pair=pair,
                           samples=z.size, extras=extras)


def mobius_j_distortion(a: complex, theta: float = 0.0,
                        seed: int = 7) -> LipschitzReport:
    """Distortion of the j metric under a disk automorphism
    z -> e^{i theta} (z - a) / (1 - conj(a) z), sampled on the point pairs
    drawn with ``seed``; never more than a factor 2.  Raises InvalidParams
    unless |a| < 1 and theta is finite."""
    a = complex(a)
    if not abs(a) < 1.0:
        raise InvalidParams("automorphism parameter must satisfy |a| < 1")
    if not math.isfinite(theta):
        raise InvalidParams("rotation angle must be finite, got %r" % (theta,))
    z, w = _pairs(seed)
    rot = complex(math.cos(theta), math.sin(theta))

    def mob(q):
        return rot * (q - a) / (1.0 - np.conj(a) * q)

    sup, pair = _ratio_sup(mob(z), mob(w), z, w, 1.0)
    verdict = "pass" if sup <= 2.0 + TOL_REPORT else "fail"
    return LipschitzReport(name="mobius-j-distortion", verdict=verdict,
                           sup_ratio=sup, bound=2.0, worst_pair=pair,
                           samples=z.size,
                           extras={"a": (a.real, a.imag), "theta": theta})


def psi_profile(grid) -> np.ndarray:
    """The comparison factor (1 - r) / (1 - (4/pi) arctan r) on a grid.

    Increases from 1 at r = 0 toward pi/2 as r -> 1; it quantifies how the
    harmonic Schwarz envelope inflates boundary gaps.
    """
    g = np.asarray(grid, dtype=float)
    if np.any(g < 0.0) or np.any(g >= 1.0):
        raise InvalidParams("psi is defined on [0, 1)")
    return (1.0 - g) / (1.0 - (4.0 / math.pi) * np.arctan(g))
