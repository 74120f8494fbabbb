"""Distance-ratio metric on disks and sampled Lipschitz-type checks.

The metric on the disk of radius M is
    j(z, w) = log(1 + |z - w| / (M - max(|z|, |w|)))
and the checks here test the ratio j(F(z), F(w)) / j(z, w) on sampled
point pairs against the proved bounds: 1 for coefficient-sum contractions
into the target disk, (d sqrt(2d)/2) pi for harmonic polynomials of
degree d mapping into the unit disk, and 2 for disk automorphisms
z -> (z - a) / (1 - conj(a) z); j is rotation-invariant, so a rotation
factor would change no ratio.  Each check returns a
``certificates.CheckReport`` with one margin per sampled pair.  Sampled
ratios are lower estimates of the supremum.  A check whose hypothesis
fails samples nothing and says why in ``extras["reason"]``.
"""

from __future__ import annotations

import math

import numpy as np

from .certificates import TOL_REPORT, CheckReport, _report, _unmet
from .core import PolyharmonicMap, _circle_range, evaluate, ring_values
from .errors import InvalidParams, OutsideDomain

# sizes of the pair sample and the largest radius of a random point;
# verify reports all three
N_RANDOM = 512
N_RAY = 64
R_CAP = 1.0 - 1e-7
N_BOUNDARY = 2048  # fewest boundary samples of harmonic_lipschitz_check

__all__ = [
    "j_metric",
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


def _ratio_block(z, w, fz, fw, M: float, bound: float):
    # the column block of the pair ratios j_M(F(z), F(w)) / j(z, w) <= bound
    ratio = _j_vec(fz, fw, M) / _j_vec(z, w, 1.0)
    return (lambda i: "pair z=%.17g%+.17gj w=%.17g%+.17gj" % (z[i].real, z[i].imag,
                                                              w[i].real, w[i].imag),
            np.arange(ratio.size), ratio, bound, TOL_REPORT)


def contraction_check(F: PolyharmonicMap, M: float, seed: int = 7) -> CheckReport:
    """j-metric contraction from the unit disk into the disk of radius M,
    one margin per point pair drawn with ``seed``: ratio <= 1.

    Hypotheses: a target disk (M > 0, though the zero map may ask for
    M = 0), then a coefficient sum of at most M, which forces
    |F(z)| <= M |z| < M.
    """
    coeff_sum = float(np.sum(np.abs(F.a)) + np.sum(np.abs(F.b)))
    extras = {"coefficient_sum": coeff_sum, "M": M}
    if M == 0.0 == coeff_sum:
        return _unmet("j-contraction", "zero map has no target disk", **extras)
    if not (math.isfinite(M) and M > 0.0):
        raise InvalidParams("target radius must be positive and finite, got %r"
                            % (M,))
    if coeff_sum > M + 1e-12:
        return _unmet("j-contraction", "coefficient sum exceeds the target radius",
                      **extras)
    z, w = _pairs(seed)
    return _report("j-contraction",
                   [_ratio_block(z, w, evaluate(F, z), evaluate(F, w), M, 1.0)], extras)


def _degree(F: PolyharmonicMap) -> int:
    # the highest live power of the first layer, at least 1
    live = (np.abs(F.a[0]) > 0) | (np.abs(F.b[0]) > 0)
    return int(np.max(np.nonzero(live)[0]) + 1) if np.any(live) else 1


def boundary_samples(F: PolyharmonicMap) -> int:
    """The number of angles at which harmonic_lipschitz_check samples
    |z| = 1: the smallest power of two >= max(N_BOUNDARY, 32 d), d the
    highest live power of the first layer."""
    return 1 << (max(N_BOUNDARY, 32 * _degree(F)) - 1).bit_length()


def harmonic_lipschitz_check(F: PolyharmonicMap, seed: int = 7) -> CheckReport:
    """j-metric Lipschitz bound for harmonic polynomials into the unit disk,
    one margin per point pair drawn with ``seed``, then the Parseval sum
    <= 1 and the coefficient sum <= sqrt(2d).

    The bound grows with the polynomial degree d as (d sqrt(2d) / 2) pi;
    ``extras`` keeps it and the largest sampled ratio.  Hypotheses, in
    order: a single layer, then a map into the disk: the upper end of the
    van der Corput-Schaake enclosure of |F|^2 on |z| = 1, a trigonometric
    polynomial of degree 2d, from its samples at the smallest power of two
    >= max(N_BOUNDARY, 32 d) angles, is at most (1 + 1e-9)^2, and no
    sampled pair point has |F| >= 1.
    """
    if F.p != 1:
        return _unmet("harmonic-j-lipschitz", "table has more than one layer")
    degree = _degree(F)
    bound = 0.5 * degree * math.sqrt(2.0 * degree) * math.pi
    coeff_sum = float(np.sum(np.abs(F.a[0]) + np.abs(F.b[0])))
    modulus = np.abs(ring_values(F, [1.0], boundary_samples(F))[0])
    sup_boundary = float(modulus.max())
    inside = _circle_range(modulus * modulus, 2 * degree, coeff_sum ** 2)[1] <= (1.0 + 1e-9) ** 2
    if inside:
        z, w = _pairs(seed)
        fz, fw = evaluate(F, z), evaluate(F, w)
        inside = max(np.abs(fz).max(), np.abs(fw).max()) < 1.0
    if not inside:
        return _unmet("harmonic-j-lipschitz", "map does not send the disk into itself",
                      degree=degree, boundary_sup=sup_boundary)
    parseval = float(np.sum(np.abs(F.a[0]) ** 2 + np.abs(F.b[0]) ** 2))
    pairs = _ratio_block(z, w, fz, fw, 1.0, bound)  # (ids, key, ratio, bound, tol)
    # circle-average step: |f| cannot beat the harmonic Schwarz envelope
    envelope = (4.0 / math.pi) * np.arctan(np.abs(np.concatenate([z, w])))
    violations = int(np.sum(np.abs(np.concatenate([fz, fw])) > envelope + 1e-9))
    extras = {
        "degree": degree,
        "bound": bound,
        "sup_ratio": float(pairs[2].max()),
        "boundary_sup": sup_boundary,
        "parseval_sum": parseval,
        "coefficient_sum": coeff_sum,
        "coefficient_sum_bound": math.sqrt(2.0 * degree),
        "schwarz_envelope_violations": violations,
    }
    n = z.size
    return _report("harmonic-j-lipschitz", [
        pairs,
        (lambda i: "parseval sum", np.array([n]), np.array([parseval]), 1.0, TOL_REPORT),
        (lambda i: "coefficient sum", np.array([n + 1]), np.array([coeff_sum]),
         extras["coefficient_sum_bound"], TOL_REPORT)], extras)


def mobius_j_distortion(a: complex, *, seed: int = 7) -> CheckReport:
    """Distortion of the j metric under the disk automorphism
    z -> (z - a) / (1 - conj(a) z), one margin per point pair drawn with
    ``seed``: never more than a factor 2.  j is rotation-invariant, so this
    covers every automorphism e^{i theta} (z - a) / (1 - conj(a) z).  Raises
    InvalidParams unless |a| < 1."""
    a = complex(a)
    if not abs(a) < 1.0:
        raise InvalidParams("automorphism parameter must satisfy |a| < 1")
    z, w = _pairs(seed)
    mz, mw = ((q - a) / (1.0 - np.conj(a) * q) for q in (z, w))
    return _report("mobius-j-distortion", [_ratio_block(z, w, mz, mw, 1.0, 2.0)],
                   extras={"a": (a.real, a.imag)})


def psi_profile(grid) -> np.ndarray:
    """The comparison factor (1 - r) / (1 - (4/pi) arctan r) on a grid.

    Increases from 1 at r = 0 toward pi/2 as r -> 1; it quantifies how the
    harmonic Schwarz envelope inflates boundary gaps.
    """
    g = np.asarray(grid, dtype=float)
    if np.any(g < 0.0) or np.any(g >= 1.0):
        raise InvalidParams("psi is defined on [0, 1)")
    return (1.0 - g) / (1.0 - (4.0 / math.pi) * np.arctan(g))
