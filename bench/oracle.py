"""Independent computations that the benchmark checks polyharm's output against.

Nothing here imports polyharm.  Every quantity comes from the coefficient
arrays by a route of its own: Horner evaluation of the series, an FFT of
the boundary speed on a circle, an exact monomial integration of the area,
and literal copies of the Landau majorants.  A map is the pair (a, b) of
p x J complex arrays with

    F(z) = sum_n |z|^(2(n-1)) sum_j (a[n,j] z^j + conj(b[n,j]) conj(z)^j).
"""

from __future__ import annotations

import math

import numpy as np


def evaluate(a, b, z):
    """F at the points z, by Horner's rule in z within each layer."""
    z = np.asarray(z, dtype=complex)
    zc = np.conj(z)
    s = (z * zc).real
    out = np.zeros_like(z)
    for n in range(a.shape[0] - 1, -1, -1):
        hz = np.zeros_like(z)
        hc = np.zeros_like(z)
        for j in range(a.shape[1] - 1, -1, -1):
            hz = (hz + a[n, j]) * z
            hc = (hc + np.conj(b[n, j])) * zc
        out = out * s + hz + hc
    return out


def coefficient_sum(a, b) -> float:
    return float(np.abs(a).sum() + np.abs(b).sum())


def speed_bound(a, b) -> float:
    """2 pi sum j (|a| + |b|): a bound for every circle-image length in the
    closed disk, since |d/dtheta F| <= sum j (|a| + |b|) r^(2n-2+j)."""
    j = np.arange(1, a.shape[1] + 1)
    return float(2.0 * math.pi * ((np.abs(a) + np.abs(b)) * j).sum())


def circle_length(a, b, r: float = 1.0, n: int = 1 << 18) -> float:
    """Length of the image of |z| = r from n equispaced samples of the
    boundary speed, each sample taken by one inverse FFT of the spectrum
    sum_j i j (A_j(r) e^{ij theta} - B_j(r) e^{-ij theta})."""
    p, J = a.shape
    if n <= 2 * J:
        raise ValueError("need more samples than twice the truncation")
    powers = float(r) ** (2 * np.arange(p)[:, None] + np.arange(1, J + 1)[None, :])
    A = (a * powers).sum(axis=0)
    B = (np.conj(b) * powers).sum(axis=0)
    j = np.arange(1, J + 1)
    spec = np.zeros(n, dtype=complex)
    spec[j] += 1j * j * A
    spec[n - j] -= 1j * j * B
    speed = np.abs(np.fft.ifft(spec)) * n
    return float(2.0 * math.pi * speed.mean())


def _derivative_monomials(a, b):
    """F_z and F_zbar as {(alpha, beta): c} for terms c z^alpha conj(z)^beta."""
    fz, fzb = {}, {}

    def add(d, key, c):
        d[key] = d.get(key, 0.0) + c

    p, J = a.shape
    for n in range(1, p + 1):
        for j in range(1, J + 1):
            A = complex(a[n - 1, j - 1])
            Bc = complex(b[n - 1, j - 1]).conjugate()
            # A z^(n-1+j) zbar^(n-1) and Bc z^(n-1) zbar^(n-1+j)
            add(fz, (n - 2 + j, n - 1), (n - 1 + j) * A)
            add(fzb, (n - 1, n - 2 + j), (n - 1 + j) * Bc)
            if n > 1:
                add(fzb, (n - 1 + j, n - 2), (n - 1) * A)
                add(fz, (n - 2, n - 1 + j), (n - 1) * Bc)
    return fz, fzb


def _disk_norm2(g) -> dict:
    """(1/pi) * integral over |z| < r of |g|^2, as {power of r: coefficient}.

    z^al zbar^be conj(z^ga zbar^de) integrates to zero over the angle unless
    al - be == ga - de, and to 2 pi r^(s+2) / (s+2) with s = al+be+ga+de
    otherwise."""
    out = {}
    items = list(g.items())
    for (al, be), c1 in items:
        for (ga, de), c2 in items:
            if al - be != ga - de:
                continue
            s = al + be + ga + de
            out[s + 2] = out.get(s + 2, 0.0) + 2.0 * (c1 * c2.conjugate()).real / (s + 2)
    return out


def area_polynomial(a, b) -> dict:
    """Normalized area S(r) = (1/pi) * integral of the Jacobian over |z| < r,
    as {power of r: coefficient}, from the exact monomial expansion."""
    fz, fzb = _derivative_monomials(a, b)
    out = _disk_norm2(fz)
    for k, c in _disk_norm2(fzb).items():
        out[k] = out.get(k, 0.0) - c
    return out


def poly_eval(poly: dict, r):
    r = np.asarray(r, dtype=float)
    return sum(c * r ** k for k, c in poly.items()) + 0.0 * r


def poly_scale(poly: dict, r) -> np.ndarray:
    """Sum of |terms|: the size against which rounding in S(r) is judged."""
    r = np.asarray(r, dtype=float)
    return sum(abs(c) * r ** k for k, c in poly.items()) + 0.0 * r


def growth_excess(poly: dict, r):
    """r S'(r) - 2 S(r): each c r^k contributes (k - 2) c r^k."""
    r = np.asarray(r, dtype=float)
    return sum((k - 2) * c * r ** k for k, c in poly.items()) + 0.0 * r


def landau_diameter_phi(p: int, alpha: float, diam: float, r: float) -> float:
    """Diameter majorant of the univalence radius; its least root is r_univ."""
    c = 0.5 * math.sqrt(2.0 * p) * diam
    one = 1.0 - r
    s = (2.0 * r - r * r) / one ** 2
    for n in range(2, p + 1):
        rp = r ** (2 * (n - 1))
        s += rp / one ** 2 + 2.0 * (n - 1) * rp / one
    return alpha - c * s


def landau_diameter_cover(p: int, alpha: float, diam: float, r: float) -> float:
    """Covering radius guaranteed at the univalence radius r."""
    c = 0.5 * math.sqrt(2.0 * p) * diam
    tail = sum(2.0 * r ** (2 * (n - 1)) for n in range(2, p + 1))
    return r * (alpha - c * (r + tail) / (1.0 - r))
