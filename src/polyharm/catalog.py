"""Built-in reference maps.

The names registered here ("identity", "linear", "monomial", "f2", "f0",
"F1", "form37") are part of the mapping-file format and must stay stable.
f0 is a truncated boundary-vertex series whose image approximates a square
with corners at the fourth roots of unity; F1 stacks f0 with a quarter-turn
second layer so its smallest directional stretch at the origin is exactly
one; form37 builds the general two-layer family whose area ratio S(r)/r^2
is constant in r.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .core import CoefficientTable, PolyharmonicMap, check_table_size
from .errors import MalformedParams, UnknownName

__all__ = [
    "identity",
    "linear",
    "monomial",
    "f2",
    "fourgon_coefficients",
    "f0",
    "f1",
    "Form37Params",
    "form37",
    "builtin",
    "BUILTIN_NAMES",
]


def identity() -> PolyharmonicMap:
    table = CoefficientTable(1, 1, np.array([[1.0 + 0.0j]]),
                             np.zeros((1, 1), dtype=complex))
    return PolyharmonicMap(table, label="identity")


def linear(alpha: complex, beta: complex) -> PolyharmonicMap:
    """alpha * z plus the conjugate-linear part with coefficient beta."""
    a = np.zeros((1, 1), dtype=complex)
    b = np.zeros((1, 1), dtype=complex)
    a[0, 0] = alpha
    b[0, 0] = np.conj(beta)  # stored so conj(b) multiplies conj(z)
    return PolyharmonicMap(CoefficientTable(1, 1, a, b), label="linear")


def monomial(p: int, j: int, c: complex = 1.0,
             conjugate: bool = False) -> PolyharmonicMap:
    """c |z|^(2(p-1)) z^j, or the conj(z)^j variant."""
    if not (isinstance(p, int) and not isinstance(p, bool) and p >= 1):
        raise MalformedParams("p must be an integer >= 1")
    if not (isinstance(j, int) and not isinstance(j, bool) and j >= 1):
        raise MalformedParams("j must be an integer >= 1")
    check_table_size(p, j, MalformedParams)
    a = np.zeros((p, j), dtype=complex)
    b = np.zeros((p, j), dtype=complex)
    if conjugate:
        b[p - 1, j - 1] = np.conj(c)
    else:
        a[p - 1, j - 1] = c
    return PolyharmonicMap(CoefficientTable(p, j, a, b), label="monomial")


def f2() -> PolyharmonicMap:
    """Three stacked unit layers at the first power: z(1 + |z|^2 + |z|^4)."""
    a = np.ones((3, 1), dtype=complex)
    b = np.zeros((3, 1), dtype=complex)
    return PolyharmonicMap(CoefficientTable(3, 1, a, b), label="f2")


# ---- square-image series ----

_FOURGON_SCALE = 2.0 * math.sqrt(2.0) / math.pi


def fourgon_coefficients(J: int) -> CoefficientTable:
    """Single-layer table of the square-image series truncated at power J.

    Analytic powers 4k+1 carry (-1)^k / (4k+1), conjugate powers 4k-1
    carry (-1)^(k+1) / (4k-1), both scaled by 2 sqrt(2) / pi.
    """
    if not (isinstance(J, int) and not isinstance(J, bool) and J >= 1):
        raise MalformedParams("truncation power J must be an integer >= 1")
    check_table_size(1, J, MalformedParams)
    a = np.zeros((1, J), dtype=complex)
    b = np.zeros((1, J), dtype=complex)
    k = 0
    while 4 * k + 1 <= J:
        a[0, 4 * k] = _FOURGON_SCALE * (-1.0) ** k / (4 * k + 1)
        k += 1
    k = 1
    while 4 * k - 1 <= J:
        b[0, 4 * k - 2] = _FOURGON_SCALE * (-1.0) ** (k + 1) / (4 * k - 1)
        k += 1
    return CoefficientTable(1, J, a, b)


def f0(J: int = 41) -> PolyharmonicMap:
    return PolyharmonicMap(fourgon_coefficients(J), label="f0")


def f1(J: int = 41) -> PolyharmonicMap:
    """Two layers: c (f0(z) + i |z|^2 f0(z)) with c = sqrt(2) pi / 4.

    The scale makes the first analytic coefficient exactly one, so the
    smallest directional stretch at the origin is 1.
    """
    base = fourgon_coefficients(J)
    check_table_size(2, J, MalformedParams)
    c = math.sqrt(2.0) * math.pi / 4.0
    a = np.zeros((2, J), dtype=complex)
    b = np.zeros((2, J), dtype=complex)
    a[0] = c * base.a[0]
    b[0] = c * base.b[0]
    # the quarter turn is applied as an exact multiplication by +-1j:
    # conj(i * conj(w)) = -i * w for the stored conjugate-power entries
    a[1] = 1j * a[0]
    b[1] = -1j * b[0]
    return PolyharmonicMap(CoefficientTable(2, J, a, b), label="F1")


# ---- constant-area-ratio family ----


def _int_key_map(d, what: str, k_min: int) -> dict:
    out = {}
    for key, val in dict(d).items():
        kk = key
        if isinstance(kk, bool) or (not isinstance(kk, (int, str))):
            raise MalformedParams("%s keys must be integers" % what)
        if isinstance(kk, str):
            try:
                kk = int(kk)
            except ValueError:
                raise MalformedParams("%s key %r is not an integer" % (what, key))
        if kk < k_min:
            raise MalformedParams("%s keys must be >= %d" % (what, k_min))
        out[int(kk)] = val
    return out


@dataclass(frozen=True)
class Form37Params:
    """Weights and angles of the two-layer constant-area-ratio family.

    eta and xi weight the first-power pair (eta >= xi keeps the modulus
    ordering between analytic and conjugate entries); zeta1[k] weights the
    k-th power pair of the first layer for k >= 2, zeta2[k] the second
    layer for k >= 1.  theta/phi give per-power angles, sign_a/sign_b pick
    the direction of the second layer's quarter turn (+1 or -1).
    """

    eta: float = 0.0
    xi: float = 0.0
    zeta1: dict = field(default_factory=dict)
    zeta2: dict = field(default_factory=dict)
    theta: dict = field(default_factory=dict)
    phi: dict = field(default_factory=dict)
    sign_a: dict = field(default_factory=dict)
    sign_b: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("eta", "xi"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) and v >= 0.0):
                raise MalformedParams("%s must be a finite number >= 0" % name)
        if self.xi > self.eta:
            raise MalformedParams("need eta >= xi for the modulus ordering")
        object.__setattr__(self, "zeta1", _int_key_map(self.zeta1, "zeta1", 2))
        object.__setattr__(self, "zeta2", _int_key_map(self.zeta2, "zeta2", 1))
        object.__setattr__(self, "theta", _int_key_map(self.theta, "theta", 1))
        object.__setattr__(self, "phi", _int_key_map(self.phi, "phi", 1))
        object.__setattr__(self, "sign_a", _int_key_map(self.sign_a, "sign_a", 1))
        object.__setattr__(self, "sign_b", _int_key_map(self.sign_b, "sign_b", 1))
        for name in ("zeta1", "zeta2"):
            for k, v in getattr(self, name).items():
                if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                        and math.isfinite(v) and v >= 0.0):
                    raise MalformedParams("%s[%d] must be a finite weight >= 0"
                                          % (name, k))
        for name in ("theta", "phi"):
            for k, v in getattr(self, name).items():
                if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                        and math.isfinite(v)):
                    raise MalformedParams("%s[%d] must be a finite angle" % (name, k))
        for name in ("sign_a", "sign_b"):
            for k, v in getattr(self, name).items():
                if isinstance(v, bool) or v not in (-1, 1):
                    raise MalformedParams("%s[%d] must be +1 or -1" % (name, k))


def form37(params: Form37Params, k_max: int | None = None) -> PolyharmonicMap:
    if not isinstance(params, Form37Params):
        raise MalformedParams("expected Form37Params")
    keys = ([1] + list(params.zeta1) + list(params.zeta2)
            + list(params.theta) + list(params.phi))
    top = max(keys)
    if k_max is None:
        k_max = top
    if not (isinstance(k_max, int) and not isinstance(k_max, bool) and k_max >= top):
        raise MalformedParams("k_max must be an integer >= the largest used power")
    check_table_size(2, k_max, MalformedParams)
    a = np.zeros((2, k_max), dtype=complex)
    b = np.zeros((2, k_max), dtype=complex)

    def unit(angles, k):
        return cmath.exp(1j * angles.get(k, 0.0))

    a[0, 0] = params.eta * unit(params.theta, 1)
    b[0, 0] = params.xi * np.conj(unit(params.phi, 1))
    for k, w in params.zeta1.items():
        a[0, k - 1] = w * unit(params.theta, k)
        b[0, k - 1] = w * np.conj(unit(params.phi, k))
    for k, w in params.zeta2.items():
        s = params.sign_a.get(k, 1)
        t = params.sign_b.get(k, 1)
        # multiply by exactly +-1j so quarter-turn layer pairs stay exactly
        # orthogonal in floating point
        a[1, k - 1] = (1j * s) * (w * unit(params.theta, k))
        b[1, k - 1] = (-1j * t) * (w * np.conj(unit(params.phi, k)))
    return PolyharmonicMap(CoefficientTable(2, k_max, a, b), label="form37")


# ---- registry ----


def _num(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MalformedParams("%s must be a number" % what)
    return float(v)


def _cnum(v, what: str) -> complex:
    if isinstance(v, bool):
        raise MalformedParams("%s must be a number or [re, im] pair" % what)
    if isinstance(v, (int, float)):
        return complex(v, 0.0)
    if isinstance(v, complex):
        return v
    if (isinstance(v, (list, tuple)) and len(v) == 2
            and all(isinstance(q, (int, float)) and not isinstance(q, bool)
                    for q in v)):
        return complex(v[0], v[1])
    raise MalformedParams("%s must be a number or [re, im] pair" % what)


def _int(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise MalformedParams("%s must be an integer" % what)
    return v


def _take(params: dict, key, default=None, required=False):
    if key in params:
        return params.pop(key)
    if required:
        raise MalformedParams("missing required parameter %r" % key)
    return default


def _mk_identity(params: dict) -> PolyharmonicMap:
    return identity()


def _mk_linear(params: dict) -> PolyharmonicMap:
    alpha = _cnum(_take(params, "alpha", required=True), "alpha")
    beta = _cnum(_take(params, "beta", required=True), "beta")
    return linear(alpha, beta)


def _mk_monomial(params: dict) -> PolyharmonicMap:
    p = _int(_take(params, "p", required=True), "p")
    j = _int(_take(params, "j", required=True), "j")
    c = _cnum(_take(params, "c", 1.0), "c")
    conjugate = _take(params, "conjugate", False)
    if not isinstance(conjugate, bool):
        raise MalformedParams("conjugate must be a boolean")
    return monomial(p, j, c, conjugate)


def _mk_f2(params: dict) -> PolyharmonicMap:
    return f2()


def _mk_f0(params: dict) -> PolyharmonicMap:
    return f0(_int(_take(params, "J", 41), "J"))


def _mk_f1(params: dict) -> PolyharmonicMap:
    return f1(_int(_take(params, "J", 41), "J"))


def _mk_form37(params: dict) -> PolyharmonicMap:
    kw = {}
    for name in ("eta", "xi"):
        if name in params:
            kw[name] = _num(params.pop(name), name)
    for name in ("zeta1", "zeta2", "theta", "phi", "sign_a", "sign_b"):
        if name in params:
            d = params.pop(name)
            if not isinstance(d, dict):
                raise MalformedParams("%s must be a mapping" % name)
            kw[name] = d
    k_max = _take(params, "k_max")
    if k_max is not None:
        k_max = _int(k_max, "k_max")
    return form37(Form37Params(**kw), k_max)


_BUILTIN = {
    "identity": _mk_identity,
    "linear": _mk_linear,
    "monomial": _mk_monomial,
    "f2": _mk_f2,
    "f0": _mk_f0,
    "F1": _mk_f1,
    "form37": _mk_form37,
}

BUILTIN_NAMES = tuple(sorted(_BUILTIN))


def builtin(name: str, params: dict | None = None) -> PolyharmonicMap:
    """Construct a registered map from JSON-style parameters."""
    if name not in _BUILTIN:
        raise UnknownName("no built-in map named %r (have: %s)"
                          % (name, ", ".join(BUILTIN_NAMES)))
    params = dict(params or {})
    out = _BUILTIN[name](params)
    if params:
        raise MalformedParams("unknown parameters for %r: %s"
                              % (name, ", ".join(sorted(map(str, params)))))
    return out
