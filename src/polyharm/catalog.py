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
import sys

import numpy as np

from .core import PolyharmonicMap, check_table_size
from .errors import MalformedParams, UnknownName

__all__ = [
    "identity",
    "linear",
    "monomial",
    "f2",
    "f0",
    "f1",
    "form37",
    "builtin",
    "BUILTIN_NAMES",
]


def identity() -> PolyharmonicMap:
    return PolyharmonicMap(1, 1, np.array([[1.0 + 0.0j]]),
                           np.zeros((1, 1), dtype=complex), label="identity")


def _complex(v, what: str) -> complex:
    try:
        return complex(v)
    except OverflowError:  # an int beyond float range
        raise MalformedParams("%s is too large for a float" % what) from None


def linear(alpha: complex, beta: complex) -> PolyharmonicMap:
    """alpha * z plus the conjugate-linear part with coefficient beta."""
    a = np.zeros((1, 1), dtype=complex)
    b = np.zeros((1, 1), dtype=complex)
    a[0, 0] = _complex(alpha, "alpha")
    b[0, 0] = np.conj(_complex(beta, "beta"))  # stored so conj(b) multiplies conj(z)
    return PolyharmonicMap(1, 1, a, b, label="linear")


def monomial(p: int, j: int, c: complex = 1.0,
             conjugate: bool = False) -> PolyharmonicMap:
    """c |z|^(2(p-1)) z^j, or the conj(z)^j variant."""
    if not (isinstance(p, int) and not isinstance(p, bool) and p >= 1):
        raise MalformedParams("p must be an integer >= 1")
    if not (isinstance(j, int) and not isinstance(j, bool) and j >= 1):
        raise MalformedParams("j must be an integer >= 1")
    check_table_size(p, j, MalformedParams)
    c = _complex(c, "c")
    a = np.zeros((p, j), dtype=complex)
    b = np.zeros((p, j), dtype=complex)
    if conjugate:
        b[p - 1, j - 1] = np.conj(c)
    else:
        a[p - 1, j - 1] = c
    return PolyharmonicMap(p, j, a, b, label="monomial")


def f2() -> PolyharmonicMap:
    """Three stacked unit layers at the first power: z(1 + |z|^2 + |z|^4)."""
    a = np.ones((3, 1), dtype=complex)
    b = np.zeros((3, 1), dtype=complex)
    return PolyharmonicMap(3, 1, a, b, label="f2")


# ---- square-image series ----

_FOURGON_SCALE = 2.0 * math.sqrt(2.0) / math.pi


def f0(J: int = 41) -> PolyharmonicMap:
    """Single-layer square-image series truncated at power J.

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
    return PolyharmonicMap(1, J, a, b, label="f0")


def f1(J: int = 41) -> PolyharmonicMap:
    """Two layers: c (f0(z) + i |z|^2 f0(z)) with c = sqrt(2) pi / 4.

    The scale makes the first analytic coefficient exactly one, so the
    smallest directional stretch at the origin is 1.
    """
    base = f0(J)
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
    return PolyharmonicMap(2, J, a, b, label="F1")


# ---- constant-area-ratio family ----


def _real(v) -> bool:
    # finite, and so an int within float range
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _weight(v) -> bool:
    return _real(v) and v >= 0.0


def _sign(v) -> bool:
    return not isinstance(v, bool) and v in (-1, 1)


def _powers(name: str, d, k_min: int, rule: str, ok) -> dict:
    """``d`` as a power -> value dict, every power >= k_min and every value ok.

    A power is an int or the canonical ASCII decimal of one ("3", not "03",
    "+3" or " 3"), so that no two keys can name one power.
    """
    if not isinstance(d, (dict, type(None))):
        raise MalformedParams("%s must be a mapping" % name)
    out = {}
    for key, v in (d or {}).items():
        try:
            k = int(key) if isinstance(key, str) and str(int(key)) == key else key
        except ValueError:
            k = None
        if isinstance(k, bool) or not isinstance(k, int) or k < k_min:
            raise MalformedParams("%s key %r is not a canonical integer >= %d"
                                  % (name, key, k_min))
        if k in out:
            raise MalformedParams("%s names power %d twice" % (name, k))
        if not ok(v):
            raise MalformedParams("%s[%d] must be %s" % (name, k, rule))
        out[k] = v
    return out


def form37(eta=0.0, xi=0.0, zeta1=None, zeta2=None, theta=None, phi=None,
           sign_a=None, sign_b=None, k_max=None) -> PolyharmonicMap:
    """Two-layer family whose area ratio S(r)/r^2 is constant in r.

    eta and xi weight the first-power pair (eta >= xi keeps the modulus
    ordering between analytic and conjugate entries); zeta1[k] weights the
    k-th power pair of the first layer for k >= 2, zeta2[k] the second
    layer for k >= 1.  theta/phi give per-power angles, sign_a/sign_b pick
    the direction of the second layer's quarter turn (+1 or -1).  The table
    has k_max columns, by default the largest power used.
    """
    for name, v in (("eta", eta), ("xi", xi)):
        if not _weight(v):
            raise MalformedParams("%s must be a finite number >= 0" % name)
    if xi > eta:
        raise MalformedParams("need eta >= xi for the modulus ordering")
    zeta1 = _powers("zeta1", zeta1, 2, "a finite weight >= 0", _weight)
    zeta2 = _powers("zeta2", zeta2, 1, "a finite weight >= 0", _weight)
    theta = _powers("theta", theta, 1, "a finite angle", _real)
    phi = _powers("phi", phi, 1, "a finite angle", _real)
    sign_a = _powers("sign_a", sign_a, 1, "+1 or -1", _sign)
    sign_b = _powers("sign_b", sign_b, 1, "+1 or -1", _sign)
    top = max([1, *zeta1, *zeta2, *theta, *phi])
    k_max = top if k_max is None else k_max
    if not (isinstance(k_max, int) and not isinstance(k_max, bool) and k_max >= top):
        raise MalformedParams("k_max must be an integer >= the largest used power")
    check_table_size(2, k_max, MalformedParams)
    a = np.zeros((2, k_max), dtype=complex)
    b = np.zeros((2, k_max), dtype=complex)

    def unit(angles, k):
        return cmath.exp(1j * angles.get(k, 0.0))

    a[0, 0] = eta * unit(theta, 1)
    b[0, 0] = xi * np.conj(unit(phi, 1))
    for k, w in zeta1.items():
        a[0, k - 1] = w * unit(theta, k)
        b[0, k - 1] = w * np.conj(unit(phi, k))
    for k, w in zeta2.items():
        # multiply by exactly +-1j so quarter-turn layer pairs stay exactly
        # orthogonal in floating point
        a[1, k - 1] = (1j * sign_a.get(k, 1)) * (w * unit(theta, k))
        b[1, k - 1] = (-1j * sign_b.get(k, 1)) * (w * np.conj(unit(phi, k)))
    return PolyharmonicMap(2, k_max, a, b, label="form37")


# ---- registry ----


def _num(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MalformedParams("%s must be a number" % what)
    try:
        return float(v)
    except OverflowError:
        raise MalformedParams("%s is too large for a float" % what) from None


def _cnum(v, what: str) -> complex:
    if isinstance(v, complex):
        return v
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        v = (v, 0.0)
    if (isinstance(v, (list, tuple)) and len(v) == 2
            and all(isinstance(q, (int, float)) and not isinstance(q, bool)
                    for q in v)):
        return complex(_num(v[0], what), _num(v[1], what))
    raise MalformedParams("%s must be a number or [re, im] pair" % what)


def _int(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise MalformedParams("%s must be an integer" % what)
    return v


def _bool(v, what: str) -> bool:
    if not isinstance(v, bool):
        raise MalformedParams("%s must be a boolean" % what)
    return v


_REQUIRED = object()  # the default of a parameter a mapping file must give
_POWER_MAP = (lambda v, what: v, None)  # form37 checks its power maps

# name -> (maker, {param: (parser, default or _REQUIRED)}, description);
# builtin() calls maker(**params) and `polyharm catalog` lists the rows in
# this order, each with its parameter names
_BUILTIN = {
    "identity": (identity, {}, "single unit coefficient; the map z -> z"),
    "linear": (linear, {"alpha": (_cnum, _REQUIRED), "beta": (_cnum, _REQUIRED)},
               "alpha z + conjugate part beta"),
    "monomial": (monomial, {"p": (_int, _REQUIRED), "j": (_int, _REQUIRED),
                            "c": (_cnum, 1.0), "conjugate": (_bool, False)},
                 "c |z|^(2(p-1)) z^j or conjugate variant"),
    "f2": (f2, {}, "three stacked unit layers: z (1 + |z|^2 + |z|^4)"),
    "f0": (f0, {"J": (_int, 41)}, "truncated square-image series"),
    "F1": (f1, {"J": (_int, 41)},
           "f0 with a quarter-turn second layer, unit stretch at 0"),
    "form37": (form37, {"eta": (_num, 0.0), "xi": (_num, 0.0),
                        "zeta1": _POWER_MAP, "zeta2": _POWER_MAP,
                        "theta": _POWER_MAP, "phi": _POWER_MAP,
                        "sign_a": _POWER_MAP, "sign_b": _POWER_MAP,
                        "k_max": (_int, None)},
               "two-layer family with constant S(r)/r^2"),
}

BUILTIN_NAMES = tuple(sorted(_BUILTIN))


def builtin(name: str, params: dict | None = None) -> PolyharmonicMap:
    """Construct a registered map from JSON-style parameters."""
    if name not in _BUILTIN:
        raise UnknownName("no built-in map named %r (have: %s)"
                          % (name, ", ".join(BUILTIN_NAMES)))
    maker, declared, _ = _BUILTIN[name]
    params = params or {}
    unknown = [str(key) for key in params if key not in declared]
    if unknown:
        raise MalformedParams("unknown parameters for %r: %s"
                              % (name, ", ".join(sorted(unknown))))
    kw = {}
    for key, (parse, default) in declared.items():
        if key in params:
            kw[key] = parse(params[key], key)
        elif default is _REQUIRED:
            raise MalformedParams("missing required parameter %r" % key)
        else:
            kw[key] = default
    return maker(**kw)
