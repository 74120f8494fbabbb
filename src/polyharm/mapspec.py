"""Mapping files: a small JSON format for describing a map on disk.

A file is either a built-in reference
    {"builtin": "f2", "params": {}, "label": "..."}
or an explicit coefficient table
    {"p": 2, "J": 3, "terms": [{"n": 1, "j": 1, "a": [re, im], "b": [re, im]},
     ...], "label": "..."}
with omitted (n, j) entries meaning zero.  Floats survive a dump/load
round trip bit for bit (shortest-repr serialization), and numbers that
are non-finite or too large for a float are rejected while parsing.
``loads`` checks only what JSON can get wrong (types, keys, a bool given
as an integer, ``[re, im]`` pairs); ``build_map`` leaves a table's rules to
``PolyharmonicMap.from_terms``, and ``from_map`` goes back from a map.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

from . import catalog
from .core import PolyharmonicMap
from .errors import MalformedSpec

__all__ = ["MappingSpec", "loads", "load", "dumps", "dump", "digest", "build_map",
           "from_map"]

_TOP_BUILTIN = {"builtin", "params", "label"}
_TOP_TABLE = {"p", "J", "terms", "label"}


@dataclass(frozen=True)
class MappingSpec:
    builtin: str | None = None
    params: dict = field(default_factory=dict)
    p: int | None = None
    J: int | None = None
    terms: tuple = ()
    label: str = ""

    def is_builtin(self) -> bool:
        return self.builtin is not None


def _reject_constant(name):
    raise MalformedSpec("non-finite number %r in mapping file" % name)


def _finite(text, kind=float):
    # json's hook for number literals: float() rounds one of any length, so
    # a number beyond float range is refused before int() would convert it
    if not math.isfinite(float(text)):
        raise MalformedSpec("non-finite number in document")
    return kind(text)


def _int_field(doc, key) -> int:
    v = doc.get(key)
    if isinstance(v, bool) or not isinstance(v, int):
        raise MalformedSpec("%r must be an integer" % key)
    return v


def _pair(v, where) -> complex:
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or any(isinstance(q, bool) or not isinstance(q, (int, float))
                   for q in v)):
        raise MalformedSpec("%s must be a [re, im] pair" % where)
    return complex(float(v[0]), float(v[1]))


def loads(text: str) -> MappingSpec:
    try:
        doc = json.loads(text, parse_constant=_reject_constant, parse_float=_finite,
                         parse_int=lambda literal: _finite(literal, int))
    except json.JSONDecodeError as exc:
        raise MalformedSpec("not valid JSON: %s" % exc) from exc
    except RecursionError:
        raise MalformedSpec("mapping file nests too deeply") from None
    if not isinstance(doc, dict):
        raise MalformedSpec("mapping file must hold a JSON object")
    keys = set(doc)
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise MalformedSpec("label must be a string")
    if "builtin" in keys:
        if not keys <= _TOP_BUILTIN:
            raise MalformedSpec("unexpected keys with 'builtin': %s"
                               % sorted(keys - _TOP_BUILTIN))
        name = doc["builtin"]
        if not isinstance(name, str):
            raise MalformedSpec("builtin name must be a string")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise MalformedSpec("params must be an object")
        return MappingSpec(builtin=name, params=params, label=label)
    if not keys <= _TOP_TABLE:
        raise MalformedSpec("unexpected top-level keys: %s"
                            % sorted(keys - _TOP_TABLE))
    if "p" not in keys or "J" not in keys:
        raise MalformedSpec("table form needs both 'p' and 'J'")
    p = _int_field(doc, "p")
    J = _int_field(doc, "J")
    raw = doc.get("terms", [])
    if not isinstance(raw, list):
        raise MalformedSpec("terms must be a list")
    terms = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise MalformedSpec("terms[%d] must be an object" % i)
        extra = set(entry) - {"n", "j", "a", "b"}
        if extra:
            raise MalformedSpec("terms[%d] has unexpected keys %s"
                                % (i, sorted(extra)))
        n = entry.get("n")
        j = entry.get("j")
        for name, v in (("n", n), ("j", j)):
            if isinstance(v, bool) or not isinstance(v, int):
                raise MalformedSpec("terms[%d].%s must be an integer" % (i, name))
        a = _pair(entry["a"], "terms[%d].a" % i) if "a" in entry else 0j
        b = _pair(entry["b"], "terms[%d].b" % i) if "b" in entry else 0j
        terms.append((n, j, a, b))
    terms.sort(key=lambda t: (t[0], t[1]))
    return MappingSpec(p=p, J=J, terms=tuple(terms), label=label)


def load(path) -> MappingSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _as_document(spec: MappingSpec) -> dict:
    if spec.is_builtin():
        doc = {"builtin": spec.builtin, "params": spec.params}
    else:
        doc = {
            "p": spec.p,
            "J": spec.J,
            "terms": [
                {"n": n, "j": j, "a": [a.real, a.imag], "b": [b.real, b.imag]}
                for (n, j, a, b) in spec.terms
            ],
        }
    if spec.label:
        doc["label"] = spec.label
    return doc


def dumps(spec: MappingSpec) -> str:
    return json.dumps(_as_document(spec), indent=2, sort_keys=True) + "\n"


def dump(spec: MappingSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(spec))


def digest(spec: MappingSpec) -> str:
    blob = json.dumps(_as_document(spec), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def build_map(spec: MappingSpec) -> PolyharmonicMap:
    """The map a spec describes: a builtin reference resolves through the
    catalog, and a table's terms go to ``PolyharmonicMap.from_terms``,
    which checks the table's rules."""
    if not isinstance(spec, MappingSpec):
        raise MalformedSpec(f"expected a MappingSpec, got {type(spec).__name__}")
    if spec.builtin is not None:
        F = catalog.builtin(spec.builtin, spec.params)
        return replace(F, label=spec.label) if spec.label else F
    if spec.p is None or spec.J is None:
        raise MalformedSpec("explicit table form needs both p and J")
    return PolyharmonicMap.from_terms(spec.p, spec.J, spec.terms,
                                      spec.label or f"table(p={spec.p},J={spec.J})")


def from_map(F: PolyharmonicMap) -> MappingSpec:
    """Table-form spec of a map's nonzero entries."""
    terms = []
    for n in range(1, F.p + 1):
        for j in range(1, F.J + 1):
            a = complex(F.a[n - 1, j - 1])
            b = complex(F.b[n - 1, j - 1])
            if a != 0 or b != 0:
                terms.append((n, j, a, b))
    return MappingSpec(p=F.p, J=F.J, terms=tuple(terms), label=F.label)
