"""Deterministic JSON serialization of check results.

Reports are plain dictionaries rendered with sorted keys and a fixed
indent, no timestamps and no machine-specific fields, so running the same
command on the same input twice produces byte-identical output.  Complex
numbers become [re, im] pairs; non-finite floats become null.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .certificates import CheckReport

__all__ = ["to_jsonable", "check_to_dict", "render_json"]


def to_jsonable(v):
    if isinstance(v, (np.floating,)):
        v = float(v)
    if isinstance(v, (np.integer,)):
        v = int(v)
    if isinstance(v, (np.complexfloating,)):
        v = complex(v)
    if v is None or isinstance(v, (str, bool, int)):
        return v
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, complex):
        return [to_jsonable(v.real), to_jsonable(v.imag)]
    if isinstance(v, np.ndarray):
        return [to_jsonable(q) for q in v.tolist()]
    if isinstance(v, dict):
        return {str(k): to_jsonable(val) for k, val in v.items()}
    if isinstance(v, (list, tuple, set, frozenset)):
        return [to_jsonable(q) for q in v]
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return {f.name: to_jsonable(getattr(v, f.name))
                for f in dataclasses.fields(v)}
    raise TypeError("cannot serialize %r into a report" % type(v).__name__)


def check_to_dict(rep: CheckReport) -> dict:
    return {
        "name": rep.name,
        "verdict": rep.verdict,
        "margins": rep.count,
        "worst_margin": to_jsonable(rep.worst_margin),
        "witnesses": to_jsonable(rep.witnesses),
        "extras": to_jsonable(rep.extras),
    }


def render_json(doc: dict) -> str:
    return json.dumps(to_jsonable(doc), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
