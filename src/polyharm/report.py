"""Deterministic JSON serialization of check results.

Reports are plain dictionaries rendered with sorted keys and a fixed
indent, no timestamps and no machine-specific fields, so running the same
command on the same input twice produces byte-identical output.  Numpy
scalars become Python numbers, arrays, tuples and sets become lists,
dataclasses become objects of their fields, keys become strings, complex
numbers become [re, im] pairs and non-finite floats become null.
:func:`render_json` does that conversion and the writing in one walk;
its text is that of ``json.dumps`` with ``sort_keys=True``, ``indent=2``
and ``allow_nan=False`` on the converted document, plus a newline.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .certificates import CheckReport

_quote = json.encoder.encode_basestring_ascii  # json.dumps' string writer

__all__ = ["check_to_dict", "render_json"]


def check_to_dict(rep: CheckReport) -> dict:
    """The report's fields as :func:`render_json` writes them, unconverted."""
    return {
        "name": rep.name,
        "verdict": rep.verdict,
        "margins": rep.count,
        "worst_margin": rep.worst_margin,
        "witnesses": rep.witnesses,
        "extras": rep.extras,
    }


def _float(v: float) -> str:
    return float.__repr__(v) if math.isfinite(v) else "null"


# each writer appends its value's text to out; nl is a newline and the
# indent of the value's line, and members go one to a line two spaces in


def _array(seq, nl, out):
    if not seq:
        out.append("[]")
        return
    inner = nl + "  "
    sep = "[" + inner
    for x in seq:
        out.append(sep)
        _write(x, inner, out)
        sep = "," + inner
    out.append(nl + "]")


def _object(d, nl, out):
    if not d:
        out.append("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    # keys become strings first, so a later key that reads the same wins
    for k, x in sorted({k if type(k) is str else str(k): x for k, x in d.items()}.items()):
        out.append(sep + _quote(k) + ": ")
        _write(x, inner, out)
        sep = "," + inner
    out.append(nl + "}")


def _write(v, nl, out):
    t = type(v)
    if t is float:  # the common types first, then the general rules
        out.append(_float(v))
    elif t is str:
        out.append(_quote(v))
    elif t is int:
        out.append(int.__repr__(v))
    elif t is dict:
        _object(v, nl, out)
    elif t is list:
        _array(v, nl, out)
    else:
        if isinstance(v, np.floating):
            v = float(v)
        elif isinstance(v, np.integer):
            v = int(v)
        elif isinstance(v, np.complexfloating):
            v = complex(v)
        if v is None:
            out.append("null")
        elif v is True or v is False:
            out.append("true" if v else "false")
        elif isinstance(v, str):
            out.append(_quote(v))
        elif isinstance(v, int):
            out.append(int.__repr__(v))
        elif isinstance(v, float):
            out.append(_float(v))
        elif isinstance(v, complex):
            _array([v.real, v.imag], nl, out)
        elif isinstance(v, np.ndarray):
            _array(list(v.tolist()), nl, out)  # list() refuses a 0-d array's scalar
        elif isinstance(v, dict):
            _object(v, nl, out)
        elif isinstance(v, (list, tuple, set, frozenset)):
            _array(v, nl, out)
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            _object({f.name: getattr(v, f.name) for f in dataclasses.fields(v)}, nl, out)
        else:
            raise TypeError("cannot serialize %r into a report" % type(v).__name__)


def render_json(doc) -> str:
    """The report text of ``doc``: converted as the module docstring says
    and written with sorted keys and an indent of 2, in one walk."""
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)
