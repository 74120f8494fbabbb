import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyharm import catalog
from polyharm.certificates import Margin, area_schwarz, length_coefficient_bounds
from polyharm.core import ring_values
from polyharm.metrics import contraction_check
from polyharm.render import render_paths, render_svg
from polyharm.report import check_to_dict, render_json


# ---- json conversion ----


def _to_jsonable(v):
    # the two-walk route render_json replaced, kept as its oracle: convert,
    # then json.dumps the converted document
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
        return [_to_jsonable(v.real), _to_jsonable(v.imag)]
    if isinstance(v, np.ndarray):
        return [_to_jsonable(q) for q in v.tolist()]
    if isinstance(v, dict):
        return {str(k): _to_jsonable(val) for k, val in v.items()}
    if isinstance(v, (list, tuple, set, frozenset)):
        return [_to_jsonable(q) for q in v]
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return {f.name: _to_jsonable(getattr(v, f.name))
                for f in dataclasses.fields(v)}
    raise TypeError("cannot serialize %r into a report" % type(v).__name__)


def _two_walks(doc) -> str:
    return json.dumps(_to_jsonable(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


@dataclasses.dataclass
class _Pair:
    left: object
    right: object


_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
_COMPLEX = st.builds(complex, _FLOATS, _FLOATS)
_TEXT = st.text() | st.sampled_from(["", "é", "ünïcödé ✓", "\u2028", "tab\there", '"q"'])
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, _COMPLEX, _TEXT,
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32), st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), _COMPLEX.map(np.complex128),
    st.lists(_FLOATS, max_size=4).map(lambda xs: np.array(xs, dtype=float)),
    st.lists(_COMPLEX, max_size=3).map(lambda xs: np.array(xs, dtype=complex)),
    st.lists(st.integers(-9, 9), min_size=2, max_size=2).map(lambda xs: np.array([xs, xs])),
    st.lists(st.booleans(), max_size=3).map(np.array),
    st.sampled_from([Margin("m", 1.0, 2.0, 1.0), Margin("n", math.nan, -0.0, -math.inf)]),
)
_KEYS = st.one_of(_TEXT, st.integers(-3, 3), st.booleans(), st.none(), st.floats(),
                  st.tuples(st.integers(0, 2), _TEXT))
_DOCS = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.dictionaries(_KEYS, kids, max_size=4),
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=3).map(tuple),
    st.frozensets(st.integers(-5, 5) | st.text(max_size=3), max_size=4),
    st.sets(st.integers(-5, 5) | st.text(max_size=3), max_size=4),
    st.builds(_Pair, kids, kids),
), max_leaves=20)


@settings(deadline=None, max_examples=300)
@given(doc=_DOCS)
def test_render_json_is_json_dumps_of_the_converted_document(doc):
    assert render_json(doc) == _two_walks(doc)


def test_render_json_scalars():
    assert render_json(np.float64(1.5)) == "1.5\n"
    assert render_json(np.int32(7)) == "7\n"
    assert render_json(1 + 2j) == "[\n  1.0,\n  2.0\n]\n"
    assert render_json(np.complex128(1 + 2j)) == render_json(1 + 2j)
    assert render_json(float("nan")) == render_json(float("inf")) == "null\n"
    assert render_json(np.array([1.0, 2.0])) == render_json([1.0, 2.0])
    assert render_json({1: "x"}) == '{\n  "1": "x"\n}\n'
    assert render_json({"b": [], "a": {}}) == '{\n  "a": {},\n  "b": []\n}\n'
    for bad in (object(), np.bool_(True), {"k": [b"bytes"]}, np.array(1.0)):
        with pytest.raises(TypeError):
            render_json(bad)
        with pytest.raises(TypeError):
            _two_walks(bad)


def test_render_json_round_trips():
    doc = {"b": [1.0, float("nan")], "a": np.float64(2.0)}
    text = render_json(doc)
    back = json.loads(text)
    assert back == {"a": 2.0, "b": [1.0, None]}
    assert text.endswith("\n")


def test_check_report_serialization():
    rep = length_coefficient_bounds(catalog.f2(), 3.0, 6.0 * math.pi)
    d = check_to_dict(rep)
    assert d["name"] == "length-coefficient-bounds"
    assert d["verdict"] == "pass"
    assert d["margins"] == len(rep.margins)
    # the report's own values; render_json converts them
    assert d["worst_margin"] is rep.worst_margin
    back = json.loads(render_json(d))  # must be a JSON-safe document
    assert back["worst_margin"]["slack"] == rep.worst_margin.slack
    assert len(back["witnesses"]) == len(rep.witnesses)


def test_lipschitz_report_serialization():
    rep = contraction_check(catalog.identity(), 1.0)
    d = check_to_dict(rep)
    # the j checks serialize like every other check: one margin per pair
    assert d == {"name": "j-contraction", "verdict": "pass", "margins": 512 + 64,
                 "worst_margin": rep.worst_margin, "witnesses": rep.witnesses,
                 "extras": {"coefficient_sum": 1.0, "M": 1.0}}
    back = json.loads(render_json(d))
    assert (back["worst_margin"]["lhs"], back["worst_margin"]["rhs"]) == (1.0, 1.0)
    assert back["witnesses"] == _to_jsonable(rep.witnesses)
    hnm = contraction_check(catalog.linear(1.0, 0.5), 1.2)
    # a check that samples nothing has no worst margin: null in strict JSON
    text = render_json(check_to_dict(hnm))
    assert json.loads(text)["worst_margin"] is None


def test_report_on_area_schwarz_extras():
    d = check_to_dict(area_schwarz(catalog.identity()))
    assert d["extras"]["classification"] == "constant"


# ---- curve families ----


def test_render_paths_shapes():
    F = catalog.identity()
    paths = render_paths(F)
    assert len(paths["rings"]) == 8
    assert len(paths["rays"]) == 16
    assert paths["boundary"].shape == (513,)
    # rings are closed polylines
    for ring in paths["rings"]:
        assert ring[0] == ring[-1]


def test_render_paths_bbox_containment():
    # every ring and ray point sits inside the boundary bounding box
    for F in (catalog.identity(), catalog.f1(), catalog.f2()):
        paths = render_paths(F)
        bx = paths["boundary"].real
        by = paths["boundary"].imag
        lo_x, hi_x = bx.min() - 1e-6, bx.max() + 1e-6
        lo_y, hi_y = by.min() - 1e-6, by.max() + 1e-6
        for group in ("rings", "rays"):
            for path in paths[group]:
                assert np.all(path.real >= lo_x) and np.all(path.real <= hi_x)
                assert np.all(path.imag >= lo_y) and np.all(path.imag <= hi_y)


def test_render_paths_boundary_is_the_outer_ring():
    # sampled once, on the circle of radius exactly 1 - 1e-3
    F = catalog.f2()
    paths = render_paths(F)
    assert paths["boundary"] is paths["rings"][-1]
    assert np.array_equal(paths["boundary"][:-1], ring_values(F, [1.0 - 1e-3], 512)[0])


# ---- svg output ----


def test_render_svg_structure(tmp_path):
    out = tmp_path / "disk.svg"
    text = render_svg(catalog.f2(), out_path=out)
    assert out.read_text(encoding="utf-8") == text
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 8 + 16  # rings (incl. boundary) + rays
    assert "f2" in text  # label lands in the description


def test_render_svg_escapes_the_label_as_saxutils_does():
    from dataclasses import replace
    from xml.sax.saxutils import escape
    label = "a<b> & c&amp;d >< &"
    text = render_svg(replace(catalog.f2(), label=label))
    assert "<desc>%s</desc>" % escape(label) in text


def test_render_svg_prints_no_negative_zero():
    # f2 maps the real axis to itself, so -imag is -0.0 at those points
    tokens = re.split(r'[\s,"]+', render_svg(catalog.f2()))
    assert "0" in tokens and "-0" not in tokens


def test_render_svg_deterministic():
    a = render_svg(catalog.f1())
    b = render_svg(catalog.f1())
    assert a == b
