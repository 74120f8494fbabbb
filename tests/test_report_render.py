import json
import math
import re

import numpy as np
import pytest

from polyharm import catalog
from polyharm.certificates import area_schwarz, length_coefficient_bounds
from polyharm.core import ring_values
from polyharm.metrics import contraction_check
from polyharm.render import render_paths, render_svg
from polyharm.report import check_to_dict, render_json, to_jsonable


# ---- json conversion ----


def test_to_jsonable_scalars():
    assert to_jsonable(np.float64(1.5)) == 1.5
    assert to_jsonable(np.int32(7)) == 7
    assert to_jsonable(1 + 2j) == [1.0, 2.0]
    assert to_jsonable(float("nan")) is None
    assert to_jsonable(float("inf")) is None
    assert to_jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]
    assert to_jsonable({1: "x"}) == {"1": "x"}
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_render_json_round_trips():
    doc = {"b": [1.0, float("nan")], "a": np.float64(2.0)}
    text = render_json(to_jsonable(doc))
    back = json.loads(text)
    assert back == {"a": 2.0, "b": [1.0, None]}
    assert text.endswith("\n")


def test_check_report_serialization():
    rep = length_coefficient_bounds(catalog.f2(), 3.0, 6.0 * math.pi)
    d = check_to_dict(rep)
    assert d["name"] == "length-coefficient-bounds"
    assert d["verdict"] == "pass"
    assert d["margins"] == len(rep.margins)
    assert d["worst_margin"]["slack"] == rep.worst_margin.slack
    json.dumps(to_jsonable(d))  # must be a JSON-safe document


def test_lipschitz_report_serialization():
    rep = contraction_check(catalog.identity(), 1.0)
    d = check_to_dict(rep)
    # the j checks serialize like every other check: one margin per pair
    assert d == {"name": "j-contraction", "verdict": "pass", "margins": 512 + 64,
                 "worst_margin": to_jsonable(rep.worst_margin),
                 "witnesses": to_jsonable(rep.witnesses),
                 "extras": {"coefficient_sum": 1.0, "M": 1.0}}
    assert (d["worst_margin"]["lhs"], d["worst_margin"]["rhs"]) == (1.0, 1.0)
    json.dumps(d)
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
