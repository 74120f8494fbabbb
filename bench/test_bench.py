"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest -q bench/test_bench.py

Each check must accept the program's real output for an operation and
reject the same output with one value perturbed.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from polyharm import cli  # noqa: E402


def _run(op, workdir):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(op.argv(workdir))
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real output of one operation of every kind, by a short name."""
    workdir = tmp_path_factory.mktemp("maps")
    quantity = workloads.build("quantity-calls", 1)[:7]
    small = {op.map.name: op for op in workloads.build("small-maps-verify", 1)}
    ops = {op.kind + (":" + op.args[-1] if op.kind == "area" else ""): op
           for op in quantity}
    for name in ("aligned_p2_J4", "f2", "form37", "identity"):
        ops["verify:" + name] = small[name]
    workloads.write_maps(list(ops.values()), workdir)
    return {name: (op, *_run(op, workdir)) for name, op in ops.items()}


def test_real_outputs_pass(outputs):
    for name, (op, rc, out) in outputs.items():
        assert checks.check(op, rc, out) == [], name


def _line(key, fn):
    """Replace the number after ``key =`` (or ``key >=``) by fn(number)."""
    pattern = re.compile(r"^(%s\s*>?=\s*)(\S+)" % re.escape(key), re.M)

    def edit(out):
        new, n = pattern.subn(lambda m: m.group(1) + repr(fn(float(m.group(2)))), out)
        assert n == 1
        return new
    return edit


def _word(key, value):
    pattern = re.compile(r"^(%s\s*=\s*)(\S+)" % re.escape(key), re.M)
    return lambda out: pattern.sub(lambda m: m.group(1) + value, out)


def _doc(fn):
    def edit(out):
        doc = json.loads(out)
        fn(doc)
        return json.dumps(doc)
    return edit


def _set(path, fn):
    def change(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = fn(doc[last])
    return _doc(change)


def _check_entry(name, key, value):
    def change(doc):
        for e in doc["checks"]:
            if e["name"] == name:
                e[key] = value
    return _doc(change)


def _classification(value):
    def change(doc):
        for e in doc["checks"]:
            if e["name"] == "area-schwarz":
                e["extras"]["classification"] = value
    return _doc(change)


PERTURBED = [
    ("diam", _line("diameter", lambda v: 1e-3 * v)),
    ("diam", _line("diameter", lambda v: 1e3 * v)),
    ("area:both", _line("S_series", lambda v: v * (1 + 1e-8))),
    ("area:both", _line("S_quadrature", lambda v: v + 1e-8)),
    ("area:both", _line("difference", lambda v: 2 * v + 1e-12)),
    ("area:quadrature", _line("S_quadrature", lambda v: v * (1 - 1e-8))),
    ("landau", _line("r_univ", lambda v: v * (1 + 1e-6))),
    ("landau", _line("rho_cover", lambda v: v * (1 + 1e-6))),
    ("landau", _line("alpha", lambda v: v * (1 + 1e-9))),
    ("landau", _line("diam", lambda v: 1e-3 * v)),
    ("three-circles", _word("verdict", "fail")),
    ("three-circles", _line("worst slack", lambda v: v - 1e-6)),
    ("schwarz", _word("verdict", "hypotheses-not-met")),
    ("schwarz", _line("worst slack", lambda v: v + 1e-6)),
    ("schwarz", _word("classification", "constant")),
    ("jmetric", _line("sup_ratio", lambda v: 2.0 + 1e-6)),
    ("jmetric", _word("verdict", "fail")),
    ("verify:identity", _set(["derived", "l1"], lambda v: v * (1 + 1e-5))),
    ("verify:identity", _set(["derived", "l1"], lambda v: v * (1 - 1e-5))),
    ("verify:aligned_p2_J4", _set(["derived", "l1"], lambda v: 1e3 * v)),
    ("verify:aligned_p2_J4", _set(["derived", "diam"], lambda v: 1e-3 * v)),
    ("verify:aligned_p2_J4", _set(["derived", "S_near_boundary"], lambda v: v + 1e-8)),
    ("verify:aligned_p2_J4", _set(["derived", "coefficient_sum"], lambda v: v * (1 + 1e-9))),
    ("verify:aligned_p2_J4", _set(["derived", "alpha_at_zero"], lambda v: v + 1e-9)),
    ("verify:aligned_p2_J4", _set(["derived", "K"], lambda v: 0.5)),
    ("verify:aligned_p2_J4", _set(["derived", "p"], lambda v: v + 1)),
    ("verify:aligned_p2_J4", _check_entry("arg-condition-length", "verdict", "fail")),
    ("verify:aligned_p2_J4", _set(["summary", "pass"], lambda v: v + 1)),
    ("verify:aligned_p2_J4", _set(["summary", "exit_code"], lambda v: 1)),
    ("verify:aligned_p2_J4", _check_entry("j-contraction", "verdict", "fail")),
    ("verify:f2", _set(["derived", "K"], lambda v: v * (1 + 1e-6))),
    ("verify:f2", _set(["derived", "l1"], lambda v: v * (1 + 1e-8))),
    ("verify:form37", _classification("strictly-increasing")),
]


@pytest.mark.parametrize("name,edit", PERTURBED)
def test_perturbed_output_is_rejected(outputs, name, edit):
    op, rc, out = outputs[name]
    assert checks.check(op, rc, edit(out))


def test_exit_code_must_match_the_report(outputs):
    op, rc, out = outputs["verify:aligned_p2_J4"]
    assert checks.check(op, 1 if rc != 1 else 0, out)
    assert checks.check(op, 3, out) == ["exit code 3"]


def test_tracer_rebinds_every_holder_and_restores(outputs, tmp_path):
    import polyharm.core as core
    import polyharm.geometry as geometry
    from polyharm import catalog
    original = core.evaluate
    op = outputs["diam"][0]
    workloads.write_maps([op], tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        assert geometry.evaluate is core.evaluate is not original
        _run(op, tmp_path)
        geometry.area_series(catalog.identity(), 0.5)
    finally:
        tracer.uninstall()
    assert geometry.evaluate is original and core.evaluate is original
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["core.evaluate"] > 1
    assert tracer.counters["core.evaluate.points"] >= 2 * 4096
    assert tracer.own["cli.main"] <= tracer.total["cli.main"]
    # the area_series call above ran outside any operation
    assert tracer.orphans == 1
