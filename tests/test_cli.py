import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings

import pytest

import polyharm
from polyharm import cli, geometry, mapspec, metrics
from polyharm.catalog import BUILTIN_NAMES
from polyharm.cli import main


@pytest.fixture
def f2_map(tmp_path):
    path = tmp_path / "f2.map"
    mapspec.dump(mapspec.loads('{"builtin": "f2"}'), path)
    return str(path)


@pytest.fixture
def identity_map(tmp_path):
    path = tmp_path / "identity.map"
    mapspec.dump(mapspec.loads('{"builtin": "identity"}'), path)
    return str(path)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


_F0_J9 = '{"builtin": "f0", "params": {"J": 9}}'


def _lines(capsys):
    out = capsys.readouterr().out
    return {ln.split("=")[0].strip(): ln.split("=", 1)[1].strip()
            for ln in out.strip().splitlines() if "=" in ln}


# ---- evaluation commands ----


def test_eval(identity_map, capsys):
    assert main(["eval", "--map", identity_map, "--z", "0.25+0.5j"]) == 0
    out = capsys.readouterr().out.strip()
    assert complex(out) == 0.25 + 0.5j


def test_derive(f2_map, capsys):
    assert main(["derive", "--map", f2_map, "--z", "0.5"]) == 0
    vals = _lines(capsys)
    assert complex(vals["F_z"]) == 1.6875
    assert complex(vals["F_zbar"]) == 0.375
    assert float(vals["jacobian"]) == 1.6875**2 - 0.375**2


def test_length_sup(f2_map, capsys):
    assert main(["length", "--map", f2_map, "--sup"]) == 0
    got = float(_lines(capsys)["sup_length"])
    assert abs(got - 6.0 * math.pi) <= 1e-8


def test_length_fixed_radius(f2_map, capsys):
    assert main(["length", "--map", f2_map, "--r", "0.5"]) == 0
    got = float(_lines(capsys)["length"])
    assert abs(got - 2.0 * math.pi * 0.5 * 1.3125) <= 1e-9


def test_area_both_routes(f2_map, capsys):
    assert main(["area", "--map", f2_map, "--r", "0.5", "--method", "both"]) == 0
    vals = _lines(capsys)
    assert abs(float(vals["S_series"]) - 0.4306640625) <= 1e-12
    assert abs(float(vals["S_series"]) - float(vals["S_quadrature"])) <= 1e-8


def test_diam(tmp_path, capsys):
    path = _write(tmp_path, "sq.map",
                  '{"builtin": "monomial", "params": {"p": 1, "j": 2}}')
    assert main(["diam", "--map", path]) == 0
    got = float(capsys.readouterr().out.split(">=")[1])
    assert abs(got - 2.0) <= 1e-9


def _readme_tour():
    # the CLI tour's commands, each with the lines quoted after it
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
                  encoding="utf-8").read()
    block = readme.split("## CLI tour", 1)[1].split("```")[1]
    tour, argv = {}, None
    for line in block.splitlines():
        if line.startswith("$ polyharm "):
            argv = tuple(line.split()[2:])
            tour[argv] = []
        elif line and argv is not None:
            tour[argv].append(line)
    return tour


@pytest.mark.parametrize("argv", [
    ("length", "--map", "f2.map", "--sup"),
    ("derive", "--map", "f2.map", "--z", "0.5"),
    ("jmetric", "--z", "0.5", "--w", "0.25"),
])
def test_readme_tour_output_is_current(argv, f2_map, capsys):
    quoted = _readme_tour()[argv]
    assert quoted
    assert main([f2_map if a == "f2.map" else a for a in argv]) == 0
    assert capsys.readouterr().out == "".join(ln + "\n" for ln in quoted)


# ---- radii ----


def test_landau_length_mode(identity_map, capsys):
    assert main(["landau", "--mode", "length", "--map", identity_map]) == 0
    vals = _lines(capsys)
    assert abs(float(vals["r_univ"]) - 0.5) <= 1e-9
    assert abs(float(vals["rho_cover"]) - (1.0 - math.log(2.0))) <= 1e-9


def test_landau_diameter_mode(identity_map, capsys):
    assert main(["landau", "--mode", "diameter", "--map", identity_map]) == 0
    vals = _lines(capsys)
    assert 0.0 < float(vals["r_univ"]) < 1.0
    assert 0.0 < float(vals["rho_cover"]) < 1.0


# ---- certificates ----


def test_three_circles_pass(identity_map, capsys):
    assert main(["three-circles", "--map", identity_map, "--r1", "0.3"]) == 0
    assert "pass" in capsys.readouterr().out


def test_three_circles_hnm(f2_map, capsys):
    # boundary area of about 9 breaks the unit budget hypothesis
    assert main(["three-circles", "--map", f2_map, "--r1", "0.3"]) == 2


def test_schwarz_pass(identity_map, capsys):
    assert main(["schwarz", "--map", identity_map]) == 0
    out = capsys.readouterr().out
    assert "constant" in out


def test_schwarz_hnm(tmp_path, capsys):
    path = _write(tmp_path, "mis.map",
                  '{"p": 2, "J": 1, "terms": ['
                  '{"n": 1, "j": 1, "a": [1, 0]},'
                  '{"n": 2, "j": 1, "a": [-1, 0]}]}')
    assert main(["schwarz", "--map", path]) == 2


def test_hypotheses_not_met_prints_the_reason(f2_map, tmp_path, capsys):
    # the check's first unmet hypothesis follows the verdict
    assert main(["three-circles", "--map", f2_map, "--r1", "0.3"]) == 2
    assert capsys.readouterr().out == ("check = three-circles-area\n"
                                       "verdict = hypotheses-not-met\n"
                                       "reason = normalized area exceeds the unit budget\n")
    path = _write(tmp_path, "mis.map",
                  '{"p": 2, "J": 1, "terms": ['
                  '{"n": 1, "j": 1, "a": [1, 0]},'
                  '{"n": 2, "j": 1, "a": [-1, 0]}]}')
    assert main(["schwarz", "--map", path]) == 2
    assert capsys.readouterr().out == ("check = area-schwarz\n"
                                       "verdict = hypotheses-not-met\n"
                                       "reason = area angle condition fails\n")


# ---- metric commands ----


def test_jmetric_value(capsys):
    assert main(["jmetric", "--z", "0", "--w", "0.5", "--M", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - math.log(2.0)) <= 1e-15


def test_jmetric_default_target_radius_is_one(capsys):
    assert main(["jmetric", "--z", "0", "--w", "0.5"]) == 0
    default = capsys.readouterr().out
    assert main(["jmetric", "--z", "0", "--w", "0.5", "--M", "1"]) == 0
    assert capsys.readouterr().out == default


def test_jmetric_mobius(capsys):
    assert main(["jmetric", "--mobius-a", "0.5"]) == 0
    vals = _lines(capsys)
    assert float(vals["sup_ratio"]) <= 2.0 + 1e-9
    assert vals["verdict"] == "pass"


def test_jmetric_mobius_default_seed_is_seven(capsys):
    assert main(["jmetric", "--mobius-a", "0.5"]) == 0
    default = capsys.readouterr().out
    assert main(["jmetric", "--mobius-a", "0.5", "--seed", "7"]) == 0
    assert capsys.readouterr().out == default
    assert main(["jmetric", "--mobius-a", "0.5", "--seed", "8"]) == 0
    assert capsys.readouterr().out != default


# ---- rendering ----


def test_render_svg_file(f2_map, tmp_path, capsys):
    out = tmp_path / "f2.svg"
    assert main(["render", "--map", f2_map, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text(encoding="utf-8")
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")


def test_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("identity", "linear", "monomial", "f2", "f0", "F1", "form37"):
        assert name in out
    # one builtin per line, each listed once, and every builtin listed
    names = [line.split()[0] for line in out.splitlines()]
    assert sorted(names) == list(BUILTIN_NAMES)


# ---- verify ----


def test_verify_pass_and_deterministic(f2_map, tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["verify", "--map", f2_map, "--out", str(out_file)]) == 0
    first = capsys.readouterr().out
    assert out_file.read_text(encoding="utf-8") == first
    assert main(["verify", "--map", f2_map]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical across runs
    doc = json.loads(first)
    assert doc["summary"]["exit_code"] == 0
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["hypotheses-not-met"] == 0
    assert doc["input"]["p"] == 3
    assert abs(doc["derived"]["K"] - 3.0) <= 1e-6
    assert abs(doc["derived"]["l1"] - 6.0 * math.pi) <= 1e-8
    names = [c["name"] for c in doc["checks"]]
    assert "diameter-coefficient-bounds" in names
    assert "area-schwarz" in names


def test_verify_out_that_cannot_be_written_prints_nothing(f2_map, tmp_path, capsys):
    # the report file is written before stdout, so an io error prints no report
    out = tmp_path / "missing" / "report.json"
    assert main(["verify", "--map", f2_map, "--out", str(out)]) == 4
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("io error: ")
    assert not out.parent.exists()


def test_verify_error_leaves_no_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    bad = _write(tmp_path, "bad.map", '{"p": 1, "J": 1, "terms": [')
    assert main(["verify", "--map", bad, "--out", str(out)]) == 4
    assert capsys.readouterr().out == ""
    assert not out.exists()


_SCHEMA = {"name", "verdict", "margins", "worst_margin", "witnesses", "extras", "counts_as"}


@pytest.mark.parametrize("text", ['{"builtin": "identity"}', '{"builtin": "f2"}',
                                  '{"builtin": "F1", "params": {"J": 9}}'],
                         ids=["identity", "f2", "F1"])
def test_verify_entries_share_one_schema(tmp_path, capsys, text):
    # every entry that ran, the j-metric checks included, has the same keys
    path = _write(tmp_path, "m.map", text)
    main(["verify", "--map", path])
    ran = [e for e in json.loads(capsys.readouterr().out)["checks"]
           if e["verdict"] != "skipped"]
    assert "j-contraction" in [e["name"] for e in ran]
    assert {e["name"]: set(e) for e in ran} == {e["name"]: _SCHEMA for e in ran}


def test_verify_square_map_is_deterministic(tmp_path, capsys):
    # the diameter polish solves small eigenproblems; its report must still
    # come out byte for byte the same
    path = _write(tmp_path, "f0.map", '{"builtin": "f0", "params": {"J": 9}}')
    first_code = main(["verify", "--map", path])
    first = capsys.readouterr().out
    assert main(["verify", "--map", path]) == first_code
    assert capsys.readouterr().out == first
    assert json.loads(first)["input"]["J"] == 9


def test_verify_conclusion_failure(tmp_path, capsys):
    # honest length hypothesis (K = 1, l1 = 2 pi) cannot carry a huge
    # second coefficient: the bound margin goes negative
    path = _write(tmp_path, "big.map",
                  '{"p": 1, "J": 2, "terms": ['
                  '{"n": 1, "j": 1, "a": [1, 0]},'
                  '{"n": 1, "j": 2, "a": [10, 0]}]}')
    code = main(["verify", "--map", path, "--K", "1.0",
                 "--l1", "6.283185307179586"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["exit_code"] == 1
    bad = [c for c in doc["checks"] if c["verdict"] == "fail"]
    assert [c["name"] for c in bad] == ["length-coefficient-bounds"]


@pytest.mark.parametrize("J, n", [(9, 2048), (512, 16384)])
def test_verify_reports_the_boundary_samples_of_the_harmonic_check(tmp_path, capsys,
                                                                   monkeypatch, J, n):
    # the harmonic j-Lipschitz check samples |z| = 1 at the smallest power
    # of two >= max(2048, 32 degree); the report prints that count
    path = _write(tmp_path, "m.map", '{"p": 1, "J": %d, "terms": '
                  '[{"n": 1, "j": %d, "a": [0.5, 0]}]}' % (J, J))
    counts = []
    inner = metrics.ring_values
    monkeypatch.setattr(metrics, "ring_values",
                        lambda F, radii, k: counts.append(k) or inner(F, radii, k))
    main(["verify", "--map", path, "--K", "1.0", "--l1", "1.0", "--diam", "1.0"])
    assert json.loads(capsys.readouterr().out)["environment"]["theta_samples"] == n
    assert counts == [n]


def test_verify_hypotheses_not_met(tmp_path, capsys):
    path = _write(tmp_path, "mis.map",
                  '{"p": 2, "J": 1, "terms": ['
                  '{"n": 1, "j": 1, "a": [1, 0]},'
                  '{"n": 2, "j": 1, "a": [-1, 0]}]}')
    assert main(["verify", "--map", path]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["exit_code"] == 2


def test_verify_folding_map_has_no_K(tmp_path, capsys):
    # f0 folds near the boundary, so K is infinite and the length
    # certificate, which needs a finite K, does not apply
    path = _write(tmp_path, "f0.map", '{"builtin": "f0"}')
    main(["verify", "--map", path])
    doc = json.loads(capsys.readouterr().out)
    assert doc["derived"]["K"] is None
    entry = [e for e in doc["checks"]
             if e["name"] == "length-coefficient-bounds"][0]
    assert entry["verdict"] == "skipped"
    assert entry["reason"] == "map is degenerate on the closed disk"


def test_verify_table_whose_layer_pairs_take_several_blocks(tmp_path, capsys):
    # a seeded (20, 50) table: its layer-pair angles come in blocks of 16
    # first layers, the last block holding 4; every entry is live, so each
    # kind tests 2 * 50 * (20 * 19 / 2) pairs and the area kind 1000 moduli
    rng = random.Random(2050)
    terms = [{"n": n, "j": j, "a": [rng.gauss(0, 1e-3), rng.gauss(0, 1e-3)],
              "b": [rng.gauss(0, 1e-3), rng.gauss(0, 1e-3)]}
             for n in range(1, 21) for j in range(1, 51)]
    path = _write(tmp_path, "t.map", json.dumps({"p": 20, "J": 50, "terms": terms}))
    assert main(["verify", "--map", path]) == 2
    doc = json.loads(capsys.readouterr().out)
    counts = {c["name"]: (c["verdict"], c["margins"]) for c in doc["checks"][:3]}
    assert counts == {"arg-condition-diameter": ("fail", 19000),
                      "arg-condition-length": ("fail", 19000),
                      "arg-condition-area": ("fail", 20000)}


_ZERO = '{"p": 1, "J": 1, "terms": []}'
# two opposed layers: every angle condition fails
_OPPOSED = ('{"p": 2, "J": 1, "terms": [{"n": 1, "j": 1, "a": [1, 0]},'
            '{"n": 2, "j": 1, "a": [-1, 0]}]}')
_VERIFY_CHECKS = ["arg-condition-diameter", "arg-condition-length",
                  "arg-condition-area", "diameter-coefficient-bounds",
                  "length-coefficient-bounds", "three-circles-area",
                  "area-schwarz", "j-contraction", "harmonic-j-lipschitz"]


@pytest.mark.parametrize("text, skips", [
    ('{"builtin": "identity"}', {}),
    (_ZERO, {
        "diameter-coefficient-bounds": "image diameter estimate is zero",
        "length-coefficient-bounds": "map is degenerate on the closed disk",
        "three-circles-area": "normalized area at r1 is not positive",
        "j-contraction": "zero map has no target disk",
    }),
    (_OPPOSED, {
        "diameter-coefficient-bounds": "layer angle condition fails",
        "length-coefficient-bounds": "layer alignment condition fails",
        "three-circles-area": "area angle condition fails",
        "area-schwarz": "area angle condition fails",
        "harmonic-j-lipschitz": "table has more than one layer",
    }),
    ('{"p": 1, "J": 2, "terms": [{"n": 1, "j": 1, "a": [1, 0]},'
     '{"n": 1, "j": 2, "a": [10, 0]}]}', {
        "three-circles-area": "normalized area exceeds the unit budget",
        "harmonic-j-lipschitz": "map does not send the disk into itself",
    }),
], ids=["identity", "zero", "opposed-layers", "large"])
def test_verify_check_order_and_skip_reasons(tmp_path, capsys, text, skips):
    path = _write(tmp_path, "m.map", text)
    main(["verify", "--map", path])
    doc = json.loads(capsys.readouterr().out)
    assert [e["name"] for e in doc["checks"]] == _VERIFY_CHECKS
    assert {e["name"]: e["reason"] for e in doc["checks"]
            if e["verdict"] == "skipped"} == skips


_ORDER_MAPS = {"f2": '{"builtin": "f2"}', "F1": '{"builtin": "F1", "params": {"J": 9}}',
               "f0": _F0_J9, "identity": '{"builtin": "identity"}'}


def test_verify_output_does_not_depend_on_what_ran_before(tmp_path, capsys):
    # process-wide state (the angle reports kept for the map last asked
    # about, the lru caches, the cached parser) must not carry one map's
    # verify into the next: in-process runs in either order and one fresh
    # process per map give the same exit codes and reports
    paths = {name: _write(tmp_path, name + ".map", text)
             for name, text in _ORDER_MAPS.items()}
    runs = []
    for order in (list(paths), list(paths)[::-1]):
        run = {}
        for name in order:
            code = main(["verify", "--map", paths[name]])
            run[name] = (code, capsys.readouterr().out)
        runs.append(run)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(polyharm.__file__))
    runs.append({})
    for name, path in paths.items():
        done = subprocess.run([sys.executable, "-m", "polyharm", "verify", "--map", path],
                              env=env, capture_output=True, text=True)
        runs[2][name] = (done.returncode, done.stdout)
    assert runs[0] == runs[1] == runs[2]
    assert [runs[0][name][0] for name in paths] == [0, 2, 2, 0]


def test_landau_length_folding_map_hnm(tmp_path, capsys):
    path = _write(tmp_path, "f0.map", '{"builtin": "f0", "params": {"J": 9}}')
    assert main(["landau", "--mode", "length", "--map", path]) == 2
    capsys.readouterr()


# ---- failure modes ----


def test_usage_errors(identity_map, capsys):
    assert main(["no-such-command"]) == 3
    assert main(["eval"]) == 3  # --map is required
    assert main(["eval", "--map", identity_map, "--z", "spiral"]) == 3
    assert main(["length", "--map", identity_map]) == 3  # needs --r or --sup
    assert main(["jmetric", "--z", "0"]) == 3
    capsys.readouterr()


def test_io_errors(tmp_path, identity_map, capsys, monkeypatch):
    assert main(["eval", "--map", str(tmp_path / "nope.map"), "--z", "0"]) == 4
    bad = _write(tmp_path, "bad.map", "{not json")
    assert main(["eval", "--map", bad, "--z", "0"]) == 4
    unknown = _write(tmp_path, "unk.map", '{"builtin": "spiral"}')
    assert main(["eval", "--map", unknown, "--z", "0"]) == 4
    f0 = _write(tmp_path, "f0.map", _F0_J9)
    # f0's first pass takes 320 samples and its first halving 640 more
    monkeypatch.setattr(geometry, "_MAX_SAMPLES", 512)
    assert main(["length", "--map", f0, "--r", "0.5"]) == 4  # cannot settle
    capsys.readouterr()


def test_invalid_math_params(identity_map, capsys):
    # mathematically invalid inputs are usage errors, not crashes
    assert main(["three-circles", "--map", identity_map, "--r1", "1.5"]) == 3
    assert main(["jmetric", "--z", "2", "--w", "0", "--M", "1"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["diam", "--grid", "0"],
    ["diam", "--theta-samples", "0"],
    ["three-circles", "--r1", "0.3", "--grid", "0"],
    ["schwarz", "--grid", "1"],
    ["schwarz", "--grid", "-1"],
    ["verify", "--grid", "0"],
    ["verify", "--theta-samples", "0"],
], ids=lambda argv: " ".join(argv))
def test_sample_counts_below_minimum_are_usage_errors(identity_map, capsys, argv):
    assert main([argv[0], "--map", identity_map] + argv[1:]) == 3
    capsys.readouterr()


_BAD_VERIFY_VALUES = [("--grid", "0"), ("--theta-samples", "0"),
                      ("--r1", "5"), ("--r1", "0"), ("--r1", "nan"),
                      ("--M", "-1"), ("--M", "inf"), ("--l1", "0"),
                      ("--l1", "nan"), ("--diam", "0"), ("--diam", "inf"),
                      ("--K", "0.5"), ("--K", "inf")]


@pytest.mark.parametrize("flag, value", _BAD_VERIFY_VALUES,
                         ids=[f if f in ("--grid", "--theta-samples") else f + " " + v
                              for f, v in _BAD_VERIFY_VALUES])
def test_verify_rejects_counts_its_map_skips(f2_map, tmp_path, capsys, flag, value):
    # each map skips some check that uses the flag, yet a bad value is
    # still a usage error on every map and no report is written; --grid and
    # --theta-samples are no longer verify options, so they are unknown flags
    maps = [f2_map, _write(tmp_path, "identity.map", '{"builtin": "identity"}'),
            _write(tmp_path, "zero.map", _ZERO),
            _write(tmp_path, "opposed.map", _OPPOSED)]
    for path in maps:
        assert main(["verify", "--map", path, flag, value]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err


@pytest.mark.parametrize("method", ["series", "quadrature", "both"])
def test_area_radius_outside_the_disk_is_a_usage_error(f2_map, capsys, method):
    message = "--r must be %s, got " % cli._VALUE_RULES["r"][0]
    for r in ("5", "0", "nan"):
        assert main(["area", "--map", f2_map, "--r", r, "--method", method]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


_BEYOND_FLOAT = "1" + "0" * 400
# mapping files with a number beyond float range, or nested too deeply to parse
_UNREADABLE = {
    "coefficient": '{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1, "a": [%s, 0]}]}'
                   % _BEYOND_FLOAT,
    "coefficient of 5001 digits": '{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1, '
                                  '"a": [1%s, 0]}]}' % ("0" * 5000),
    "linear alpha": '{"builtin": "linear", "params": {"alpha": %s, "beta": 0}}'
                    % _BEYOND_FLOAT,
    "form37 eta": '{"builtin": "form37", "params": {"eta": %s}}' % _BEYOND_FLOAT,
    "nested params": '{"builtin": "identity", "params": {"x": %s%s}}'
                     % ("[" * 100000, "]" * 100000),
}


@pytest.mark.parametrize("argv", [["eval", "--z", "0"], ["verify"]], ids=lambda a: a[0])
@pytest.mark.parametrize("name", sorted(_UNREADABLE))
def test_number_beyond_float_range_is_a_malformed_file(tmp_path, capsys, name, argv):
    # exit 1 would claim that a conclusion failed
    path = _write(tmp_path, "m.map", _UNREADABLE[name])
    assert main(argv[:1] + ["--map", path] + argv[1:]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("text, entries", [
    ('{"p": 1, "J": 100000000000, "terms": []}', "100000000000"),
    ('{"builtin": "f0", "params": {"J": 10000000000}}', "10000000000"),
], ids=["table", "builtin"])
def test_oversized_table_is_refused_before_allocation(tmp_path, capsys, text, entries):
    path = _write(tmp_path, "big.json", text)
    assert main(["eval", "--map", path, "--z", "0"]) == 4
    err = capsys.readouterr().err
    assert "has %s entries, over the cap of 4096" % entries in err
    assert "%d bytes" % (32 * int(entries)) in err


def _over_cap(argv, message=r"over the cap of 1048576; .* \d+ bytes"):
    return pytest.param(argv, message, id=" ".join(argv))


@pytest.mark.parametrize("argv, message", [
    _over_cap(["diam", "--grid", "100000", "--theta-samples", "100000"]),
    # sample counts that are no longer options: unknown flags are usage errors
    _over_cap(["area", "--r", "0.5", "--method", "quadrature",
               "--theta-samples", "10000000000"], "unrecognized arguments: --theta-samples"),
    _over_cap(["area", "--r", "0.5", "--method", "quadrature", "--radial-nodes", "1025"],
              "unrecognized arguments: --radial-nodes"),
    _over_cap(["three-circles", "--r1", "0.3", "--grid", "10000000000"],
              "unrecognized arguments: --grid"),
    _over_cap(["schwarz", "--grid", "10000000000"], "unrecognized arguments: --grid"),
    _over_cap(["render", "--out", "never.svg", "--rings", "100000", "--samples", "100000"],
              "unrecognized arguments: --rings"),
    _over_cap(["verify", "--grid", "10000000000"], "unrecognized arguments: --grid"),
    _over_cap(["verify", "--theta-samples", "10000000000"],
              "unrecognized arguments: --theta-samples"),
])
def test_sample_counts_above_the_cap_are_usage_errors(identity_map, tmp_path,
                                                      capsys, argv, message):
    argv = [str(tmp_path / a) if a == "never.svg" else a for a in argv]
    assert main([argv[0], "--map", identity_map] + argv[1:]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(message, captured.err)
    assert not (tmp_path / "never.svg").exists()


def _commands():
    # command name: its parser
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _options():
    # (command, action) for every option of every command
    return [(command, action) for command, parser in _commands().items()
            for action in parser._actions if action.option_strings]


# (command, option, dest) for every option typed int, float or complex
_NUMERIC_OPTIONS = [(command, action.option_strings[0], action.dest)
                    for command, action in _options()
                    if action.type in (int, float, cli._cnum)]


def test_every_numeric_option_has_a_value_rule():
    # main checks a value only if its dest has a rule, so a new numeric
    # option without one would reach its command unchecked
    assert [o for o in _NUMERIC_OPTIONS if o[2] not in cli._VALUE_RULES] == []


# the reverse of the two tests around this one: a deleted flag must not
# leave a stale rule behind
def test_every_value_rule_names_a_live_numeric_option():
    assert set(cli._VALUE_RULES) - {o[2] for o in _NUMERIC_OPTIONS} == set()


def test_every_unread_row_names_live_options_of_its_command():
    live = {(command, action.dest) for command, action in _options()}
    assert [(command, dest) for command, _, _, unread in cli._UNREAD
            for dest in unread if (command, dest) not in live] == []


# bad values for each option's rule; the folded per-command tests pinned
# several of them for some options
_BAD_VALUES = {"z": ("nan", "inf"), "w": ("inf",), "mobius_a": ("nan",),
               "r": ("1.5", "5", "0", "nan"), "r1": ("0.9999995", "1", "5", "0", "nan"),
               "grid": ("0",),
               "theta_samples": ("0",), "seed": ("-1",),
               "K": ("0.5", "nan", "inf"), "m": ("-1",), "alpha": ("nan", "-1"),
               "l1": ("inf", "0", "nan"), "diam": ("0", "nan", "inf"),
               "M": ("-1", "inf"), "tol": ("0", "nan", "-1", "inf")}
# removed numeric options: any value of them is an unknown argument
_RETIRED_OPTIONS = [("length", "--tol", "tol"), ("landau", "--tol", "tol"),
                    ("verify", "--M", "M")]
# every way a command is called: each mode and each area method
_MODES = {"length": (["--sup"], ["--r", "0.5"]),
          "area": tuple(["--r", "0.5", "--method", m] for m in ("series", "quadrature", "both")),
          "landau": tuple(["--mode", m] for m in ("diameter", "length")),
          "three-circles": (["--r1", "0.3"],),
          "jmetric": ([], ["--mobius-a", "0.5"])}
# maps a verify check is skipped on; a bad value is refused on each of them
_VERIFY_MAPS = ('{"builtin": "f2"}', '{"builtin": "identity"}', _ZERO, _OPPOSED)
_ESTIMATORS = ("curve_length", "sup_length", "diameter_estimate", "area_series",
               "area_quadrature")


@pytest.mark.parametrize("command, option, dest", _NUMERIC_OPTIONS + _RETIRED_OPTIONS,
                         ids=["%s %s" % o[:2] for o in _NUMERIC_OPTIONS + _RETIRED_OPTIONS])
def test_bad_value_is_refused_before_the_map_is_read(tmp_path, capsys, monkeypatch,
                                                     command, option, dest):
    # a missing map file would exit 4 if a check came after reading it, and
    # no estimator may run on the maps that exist; a required option given
    # twice takes its last value.  The message states the option's rule, or
    # names a removed option as unrecognized
    def unreachable(*args, **kwargs):
        raise AssertionError("estimated before the values were checked")

    for name in _ESTIMATORS:
        monkeypatch.setattr(geometry, name, unreachable)
    if (command, option, dest) not in _RETIRED_OPTIONS:
        message = "%s must be %s, got " % (option, cli._VALUE_RULES[dest][0])
    else:
        message = "unrecognized arguments: %s=" % option
    maps = [[]] if command == "jmetric" else [["--map", str(tmp_path / "missing.map")]]
    if command == "verify":
        maps += [["--map", _write(tmp_path, "%d.map" % k, text)]
                 for k, text in enumerate(_VERIFY_MAPS)]
    for mode in _MODES.get(command, ([],)):
        for value in _BAD_VALUES[dest]:
            for path in maps:
                assert main([command] + mode + [option + "=" + value] + path) == 3
                captured = capsys.readouterr()
                assert captured.out == ""
                assert message in captured.err


_ACROSS_FLAGS = [
    (["length"], "length needs --r or --sup"),
    (["diam", "--grid", "2048", "--theta-samples", "1024"],
     "--grid x --theta-samples asks for 2097152 points, over the cap"),
]


@pytest.mark.parametrize("argv, message", _ACROSS_FLAGS,
                         ids=[" ".join(argv) for argv, _ in _ACROSS_FLAGS])
def test_checks_across_flags_come_before_the_map_is_read(tmp_path, capsys,
                                                         argv, message):
    missing = str(tmp_path / "missing.map")
    assert main(argv[:1] + ["--map", missing] + argv[1:]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


_UNREAD_FLAGS = [
    (["jmetric", "--mobius-a", "0.5", "--z", "0.1"], "--mobius-a takes no --z"),
    (["jmetric", "--mobius-a", "0.5", "--w", "0.2"], "--mobius-a takes no --w"),
    (["jmetric", "--mobius-a", "0.5", "--M", "3"], "--mobius-a takes no --M"),
    (["jmetric", "--z", "0.5", "--w", "0.2", "--seed", "3"],
     "jmetric without --mobius-a takes no --seed"),
    (["length", "--r", "0.5", "--sup"], "--sup takes no --r"),
    (["landau", "--mode", "diameter", "--K", "2"], "--mode diameter takes no --K"),
    (["landau", "--mode", "diameter", "--l1", "2"], "--mode diameter takes no --l1"),
    (["landau", "--mode", "length", "--diam", "2"], "--mode length takes no --diam"),
]


@pytest.mark.parametrize("argv, message", _UNREAD_FLAGS,
                         ids=[" ".join(argv) for argv, _ in _UNREAD_FLAGS])
def test_flag_its_mode_never_reads_is_refused_before_the_map_is_read(
        tmp_path, capsys, argv, message):
    # each value passes its own rule, so only the mode's exclusion rejects it
    if argv[0] != "jmetric":
        argv = argv + ["--map", str(tmp_path / "missing.map")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


_R1, _OUT = ["--r1", "0.3"], ["--out", "never.svg"]
_REMOVED = [  # every removed flag and mode choice, the options the command
    # needs besides, and how argparse refuses it
    (["verify", "--grid", "8"], [], "unrecognized arguments: --grid 8"),
    (["verify", "--theta-samples", "8"], [], "unrecognized arguments: --theta-samples 8"),
    (["three-circles", "--grid", "8"], _R1, "unrecognized arguments: --grid 8"),
    (["three-circles", "--theta-samples", "8"], _R1,
     "unrecognized arguments: --theta-samples 8"),
    (["three-circles", "--analytic"], _R1, "unrecognized arguments: --analytic"),
    (["three-circles", "--r2", "0.9"], _R1, "unrecognized arguments: --r2 0.9"),
    (["schwarz", "--grid", "8"], [], "unrecognized arguments: --grid 8"),
    (["render", "--rings", "8"], _OUT, "unrecognized arguments: --rings 8"),
    (["render", "--rays", "8"], _OUT, "unrecognized arguments: --rays 8"),
    (["render", "--samples", "8"], _OUT, "unrecognized arguments: --samples 8"),
    (["landau", "--mode", "fourgon"], [], "invalid choice: 'fourgon'"),
    (["landau", "--mode", "diameter", "--tol", "1e-8"], [],
     "unrecognized arguments: --tol 1e-8"),
    (["landau", "--mode", "length", "--tol", "1e-8"], [],
     "unrecognized arguments: --tol 1e-8"),
    (["length", "--sup", "--tol", "1e-8"], [], "unrecognized arguments: --tol 1e-8"),
    (["length", "--r", "0.5", "--tol", "1e-8"], [], "unrecognized arguments: --tol 1e-8"),
    (["jmetric", "--mobius-theta", "0.3"], ["--mobius-a", "0.5"],
     "unrecognized arguments: --mobius-theta 0.3"),
]


@pytest.mark.parametrize("argv, needed, message", _REMOVED,
                         ids=[" ".join(argv) for argv, _, _ in _REMOVED])
def test_removed_flags_and_choices_are_usage_errors(tmp_path, capsys, argv, needed,
                                                    message):
    # a missing map file would exit 4 if it were read, and no SVG is written
    svg = tmp_path / "never.svg"
    argv = argv + [str(svg) if a == "never.svg" else a for a in needed]
    if argv[0] != "jmetric":
        argv += ["--map", str(tmp_path / "missing.map")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not svg.exists()


@pytest.mark.parametrize("command", ["landau", "three-circles", "jmetric"])
def test_help_names_no_removed_route(command):
    text = _commands()[command].format_help()
    assert [w for w in ("fourgon", "analytic", "--r2", "theta") if w in text] == []


@pytest.mark.parametrize("argv", [
    ["verify", "--map", "f2.map", "--seed", "-1"],
    ["jmetric", "--mobius-a", "0.5", "--seed", "-1"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_a_usage_error(f2_map, capsys, argv):
    # numpy refuses negative seeds; the flag is refused before it gets there
    assert main([f2_map if a == "f2.map" else a for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed must be >= 0, got -1" in captured.err


@pytest.mark.parametrize("argv", [
    ["eval", "--map", "f2.map", "--z", "nan"],
    ["derive", "--map", "f2.map", "--z", "inf"],
    ["jmetric", "--w", "0", "--z", "nan"],
    ["jmetric", "--z", "0", "--w", "inf"],
], ids=" ".join)
def test_nonfinite_point_is_a_usage_error(f2_map, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no arithmetic on the point either
        assert main([f2_map if a == "f2.map" else a for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[-2] + " must be finite" in captured.err  # the last flag is the bad one


def test_length_sup_honours_tol(tmp_path, capsys, monkeypatch):
    # sup_length never loosens the length tolerance, so a radius that cannot
    # settle within its samples is an input/output error
    f0 = _write(tmp_path, "f0.map", _F0_J9)
    monkeypatch.setattr(geometry, "_MAX_SAMPLES", 512)
    assert main(["length", "--map", f0, "--sup"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    # f0 is one layer, so its supremum is the length at r = 1
    assert captured.err.startswith("error: curve_length at r=1.0 (p=1, J=9, tol=1e-10) "
                                   "did not settle within 320 samples")


@pytest.mark.parametrize("mode", [["--sup"], ["--r", "0.5"]], ids=" ".join)
@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"], ids=lambda v: "tol " + v)
def test_length_rejects_bad_tol_before_reading_the_map(tmp_path, capsys,
                                                       monkeypatch, mode, tol):
    # --tol is no longer a length option: any value of it is an unknown flag
    def unreachable(*args, **kwargs):
        raise AssertionError("measured before --tol was checked")

    for name in ("curve_length", "sup_length"):
        monkeypatch.setattr(geometry, name, unreachable)
    missing = str(tmp_path / "missing.map")
    assert main(["length", "--map", missing, "--tol", tol] + mode) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tol " + tol in captured.err


@pytest.mark.parametrize("method", ["series", "quadrature", "both"])
@pytest.mark.parametrize("flags, message", [
    (["--theta-samples", "0"], "unrecognized arguments: --theta-samples"),
    (["--radial-nodes", "-5"], "unrecognized arguments: --radial-nodes"),
    (["--theta-samples", "10000000000"], "unrecognized arguments: --theta-samples"),
    (["--radial-nodes", "1025"], "unrecognized arguments: --radial-nodes"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_area_checks_the_quadrature_flags_before_reading_the_map(
        tmp_path, capsys, method, flags, message):
    # the quadrature derives its node count from the table; its former
    # sample-count flags are unknown arguments whatever their value
    missing = str(tmp_path / "missing.map")
    assert main(["area", "--map", missing, "--r", "0.5", "--method", method]
                + flags) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_parser_reuse_keeps_no_state(identity_map, capsys):
    # main() parses every call with one parser; an area call in between must
    # leave no --r it shares with diam behind for the next diam
    assert main(["diam", "--map", identity_map]) == 0
    first = capsys.readouterr().out
    assert main(["area", "--map", identity_map, "--r", "0.5"]) == 0
    capsys.readouterr()
    assert main(["diam", "--map", identity_map]) == 0
    assert capsys.readouterr().out == first


# ---- map-derived values that break a hypothesis ----


def test_area_both_computes_each_route_once(f2_map, capsys, monkeypatch):
    from polyharm import geometry

    counts = {"series": 0, "quadrature": 0}
    series, quadrature = geometry.area_series, geometry.area_quadrature

    def count_series(*a, **k):
        counts["series"] += 1
        return series(*a, **k)

    def count_quadrature(*a, **k):
        counts["quadrature"] += 1
        return quadrature(*a, **k)

    monkeypatch.setattr(geometry, "area_series", count_series)
    monkeypatch.setattr(geometry, "area_quadrature", count_quadrature)
    assert main(["area", "--map", f2_map, "--r", "0.5", "--method", "both"]) == 0
    vals = _lines(capsys)
    assert counts == {"series": 1, "quadrature": 1}
    d = abs(float(vals["S_series"]) - float(vals["S_quadrature"]))
    assert vals["difference"] == "%.3g" % d


@pytest.mark.parametrize("text", ['{"p": 1, "J": 1, "terms": []}',
                                  '{"builtin": "form37"}'])
def test_verify_zero_diameter_is_skipped(tmp_path, capsys, text):
    path = _write(tmp_path, "flat.map", text)
    assert main(["verify", "--map", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["derived"]["diam"] == 0.0
    entry = [e for e in doc["checks"]
             if e["name"] == "diameter-coefficient-bounds"][0]
    assert entry["verdict"] == "skipped"
    # an explicit zero diameter is still a bad request
    assert main(["verify", "--map", path, "--diam", "0"]) == 3
    capsys.readouterr()


def test_three_circles_nonpositive_map_area_hnm(tmp_path, capsys):
    # sense-reversing 0.2 z + 0.5 conj(z): S(0.3) = -0.0189
    path = _write(tmp_path, "rev.map",
                  '{"p": 1, "J": 1, "terms": ['
                  '{"n": 1, "j": 1, "a": [0.2, 0], "b": [0.5, 0]}]}')
    assert main(["three-circles", "--map", path, "--r1", "0.3"]) == 2
    assert "hypotheses-not-met" in capsys.readouterr().out
    assert main(["three-circles", "--map", path, "--r1", "0.3", "--m", "-1"]) == 3
    capsys.readouterr()


def test_landau_zero_alpha_hnm(tmp_path, capsys):
    # a11 = b11 = 0.5 gives lambda_small(0) = 0
    path = _write(tmp_path, "flat0.map",
                  '{"p": 1, "J": 2, "terms": ['
                  '{"n": 1, "j": 1, "a": [0.5, 0], "b": [0.5, 0]},'
                  '{"n": 1, "j": 2, "a": [0.3, 0]}]}')
    assert main(["landau", "--mode", "diameter", "--map", path]) == 2
    assert main(["landau", "--mode", "diameter", "--map", path,
                 "--alpha", "0"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("text, pinned", [
    # F1 has p = 2 and alpha = 1 of its own
    ('{"builtin": "F1", "params": {"J": 9}}',
     {"p": "2", "r_univ": "0.10831912504796243",
      "rho_cover": "0.054739048194003756"}),
    # f2 has three layers: its radius comes from the p = 3 theorem
    ('{"builtin": "f2"}', {"p": "3", "r_univ": "0.057337548944354388"}),
    # alpha is the map's own lambda_small(0), not a unit normalization
    ('{"p": 2, "J": 1, "terms": [{"n": 1, "j": 1, "a": [0.5, 0]},'
     '{"n": 2, "j": 1, "a": [0.125, 0]}]}', {"p": "2", "alpha": "0.5"}),
], ids=["F1", "f2", "two-layer"])
def test_landau_diameter_mode_pins(tmp_path, capsys, text, pinned):
    path = _write(tmp_path, "m.map", text)
    assert main(["landau", "--mode", "diameter", "--map", path]) == 0
    out = _lines(capsys)
    assert {k: out[k] for k in pinned} == pinned


_BAD_LANDAU_VALUES = [("diameter", "--diam", "nan"), ("diameter", "--diam", "0"),
                      ("diameter", "--alpha", "nan"), ("diameter", "--alpha", "-1"),
                      ("diameter", "--tol", "nan"), ("diameter", "--tol", "0"),
                      ("length", "--K", "nan"), ("length", "--K", "0.5"),
                      ("length", "--l1", "inf"), ("length", "--tol", "inf")]


@pytest.mark.parametrize("mode, flag, value", _BAD_LANDAU_VALUES,
                         ids=[" ".join(v) for v in _BAD_LANDAU_VALUES])
def test_landau_rejects_bad_values_before_any_work(f2_map, capsys, monkeypatch,
                                                  mode, flag, value):
    # nothing is printed and no quantity is estimated before the rejection;
    # --tol is no longer a landau option, so it is an unknown flag
    def unreachable(*args, **kwargs):
        raise AssertionError("estimated before the values were checked")

    for name in ("diameter_estimate", "sup_length"):
        monkeypatch.setattr(geometry, name, unreachable)
    assert main(["landau", "--mode", mode, "--map", f2_map, flag, value]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_landau_solver_rejection_prints_nothing(f2_map, capsys):
    # so small a length bound keeps the majorant positive on all of (0, 1)
    assert main(["landau", "--mode", "length", "--map", f2_map,
                 "--K", "1", "--l1", "1e-12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stays nonnegative" in captured.err


_NO_SCIPY = """
import sys
from importlib.abc import MetaPathFinder

class NoScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is not installed here")

sys.meta_path.insert(0, NoScipy())
from polyharm.cli import main
f2, identity = sys.argv[1:]
codes = [main(["verify", "--map", f2]),
         main(["diam", "--map", identity, "--grid", "2", "--theta-samples", "4096"]),
         main(["landau", "--mode", "diameter", "--map", f2])]
print("codes", codes, "scipy" in sys.modules)
"""


def test_cli_import_leaves_scipy_unloaded(f2_map, identity_map):
    # scipy is a test dependency only: with every scipy import failing, the
    # commands that take a diameter still run, and nothing loads scipy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(polyharm.__file__))
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY, f2_map, identity_map],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "codes [0, 0, 0] False"
