import json
import math
import os
import subprocess
import sys

import pytest

import polyharm
from polyharm import mapspec
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


# ---- metric commands ----


def test_jmetric_value(capsys):
    assert main(["jmetric", "--z", "0", "--w", "0.5", "--M", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - math.log(2.0)) <= 1e-15


def test_jmetric_mobius(capsys):
    assert main(["jmetric", "--mobius-a", "0.5", "--mobius-theta", "0.3"]) == 0
    vals = _lines(capsys)
    assert float(vals["sup_ratio"]) <= 2.0 + 1e-9
    assert vals["verdict"] == "pass"


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


def test_io_errors(tmp_path, identity_map, capsys):
    assert main(["eval", "--map", str(tmp_path / "nope.map"), "--z", "0"]) == 4
    bad = _write(tmp_path, "bad.map", "{not json")
    assert main(["eval", "--map", bad, "--z", "0"]) == 4
    unknown = _write(tmp_path, "unk.map", '{"builtin": "spiral"}')
    assert main(["eval", "--map", unknown, "--z", "0"]) == 4
    assert main(["length", "--map", identity_map, "--r", "0.5",
                 "--tol", "0"]) == 4  # cannot converge to zero tolerance
    capsys.readouterr()


def test_invalid_math_params(identity_map, capsys):
    # mathematically invalid inputs are usage errors, not crashes
    assert main(["three-circles", "--map", identity_map, "--r1", "1.5"]) == 3
    assert main(["jmetric", "--z", "2", "--w", "0", "--M", "1"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["diam", "--grid", "0"],
    ["diam", "--theta-samples", "0"],
    ["area", "--r", "0.5", "--method", "quadrature", "--theta-samples", "0"],
    ["area", "--r", "0.5", "--method", "quadrature", "--radial-nodes", "0"],
    ["three-circles", "--r1", "0.3", "--grid", "0"],
    ["three-circles", "--analytic", "--r1", "0.3", "--r2", "0.9",
     "--theta-samples", "0"],
    ["schwarz", "--grid", "1"],
    ["schwarz", "--grid", "-1"],
    ["verify", "--grid", "0"],
    ["verify", "--theta-samples", "0"],
], ids=lambda argv: " ".join(argv))
def test_sample_counts_below_minimum_are_usage_errors(identity_map, capsys, argv):
    assert main([argv[0], "--map", identity_map] + argv[1:]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--grid", "--theta-samples"])
def test_verify_rejects_counts_its_map_skips(f2_map, capsys, flag):
    # f2 skips the checks that use both counts, yet a count of 0 is still
    # a usage error and no report is written
    assert main(["verify", "--map", f2_map, flag, "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


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


@pytest.mark.parametrize("argv", [
    ["diam", "--grid", "100000", "--theta-samples", "100000"],
    ["area", "--r", "0.5", "--method", "quadrature", "--theta-samples", "10000000000"],
    ["area", "--r", "0.5", "--method", "quadrature", "--radial-nodes", "1025"],
    ["three-circles", "--r1", "0.3", "--grid", "10000000000"],
    ["three-circles", "--analytic", "--r1", "0.3", "--r2", "0.9",
     "--theta-samples", "10000000000"],
    ["schwarz", "--grid", "10000000000"],
    ["render", "--out", "never.svg", "--rings", "100000", "--samples", "100000"],
    ["verify", "--grid", "10000000000"],
    ["verify", "--theta-samples", "10000000000"],
], ids=lambda argv: " ".join(argv))
def test_sample_counts_above_the_cap_are_usage_errors(identity_map, tmp_path,
                                                      capsys, argv):
    argv = [str(tmp_path / a) if a == "never.svg" else a for a in argv]
    assert main([argv[0], "--map", identity_map] + argv[1:]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "over the cap of 1048576" in captured.err and "bytes" in captured.err
    assert not (tmp_path / "never.svg").exists()


def test_length_sup_honours_tol(identity_map, capsys):
    assert main(["length", "--map", identity_map, "--sup", "--tol", "0"]) == 4
    capsys.readouterr()


def test_parser_reuse_keeps_no_state(identity_map, capsys):
    # main() parses every call with one parser; a verify in between must
    # leave no option behind for the next diam
    assert main(["diam", "--map", identity_map]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--map", identity_map, "--grid", "7"]) == 0
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


def test_landau_fourgon_is_unit_depth2_diameter_mode(tmp_path, capsys):
    # lambda_small(0) = 0.5, so a printed alpha taken from the map would
    # differ from the unit alpha the fourgon bound solves with
    path = _write(tmp_path, "two.map",
                  '{"p": 2, "J": 1, "terms": ['
                  '{"n": 1, "j": 1, "a": [0.5, 0]},'
                  '{"n": 2, "j": 1, "a": [0.125, 0]}]}')
    assert main(["landau", "--mode", "fourgon", "--map", path]) == 0
    fourgon = _lines(capsys)
    assert main(["landau", "--mode", "diameter", "--alpha", "1",
                 "--map", path]) == 0
    general = _lines(capsys)
    for key in ("p", "alpha", "diam", "r_univ", "rho_cover"):
        assert fourgon[key] == general[key]


@pytest.mark.parametrize("flag", ["--alpha", "--K", "--l1"])
def test_landau_fourgon_rejects_ignored_flags(f2_map, capsys, flag):
    # the fourgon bound fixes alpha = 1 and never reads K or l1
    assert main(["landau", "--mode", "fourgon", "--map", f2_map, flag, "0.3"]) == 3
    assert "takes no " + flag in capsys.readouterr().err


def test_landau_fourgon_output_without_flags(f2_map, capsys):
    assert main(["landau", "--mode", "fourgon", "--map", f2_map]) == 0
    out = _lines(capsys)
    assert [out[k] for k in ("mode", "p", "alpha")] == ["fourgon", "2", "1"]
    assert float(out["diam"]) == pytest.approx(6.0, abs=1e-9)


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
