"""What other code and the README rely on: the package's exports, the
functions the benchmark tracer wraps, and the values README's Python
examples quote.

A stale ``__all__`` entry breaks ``from polyharm import *``.  A renamed
function that bench/tracer.py wraps breaks every traced benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
import math
import pkgutil
import sys
from pathlib import Path

import pytest

import polyharm
from polyharm import catalog, cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(polyharm.__path__)
                    if m.name != "__main__")  # importing it runs the tool


def test_package_exports_resolve():
    missing = [name for name in polyharm.__all__ if not hasattr(polyharm, name)]
    assert missing == []
    namespace = {}
    exec("from polyharm import *", namespace)
    assert set(polyharm.__all__) <= set(namespace)


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module("polyharm." + module)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


def _tracer(monkeypatch):
    # loaded from its file without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_functions_exist(monkeypatch):
    wrapped = _tracer(monkeypatch).WRAPPED
    missing = []
    for module, names in wrapped.items():
        mod = importlib.import_module("polyharm." + module)
        missing += ["%s.%s" % (module, name) for name in names
                    if not callable(getattr(mod, name, None))]
    assert missing == []
    # the tracer counts wirtinger work as points * F.p * F.J
    F = catalog.f2()
    assert (F.p, F.J) == (3, 1)


@pytest.mark.parametrize("name", ["identity", "f2"])
def test_traced_verify_prints_what_an_untraced_one_prints(monkeypatch, tmp_path, capsys,
                                                          name):
    # the tracer reads each metrics check's result.samples; a report without
    # it would make every traced j check raise
    path = tmp_path / (name + ".map")
    path.write_text('{"builtin": "%s"}\n' % name, encoding="utf-8")
    argv = ["verify", "--map", str(path)]
    code = cli.main(argv)
    plain = capsys.readouterr()
    tracer = _tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        traced_code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert (traced_code, capsys.readouterr()) == (code, plain)
    assert tracer.orphans == 0
    assert tracer.calls["cli.main"] == 1
    assert tracer.counters["metrics.samples"] > 0


def test_equispaced_circles_are_sampled_only_in_core():
    # one evaluation kernel per access pattern: exp(1j * th), the idiom of
    # an equispaced circle grid, stays inside core's circle samplers.  The
    # one exception left is diameter_estimate's polar grid, which stays
    # pointwise while bench/test_bench.py counts its points through
    # core.evaluate (ROADMAP item 13)
    package = Path(polyharm.__file__).parent
    found = {path.name: path.read_text(encoding="utf-8").count("exp(1j * th)")
             for path in sorted(package.glob("*.py")) if path.name != "core.py"}
    assert {name: k for name, k in found.items() if k} == {"geometry.py": 1}


# the sample counts, tolerances and mesh sizes of these functions are
# module constants, or derived from the table, and no longer parameters
COUNTLESS = {
    "geometry.area_quadrature": ["F", "r"],
    "geometry.curve_length": ["F", "r"],
    "geometry.sup_length": ["F"],
    "certificates.three_circles_area": ["F", "r1", "m"],
    "certificates.area_schwarz": ["F"],
    "certificates.hadamard_three_circles": ["F", "r1", "r2"],
    "metrics.harmonic_lipschitz_check": ["F", "seed"],
    "landau.landau_from_diameter": ["p", "alpha", "diam"],
    "landau.landau_from_length": ["p", "alpha", "K", "l1"],
    "render.render_paths": ["F"],
    "render.render_svg": ["F", "out_path"],
}


@pytest.mark.parametrize("name", sorted(COUNTLESS))
def test_no_tuning_parameters(name):
    module, function = name.split(".")
    f = getattr(importlib.import_module("polyharm." + module), function)
    assert list(inspect.signature(f).parameters) == COUNTLESS[name]


# ---- README's Python examples ----

# every expression line of README's ```python blocks that carries a comment:
# how the comment begins, and the value it stands for (None: prose, not a
# value, so the line only has to run)
README_VALUES = {
    "F(0.5)": ("(0.65625+0j)", 0.65625),
    "wirtinger(F, 0.5)": ("((1.6875+0j), (0.375+0j))", (1.6875, 0.375)),
    "quasiregularity_constant(F)": ("3.0000000000000004", 3.0),
    "curve_length(F, 0.5)": ("pi * 1.3125", math.pi * 1.3125),
    "curve_length(F, np.array([0.5, 1.0]))": ("pi * (1.3125, 6)",
                                              (math.pi * 1.3125, 6.0 * math.pi)),
    "sup_length(F)": ("6 pi", 6.0 * math.pi),
    "area_series(F, 0.9)": ("exact coefficient series", None),
    "area_quadrature(F, 0.9)": ("exact Gauss-Legendre quadrature in r^2", None),
    "res.r_univ, res.rho_cover": ("(0.5, 1 - log 2)", (0.5, 1.0 - math.log(2.0))),
    "rep.verdict": ('"pass"', "pass"),
    "rep.count": ("3", 3),
    "rep.worst_margin.slack": ("3 sqrt(3) - 3", 3.0 * math.sqrt(3.0) - 3.0),
}


def _run_readme_examples():
    # runs the blocks in order in one namespace; returns each commented
    # expression's (comment, value)
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    assert len(blocks) == 2
    namespace, seen = {}, {}
    for block in blocks:
        lines = block.splitlines()
        for node in ast.parse(block).body:
            source = ast.get_source_segment(block, node)
            line = lines[node.end_lineno - 1]
            if isinstance(node, ast.Expr) and "#" in line:
                value = eval(compile(ast.Expression(node.value), "README", "eval"),
                             namespace)
                seen[source] = (line.split("#", 1)[1].strip(), value)
            else:
                exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    return seen


def _close(value, expected):
    if isinstance(expected, tuple):
        return len(value) == len(expected) and all(map(_close, value, expected))
    if isinstance(expected, str):
        return value == expected
    if isinstance(value, complex):
        return value == expected  # dyadic values, exact in floating point
    return abs(value - expected) <= 1e-12 * abs(expected)


def test_readme_examples_show_current_values():
    seen = _run_readme_examples()
    assert set(seen) == set(README_VALUES)
    for source, (comment, value) in seen.items():
        quoted, expected = README_VALUES[source]
        assert comment.startswith(quoted), source
        assert expected is None or _close(value, expected), (source, value)
