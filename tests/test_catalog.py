import inspect
import json
import math
import re

import numpy as np
import pytest

from polyharm import catalog
from polyharm.catalog import (
    BUILTIN_NAMES,
    builtin,
    f0,
    f1,
    f2,
    form37,
    identity,
    linear,
    monomial,
)
from polyharm.certificates import area_schwarz
from polyharm.cli import main
from polyharm.core import dilatation, evaluate
from polyharm.errors import MalformedParams, UnknownName

_SCALE = 2.0 * math.sqrt(2.0) / math.pi


# ---- elementary families ----


def test_identity_table():
    F = identity()
    assert F.p == 1 and F.J == 1
    assert F.a[0, 0] == 1.0 and F.b[0, 0] == 0.0


def test_linear_stores_conjugated_entry():
    F = linear(2.0, 0.5 - 0.25j)
    assert F.b[0, 0] == 0.5 + 0.25j  # acts through its conjugate
    z = 0.3 + 0.8j
    assert evaluate(F, z) == 2.0 * z + (0.5 - 0.25j) * np.conj(z)


def test_monomial_both_sides():
    z = 0.2 - 0.6j
    F = monomial(1, 3, 2.0j)
    assert abs(evaluate(F, z) - 2.0j * z**3) <= 1e-15
    G = monomial(1, 2, 0.5 + 0.5j, conjugate=True)
    assert abs(evaluate(G, z) - (0.5 + 0.5j) * np.conj(z) ** 2) <= 1e-16
    H = monomial(3, 1, 1.0)
    assert H.p == 3 and abs(evaluate(H, z) - abs(z) ** 4 * z) <= 1e-16


def test_monomial_validation():
    with pytest.raises(MalformedParams):
        monomial(0, 1)
    with pytest.raises(MalformedParams):
        monomial(1, 0)


def test_f2_is_unit_chain():
    F = f2()
    assert F.p == 3 and F.J == 1
    assert np.all(F.a == 1.0) and np.all(F.b == 0.0)


# ---- square-image truncations ----


def test_fourgon_coefficient_pattern():
    F = f0(13)
    assert F.p == 1 and F.label == "f0"
    live_a = {j + 1: F.a[0, j] for j in range(13) if F.a[0, j] != 0}
    live_b = {j + 1: F.b[0, j] for j in range(13) if F.b[0, j] != 0}
    assert set(live_a) == {1, 5, 9, 13}
    assert set(live_b) == {3, 7, 11}
    assert live_a[1] == _SCALE
    assert live_a[5] == -_SCALE / 5.0
    assert live_a[9] == _SCALE / 9.0
    assert live_b[3] == _SCALE / 3.0
    assert live_b[7] == -_SCALE / 7.0


def test_fourgon_edges():
    F1 = f0(1)
    assert F1.a[0, 0] == _SCALE and np.all(F1.b == 0)
    F3 = f0(3)
    assert F3.b[0, 2] == _SCALE / 3.0
    with pytest.raises(MalformedParams):
        f0(0)


def test_f0_vertex_value():
    # the boundary Fourier series sums to 1 at z = 1; alternating tails
    # keep the truncation error under the first omitted coefficients
    v41 = evaluate(f0(41), 1.0)
    assert abs(v41 - 1.0) <= 0.05
    v401 = evaluate(f0(401), 1.0)
    assert abs(v401 - 1.0) <= 0.01
    assert abs(v401 - 1.0) < abs(v41 - 1.0)


def test_f1_rows_are_exact_quarter_turns():
    F = f1()
    assert F.p == 2 and F.label == "F1"
    assert np.array_equal(F.a[1], 1j * F.a[0])
    assert np.array_equal(F.b[1], -1j * F.b[0])
    c = math.sqrt(2.0) * math.pi / 4.0
    assert abs(F.a[0, 0] - c * _SCALE) == 0.0
    assert abs(F.a[0, 0] - 1.0) <= 4e-16


def test_f1_origin_stretch():
    d = dilatation(f1(), 0.0)
    assert abs(d.lambda_small - 1.0) <= 1e-12


def test_f1_is_lifted_f0():
    # F1(z) = (1 + i |z|^2) * c * f0(z) pointwise
    F, G = f1(), f0()
    c = math.sqrt(2.0) * math.pi / 4.0
    rng = np.random.default_rng(2)
    zs = rng.uniform(-0.95, 0.95, 60) + 1j * rng.uniform(-0.95, 0.95, 60)
    want = (1.0 + 1j * np.abs(zs) ** 2) * (c * evaluate(G, zs))
    got = evaluate(F, zs)
    assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))


# ---- constant-area-ratio family ----


def test_form37_default_instance():
    F = form37(eta=1.0, zeta2={1: 1.0})
    assert F.p == 2 and F.J == 1
    assert F.a[0, 0] == 1.0 and F.a[1, 0] == 1j
    assert F.b[0, 0] == 0.0 and F.b[1, 0] == -1j
    z = 0.4 + 0.2j
    want = z + 1j * abs(z) ** 2 * (z + np.conj(z))
    assert abs(evaluate(F, z) - want) <= 1e-16


@pytest.mark.parametrize("make", [
    lambda: f0(10 ** 10),
    lambda: builtin("F1", {"J": 2049}),
    lambda: builtin("monomial", {"p": 4097, "j": 1}),
    lambda: form37(eta=1.0, k_max=10 ** 12),
    lambda: builtin("form37", {"zeta2": {"100000000000": 1.0}}),
    lambda: monomial(np.int32(1 << 16), np.int32(1 << 16)),  # p j wraps to 0 in int32
], ids=["f0", "F1", "monomial", "form37-k_max", "form37-key", "monomial-int32"])
def test_builtin_table_over_the_cap_is_malformed_params(make):
    with pytest.raises(MalformedParams, match="entries, over the cap of 4096"):
        make()


@pytest.mark.parametrize("name, params, message", [
    ("linear", {"alpha": 10 ** 400, "beta": 0}, "alpha is too large for a float"),
    ("linear", {"alpha": 1, "beta": [0, -10 ** 400]}, "beta is too large for a float"),
    ("linear", {"alpha": 1, "beta": 10 ** 400}, "beta is too large for a float"),
    ("monomial", {"p": 1, "j": 1, "c": 10 ** 400}, "c is too large for a float"),
    ("form37", {"eta": 10 ** 400}, "eta must be a finite number >= 0"),
    ("form37", {"xi": 10 ** 400}, "xi must be a finite number >= 0"),
], ids=["linear-alpha", "linear-beta-pair", "linear-beta", "monomial-c", "form37-eta",
        "form37-xi"])
def test_number_beyond_float_range_is_malformed_params(name, params, message):
    # a mapping file cannot hold such a number (loads refuses it), so this
    # is the library route to each maker's own check
    with pytest.raises(MalformedParams, match=message):
        builtin(name, params)


@pytest.mark.parametrize("make", [
    lambda: form37(eta=10 ** 400),
    lambda: form37(eta=1.0, zeta2={1: 10 ** 400}),
    lambda: form37(eta=1.0, theta={1: 10 ** 400}),
    lambda: monomial(1, 1, 10 ** 400),
    lambda: linear(10 ** 400, 0),
], ids=["form37-eta", "form37-zeta2", "form37-theta", "monomial-c", "linear-alpha"])
def test_library_int_beyond_float_range_is_malformed_params(make):
    # the makers refuse such an int as builtin() does, not with OverflowError
    with pytest.raises(MalformedParams):
        make()


def test_form37_pads_to_k_max():
    F = form37(eta=1.0, zeta2={1: 1.0}, k_max=5)
    assert F.J == 5
    with pytest.raises(MalformedParams):
        form37(eta=1.0, zeta2={3: 1.0}, k_max=2)


def test_form37_random_draws_have_constant_area_ratio():
    rng = np.random.default_rng(83)
    for _ in range(50):
        eta = rng.uniform(0.5, 2.0)
        xi = eta * rng.uniform(0.0, 1.0)
        zeta1 = {int(k): float(rng.uniform(0.0, 2.0))
                 for k in rng.choice(np.arange(2, 6), size=2, replace=False)}
        zeta2 = {int(k): float(rng.uniform(0.0, 2.0))
                 for k in rng.choice(np.arange(1, 6), size=2, replace=False)}
        theta = {int(k): float(rng.uniform(0.0, 2.0 * np.pi)) for k in range(1, 6)}
        phi = {int(k): float(rng.uniform(0.0, 2.0 * np.pi)) for k in range(1, 6)}
        signs_a = {int(k): int(rng.choice([-1, 1])) for k in zeta2}
        signs_b = {int(k): int(rng.choice([-1, 1])) for k in zeta2}
        F = form37(eta=eta, xi=xi, zeta1=zeta1, zeta2=zeta2, theta=theta, phi=phi,
                   sign_a=signs_a, sign_b=signs_b)
        rep = area_schwarz(F)
        assert rep.verdict == "pass"
        assert rep.extras["classification"] == "constant"
        want = eta * eta - xi * xi
        assert abs(rep.extras["phi_max"] - want) <= 1e-10 * (1.0 + want)
        assert abs(rep.extras["phi_min"] - want) <= 1e-10 * (1.0 + want)


def test_form37_params_validation():
    with pytest.raises(MalformedParams):
        form37(eta=1.0, xi=2.0)  # modulus ordering
    with pytest.raises(MalformedParams):
        form37(eta=-1.0)
    with pytest.raises(MalformedParams):
        form37(zeta1={1: 1.0})  # first power belongs to eta/xi
    with pytest.raises(MalformedParams):
        form37(zeta2={1: -0.5})
    with pytest.raises(MalformedParams):
        form37(zeta2={1: 1.0}, sign_a={1: 2})
    with pytest.raises(MalformedParams):
        form37("not a weight")


def test_makers_take_numpy_scalars():
    assert monomial(1, 2, np.int64(1)).a[0, 1] == 1.0
    assert linear(np.float32(2.0), np.complex128(1j)).b[0, 0] == -1j
    assert form37(eta=np.float64(1.0), xi=np.float64(0.5)).b[0, 0] == 0.5
    # integer parameters and power keys take numpy integers, as core does
    for F, G in ((f0(np.int64(9)), f0(9)), (f1(np.int16(5)), f1(5)),
                 (monomial(np.int64(2), np.int32(3)), monomial(2, 3)),
                 (form37(eta=1.0, zeta2={np.int64(2): 1.0}, k_max=np.uint8(3)),
                  form37(eta=1.0, zeta2={2: 1.0}, k_max=3))):
        assert (F.p, F.J) == (G.p, G.J)
        assert np.array_equal(F.a, G.a) and np.array_equal(F.b, G.b)


# ---- registry ----


def test_builtin_names():
    assert BUILTIN_NAMES == ("F1", "f0", "f2", "form37", "identity", "linear",
                             "monomial")


def test_builtin_dispatch():
    assert evaluate(builtin("identity"), 0.5) == 0.5
    F = builtin("linear", {"alpha": 2.0, "beta": [0.0, 1.0]})
    assert evaluate(F, 1.0) == 2.0 + 1.0j
    G = builtin("monomial", {"p": 1, "j": 2, "c": [0.5, 0.0]})
    assert evaluate(G, 2.0) == 2.0
    H = builtin("form37", {"eta": 1.0, "zeta2": {"1": 1.0}})
    assert H.a[1, 0] == 1j


def test_builtin_rejects_unknown():
    with pytest.raises(UnknownName):
        builtin("spiral")
    with pytest.raises(MalformedParams):
        builtin("identity", {"extra": 1})
    with pytest.raises(MalformedParams):
        builtin("linear", {"alpha": "one", "beta": 0.0})
    with pytest.raises(MalformedParams):
        builtin("f0", {"J": 0})


@pytest.mark.parametrize("zeta2, message", [
    ({"1": 0.5, "01": 0.7}, "key '01' is not"),  # int() reads both as power 1
    ({"1_0": 0.5}, "key '1_0' is not"),
    ({" 2 ": 0.5}, "key ' 2 ' is not"),
    ({"+2": 0.5}, "key '\\+2' is not"),
    ({"\u0663": 0.5}, "key '\u0663' is not"),  # an Arabic-Indic three
    ({1: 0.5, "1": 0.7}, "names power 1 twice"),
    ({"abc": 0.5}, "key 'abc' is not"),  # int() itself refuses it
    ({True: 0.5}, "key True is not"),  # a library key; JSON keys are strings
], ids=["1-and-01", "1_0", "spaced-2", "+2", "non-ascii-3", "int-and-str-1", "abc",
        "bool"])
def test_form37_power_key_is_an_int_or_its_canonical_decimal(zeta2, message):
    with pytest.raises(MalformedParams, match="zeta2 " + message):
        builtin("form37", {"eta": 1.0, "zeta2": zeta2})


def test_form37_canonical_keys_and_int_keys_build_the_same_table():
    F = builtin("form37", {"eta": 1.0, "zeta1": {"10": 0.5}, "theta": {"2": 0.25}})
    G = form37(eta=1.0, zeta1={10: 0.5}, theta={2: 0.25})
    assert F.J == G.J == 10
    assert np.array_equal(F.a, G.a) and np.array_equal(F.b, G.b)


@pytest.mark.parametrize("name, params, message", [
    ("form37", {"k_max": None}, "k_max must not be null"),
    ("form37", {"zeta1": None}, "zeta1 must not be null"),  # form37 takes None as {}
    ("f0", {"J": 0, "j": 3}, "unknown parameters for 'f0': j"),
    ("form37", {"eta": -1.0, "zeta": {}}, "unknown parameters for 'form37': zeta"),
    ("monomial", {"p": 1}, "missing required parameter 'j'"),
    ("monomial", {"p": 1, "j": 1, "conjugate": 1}, "conjugate must be a boolean"),
], ids=["form37-k_max-null", "form37-zeta1-null", "f0-unknown-first", "form37-unknown-first",
        "monomial-missing-j", "monomial-conjugate"])
def test_builtin_parameter_refusals(name, params, message):
    with pytest.raises(MalformedParams, match=message):
        builtin(name, params)


def test_catalog_lists_each_makers_parameters_in_order(capsys):
    assert main(["catalog"]) == 0
    listed = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    for name, (maker, desc) in catalog._BUILTIN.items():
        params = listed[name].partition(desc)[2].removeprefix("; params ")
        assert (params.split(", ") if params else []) == list(
            inspect.signature(maker).parameters), name


# a value of the wrong type for every parameter of every maker (a bool is
# conjugate's own type), with values for the required others
_WRONG_TYPES = {"bool": True, "string": "1", "null": None, "3-list": [1, 2, 3]}
_PARAMETERS = [(name, key, kind, {k: 1 for k, p in signature.items()
                                  if k != key and p.default is p.empty})
               for name, (maker, _) in catalog._BUILTIN.items()
               for signature in [inspect.signature(maker).parameters]
               for key in signature for kind in _WRONG_TYPES
               if (key, kind) != ("conjugate", "bool")]


@pytest.mark.parametrize("name, key, kind, others", _PARAMETERS,
                         ids=["%s-%s-%s" % row[:3] for row in _PARAMETERS])
def test_parameter_of_the_wrong_type_is_a_malformed_file(tmp_path, capsys,
                                                         name, key, kind, others):
    path = tmp_path / "m.map"
    path.write_text(json.dumps({"builtin": name,
                                "params": {**others, key: _WRONG_TYPES[kind]}}))
    assert main(["eval", "--map", str(path), "--z", "0"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert re.search(r"\b%s\b" % key, captured.err), captured.err
