import math

import numpy as np
import pytest

from polyharm import catalog
from polyharm.catalog import (
    BUILTIN_NAMES,
    Form37Params,
    builtin,
    f0,
    f1,
    f2,
    form37,
    fourgon_coefficients,
    identity,
    linear,
    monomial,
)
from polyharm.certificates import area_schwarz
from polyharm.core import dilatation, evaluate
from polyharm.errors import MalformedParams, UnknownName

_SCALE = 2.0 * math.sqrt(2.0) / math.pi


# ---- elementary families ----


def test_identity_table():
    t = identity().table
    assert t.p == 1 and t.J == 1
    assert t.a[0, 0] == 1.0 and t.b[0, 0] == 0.0


def test_linear_stores_conjugated_entry():
    F = linear(2.0, 0.5 - 0.25j)
    assert F.table.b[0, 0] == 0.5 + 0.25j  # acts through its conjugate
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
    t = f2().table
    assert t.p == 3 and t.J == 1
    assert np.all(t.a == 1.0) and np.all(t.b == 0.0)


# ---- square-image truncations ----


def test_fourgon_coefficient_pattern():
    t = fourgon_coefficients(13)
    live_a = {j + 1: t.a[0, j] for j in range(13) if t.a[0, j] != 0}
    live_b = {j + 1: t.b[0, j] for j in range(13) if t.b[0, j] != 0}
    assert set(live_a) == {1, 5, 9, 13}
    assert set(live_b) == {3, 7, 11}
    assert live_a[1] == _SCALE
    assert live_a[5] == -_SCALE / 5.0
    assert live_a[9] == _SCALE / 9.0
    assert live_b[3] == _SCALE / 3.0
    assert live_b[7] == -_SCALE / 7.0


def test_fourgon_edges():
    t1 = fourgon_coefficients(1)
    assert t1.a[0, 0] == _SCALE and np.all(t1.b == 0)
    t3 = fourgon_coefficients(3)
    assert t3.b[0, 2] == _SCALE / 3.0
    with pytest.raises(MalformedParams):
        fourgon_coefficients(0)


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
    t = F.table
    assert t.p == 2 and F.label == "F1"
    assert np.array_equal(t.a[1], 1j * t.a[0])
    assert np.array_equal(t.b[1], -1j * t.b[0])
    c = math.sqrt(2.0) * math.pi / 4.0
    assert abs(t.a[0, 0] - c * _SCALE) == 0.0
    assert abs(t.a[0, 0] - 1.0) <= 4e-16


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
    F = form37(Form37Params(eta=1.0, zeta2={1: 1.0}))
    t = F.table
    assert t.p == 2 and t.J == 1
    assert t.a[0, 0] == 1.0 and t.a[1, 0] == 1j
    assert t.b[0, 0] == 0.0 and t.b[1, 0] == -1j
    z = 0.4 + 0.2j
    want = z + 1j * abs(z) ** 2 * (z + np.conj(z))
    assert abs(evaluate(F, z) - want) <= 1e-16


@pytest.mark.parametrize("make", [
    lambda: f0(10 ** 10),
    lambda: builtin("F1", {"J": 2049}),
    lambda: builtin("monomial", {"p": 4097, "j": 1}),
    lambda: form37(Form37Params(eta=1.0), k_max=10 ** 12),
    lambda: builtin("form37", {"zeta2": {"100000000000": 1.0}}),
], ids=["f0", "F1", "monomial", "form37-k_max", "form37-key"])
def test_builtin_table_over_the_cap_is_malformed_params(make):
    with pytest.raises(MalformedParams, match="entries, over the cap of 4096"):
        make()


def test_form37_pads_to_k_max():
    F = form37(Form37Params(eta=1.0, zeta2={1: 1.0}), k_max=5)
    assert F.table.J == 5
    with pytest.raises(MalformedParams):
        form37(Form37Params(eta=1.0, zeta2={3: 1.0}), k_max=2)


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
        F = form37(Form37Params(eta=eta, xi=xi, zeta1=zeta1, zeta2=zeta2,
                                theta=theta, phi=phi,
                                sign_a=signs_a, sign_b=signs_b))
        rep = area_schwarz(F)
        assert rep.verdict == "pass"
        assert rep.extras["classification"] == "constant"
        want = eta * eta - xi * xi
        assert abs(rep.extras["phi_max"] - want) <= 1e-10 * (1.0 + want)
        assert abs(rep.extras["phi_min"] - want) <= 1e-10 * (1.0 + want)


def test_form37_params_validation():
    with pytest.raises(MalformedParams):
        Form37Params(eta=1.0, xi=2.0)  # modulus ordering
    with pytest.raises(MalformedParams):
        Form37Params(eta=-1.0)
    with pytest.raises(MalformedParams):
        Form37Params(zeta1={1: 1.0})  # first power belongs to eta/xi
    with pytest.raises(MalformedParams):
        Form37Params(zeta2={1: -0.5})
    with pytest.raises(MalformedParams):
        Form37Params(zeta2={1: 1.0}, sign_a={1: 2})
    with pytest.raises(MalformedParams):
        form37("not params")


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
    assert H.table.a[1, 0] == 1j


def test_builtin_rejects_unknown():
    with pytest.raises(UnknownName):
        builtin("spiral")
    with pytest.raises(MalformedParams):
        builtin("identity", {"extra": 1})
    with pytest.raises(MalformedParams):
        builtin("linear", {"alpha": "one", "beta": 0.0})
    with pytest.raises(MalformedParams):
        builtin("f0", {"J": 0})
