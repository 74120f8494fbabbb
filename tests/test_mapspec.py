import numpy as np
import pytest

from polyharm import mapspec
from polyharm.core import PolyharmonicMap
from polyharm.errors import MalformedSpec

from _gen import random_map


# ---- parsing ----


def test_loads_builtin_form():
    spec = mapspec.loads('{"builtin": "f2", "label": "chain"}')
    assert spec.is_builtin() and spec.builtin == "f2" and spec.label == "chain"
    F = mapspec.build_map(spec)
    assert F.p == 3


def test_loads_table_form_sorts_terms():
    text = ('{"p": 2, "J": 2, "terms": ['
            '{"n": 2, "j": 1, "a": [1.0, 0.0]},'
            '{"n": 1, "j": 2, "b": [0.0, -1.0]}]}')
    spec = mapspec.loads(text)
    assert [(n, j) for (n, j, _, _) in spec.terms] == [(1, 2), (2, 1)]
    assert spec.terms[0][3] == -1j
    assert spec.terms[1][2] == 1.0


def test_loads_defaults_missing_sides_to_zero():
    spec = mapspec.loads('{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1}]}')
    assert spec.terms[0][2] == 0j and spec.terms[0][3] == 0j


@pytest.mark.parametrize("text", [
    "[]",
    "not json",
    '{"builtin": 3}',
    '{"builtin": "f2", "p": 1}',
    '{"p": 1}',
    '{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1, "a": [1.0]}]}',
    '{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1, "a": [NaN, 0.0]}]}',
    '{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1, "a": [Infinity, 0.0]}]}',
    '{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1, "a": [1e999, 0.0]}]}',
    '{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1, "a": [2.5e308, 0.0]}]}',
    '{"p": 1, "J": 1, "terms": [{"n": true, "j": 1}]}',
    '{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1, "c": 2}]}',
    '{"p": 1.0, "J": 1, "terms": []}',
    '{"p": 1, "J": 1, "label": 7, "terms": []}',
    '{"p": 1, "J": 1, "terms": [], "extra": 0}',
    '{"builtin": "f2", "params": []}',
    '{"p": 1, "J": 1, "terms": {}}',
    '{"p": 1, "J": 1, "terms": [1]}',
])
def test_loads_rejects_malformed(text):
    with pytest.raises(MalformedSpec):
        mapspec.loads(text)


@pytest.mark.parametrize("spec, message", [
    (mapspec.MappingSpec(p=1), "needs both p and J"),
    (mapspec.MappingSpec(J=1), "needs both p and J"),
    # a library spec can hold a bool, which loads() never makes
    (mapspec.MappingSpec(p=True, J=2), "p and J must be integers"),
], ids=["no-J", "no-p", "bool-p"])
def test_build_map_rejects_a_table_without_integer_p_and_J(spec, message):
    with pytest.raises(MalformedSpec, match=message):
        mapspec.build_map(spec)


# ---- round trips ----


def test_dump_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(97)
    for k in range(20):
        F = random_map(rng)
        spec = mapspec.from_map(F)
        path = tmp_path / f"map_{k}.map"
        mapspec.dump(spec, path)
        again = mapspec.load(path)
        assert again == spec
        G = mapspec.build_map(again)
        assert np.array_equal(G.a, F.a)
        assert np.array_equal(G.b, F.b)


def test_round_trip_keeps_awkward_floats():
    spec = mapspec.loads(
        '{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1,'
        ' "a": [0.30000000000000004, 1e-300], "b": [-0.1, 1.7e308]}]}'
    )
    assert spec.terms[0][2] == complex(0.1 + 0.2, 1e-300)
    again = mapspec.loads(mapspec.dumps(spec))
    assert again == spec


def test_dumps_is_stable():
    spec = mapspec.loads('{"builtin": "identity"}')
    assert mapspec.dumps(spec) == mapspec.dumps(spec)
    assert mapspec.dumps(spec).endswith("\n")


def test_digest_tracks_content():
    s1 = mapspec.loads('{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1, "a": [1, 0]}]}')
    s2 = mapspec.loads('{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1, "a": [1, 0]}]}')
    s3 = mapspec.loads('{"p": 1, "J": 1, "terms": [{"n": 1, "j": 1, "a": [2, 0]}]}')
    assert mapspec.digest(s1) == mapspec.digest(s2)
    assert mapspec.digest(s1) != mapspec.digest(s3)
    assert len(mapspec.digest(s1)) == 64


@pytest.mark.parametrize("label, want", [("", "table(p=2,J=3)"), ("mine", "mine")])
def test_table_map_is_built_once_with_its_label(monkeypatch, label, want):
    built = []
    check = PolyharmonicMap.__post_init__
    monkeypatch.setattr(PolyharmonicMap, "__post_init__",
                        lambda self: built.append(check(self)))
    spec = mapspec.MappingSpec(p=2, J=3, terms=((2, 3, 1j, 0j),), label=label)
    F = mapspec.build_map(spec)
    assert len(built) == 1
    assert F.label == want and F.a[1, 2] == 1j
