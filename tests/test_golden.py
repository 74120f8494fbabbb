"""The ``verify`` report of every golden case, byte for byte.

A change that moves report bytes rewrites the goldens with
``PYTHONPATH=src python tests/_golden.py``; their diff lists what moved.
"""

import json

import pytest

import _golden


def test_verify_reports_match_the_goldens(tmp_path):
    docs = json.loads((_golden.GOLDEN / "maps.json").read_text(encoding="utf-8"))
    files = {path.stem: path.read_text(encoding="utf-8")
             for path in (_golden.GOLDEN / "verify").glob("*.txt")}
    assert sorted(files) == sorted(docs)
    made_with = {text.split("\n", 1)[0] for text in files.values()}
    if made_with != {_golden.versions()}:
        pytest.fail("goldens made with %s, running %s: rerun tests/_golden.py on the "
                    "parent commit to compare" % (" / ".join(sorted(made_with)),
                                                 _golden.versions()))
    moved = [case for case, doc in docs.items()
             if _golden.run(case, doc, tmp_path) != files[case]]
    assert moved == []
