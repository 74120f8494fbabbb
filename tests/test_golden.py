"""Every golden output, byte for byte: the ``verify`` report of each case,
the ``length --sup`` line of the square maps, f2 and form37, and the
stdout and exit code of the single-quantity commands.

A change that moves output bytes rewrites the goldens with
``PYTHONPATH=src python tests/_golden.py``; their diff lists what moved.
"""

import json

import pytest

import _golden


def _moved(folder, tmp_path):
    # the cases whose output in golden/<folder> no longer matches
    docs = json.loads((_golden.GOLDEN / "maps.json").read_text(encoding="utf-8"))
    files = {path.stem: path.read_text(encoding="utf-8")
             for path in (_golden.GOLDEN / folder).glob("*.txt")}
    assert sorted(files) == sorted(case for name, case in _golden.outputs(docs)
                                   if name == folder)
    made_with = {text.split("\n", 1)[0] for text in files.values()}
    if made_with != {_golden.versions()}:
        pytest.fail("goldens made with %s, running %s: rerun tests/_golden.py on the "
                    "parent commit to compare" % (" / ".join(sorted(made_with)),
                                                 _golden.versions()))
    return [case for case in files
            if _golden.run(folder, case, docs.get(case), tmp_path) != files[case]]


def test_verify_reports_match_the_goldens(tmp_path):
    assert _moved("verify", tmp_path) == []


def test_sup_length_lines_match_the_goldens(tmp_path):
    assert _moved("length_sup", tmp_path) == []


@pytest.mark.parametrize("folder", ["diam", "landau_diameter", "landau_length",
                                    "three_circles", "schwarz", "jmetric_mobius"])
def test_command_outputs_match_the_goldens(folder, tmp_path):
    assert _moved(folder, tmp_path) == []
