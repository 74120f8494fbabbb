"""Golden command outputs: the maps, how each output is made, and the
script that rewrites them.

``tests/golden/maps.json`` holds the mapping document of every case: each
builtin with fixed parameters, and seeded tables from ``_gen``.
``tests/golden/<command>/<case>.txt`` holds one command's output on the
case: a line with the Python and numpy versions, a line with the command
and its exit code, any stderr lines, then stdout byte for byte.  ``verify``
runs on every case, ``length --sup`` on the square maps, f2 and form37.
``test_golden.py`` compares them.

A change that moves report bytes rewrites the files, and their diff lists
the moved values:

    PYTHONPATH=src python tests/_golden.py
"""

import contextlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

import _gen
from polyharm import cli, mapspec

GOLDEN = Path(__file__).resolve().parent / "golden"


def versions() -> str:
    return "python %s numpy %s" % (platform.python_version(), np.__version__)


def _builtins() -> dict:
    form37 = {"eta": 0.6, "xi": 0.25, "zeta1": {"2": 0.2, "3": 0.1},
              "zeta2": {"1": 0.15, "2": 0.1},
              "theta": {"1": 0.3, "2": 1.1, "3": 2.0},
              "phi": {"1": 0.7, "2": 1.9, "3": 4.0}, "sign_a": {"1": -1}}
    docs = {"identity": {}, "f2": {},
            "linear": {"alpha": [0.8, 0.3], "beta": [0.2, -0.1]},
            "monomial": {"p": 2, "j": 3, "c": [0.6, 0.2]},
            "form37": form37}
    out = {name: {"builtin": name, "params": params} for name, params in docs.items()}
    for name in ("f0", "F1"):
        for J in (9, 41):
            out["%s_J%d" % (name, J)] = {"builtin": name, "params": {"J": J}}
    return out


def _tables() -> dict:
    def rng(seed):
        return np.random.default_rng(seed)

    maps = {}
    # multi-layer tables with a finite K that fail the length alignment
    for seed, (p, J) in enumerate(((2, 5), (3, 8), (4, 12), (2, 12)), start=1):
        maps["dominant_p%d_J%d" % (p, J)] = _gen.dominant_map(rng(seed), p, J)
    # multi-layer tables that pass it
    for seed, (p, J) in enumerate(((3, 6), (4, 4)), start=11):
        maps["aligned_p%d_J%d" % (p, J)] = _gen.dominant_map(rng(seed), p, J, aligned=True)
    maps["random_a"] = _gen.random_map(rng(21), p_max=4, J_max=12)
    maps["random_b"] = _gen.random_map(rng(22), p_max=4, J_max=12)
    maps["area_cond"] = _gen.random_area_cond_map(rng(23), p_max=4, J_max=12)
    maps["harmonic"] = _gen.random_harmonic_poly(rng(24), J_max=12)
    maps["analytic"] = _gen.random_analytic_poly(rng(25), J_max=12)
    maps["convex"] = _gen.convex_map(rng(26), J=12)
    return {name: json.loads(mapspec.dumps(mapspec.from_map(F)))
            for name, F in maps.items()}


def cases() -> dict:
    """Case name -> mapping document, builtins first."""
    return dict(_builtins(), **_tables())


# golden directory -> the command's arguments and its cases (None: all)
COMMANDS = {
    "verify": (["verify"], None),
    "length_sup": (["length", "--sup"],
                   ["f0_J9", "f0_J41", "F1_J9", "F1_J41", "f2", "form37"]),
}


def outputs(docs: dict) -> list:
    """The (golden directory, case) of every golden output."""
    return [(folder, case) for folder, (_, names) in COMMANDS.items()
            for case in (docs if names is None else names)]


def run(folder: str, case: str, doc: dict, workdir: Path) -> str:
    """The golden text of ``folder``'s command on ``doc``, run in-process
    from ``workdir`` so that the output names the file ``<case>.map``."""
    (workdir / (case + ".map")).write_text(json.dumps(doc), encoding="utf-8")
    argv = COMMANDS[folder][0] + ["--map", case + ".map"]
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    head = [versions(), "polyharm %s -> exit %d" % (" ".join(argv), code)]
    head += ["stderr: " + line for line in err.getvalue().splitlines()]
    return "\n".join(head) + "\n" + out.getvalue()


def main() -> None:
    docs = cases()
    (GOLDEN / "maps.json").write_text(json.dumps(docs, indent=1) + "\n", encoding="utf-8")
    for folder in COMMANDS:
        (GOLDEN / folder).mkdir(parents=True, exist_ok=True)
        for old in (GOLDEN / folder).glob("*.txt"):
            old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for folder, case in outputs(docs):
            text = run(folder, case, docs[case], Path(tmp))
            (GOLDEN / folder / (case + ".txt")).write_text(text, encoding="utf-8")
            print(text.splitlines()[1])


if __name__ == "__main__":
    main()
