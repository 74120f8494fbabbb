"""Every source file parses at the oldest Python that pyproject.toml declares."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FLOOR = tuple(int(n) for n in re.search(
    r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text(encoding="utf-8")).groups())
SOURCES = sorted(path.relative_to(ROOT).as_posix()
                 for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py"))


def test_floor_is_declared():
    assert FLOOR == (3, 10) and len(SOURCES) > 20


@pytest.mark.parametrize("path", SOURCES)
def test_source_parses_at_the_declared_floor(path):
    text = (ROOT / path).read_text(encoding="utf-8")
    ast.parse(text, filename=path, feature_version=FLOOR)
