"""No source file imports a name it never uses, and the CLI's imports stay
off the network stack.

Neither pyflakes nor ruff is a dependency, so this is the one check of it:
every ``.py`` file under src/, tests/ and demos/ is parsed with ``ast``, and
a name bound by an import must be read somewhere in the module, or be
listed in its ``__all__``.
"""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py"))


def _imported(tree):
    # (name bound, line) for each import outside __future__
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return names


def test_no_unused_imports():
    assert len(SOURCES) > 20 and ROOT / "tests" / "test_imports.py" in SOURCES
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used(tree)
        unused += ["%s:%d %s" % (path.relative_to(ROOT).as_posix(), line, name)
                   for name, line in _imported(tree) if name not in used]
    assert unused == []


# modules that cost every fresh polyharm process tens of milliseconds, and
# that nothing in the package needs (xml.sax.saxutils pulled them in)
NETWORK_STACK = ("urllib.request", "http.client", "email", "ssl", "socket")


def test_cli_import_loads_no_network_stack():
    code = ("import sys, polyharm.cli; print(' '.join(sorted(m for m in sys.modules "
            "if m in %r or m.startswith('email.'))))" % (NETWORK_STACK,))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == []
