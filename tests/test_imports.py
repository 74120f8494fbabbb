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


def test_core_imports_neither_mapspec_nor_catalog():
    # the map type knows nothing of mapping files or of the builtins built on
    # it, at module level or deferred inside a function
    tree = ast.parse((ROOT / "src" / "polyharm" / "core.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            imported.update(module.rstrip(".") + "." + alias.name for alias in node.names)
    assert {m for m in imported
            if m.rsplit(".", 1)[-1] in ("mapspec", "catalog")} == set()


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


# decorators that keep results in a module-level table: one keyed by a map
# keeps the map alive and needs its size tuned, so per-map results go into
# the map's own store (core._per_map)
MODULE_CACHES = ("lru_cache", "cache")


def _decorator_name(node):
    # "lru_cache" for @lru_cache, @lru_cache(maxsize=2), @functools.lru_cache(...)
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _takes_a_map(fn):
    args = fn.args.posonlyargs + fn.args.args
    if not args:
        return False
    first = args[0]
    return first.arg == "F" or (first.annotation is not None
                                and "PolyharmonicMap" in ast.unparse(first.annotation))


def _module_caches_of_maps(paths):
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _takes_a_map(node):
                found += ["%s:%d %s" % (path.name, node.lineno, node.name)
                          for d in node.decorator_list if _decorator_name(d) in MODULE_CACHES]
    return found


def test_no_module_cache_takes_a_map(tmp_path):
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert len(sources) > 10 and _module_caches_of_maps(sources) == []
    # the guard sees each spelling of such a cache
    probe = tmp_path / "probe.py"
    probe.write_text("import functools\nfrom functools import cache, lru_cache\n"
                     "@functools.lru_cache(maxsize=3)\ndef a(F, kind): pass\n"
                     "@lru_cache\ndef b(G: 'PolyharmonicMap'): pass\n"
                     "@cache\ndef c(F): pass\n"
                     "@functools.cache\ndef d(F): pass\n"
                     "@lru_cache(maxsize=8)\ndef e(n): pass\n")
    assert _module_caches_of_maps([probe]) == ["probe.py:%d %s" % (line, name) for line, name
                                               in ((4, "a"), (6, "b"), (8, "c"), (10, "d"))]
