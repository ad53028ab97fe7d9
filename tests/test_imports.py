"""Every name a module imports is used in that module, so code that moves
or goes leaves no import behind.  The package's __init__ is left out: its
imports are the re-exported API.  No package module has an assert
statement, so no check depends on running without -O.  Importing the
package loads none of dataclasses, inspect or typing, and every name the
benchmark's tracer wraps is still there to wrap."""

import ast
import os
import pathlib
import subprocess
import sys

import omsemi

PACKAGE = pathlib.Path(omsemi.__file__).parent
TESTS = pathlib.Path(__file__).parent


def _unused_imports(tree):
    """(name, line) of each name bound by an import and never read."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno)
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in bound if name not in used]


def test_no_unused_imports():
    paths = [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"] + sorted(TESTS.glob("*.py"))
    found = ["%s/%s:%d: %s is never used" % (path.parent.name, path.name,
                                             line, name)
             for path in paths
             for name, line in _unused_imports(ast.parse(path.read_text()))]
    assert found == []


def test_no_assert_statements():
    # python -O strips assert statements, so a postcondition written as
    # one would not run there
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_guard_sees_unused_imports():
    tree = ast.parse("import itertools\nimport os.path\n"
                     "from a import b, c as d\nfrom e import f\n"
                     "def g():\n    import h\n    return os.sep, f, h\n")
    assert sorted(_unused_imports(tree)) == [
        ("b", 3), ("d", 3), ("itertools", 1)]


def test_import_loads_no_heavy_standard_modules():
    # -S keeps site, which may import typing, out of the interpreter
    heavy = ("dataclasses", "inspect", "typing")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    r = subprocess.run(
        [sys.executable, "-S", "-c", "import omsemi, sys; print(sorted("
         "m for m in %r if m in sys.modules))" % (heavy,)],
        capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["[]"]


def test_benchmark_tracer_finds_every_name():
    # perfbench/spans.py wraps functions and methods of the package by
    # name, some of which no package code calls; one that goes, or stops
    # being a function or a classmethod on its class, breaks --trace 1
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [str(TESTS.parent / "perfbench"), str(PACKAGE.parent)]))
    r = subprocess.run(
        [sys.executable, "-c",
         "import spans; spans.Tracer().install('omsemi')"],
        capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr
