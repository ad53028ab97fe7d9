"""No function in the package calls itself, directly or through other
functions of its module, so no input's shape can drive a walk into the
recursion limit.  Syntax trees are built by one loop per parser over a
stack of open groups and walked as folds over their postorder, graphs by
the breadth-first walks of omsemi.graphs or with explicit stacks, and the
enumeration's search by one loop over the table cells.

The cycle guard reads each module's call graph from its source, with no
exemption list: a call by plain name goes to the module's functions of
that name, and a self./cls. call to its classes' methods of that name.

The nodes' ``__eq__``, ``__hash__`` and ``__repr__`` walk the whole tree
with an explicit stack, so they return on a word of any length, which
the long-word tests check.  A walk over a whole tree still has no place
on a hot path, so no package path may call them: the tree-method guard
makes all three raise on every node class and runs the CLI commands and
the bounded search through them."""

import ast
import pathlib

import pytest

import omsemi
from omsemi import cli, regex, terms
from omsemi.graphs import reachable
from omsemi.reducibility import (COM_LANGUAGE, CR_LANGUAGE, GROUPS_LANGUAGE,
                                 bounded_omega_solution_search,
                                 syntactic_solution_triple)


def _call_graph(tree):
    """{qualified name: qualified names it calls} over the functions of a
    module.  A call by plain name goes to every function of the module of
    that name that is not a method, and a self./cls. call to every method
    of that name in any class of the module."""
    defs, functions, methods = {}, {}, {}

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                defs[name] = child
                (methods if in_class else functions).setdefault(
                    child.name, []).append(name)
                visit(child, name + ".", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", True)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    graph = {}
    for name, node in defs.items():
        graph[name] = callees = set()
        for sub in ast.walk(node):
            f = getattr(sub, "func", None)
            if isinstance(f, ast.Name):
                callees.update(functions.get(f.id, ()))
            elif (isinstance(f, ast.Attribute)
                  and isinstance(f.value, ast.Name)
                  and f.value.id in ("self", "cls")):
                callees.update(methods.get(f.attr, ()))
    return graph


def _cycles(graph):
    """The strongly connected components of graph that hold a cycle, a
    self-call included, as sorted tuples in sorted order."""
    after = {u: set(reachable(graph[u], graph.__getitem__)) for u in graph}
    return sorted({tuple(sorted(v for v in after[u] if u in after[v]))
                   for u in graph if u in after[u]})


def test_no_call_graph_cycle():
    package = pathlib.Path(omsemi.__file__).parent
    found = ["%s.py: a cycle through %s" % (path.stem, ", ".join(cycle))
             for path in sorted(package.glob("*.py"))
             for cycle in _cycles(_call_graph(ast.parse(path.read_text())))]
    assert found == []


def test_guard_sees_call_graph_cycles():
    tree = ast.parse("def f(t):\n    return g(t)\n"
                     "def g(t):\n    return f(t.left)\n"
                     "def leaf(t):\n    return f(t)\n"
                     "class A:\n"
                     "    def a(self):\n        return self.b()\n"
                     "    def b(self):\n        return self.c()\n"
                     "    def c(self):\n        return self.a()\n"
                     "    def d(self):\n        return self.a()\n"
                     "def s(t):\n    return s(t.left)\n"
                     "class B:\n    def m(self):\n        return self.m()\n"
                     "def h():\n    def go(n):\n        return go(n - 1)\n")
    assert _cycles(_call_graph(tree)) == [
        ("A.a", "A.b", "A.c"), ("B.m",), ("f", "g"), ("h.go",), ("s",)]


NODE_CLASSES = (regex.Empty, regex.Sym, regex.Union, regex.Concat,
                regex.Star, regex.Plus, terms.Letter, terms.Concat,
                terms.Word, terms.OmegaPower, terms.PrimeOmegaPower,
                terms.FinitePower)

# (argv, exit code): every command, on the paper's languages and on each
# variety; check exits 1 on a false verdict
COMMANDS = (
    [(["syn", lang, "--order", "--green", "--classes"], 0)
     for lang in (COM_LANGUAGE, GROUPS_LANGUAGE, CR_LANGUAGE)]
    + [(["verify-paper"], 0)]
    + [(["check", "--variety", variety, "--lhs", lhs, "--rhs", rhs], code)
       for variety, lhs, rhs, code in (
           ("ab", "x y", "y x", 0), ("com", "x^w", "x", 1),
           ("g", "x y", "y x", 1), ("cr:3", "(y x) (y^2 x)^w", "y x", 0),
           ("jplus", "x y x", "x y", 1))]
    + [(["check", "--variety", "jplus", "--lhs", "x y", "--rhs", "x x y",
         "--leq"], 0)]
    + [(["eval", "--regex", "b*ab*", "--term", "(x y)^w",
         "--map", "x=a,y=b"], 0),
       (["reduce", "jplus", "--regex", "b*ab*", "--u", "a", "--v", "b a b"],
        0),
       (["enum", "3", "--identity", "x y = y x"], 0)])


@pytest.mark.parametrize("parse, ch, other", [
    (regex.parse_regex, "a", "b"), (terms.parse_term, "x", "y")],
    ids=["regex", "term"])
def test_tree_methods_return_on_long_words(parse, ch, other):
    # a parsed word is a left comb 2000 nodes deep whose deepest leaf is
    # its first letter, so a and c differ only there
    a, b = parse(ch * 2000), parse(ch * 2000)
    c = parse(other + ch * 1999)
    assert a == b and hash(a) == hash(b)
    assert a != c and not a == c
    text = repr(a)
    assert text == repr(b) and text.count("(") == 3999
    assert repr(c) == text.replace(repr(ch), repr(other), 1)


def test_no_package_path_calls_generated_tree_methods(monkeypatch, capsys):
    def tripwire(name):
        def trip(self, *args):
            raise AssertionError("%s.%s called" % (type(self).__name__, name))
        return trip

    for cls in NODE_CLASSES:
        for name in ("__eq__", "__hash__", "__repr__"):
            monkeypatch.setattr(cls, name, tripwire(name))
    for call in (lambda: regex.Sym("a") == regex.Sym("a"),
                 lambda: hash(terms.Letter("x")), lambda: repr(regex.Empty())):
        with pytest.raises(AssertionError):
            call()

    for argv, code in COMMANDS:
        assert cli.main(argv) == code, argv
    capsys.readouterr()
    triple = syntactic_solution_triple(
        COM_LANGUAGE, {"x": "a", "y": "b"},
        "y (x y^2)^(w-1)", "(x^2 y)^(w-1) x")
    assert bounded_omega_solution_search(triple, "com", max_size=10,
                                         offsets=(0, -1)) is not None
