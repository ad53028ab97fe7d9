"""No function in the package calls itself by name, so no input's shape
can drive a walk into the recursion limit.  Syntax trees are walked as
folds over their postorder, graphs by the breadth-first walks of
omsemi.graphs or with explicit stacks, and the enumeration's search by
one loop over the table cells."""

import ast
import pathlib

import omsemi


def _self_calls(tree):
    """(qualified name, line) of each call of a function to itself, by
    plain name or as self./cls. attribute."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                for sub in ast.walk(child):
                    if not isinstance(sub, ast.Call):
                        continue
                    f = sub.func
                    by_name = isinstance(f, ast.Name) and f.id == child.name
                    by_self = (isinstance(f, ast.Attribute)
                               and f.attr == child.name
                               and isinstance(f.value, ast.Name)
                               and f.value.id in ("self", "cls"))
                    if by_name or by_self:
                        found.append((name, sub.lineno))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_no_function_calls_itself():
    package = pathlib.Path(omsemi.__file__).parent
    found = ["%s.py:%d: %s calls itself" % (path.stem, line, name)
             for path in sorted(package.glob("*.py"))
             for name, line in _self_calls(ast.parse(path.read_text()))]
    assert found == []


def test_guard_sees_self_calls():
    tree = ast.parse("def f(t):\n    return f(t.left)\n"
                     "class A:\n    def g(self):\n        return self.g()\n"
                     "def h():\n    def go(n):\n        return go(n - 1)\n")
    assert sorted(_self_calls(tree)) == [("A.g", 5), ("f", 2), ("h.go", 8)]
