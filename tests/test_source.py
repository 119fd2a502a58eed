"""Static checks on the package source."""

import ast
import pathlib
from collections import Counter
from itertools import chain

import koszulkit

SRC = pathlib.Path(koszulkit.__file__).parent
TESTS = pathlib.Path(__file__).resolve().parent
DEMOS = TESTS.parent / "demos"


def _dead_locals(func):
    """Names that func (nested functions included) stores but never loads,
    leaving out those it declares global or nonlocal and those that start
    with an underscore, which mark a value dropped on purpose."""
    stored, loaded, declared = set(), set(), set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                stored.add(node.id)
            else:
                loaded.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return sorted(name for name in stored - loaded - declared
                  if not name.startswith("_"))


def test_no_local_is_stored_and_never_read():
    dead = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dead.extend("%s:%d %s: %s" % (path.name, node.lineno,
                                              node.name, name)
                            for name in _dead_locals(node))
    assert dead == []


def _unused_imports(tree):
    """Names that the module tree imports (anywhere in it, __future__
    aside) but never reads."""
    imported, loaded = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                           ast.Store):
            loaded.add(node.id)
    return sorted(imported - loaded)


def test_no_import_is_unused():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")) + demos:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        unused.extend("%s: %s" % (path.name, name)
                      for name in _unused_imports(tree))
    assert unused == []


def test_no_assert_in_src():
    # python -O strips assert statements, so no check of the package may
    # rest on one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend("%s:%d" % (path.name, node.lineno)
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []


def _definitions(tree):
    """The (name, node) of every function, class and method that the module
    tree defines, dunders aside."""
    return [(node.name, node) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__")
                     and node.name.endswith("__"))]


def _names(tree):
    """Every name that the tree reads or writes, as a variable, an
    attribute or an imported name, once per occurrence."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_definition_is_used():
    # a function, class or method of the package that nothing names
    # outside its own definition, in the package, the tests or the demos,
    # is dead code
    paths = (sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
             + sorted(DEMOS.glob("*.py")))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in paths}
    counts = Counter(chain.from_iterable(map(_names, trees.values())))
    unused = ["%s:%d %s" % (path.name, node.lineno, name)
              for path in sorted(SRC.glob("*.py"))
              for name, node in _definitions(trees[path])
              if counts[name] == Counter(_names(node))[name]]
    assert unused == []
