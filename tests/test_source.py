"""Static checks on the package source."""

import ast
import pathlib

import koszulkit

SRC = pathlib.Path(koszulkit.__file__).parent


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
