"""Every name a module of ``shiftprod`` imports is used there or exported,
and every name a module defines at top level is read somewhere in the
package.

An imported name counts as used when the module reads it (a bare name, or
the head of an attribute chain) or lists it in ``__all__``.  A top-level
function, class or assigned name counts as read when some module of the
package reads it outside the statement that binds it and outside
``__all__``: as a bare name in its own module or in a module that imports
it from there, or as an attribute.  The scans parse the sources with
``ast`` and import nothing.
"""

import ast
from pathlib import Path

import shiftprod

SRC = Path(shiftprod.__file__).parent

# held only so that bench/spans.py can wrap progressions.productset;
# ROADMAP item 1a removes the wrap, and with it this entry
ALLOWED = {("progressions", "productset")}


def _unused_imports(tree: ast.Module) -> set:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_no_unused_imports_in_src():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= {(path.stem, name)
                  for name in _unused_imports(ast.parse(path.read_text()))}
    assert found == ALLOWED


def test_unused_import_is_seen():
    tree = ast.parse("from math import gcd, lcm\nimport numpy as np\n"
                     "__all__ = ['lcm']\nx = gcd(2, 4)\n")
    assert _unused_imports(tree) == {"np"}


# the package version, read by packaging tools, and the names bench/ still
# binds; ROADMAP item 1a removes the last four with the next benchmark change
UNREAD = {("__init__", "__version__"), ("harness", "run_main_pipeline"),
          ("ffharness", "FfInput"), ("ffharness", "run_field_pipeline"),
          ("explorer", "_search_heuristic")}


def _bound(stmt) -> set:
    """The names a top-level statement defines, __all__ aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)} - {"__all__"}


def _unread_names(trees: dict) -> set:
    """(module, name) for each top-level name of the parsed modules that no
    module reads."""
    defined = {(mod, name) for mod, tree in trees.items()
               for stmt in tree.body for name in _bound(stmt)}
    read = set()
    for mod, tree in trees.items():
        origin = {a.asname or a.name: (node.module, a.name)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for a in node.names}
        for stmt in tree.body:
            own = _bound(stmt)
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        and node.id not in own):
                    read.add(origin.get(node.id, (mod, node.id)))
                elif isinstance(node, ast.Attribute):
                    read |= {(m, node.attr) for m in trees}
    return defined - read


def test_every_top_level_name_is_read_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _unread_names(trees) == UNREAD


def test_unread_name_is_seen():
    trees = {
        "a": ast.parse("__all__ = ['f', 'g']\n"
                       "def f(n):\n    return f(n - 1) if n else K\n"
                       "def g():\n    return h()\n"
                       "def h():\n    pass\n"
                       "K = 1\nL = M = 2\n"),
        "b": ast.parse("from .a import g\nimport a\nx = g() + a.M\n"),
    }
    # f reads itself only, and L is bound but never read; x is unread too
    assert _unread_names(trees) == {("a", "f"), ("a", "L"), ("b", "x")}
