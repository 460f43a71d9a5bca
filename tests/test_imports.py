"""Every name a module of ``shiftprod`` imports is used there or exported.

A name counts as used when the module reads it (a bare name, or the head
of an attribute chain) or lists it in ``__all__``.  The scan parses the
sources with ``ast`` and imports nothing.
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
