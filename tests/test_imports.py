"""Every name a module imports is used in that module, and every private
module-level function is referenced somewhere in the package.

Checked with the standard-library ast module over src/torsionlab/*.py.
The package __init__.py is exempt from the import check: its imports are
re-exports.  Dunder functions are exempt from the reference check.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "torsionlab"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _unreferenced_private_functions(trees):
    """(file, line, name) of each module-level _private function that no
    code references, its own body apart."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = [(path, node.lineno, node.name)
               for path, tree in trees.items()
               for node in tree.body
               if isinstance(node, functions) and node.name.startswith("_")
               and not (node.name.startswith("__")
                        and node.name.endswith("__"))]
    used = set()
    for tree in trees.values():
        for top in tree.body:
            owner = top.name if isinstance(top, functions) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    used.add(name)
    return sorted(entry for entry in defined if entry[2] not in used)


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    assert modules
    unused = ["%s:%d %s" % (path.name, line, name)
              for path in modules
              for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom x import y, z as w\nprint(y)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "w")]


def test_every_private_function_is_referenced():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced_private_functions(trees) == []


def test_unreferenced_private_function_is_reported():
    source = ("def _used():\n    pass\n\n"
              "def _recursive():\n    return _recursive()\n\n"
              "def __getattr__(name):\n    pass\n\n"
              "def public():\n    return _used()\n")
    trees = {"m.py": ast.parse(source), "n.py": ast.parse("x = m._gone\n")}
    assert _unreferenced_private_functions(trees) == [
        ("m.py", 4, "_recursive")]
