"""Every top-level function and class of `husimilab`, and every public
method, is referenced by name somewhere in `src/` or `tests/` outside its
own definition: code nothing calls is deleted, not kept.

A reference is a name, an attribute or an imported name in the syntax
tree; references inside the definition itself (recursion) do not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "husimilab"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """(name, node) of top-level defs and of public methods of classes."""
    for node in tree.body:
        if not isinstance(node, DEFS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(tree: ast.Module):
    """(name, line) of every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_definition_is_referenced():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in _definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and not (other == path and line in own)
                       for other in files for ref, line in refs[other]):
                unreferenced.append(f"{path.name}:{qualname}")
    assert not unreferenced, "no reference to: " + ", ".join(unreferenced)
