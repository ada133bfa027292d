"""Static hygiene of the package: no unused imports and no dead private names.

Both checks read the source of ``src/nilform`` with ``ast``; nothing is
imported or run.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nilform"
TREES = {
    path.name: ast.parse(path.read_text(), str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}


def _loaded_names(tree: ast.AST) -> set[str]:
    """Identifiers the tree reads, as bare names or as attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def _imported_names(tree: ast.AST) -> set[str]:
    """Names bound by the import statements of a module, at any depth."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(a.asname or a.name for a in node.names)
    return out


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree: ast.Module) -> list[str]:
    """Private module-level functions and classes, and private methods of classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if isinstance(node, defs) and _is_private(node.name):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, defs) and _is_private(item.name)
            ]
    return out


def test_every_import_is_used():
    unused = [
        f"{name}: {imported}"
        for name, tree in TREES.items()
        # the package's __init__ imports to re-export
        if name != "__init__.py"
        for imported in sorted(_imported_names(tree) - _loaded_names(tree))
    ]
    assert unused == []


def test_every_private_definition_is_referenced():
    referenced = set().union(*(_loaded_names(tree) for tree in TREES.values()))
    dead = [
        f"{name}: {qualname}"
        for name, tree in TREES.items()
        for qualname in _private_definitions(tree)
        if qualname.rsplit(".", 1)[-1] not in referenced
    ]
    assert dead == []
