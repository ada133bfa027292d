"""Static hygiene: no unused imports, dead names, unread parameters or unset defaults.

The checks read the source of ``src/nilform`` with ``ast``; nothing is
imported or run.  A public name counts as used when the package, the tests
or the benchmark harness read it, so those are parsed too.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nilform"
TREES = {
    path.name: ast.parse(path.read_text(), str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}
# every reader of the public names: the package, the tests and the harness
READERS = [
    ast.parse(path.read_text(), str(path))
    for folder in (PACKAGE, ROOT / "tests", ROOT / "perfbench")
    for path in sorted(folder.glob("*.py"))
]


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


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module, keep) -> list[str]:
    """Module-level functions and classes, and methods of classes, whose name passes ``keep``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if isinstance(node, defs) and keep(node.name):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, defs) and keep(item.name)
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
        for qualname in _definitions(tree, _is_private)
        if qualname.rsplit(".", 1)[-1] not in referenced
    ]
    assert dead == []


def test_every_public_definition_is_referenced():
    referenced = set().union(*(_loaded_names(tree) for tree in READERS))
    dead = [
        f"{name}: {qualname}"
        for name, tree in TREES.items()
        for qualname in _definitions(tree, _is_public)
        if qualname.rsplit(".", 1)[-1] not in referenced
    ]
    assert dead == []


def _unread_parameters(tree: ast.AST) -> list[str]:
    """Parameters of every function or method that its body never reads.

    ``self``, ``cls`` and names starting with ``_`` are exempt; a nested
    function or lambda that reads a parameter counts as a read.
    """
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, funcs):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        out += [
            f"line {node.lineno}: {name}({p.arg})"
            for p in params
            if p.arg not in ("self", "cls") and not p.arg.startswith("_") and p.arg not in read
        ]
    return out


def test_every_parameter_is_read():
    unread = [
        f"{name}: {param}"
        for name, tree in TREES.items()
        for param in _unread_parameters(tree)
    ]
    assert unread == []


def _defaults(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, positional index or None) per defaulted parameter.

    The callee name is the one a call spells: a function's or method's own
    name, or its class's name for ``__init__``.  The positional index
    leaves out ``self`` and ``cls``; keyword-only parameters have none.
    """
    out: list[tuple[str, str, int | None]] = []

    def visit(node, cls):
        for item in node.body:
            if isinstance(item, ast.ClassDef):
                visit(item, item.name)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = item.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                if cls is not None and positional[:1] in (["self"], ["cls"]):
                    positional = positional[1:]
                callee = cls if item.name == "__init__" else item.name
                first_default = len(positional) - len(a.defaults)
                out.extend(
                    (callee, p, i) for i, p in enumerate(positional) if i >= first_default
                )
                out.extend(
                    (callee, p.arg, None)
                    for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None
                )
                visit(item, None)

    visit(tree, None)
    return out

def _passed_arguments(tree: ast.AST) -> dict[str, list[tuple[int, set[str], bool]]]:
    """Per called name: (positional count, keyword names, spreads) of every call.

    ``spreads`` is True for a call with ``*args`` or ``**kwargs``, which may
    pass any parameter.
    """
    out: dict[str, list[tuple[int, set[str], bool]]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        spreads = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        )
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        out.setdefault(name, []).append((len(node.args), keywords, spreads))
    return out


def test_every_default_is_set():
    """A parameter's default stands for a choice some call makes otherwise.

    A parameter that no call in the package, the tests or the harness ever
    passes, by keyword or by position, carries one value, so it belongs in
    the body or in a module constant.
    """
    calls: dict[str, list[tuple[int, set[str], bool]]] = {}
    for tree in READERS:
        for name, found in _passed_arguments(tree).items():
            calls.setdefault(name, []).extend(found)
    unset = [
        f"{name}: {callee}({param})"
        for name, tree in TREES.items()
        for callee, param, index in _defaults(tree)
        if not any(
            spreads or param in keywords or (index is not None and count > index)
            for count, keywords, spreads in calls.get(callee, ())
        )
    ]
    assert unset == []
