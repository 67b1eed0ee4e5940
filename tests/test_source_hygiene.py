"""Source hygiene of `src/indsat`, read with `ast`: every import is used, and
every module-level private name is referenced somewhere in the package, so a
helper left behind by a refactor fails here instead of lingering."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "indsat"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _read_names(tree) -> set[str]:
    """Every name the tree reads: bare names, attribute names and names
    imported from another module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


# __init__.py imports only to re-export, so its imports count as used.
@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = TREES[module]
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert bound - used == set(), module


def test_every_private_module_name_is_referenced():
    read = set().union(*(_read_names(tree) for tree in TREES.values()))
    unused = []
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{module}:{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    assert unused == []
