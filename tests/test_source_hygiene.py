"""Source hygiene of `src/indsat`, read with `ast`: every import is used,
every module-level private name is referenced somewhere in the package, and
every public one somewhere in the package, the tests or perfbench, so a
helper left behind by a refactor fails here instead of lingering."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "indsat"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _read_names(tree) -> Counter:
    """How often the tree reads each name: bare names, attribute names and
    names imported from another module."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _definitions(tree):
    """(names, node) of every module-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield [node.name], node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield [t.id for t in targets if isinstance(t, ast.Name)], node


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
    unused = [f"{module}:{name}" for module, tree in TREES.items()
              for names, _ in _definitions(tree) for name in names
              if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unused == []


def test_every_public_module_name_is_read():
    # Read in the package, the tests or perfbench, outside its own definition;
    # a re-export from __init__.py is not a read.
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += [*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    read = sum((_read_names(ast.parse(path.read_text())) for path in sources), Counter())
    unused = [f"{module}:{name}" for module, tree in TREES.items()
              for names, node in _definitions(tree) for name in names
              if not name.startswith("_") and read[name] <= _read_names(node)[name]]
    assert unused == []
