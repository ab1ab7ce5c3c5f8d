"""Package hygiene: exported names resolve and no private name is dead.

Every name in a module's ``__all__`` (and in the package's) must exist,
so a removed function cannot linger as an export.  Every module-level
private function, class or constant in ``src/vkmorley`` must be read by
package code other than its own definition, so a helper whose last
caller went away is deleted with it rather than kept for tests.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vkmorley

SOURCES = sorted(Path(vkmorley.__file__).parent.glob("*.py"))
# Importing __main__ runs the command line.
MODULES = ["vkmorley"] + [f"vkmorley.{m.name}" for m in pkgutil.iter_modules(vkmorley.__path__)
                          if m.name != "__main__"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree: ast.Module):
    """(name, statement) of each module-level private def, class or assignment."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            names = []
        for name in names:
            if _is_private(name):
                yield name, stmt


def _reads(node: ast.AST, skip: ast.AST | None = None) -> list[str]:
    """Names read under node (variables and attributes), outside skip."""
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return out


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), f"{module}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}, which do not exist"


def test_every_private_module_name_is_used():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    unused = []
    for path, tree in trees.items():
        for name, stmt in _private_definitions(tree):
            used = any(name in _reads(other, skip=stmt if other is tree else None)
                       for other in trees.values())
            if not used:
                unused.append(f"{path.name}:{stmt.lineno} {name}")
    assert not unused, f"private names read only by their own definition: {unused}"
