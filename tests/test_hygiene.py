"""Package hygiene: exported names resolve and no private name is dead.

Every name in a module's ``__all__`` (and in the package's) must exist,
so a removed function cannot linger as an export.  Every module-level
private function, class or constant in ``src/vkmorley`` must be read by
package code other than its own definition, so a helper whose last
caller went away is deleted with it rather than kept for tests.  No
exported function takes a space beside a state that already carries
one, every run setting is one the command line sets, every
tabulated quadrature rule is one the package requests, no product
or rule keeps a form or a point count that only tests use, and each job
(the level the axiom check reads, the orbits of a tabulated rule) has
one implementation.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import typing
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


def test_no_exported_function_takes_a_space_beside_a_state():
    # A MorleyField carries its space, so a second space argument could only
    # name another one.  newton_solve keeps its space: its seed may be None.
    both = set()
    for module in MODULES:
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if not inspect.isfunction(obj):
                continue
            params = inspect.signature(obj).parameters.values()
            if (any(p.name == "space" for p in params)
                    and any("MorleyField" in str(p.annotation) for p in params)):
                both.add(f"{obj.__module__}.{obj.__qualname__}")
    assert both == {"vkmorley.solver.newton_solve"}


def test_every_run_setting_is_set_from_the_command_line(tmp_path, monkeypatch):
    # A setting that only tests could set would be a test-only hook.
    from vkmorley import cli
    from vkmorley.adaptivity import AmfemConfig

    bound = []

    def spy(*args, **kwargs):
        bound.append(set(inspect.signature(AmfemConfig).bind(*args, **kwargs).arguments))
        return AmfemConfig(*args, **kwargs)

    monkeypatch.setattr(cli, "AmfemConfig", spy)
    assert cli.main(["--levels", "1", "--delta", "0.5", "--out", str(tmp_path)]) == 0
    assert bound == [{f.name for f in dataclasses.fields(AmfemConfig)}]


def test_tabulated_triangle_rules_are_the_requested_ones():
    # The registry's data rules, the error norms' rule and the oscillation's
    # rule at every order, each rounded up as triangle_rule rounds it: a
    # table that only tests read fails here.
    from vkmorley import forms, quadrature
    from vkmorley.problems import registry

    data = {problem.data.quad_degree for problem in registry.values()}
    requested = (data | {forms._ERROR_DEGREE}
                 | {max(q, 2 * order) for q in data for order in (0, 1, 2)})
    assert ({quadrature.triangle_rule(d).degree for d in requested}
            == set(quadrature._DUNAVANT))


def test_no_linear_operator_and_no_point_counts():
    # The package applies each Newton product to one vector at a time, as a
    # plain function, and reads edge means at the 3 points it always uses.
    from vkmorley.morley import interpolate
    from vkmorley.quadrature import edge_rule

    named = [path.name for path in SOURCES if "LinearOperator" in path.read_text()]
    assert named == []
    assert "scipy.sparse.linalg" not in (SOURCES[0].parent / "forms.py").read_text()
    assert list(inspect.signature(interpolate).parameters) == ["space", "v", "grad"]
    assert list(inspect.signature(edge_rule).parameters) == []


def test_dissection_order_takes_only_a_space():
    # The cut rule has one path: no switch, band or leaf size to pass.
    from vkmorley.solver import dissection_order

    assert list(inspect.signature(dissection_order).parameters) == ["space"]


def test_axiom_check_reads_one_level_type_and_rules_have_one_expansion():
    # axiom_check reads AxiomLevels only, so a solved level has no second
    # way to give its Hessians; the tabulated orbits come from itertools.
    from vkmorley import quadrature
    from vkmorley.adaptivity import AxiomLevel, LevelArtifacts, axiom_check

    hints = typing.get_type_hints(axiom_check)
    assert hints["coarse"] is AxiomLevel and hints["fine"] is AxiomLevel
    assert not hasattr(LevelArtifacts, "hessians")
    assert not hasattr(quadrature, "_expand")
