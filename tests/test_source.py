"""Properties of the package source itself."""

import ast
import dataclasses
import importlib
import re
import textwrap
from pathlib import Path

import pytest

import nedpca

SOURCES = sorted(Path(nedpca.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_runtime_asserts(path):
    # `python -O` strips assert statements, so they cannot guard anything
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def _module_all(tree: ast.Module) -> set:
    """The string literals in the module's __all__ assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exports_are_bound(path):
    # a stale __all__ entry only fails on `import *`, so check every name
    name = "nedpca" if path.stem == "__init__" else f"nedpca.{path.stem}"
    module = importlib.import_module(name)
    missing = sorted(e for e in getattr(module, "__all__", ()) if not hasattr(module, e))
    assert missing == [], f"{path.name}: __all__ names unbound {missing}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    # a name imported but never used is dead weight that hides real dependencies
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used - _module_all(tree))
    assert unused == [], f"{path.name}: unused imports {unused}"


SURFACE_MODULES = ["errors", "model", "solver", "closedforms", "m2", "montecarlo"]


def test_package_republishes_each_module_all():
    # a module's __all__ alone decides what is public; the package adds nothing
    modules = [importlib.import_module(f"nedpca.{name}") for name in SURFACE_MODULES]
    assert nedpca.__all__ == ["__version__"] + [e for m in modules for e in m.__all__]


def test_module_exports_are_disjoint():
    # a later wildcard re-export would silently shadow an earlier module's name
    owners = {}
    for name in SURFACE_MODULES:
        for export in importlib.import_module(f"nedpca.{name}").__all__:
            owners.setdefault(export, []).append(name)
    assert {e: o for e, o in owners.items() if len(o) > 1} == {}


def _package_imports(name: str) -> set:
    """The sibling modules that src/nedpca/<name> imports; the package
    imports its own modules relatively."""
    path = Path(nedpca.__file__).parent / name
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name for a in node.names)
    return found


@pytest.mark.parametrize("layer", ["m2", "closedforms", "solver", "montecarlo"])
def test_layers_stay_independent(layer):
    # the acceptance gate checks these layers against each other, so none
    # may compute its values through another: each builds on the model alone
    assert _package_imports(f"{layer}.py") - {"model", "errors"} == set()


@pytest.mark.parametrize("layer", ["m2", "closedforms", "solver", "montecarlo"])
def test_layers_import_no_private_names(layer):
    # a private name a sibling needs is a rule kept in the wrong module
    path = Path(nedpca.__file__).parent / f"{layer}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"{node.module}.{a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
        if a.name.startswith("_")
    ]
    assert private == []


def test_oracle_never_weighs_configurations():
    # the dense oracle must reach pi by its linear solve, not through the
    # product-form weights it is checked against
    path = Path(nedpca.__file__).parent / "solver.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    assert names & {"count_patterns", "stationary_weight"} == set()


def test_bench_calls_only_the_public_api():
    # bench/test_smoke.py is too slow for tier-1, so check here that every name
    # the benchmark imports and every SimulationPlan keyword it passes still exist
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "nedpca"
        for a in node.names
    }
    keywords = {
        kw.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SimulationPlan"
        for kw in node.keywords
    }
    assert imported and keywords
    assert imported - set(nedpca.__all__) == set()
    assert keywords - {f.name for f in dataclasses.fields(nedpca.SimulationPlan)} == set()


def test_readme_library_surface_is_exported():
    # a name that leaves the package but stays in README's import block fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^    from nedpca import \(.*?^    \)$", readme, re.M | re.S)
    assert block
    (node,) = ast.parse(textwrap.dedent(block.group(0))).body
    names = {a.name for a in node.names}
    assert names and names - set(nedpca.__all__) == set()
