"""Properties of the package source itself."""

import ast
import importlib
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


@pytest.mark.parametrize(
    "name, forbidden",
    [
        ("m2.py", {"closedforms"}),
        ("closedforms.py", {"m2"}),
        ("solver.py", {"closedforms", "m2"}),
    ],
    ids=["m2", "closedforms", "solver"],
)
def test_layers_stay_independent(name, forbidden):
    # the acceptance gate checks these layers against each other, so none
    # may compute its values through another
    assert _package_imports(name) & forbidden == set()
