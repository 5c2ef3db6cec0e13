"""Properties of the package source itself."""

import ast
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
