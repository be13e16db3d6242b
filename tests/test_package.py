"""Source-level checks over the package's modules."""

import ast
from pathlib import Path

import pytest

import matchsticks

MODULES = sorted(
    path for path in Path(matchsticks.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
