"""Source-level checks over the package's modules."""

import ast
from collections import Counter
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


def _named(tree):
    """Every name a tree mentions: variables, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_function_has_a_caller():
    """A public function or method that nothing outside its body names is dead API."""
    package = Path(matchsticks.__file__).parent
    root = package.parents[1]
    uses = Counter()
    definitions = []  # (qualified name, name, the names its own body mentions)
    for folder in ("src", "scripts", "tests", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            if path == package / "__init__.py":
                continue  # re-exports are not callers
            tree = ast.parse(path.read_text())
            uses.update(_named(tree))
            if path.parent != package:
                continue
            for node in tree.body:
                owner, members = (
                    (f"{node.name}.", node.body) if isinstance(node, ast.ClassDef) else ("", [node])
                )
                for member in members:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        qualified = f"{path.stem}.{owner}{member.name}"
                        definitions.append((qualified, member.name, Counter(_named(member))))
    assert definitions
    uncalled = [qualified for qualified, name, own in definitions if uses[name] <= own[name]]
    assert uncalled == []
