"""Source-level checks over the package's modules and its documented API."""

import ast
import os
import re
import subprocess
import sys
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
    """Every name a tree mentions, each with whether it is an attribute access.

    Variables and imported names are plain; ``x.name`` is an attribute access.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, False) for alias in node.names)


def test_every_public_function_has_a_caller():
    """A public function, method or module-level data name that no program code
    outside its own definition names is dead API.

    Tests do not count as callers.  A method or property counts as named
    only through an attribute access (``x.name``): a module function or a
    variable of the same name does not call it.  Data is a name bound by an
    assignment at module level.
    """
    package = Path(matchsticks.__file__).parent
    root = package.parents[1]
    uses = Counter()
    definitions = []  # (qualified name, name, is a method, the names its own body mentions)
    for folder in ("src", "scripts", "perfbench"):
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
                        definitions.append(
                            (qualified, member.name, bool(owner), Counter(_named(member)))
                        )
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    definitions += [
                        (f"{path.stem}.{target.id}", target.id, False, Counter(_named(node)))
                        for target in targets
                        if isinstance(target, ast.Name) and not target.id.startswith("_")
                    ]
    assert definitions

    def count(names, name, method):
        return names[name, True] + (0 if method else names[name, False])

    uncalled = [
        qualified
        for qualified, name, method, own in definitions
        if count(uses, name, method) <= count(own, name, method)
    ]
    # the one exemption: the scalar reference that tests check
    # ``verify._adjacent_overlaps`` against
    assert uncalled == ["verify.segments_conflict"]


def test_readme_library_example_runs():
    """The README's Library block runs, and each print matches the comment beside it."""
    readme = (Path(matchsticks.__file__).parents[2] / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)
    code = block + "import matchsticks.refine\nprint(type(matchsticks.refine).__name__)\n"
    env = {**os.environ, "PYTHONPATH": str(Path(matchsticks.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    documented = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    *printed, refine_type = out.stdout.splitlines()
    assert len(printed) == len(documented) > 0
    for value, comment in zip(printed, documented):
        assert comment.startswith(value)
    assert refine_type == "module"  # the package does not shadow its submodule
