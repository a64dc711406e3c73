"""The modules of the package meet at public names: none imports a `_name`
from a sibling module or reads `module._name` off a relative import."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "forcemotion"


def _private_uses(tree):
    """Each `from .sibling import _name` and each `sibling._name` read
    through a module bound by a relative import."""
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module:
                    if alias.name.startswith("_"):
                        yield f"line {node.lineno}: from .{node.module} import {alias.name}"
                else:
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            yield f"line {node.lineno}: {node.value.id}.{node.attr}"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_only_public_names_of_its_siblings(module):
    tree = ast.parse((PACKAGE / module).read_text())
    assert list(_private_uses(tree)) == []
