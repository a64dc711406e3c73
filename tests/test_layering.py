"""The modules of the package meet at public names: none imports a `_name`
from a sibling module or reads `module._name` off a relative import, and the
package's `__all__` lists exactly what it exports."""
import ast
import types
from pathlib import Path

import pytest

import forcemotion

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


def test_all_lists_exactly_what_star_import_binds():
    namespace = {}
    exec("from forcemotion import *", namespace)
    namespace.pop("__builtins__")
    assert len(forcemotion.__all__) == len(set(forcemotion.__all__))
    assert sorted(namespace) == sorted(forcemotion.__all__)


def test_all_lists_every_public_name_the_package_binds():
    public = {
        name
        for name, value in vars(forcemotion).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(forcemotion.__all__)


@pytest.mark.parametrize("name", forcemotion.__all__)
def test_each_exported_name_imports(name):
    exec(f"from forcemotion import {name}", {})
