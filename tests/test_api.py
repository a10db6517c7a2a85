"""The package's public names: each one resolves, and the module that
defines it lists it in its own __all__."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import permsnake


def _definitions() -> dict[str, list[str]]:
    """Module names by the names their top level binds, imports left out."""
    owners: dict[str, list[str]] = {}
    for info in pkgutil.iter_modules(permsnake.__path__):
        tree = ast.parse(Path(permsnake.__path__[0], f"{info.name}.py").read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                owners.setdefault(name, []).append(info.name)
    return owners


DEFINED_IN = _definitions()


@pytest.mark.parametrize("name", permsnake.__all__)
def test_exported_name_resolves(name):
    assert hasattr(permsnake, name)


@pytest.mark.parametrize("name", permsnake.__all__)
def test_exported_name_is_in_its_module_all(name):
    (home,) = DEFINED_IN[name]
    module = importlib.import_module(f"permsnake.{home}")
    assert name in module.__all__
    assert getattr(module, name) is getattr(permsnake, name)
