"""The package's public names: each one resolves, and the module that
defines it lists it in its own __all__; and what importing the CLI loads."""

import ast
import importlib
import pkgutil
import subprocess
import sys
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


@pytest.mark.parametrize(
    "name", [name for name in permsnake.__all__ if name.startswith("build_")]
)
def test_every_builder_returns_a_gray_code(name):
    assert isinstance(getattr(permsnake, name)(5), permsnake.GrayCode)


def test_cli_import_loads_no_process_machinery():
    # multiprocessing and concurrent.futures cost about half the CLI's
    # import time, and the search runs in one process.
    probe = (
        "import sys, permsnake.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(Path(permsnake.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
