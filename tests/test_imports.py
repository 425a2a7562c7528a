"""Every module of the package uses each name it imports, and each module's
name in the package is the module itself."""

import ast
import importlib
from pathlib import Path

import pytest

import cel

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cel"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= used_names(ast.parse(note.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom typing import Callable, Mapping\nx: 'Mapping' = {}\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "Callable"}


SUBMODULES = [p.stem for p in MODULES if p.name != "__init__.py"]


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_attribute_is_the_module(name):
    # Every module is imported first, so none can rebind another's name.
    modules = {m: importlib.import_module(f"cel.{m}") for m in SUBMODULES}
    assert getattr(cel, name) is modules[name]
