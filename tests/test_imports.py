"""Every name a pbtkit module imports is used in that module, and comes
from the module that defines it.

A re-export shim or a leftover import keeps a second path to a name alive
after its last reader is gone, and an import through a module that only
imports the name itself hides where the name lives.  ``__init__`` is exempt:
re-exporting is its job.  A ``# noqa`` comment does not exempt a line."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pbtkit"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")
SOURCES = {path.stem: path.read_text() for path in SRC.glob("*.py")}


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_sees_through_noqa():
    source = "import os  # noqa: F401\nfrom .x import y, z  # noqa: F401 - re-exported\nz()\n"
    assert unused_imports(source) == ["os", "y"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def top_level_names(source: str) -> set[str]:
    """The names the top level of ``source`` defines itself: functions,
    classes and assignment targets, not imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(leaf.id for target in targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name))
    return names


def borrowed_imports(sources: dict[str, str], module: str) -> list[str]:
    """The ``owner.name`` of each ``from .owner import name`` in ``module``
    whose owner does not define ``name`` at its top level; ``sources`` maps
    the package's module names (``__init__`` for ``from . import``) to code."""
    borrowed = []
    for node in ast.walk(ast.parse(sources[module])):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            owner = node.module or "__init__"
            defined = top_level_names(sources[owner])
            borrowed += [f"{owner}.{alias.name}" for alias in node.names
                         if alias.name not in defined]
    return borrowed


def test_the_owner_check_sees_a_name_passed_through():
    sources = {
        "a": "from .b import x, y, _z\nfrom . import v\n",
        "b": "from .c import y\nx = 1\n_z: int = 2\n",
        "c": "def y():\n    pass\n",
        "__init__": "v, w = 1, 2\n",
    }
    assert borrowed_imports(sources, "a") == ["b.y"]
    assert borrowed_imports(sources, "b") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_each_name_from_its_owner(module):
    assert borrowed_imports(SOURCES, module.removesuffix(".py")) == []
