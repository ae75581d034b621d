"""Every name a pbtkit module imports is used in that module.

A re-export shim or a leftover import keeps a second path to a name alive
after its last reader is gone.  ``__init__`` is exempt: re-exporting is its
job.  A ``# noqa`` comment does not exempt a line."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pbtkit"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


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
