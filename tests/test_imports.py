"""Every name an engine module imports is used in that module.

The package root is left out: it imports names to export them.
"""
import ast
import pathlib

import pytest

import funsor

MODULES = sorted(
    p for p in pathlib.Path(funsor.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    source = "from typing import List, Optional\nimport numpy as np\nx: List = []\n"
    assert unused_imports(source) == [(1, "Optional"), (2, "np")]
