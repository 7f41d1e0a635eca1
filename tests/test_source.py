"""Static checks of the package source, read with the stdlib `ast`."""

import ast
from pathlib import Path

import pytest

import ehrstar

MODULES = sorted(p for p in Path(ehrstar.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module imports, anywhere in it, and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("from .starbasis import eval_ehrhart, f_from_h\nf_from_h(1)\n", ["eval_ehrhart"]),
    ("import numpy as np\ndef f():\n    return np.zeros(1)\n", []),
    ("import os.path\n", ["os"]),
    ("from __future__ import annotations\nfrom math import comb as c\nc(2, 1)\n", []),
])
def test_the_scan_names_what_is_unused(source, unused):
    assert unused_imports(source) == unused
