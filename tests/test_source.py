"""Static checks of the package source, read with the stdlib `ast`."""

import ast
from pathlib import Path

import pytest

import ehrstar

SOURCES = sorted(Path(ehrstar.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
# Module-level helpers that no code in src/ reads, each with its reason.
# engine._count_box_satisfying: perfbench's tracer and the kernel tests name
# it; it moves to tests/ once the tracer stops requiring it.
UNREAD_HELPERS = ["engine._count_box_satisfying"]


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


def unread_helpers(sources: dict[str, str]) -> list[str]:
    """The module-level `_name` functions and classes, as module.name, whose
    name no source reads, as a name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [name for name in defined if name.partition(".")[2] not in read]


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


def test_every_private_helper_is_read():
    assert unread_helpers({p.stem: p.read_text(encoding="utf-8") for p in SOURCES}) == UNREAD_HELPERS


@pytest.mark.parametrize("sources, unread", [
    ({"a": "def _f():\n    pass\n"}, ["a._f"]),
    ({"a": "def _f():\n    pass\n", "b": "from . import a\na._f()\n"}, []),
    ({"a": "class _C:\n    pass\ndef f():\n    return [_C]\n"}, []),
    ({"a": "def _f():\n    pass\n_f = None\n"}, ["a._f"]),
    ({"a": "def __getattr__(name):\n    pass\ndef f():\n    def _g():\n        pass\n"}, []),
])
def test_the_scan_names_what_is_unread(sources, unread):
    assert unread_helpers(sources) == unread
