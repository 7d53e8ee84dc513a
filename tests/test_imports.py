"""No module of the package imports a name it never uses, or defines a
module-level private name that it never reads.

``__init__.py`` is skipped by the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "luq"
ALL_MODULES = sorted(p.name for p in SRC.glob("*.py"))
MODULES = [m for m in ALL_MODULES if m != "__init__.py"]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nfrom dataclasses import dataclass, field\n"
              "def f() -> os.PathLike:\n    return dataclass\n")
    assert unused_imports(source) == [(3, "field")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def unused_private_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of every module-level private name (``_x = ...``,
    ``def _x``, ``class _X``) that the module never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for line, name in defined
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def test_finds_an_unused_private_name():
    source = ("_USED = 1\n_TABLE = {'a': 0}\n__all__ = []\nPUBLIC = 2\n"
              "def _helper():\n    return _USED\n"
              "def _dead():\n    pass\nclass _Spare:\n    pass\n"
              "def f():\n    _local = 3\n    return _helper()\n")
    assert unused_private_names(source) == [(2, "_TABLE"), (7, "_dead"), (9, "_Spare")]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_unused_private_names(module):
    assert unused_private_names((SRC / module).read_text(encoding="utf-8")) == []
