"""Every module of the package uses each name it imports.

No linter is part of the toolchain, so this is the unused-import check:
each module but ``__init__.py`` is parsed with ``ast``, and an imported
name must be referenced somewhere in it or be listed in its ``__all__``.
A name used only inside a string annotation counts as unused.
"""

import ast
from pathlib import Path

import pytest

import mmadmm

_MODULES = sorted(
    p for p in Path(mmadmm.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _used_names(tree) -> set:
    """Names loaded in ``tree`` (an attribute chain through its root) or
    listed in its ``__all__``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return used


def unused_imports(source: str) -> list:
    """The names ``source`` imports and never uses, in the order imported."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = _used_names(tree)
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_each_kind_of_use():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from dataclasses import dataclass, field\n"
        "from .blockspace import WeightMatrix\n"
        "__all__ = ['WeightMatrix']\n"
        "def f(x: Optional[int]) -> Sequence:\n"
        "    return os.path.join(np.pi, x)\n"
    )
    assert unused_imports(source) == ["dataclass", "field"]
