"""No module in src/, tests/, demos/ or perfbench/ imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
                  *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


def unused_imports(source):
    """(line, name) of each name the module imports and never reads; a name
    listed in a literal __all__ counts as read, __future__ imports are skipped."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_unused_and_honours_all_and_future():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import a.b\n"
        "from x import y, z as w\n"
        "from q import *\n"
        "__all__ = ['y']\n"
        "a.b.c(np.zeros(1))\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "w")]
