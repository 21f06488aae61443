"""Static checks over the library source: no module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "blockdesigns"


def unused_imports(source: str) -> list[str]:
    """The names a module imports (`__future__` features aside) and never
    reads. `import a.b` binds a; a name counts as used wherever it is read,
    annotations included."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_a_leftover_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from .grouplib import builtin as make\n"
        "def f(x: Fraction) -> int:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["make"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_imports(path):
    assert unused_imports(path.read_text()) == []
