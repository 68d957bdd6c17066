"""Every name a ``tailnet`` module imports is used in it, unless its import
statement says ``# noqa: F401`` (a name kept importable for others).  The
package ``__init__`` re-exports its imports, so it is not checked."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tailnet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """``(line, name)`` of each name bound by an import of ``source`` and
    never read in it, its import statement carrying no ``noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        if "# noqa: F401" in text:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_name_and_honours_noqa():
    source = ("import os\nimport numpy as np\n"
              "from math import (pi,  # noqa: F401\n    tau)\n"
              "from typing import Optional\n"
              "x: Optional[int] = np.zeros(1)\n")
    assert unused_imports(source) == [(1, "os")]
