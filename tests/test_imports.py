"""No module in src/ or tests/ imports a name it never uses.

No linter ships with the package, so this is the check pyflakes calls
F401, done on the syntax tree. An import line marked ``# noqa: F401`` is
kept on purpose (say, a name the benchmark looks up on the module), and
the package's ``__init__.py`` imports only to re-export.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names the source imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [a.asname or a.name.split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from json import dumps, loads\n"
              "from math import pi  # noqa: F401\n"
              "print(sys.argv, loads)\n")
    assert unused_imports(source) == ["os", "dumps"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
