"""Every name a library module imports is used in that module.

Each module of ``src/hierot`` is parsed with ``ast``; a name bound by an
``import`` or ``from ... import`` (inside functions too) that the module
never reads fails the test.  ``__init__.py`` is exempt: its imports are the
public API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hierot"


def unused_imports(source: str) -> list:
    """The imported names of ``source`` that it never reads, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_library_module_uses_every_import(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_an_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import inf, nan\n"
              "def f():\n    from json import dumps\n    return np.zeros(1), inf\n")
    assert unused_imports(source) == ["os", "nan", "dumps"]
