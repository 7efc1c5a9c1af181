"""Every name a library module imports is used in that module, and the
modules of the package import each other without a cycle.

Each module of ``src/hierot`` is parsed with ``ast``; a name bound by an
``import`` or ``from ... import`` (inside functions too) that the module
never reads fails the test.  ``__init__.py`` is exempt: its imports are the
public API.  The package's own imports, ``from .x import ...`` and
``from . import x`` at module level or inside functions, form a graph that
must have no cycle.
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


def sibling_imports(source: str) -> set:
    """The package modules that ``source`` imports, inside functions too."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name for a in node.names)
    return found


def import_cycle(graph: dict):
    """One cycle of ``graph`` (module -> the modules it imports), as the
    modules along it with the first repeated at the end, or None."""
    path, done = [], set()

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for nxt in sorted(graph.get(name, ())):
            cycle = visit(nxt)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return None

    for name in sorted(graph):
        cycle = visit(name)
        if cycle:
            return cycle
    return None


def test_package_imports_have_no_cycle():
    graph = {p.stem: sibling_imports(p.read_text()) for p in SRC.glob("*.py")}
    assert "serialization" in graph["cli"] and "checks" in graph["cli"]
    assert import_cycle(graph) is None


def test_an_import_cycle_is_caught():
    graph = {"a": sibling_imports("from .b import f\nimport json\n"),
             "b": sibling_imports("def g():\n    from . import c, d\n"),
             "c": sibling_imports("from .a import h\n"),
             "d": sibling_imports("from .. import e\n")}
    assert graph == {"a": {"b"}, "b": {"c", "d"}, "c": {"a"}, "d": set()}
    assert import_cycle(graph) == ["a", "b", "c", "a"]
    del graph["c"]
    assert import_cycle(graph) is None
