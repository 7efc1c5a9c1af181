"""Every name a library module imports is used in that module, the
modules of the package import each other without a cycle, and none reads
the process environment.

Each module of ``src/hierot`` is parsed with ``ast``; a name bound by an
``import`` or ``from ... import`` (inside functions too) that the module
never reads fails the test.  ``__init__.py`` is exempt: its imports are the
public API.  The package's own imports, ``from .x import ...`` and
``from . import x`` at module level or inside functions, form a graph that
must have no cycle.  No module names ``os.environ``, ``os.getenv`` or
their bytes forms, so the library reads no environment variable.

Nor does any module take a product or an angle by one of numpy's forms
whose bits depend on the host: 1-D ``np.dot`` and ``np.linalg.norm``, ``.dot``
and ``@`` go through BLAS, whose kernel the CPU or ``OPENBLAS_CORETYPE``
picks, and ``np.arcsin`` and its kin take the loop that the CPU or
``NPY_DISABLE_CPU_FEATURES`` picks.  Every leaf inner product is
``manifolds.dot``, a correctly rounded sum, and angles come from ``math``,
so neither variable changes what the library writes.  ``np.linalg.norm``
with an ``axis`` (the sphere table's row norms) keeps the same bits on every
BLAS kernel and dispatch level.
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


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list:
    """The names through which ``source`` reads the process environment:
    ``os.<name>`` attributes and ``from os import <name>``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [a.name for a in node.names if a.name in ENVIRONMENT]
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_library_module_reads_no_environment(path):
    assert environment_reads((SRC / path).read_text()) == []


def test_an_environment_read_is_caught():
    source = ("import os\nfrom os import getenv\n"
              "x = os.environ.get('A', '')\ny = getenv('B')\n")
    assert environment_reads(source) == ["getenv", "environ"]


NUMPY = {"np", "numpy"}
# numpy functions whose bits depend on the BLAS kernel or the CPU dispatch
HOST_FORMS = {"dot", "vdot", "inner", "matmul", "arcsin", "arccos", "arctan",
              "arctan2", "exp", "log", "tan", "sin", "cos"}


def host_dependent_forms(source: str) -> list:
    """Where ``source`` names a host-dependent numpy form, as ``line: form``:
    ``np.<form>`` or ``from numpy import <form>``, a ``.dot`` attribute of
    anything, ``@`` or ``@=``, and ``np.linalg.norm`` called without
    ``axis``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr == "dot":
            found.append((node.lineno, ".dot"))
        elif (isinstance(node, ast.Attribute) and node.attr in HOST_FORMS
              and isinstance(node.value, ast.Name) and node.value.id in NUMPY):
            found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, f"np.{a.name}") for a in node.names
                      if a.name in HOST_FORMS]
        elif (isinstance(node, ast.Call)
              and ast.unparse(node.func) in {f"{n}.linalg.norm" for n in NUMPY}
              and all(k.arg != "axis" for k in node.keywords)):
            found.append((node.lineno, "np.linalg.norm"))
    return [f"{line}: {form}" for line, form in sorted(found)]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_library_module_takes_no_host_dependent_form(path):
    assert host_dependent_forms((SRC / path).read_text()) == []


def test_a_host_dependent_form_is_caught():
    source = ("import numpy as np\nfrom numpy import arcsin, sqrt\n"
              "a = np.dot(x, y) + x.dot(y) + np.arccos(t) + math.asin(t)\n"
              "b = xs @ ys.T\nb @= m\nf = np.sin\n"
              "c = np.linalg.norm(x) + numpy.linalg.norm(x, 2)\n"
              "d = np.linalg.norm(xs, axis=1) + np.einsum('i,i', x, y) + dot(x, y)\n")
    assert host_dependent_forms(source) == [
        "2: np.arcsin", "3: .dot", "3: .dot", "3: np.arccos", "4: @", "5: @",
        "6: np.sin", "7: np.linalg.norm", "7: np.linalg.norm"]
