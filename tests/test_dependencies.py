"""Every third-party module the code imports is declared in pyproject.toml.

The library (``src/hierot``) may import only ``[project] dependencies``.
The tests and the benchmark (``tests``, ``perfbench``), which CI installs
with ``pip install -e ".[test]"``, may also import the ``test`` extra.
Modules imported inside functions count too.
"""

import ast
import re
import sys
import tomllib
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _canonical(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def declared(*groups):
    """Canonical distribution names of pyproject's runtime dependencies,
    plus those of the named optional-dependency groups."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    reqs = list(project.get("dependencies", []))
    for group in groups:
        reqs += project["optional-dependencies"][group]
    return {_canonical(re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", r).group(0))
            for r in reqs}


def third_party_imports(directory):
    """Distribution names of the absolute imports in ``directory/*.py``,
    leaving out the standard library, ``hierot`` and the directory's own
    modules."""
    own = {p.stem for p in directory.glob("*.py")} | {"hierot"}
    modules = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    modules -= own | set(sys.stdlib_module_names)
    dists = packages_distributions()
    return {m: _canonical(dists.get(m, [m])[0]) for m in modules}


def test_library_imports_are_runtime_dependencies():
    runtime = declared()
    found = third_party_imports(ROOT / "src" / "hierot")
    assert "numpy" in found
    assert {m: d for m, d in found.items() if d not in runtime} == {}


@pytest.mark.parametrize("directory", ["tests", "perfbench"])
def test_test_imports_are_in_the_test_extra(directory):
    allowed = declared("test")
    found = third_party_imports(ROOT / directory)
    assert found
    assert {m: d for m, d in found.items() if d not in allowed} == {}


def test_an_undeclared_import_is_caught(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os\nimport mod\nfrom . import x\n"
        "def f():\n    import numpy\n    from yaml import safe_load\n")
    found = third_party_imports(tmp_path)
    assert set(found) == {"numpy", "yaml"}
    assert "numpy" in declared() and found["yaml"] not in declared("test")
