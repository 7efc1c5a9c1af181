"""The README's library quick start runs and does what its comments say."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first Python code block under the "Library quick start" heading."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs_as_documented():
    ns = {}
    exec(compile(quick_start(), "README.md", "exec"), ns)
    w2, plan_norm = ns["w2"], ns["plan_norm"]
    dist = w2(ns["P"], ns["Q"])
    assert dist == math.sqrt(2)                  # sqrt(2)
    assert plan_norm(ns["gamma"]) == dist        # equals w2(P, Q)
    assert ns["mid"].level == 2                  # a level-2 measure
