"""Command outputs pinned byte for byte.

``tests/golden/`` holds seeded input documents and the exact bytes that
``hierot distance``, ``geodesic``, ``flow`` and ``check`` wrote for them.
A change to the solver's code paths must not move a single output byte;
regenerate the files only when an output is meant to change::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hierot import exact_ot, plans, wasserstein
from hierot.cli import main

GOLDEN = Path(__file__).with_name("golden")
DIM = 3
CHECK_SEEDS = (0, 1000, 1001, 1002, 1003)


def _point(rng, kind, center=None, noise=1.0):
    x = rng.standard_normal(DIM) * noise
    if center is not None:
        x = x + center
    if kind == "sphere":
        x = x / np.linalg.norm(x)
    return [float(c) for c in x]


def _weights(rng, n, uniform):
    if uniform:
        return [1.0 / n] * n
    w = rng.random(n) + 0.2
    return [float(v) for v in w / w.sum()]


def _node(rng, kind, level, n, uniform, centers=None, noise=1.0):
    if level == 1:
        pts = [_point(rng, kind, None if centers is None else centers[i], noise)
               for i in range(n)]
        return {"weights": _weights(rng, n, uniform),
                "atoms": [{"point": p} for p in pts]}
    return {"weights": _weights(rng, n, uniform),
            "atoms": [_node(rng, kind, level - 1, n, uniform, centers, noise)
                      for _ in range(n)]}


def _doc(kind, level, root):
    return {"manifold": {"kind": kind, "ambient_dim": DIM},
            "level": level, "measure": root}


def make_inputs():
    """The input documents, by file name (seeded, no hierot code involved)."""
    docs = {}
    for s, kind in enumerate(("euclidean", "sphere")):
        rng = np.random.default_rng([7, s])
        for side in "ab":
            docs[f"wide_{kind}_{side}.json"] = _doc(
                kind, 1, _node(rng, kind, 1, 16, uniform=True))
        protos = [np.array([_point(rng, kind) for _ in range(8)]) for _ in range(3)]
        for side in "ab":
            labels = rng.integers(0, 3, 8)
            inner = [_node(rng, kind, 1, 8, False, protos[c], 0.15) for c in labels]
            docs[f"nested_{kind}_{side}.json"] = _doc(
                kind, 2, {"weights": _weights(rng, 8, False), "atoms": inner})
        for side in "ab":
            docs[f"deep_{kind}_{side}.json"] = _doc(
                kind, 3, _node(rng, kind, 3, 3, uniform=False))
        init = _node(rng, kind, 2, 5, uniform=False)
        target = _node(rng, kind, 2, 5, uniform=False)
        docs[f"flow_{kind}_init.json"] = _doc(kind, 2, init)
        docs[f"flow_{kind}_spec.json"] = {"terms": [
            {"type": "potential", "name": "quadratic",
             "params": {"center": _point(rng, "euclidean")}, "weight": 1.0},
            {"type": "half_w2_sq", "target": _doc(kind, 2, target), "weight": 1.0}]}
    return docs


def commands(inp: Path, out: Path):
    """``(name, argv, files written)`` for every pinned command."""
    cmds = []
    for kind in ("euclidean", "sphere"):
        for stem in ("wide", "nested", "deep"):
            a, b = inp / f"{stem}_{kind}_a.json", inp / f"{stem}_{kind}_b.json"
            plan = out / f"distance_{stem}_{kind}.plan.json"
            cmds.append((f"distance_{stem}_{kind}",
                         ["distance", str(a), str(b), "--plan", str(plan)], [plan]))
        trace = out / f"flow_{kind}.trace.csv"
        final = out / f"flow_{kind}.final.json"
        cmds.append((f"flow_{kind}",
                     ["flow", "--spec", str(inp / f"flow_{kind}_spec.json"),
                      "--init", str(inp / f"flow_{kind}_init.json"), "--tau", "0.1",
                      "--iters", "3", "--trace", str(trace), "--final", str(final)],
                     [trace, final]))
    geo = out / "geodesic_deep_sphere"
    cmds.append(("geodesic_deep_sphere",
                 ["geodesic", str(inp / "deep_sphere_a.json"),
                  str(inp / "deep_sphere_b.json"), "--steps", "2", "--out", str(geo)],
                 [geo / f"geodesic_{i:04d}.json" for i in range(3)]
                 + [geo / "geodesic.csv"]))
    for seed in CHECK_SEEDS:
        report = out / f"check_{seed}.json"
        cmds.append((f"check_{seed}",
                     ["check", "--suite", "all", "--seed", str(seed), "--samples", "1",
                      "--report", str(report)], [report]))
    # the command's own defaults: every suite, seed 0, six samples
    report = out / "check_default.json"
    cmds.append(("check_default", ["check", "--report", str(report)], [report]))
    return cmds


def run_command(argv, files):
    """Exit code, stdout and written files of one in-process command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode(), [f.read_bytes() for f in files]


@pytest.mark.parametrize("name", [c[0] for c in commands(Path(), Path())])
def test_output_bytes_match_golden(name, tmp_path):
    _, argv, files = next(c for c in commands(GOLDEN / "inputs", tmp_path)
                          if c[0] == name)
    code, stdout, written = run_command(argv, files)
    want = json.loads((GOLDEN / "outputs" / f"{name}.json").read_text())
    assert code == want["exit"]
    assert stdout.decode() == want["stdout"]
    for f, data in zip(files, written):
        assert data.decode() == want["files"][f.name], f.name


# core solves of each golden flow command: a step solves each distance term
# once, for its plan and its value together
FLOW_SOLVES = {"flow_euclidean": 164, "flow_sphere": 164}
# core solves of `hierot check --suite all --seed 1000 --samples 1`, and how
# many of them are 1xk or mx1 problems, whose coupling is forced
CHECK_SOLVES, CHECK_FORCED = 5161, 1936


def count_solves(monkeypatch):
    """The marginal lengths of every core solve from now on, recorded
    through each module's own binding of ``_solve_lists``."""
    solve, shapes = exact_ot._solve_lists, []

    def counted(c, a, b):
        shapes.append((len(a), len(b)))
        return solve(c, a, b)

    for module in (exact_ot, plans, wasserstein):  # each binds the name itself
        monkeypatch.setattr(module, "_solve_lists", counted)
    return shapes


@pytest.mark.parametrize("name", sorted(FLOW_SOLVES))
def test_flow_core_solve_count_is_pinned(name, tmp_path, monkeypatch):
    shapes = count_solves(monkeypatch)
    _, argv, files = next(c for c in commands(GOLDEN / "inputs", tmp_path)
                          if c[0] == name)
    assert run_command(argv, files)[0] == 0
    assert len(shapes) == FLOW_SOLVES[name]


def test_check_core_solve_count_is_pinned(monkeypatch):
    # a count that no machine moves, read next to check's timings
    shapes = count_solves(monkeypatch)
    argv = ["check", "--suite", "all", "--seed", "1000", "--samples", "1"]
    assert run_command(argv, [])[0] == 0
    assert len(shapes) == CHECK_SOLVES
    assert sum(1 in shape for shape in shapes) == CHECK_FORCED


def _digests():
    """SHA-256 of every golden file, by its path under ``tests/golden``."""
    return {str(f.relative_to(GOLDEN)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(GOLDEN.glob("*/*.json"))}


def regenerate():
    """Write every input and output file again; print each file that moves
    (its path and the first 12 hex digits of its SHA-256, old -> new) and
    their count."""
    inp, outdir = GOLDEN / "inputs", GOLDEN / "outputs"
    inp.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    old = _digests()
    for fname, doc in make_inputs().items():
        (inp / fname).write_text(json.dumps(doc))
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, files in commands(inp, Path(tmp)):
            code, stdout, written = run_command(argv, files)
            record = {"exit": code, "stdout": stdout.decode(),
                      "files": {f.name: d.decode() for f, d in zip(files, written)}}
            (outdir / f"{name}.json").write_text(json.dumps(record, indent=0) + "\n")
    new = _digests()
    moved = [name for name in new if old.get(name) != new[name]]
    for name in moved:
        print(f"{name}: {old.get(name, 'none')[:12]} -> {new[name][:12]}")
    print(f"{len(moved)} of {len(new)} files moved")


if __name__ == "__main__":
    regenerate()
