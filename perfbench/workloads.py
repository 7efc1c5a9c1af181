"""Seeded inputs and command lines for the four benchmark workloads.

Inputs are written as the documented measure and flow-spec JSON by this
file alone (never through ``hierot.serialization``), so the program reads
them the way it reads a user's files.  A measure is kept in memory as the
same JSON-ready node tree: ``{"point": [...]}`` at level 0 and
``{"weights": [...], "atoms": [...]}`` above.

Every operation of a workload has one shape.  Operation ``i`` of a run with
seed ``s`` draws from its own random stream ``(s, workload, i)``, so no two
operations of a run share an input and the same seed gives the same list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIM = 3
MANIFOLDS = ("euclidean", "sphere")

# distance-wide: one uniform square problem per command
WIDE_ATOMS = 16
# distance-nested: level 2, clustered around a few prototype clouds
NESTED_ATOMS = 8
NESTED_PROTOTYPES = 3
NESTED_NOISE = 0.15
# flow: level 2 gradient descent toward a target measure
FLOW_ATOMS = 5
FLOW_ITERS = 3
FLOW_TAU = 0.1
# check: every suite, one sample, fixed seeds (see check_ops)
CHECK_SAMPLES = 1
CHECK_SEED_BASE = 1000
CHECK_OP_SECONDS = 4.0
CHECK_WARMUP = ("metric", 999)

WORKLOADS = ("distance-wide", "distance-nested", "flow", "check")
WARMUP_INDEX = 1_000_000


@dataclass
class Op:
    """One command: its argv, the files it reads and writes, and what the
    oracle needs to check its outputs."""

    index: int
    kind: str                      # distance | flow | check
    argv: list
    manifold: str = ""
    data: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload), int(index)])


def _point(rng, manifold: str, center=None, noise: float = 1.0) -> np.ndarray:
    x = rng.standard_normal(DIM) * noise
    if center is not None:
        x = x + center
    if manifold == "sphere":
        x = x / np.linalg.norm(x)
    return x


def _weights(rng, n: int, uniform: bool) -> list:
    if uniform:
        return [1.0 / n] * n
    w = rng.random(n) + 0.2
    return [float(v) for v in w / w.sum()]


def leaf(x) -> dict:
    return {"point": [float(c) for c in x]}


def node(weights, atoms) -> dict:
    return {"weights": list(weights), "atoms": list(atoms)}


def document(manifold: str, level: int, root: dict) -> dict:
    return {"manifold": {"kind": manifold, "ambient_dim": DIM},
            "level": level, "measure": root}


def cloud(rng, manifold: str, n: int, uniform: bool, centers=None,
          noise: float = 1.0) -> dict:
    """Level-1 node: ``n`` points, around ``centers`` when given."""
    pts = [_point(rng, manifold, None if centers is None else centers[i], noise)
           for i in range(n)]
    return node(_weights(rng, n, uniform), [leaf(p) for p in pts])


def wide_pair(rng, manifold: str):
    a = cloud(rng, manifold, WIDE_ATOMS, uniform=True)
    b = cloud(rng, manifold, WIDE_ATOMS, uniform=True)
    return a, b


def nested_pair(rng, manifold: str):
    """Two level-2 measures whose inner clouds are noisy copies of a few
    shared prototype clouds, as a dataset of labelled groups would be."""
    protos = [np.stack([_point(rng, manifold) for _ in range(NESTED_ATOMS)])
              for _ in range(NESTED_PROTOTYPES)]

    def measure():
        labels = rng.integers(0, NESTED_PROTOTYPES, NESTED_ATOMS)
        inner = [cloud(rng, manifold, NESTED_ATOMS, uniform=False,
                       centers=protos[c], noise=NESTED_NOISE) for c in labels]
        return node(_weights(rng, NESTED_ATOMS, uniform=False), inner)

    return measure(), measure()


def flow_inputs(rng, manifold: str):
    def measure():
        inner = [cloud(rng, manifold, FLOW_ATOMS, uniform=False)
                 for _ in range(FLOW_ATOMS)]
        return node(_weights(rng, FLOW_ATOMS, uniform=False), inner)

    init = measure()
    target = measure()
    center = [float(c) for c in rng.standard_normal(DIM)]
    spec = {"terms": [
        {"type": "potential", "name": "quadratic",
         "params": {"center": center}, "weight": 1.0},
        {"type": "half_w2_sq", "target": document(manifold, 2, target),
         "weight": 1.0}]}
    return init, target, center, spec


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def make_op(workload: str, seed: int, index: int, workdir: Path) -> Op:
    """Write the inputs of operation ``index`` under ``workdir``."""
    if workload == "check":
        raise ValueError("check operations come from check_ops")
    rng = _rng(seed, workload, index)
    manifold = MANIFOLDS[index % 2]
    d = workdir / f"op{index:07d}"
    d.mkdir(parents=True, exist_ok=True)
    if workload in ("distance-wide", "distance-nested"):
        level = 1 if workload == "distance-wide" else 2
        a, b = (wide_pair if level == 1 else nested_pair)(rng, manifold)
        _write(d / "a.json", document(manifold, level, a))
        _write(d / "b.json", document(manifold, level, b))
        plan = d / "plan.json"
        return Op(index, "distance",
                  ["distance", str(d / "a.json"), str(d / "b.json"),
                   "--plan", str(plan)],
                  manifold, data={"a": a, "b": b, "level": level},
                  outputs={"plan": plan})
    if workload == "flow":
        init, target, center, spec = flow_inputs(rng, manifold)
        _write(d / "init.json", document(manifold, 2, init))
        _write(d / "spec.json", spec)
        trace, final = d / "trace.csv", d / "final.json"
        return Op(index, "flow",
                  ["flow", "--spec", str(d / "spec.json"),
                   "--init", str(d / "init.json"), "--tau", repr(FLOW_TAU),
                   "--iters", str(FLOW_ITERS), "--trace", str(trace),
                   "--final", str(final)],
                  manifold, data={"init": init, "target": target,
                                  "center": center, "level": 2},
                  outputs={"trace": trace, "final": final})
    raise ValueError(f"unknown workload {workload!r}")


def check_argv(suite: str, check_seed: int) -> list:
    return ["check", "--suite", suite, "--seed", str(check_seed),
            "--samples", str(CHECK_SAMPLES)]


def check_ops(seconds: float) -> list:
    """The check workload: ``hierot check --suite all`` over a fixed list of
    check seeds, as many as take about ``seconds`` on the reference machine.

    The work of one check seed varies by a factor of two (random atom counts
    at level 3), so a list drawn from the benchmark seed would make the
    figures of a run depend on which seeds it drew.  The list is therefore
    the same for every benchmark seed.
    """
    count = max(2, math.ceil(seconds / CHECK_OP_SECONDS))
    return [Op(i, "check", check_argv("all", CHECK_SEED_BASE + i),
               data={"suite": "all", "seed": CHECK_SEED_BASE + i})
            for i in range(count)]


def warmup_op(workload: str, seed: int, workdir: Path) -> Op:
    """An operation of the workload's shape on inputs no timed one uses."""
    if workload == "check":
        suite, check_seed = CHECK_WARMUP
        return Op(-1, "check", check_argv(suite, check_seed),
                  data={"suite": suite, "seed": check_seed})
    return make_op(workload, seed, WARMUP_INDEX, workdir)
