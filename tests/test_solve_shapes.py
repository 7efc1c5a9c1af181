"""The problem shapes of ``hierot flow`` and level-1 ``hierot distance``,
recorded for ``test_solve_corpus.py`` to pin by digest.

The problems of ``tests/solve_corpus.json`` come from ``hierot check`` and
are mostly tiny.  ``tests/solve_shapes.json`` holds, in the same format
(``float.hex`` inputs and the SHA-256 of plan, potentials, value and pivot
count), the shapes where the pivot loop takes most of a command's time:
9x5 and 10x5 problems from level-2 ``hierot flow`` runs, whose measure grows
from 5 atoms as it steps, and the 16x16 problems of level-1 ``hierot
distance`` between measures of 16 uniform atoms, on ``euclidean(3)`` and
``sphere(3)``.  The inputs are drawn here from fixed seeds.  The corpus's
``test_recorded_solve_is_pinned`` solves them; this file checks that every
shape is there.  Re-digest the pinned problems only when a result is meant
to change::

    PYTHONPATH=src python tests/test_solve_shapes.py

That solves the committed inputs again and rewrites only their digests.
Recording the commands afresh, ``test_solve_corpus.write(select(),
SHAPES)``, replaces the problems themselves: their solves change whenever
the library's do.
"""

import json
import tempfile
from pathlib import Path

from hierot import euclidean, sphere
from hierot.measures import dirac, mixture
from hierot.sampling import rng_from_seed, stick_weights
from hierot.serialization import measure_to_obj, save_measure
from test_solve_corpus import SHAPES, load, record, redigest

MANIFOLDS = (euclidean(3), sphere(3))
FLOW_SEEDS = (501, 502, 503, 504)
DISTANCE_SEEDS = (601, 602, 603, 604, 605, 606)
# problems kept per shape: evenly spaced over every run's problems
QUOTAS = {(9, 5): 16, (10, 5): 8, (16, 16): len(DISTANCE_SEEDS)}


def cloud(rng, man, n, uniform):
    points = rng.standard_normal((n, 3))
    if man.kind == "sphere":
        points /= ((points ** 2).sum(axis=1) ** 0.5)[:, None]
    weights = (1.0 / n,) * n if uniform else stick_weights(rng, n)
    return mixture(weights, [dirac(man, p) for p in points])


def flow_argv(seed, tmp):
    """``hierot flow`` on a level-2 measure of 5 random clouds of 5 points
    toward another one, plus a quadratic potential, for 3 steps."""
    rng = rng_from_seed(seed)
    man = MANIFOLDS[seed % 2]

    def measure():
        return mixture(stick_weights(rng, 5),
                       [cloud(rng, man, 5, uniform=False) for _ in range(5)])

    save_measure(measure(), tmp / "init.json")
    (tmp / "spec.json").write_text(json.dumps({"terms": [
        {"type": "potential", "name": "quadratic", "weight": 1.0,
         "params": {"center": rng.standard_normal(3).tolist()}},
        {"type": "half_w2_sq", "target": measure_to_obj(measure()),
         "weight": 1.0}]}))
    return ["flow", "--spec", str(tmp / "spec.json"), "--init",
            str(tmp / "init.json"), "--tau", "0.1", "--iters", "3",
            "--trace", str(tmp / "trace.csv"), "--final", str(tmp / "f.json")]


def distance_argv(seed, tmp):
    """``hierot distance`` between two level-1 measures of 16 uniform atoms."""
    rng = rng_from_seed(seed)
    man = MANIFOLDS[seed % 2]
    for name in ("a.json", "b.json"):
        save_measure(cloud(rng, man, 16, uniform=True), tmp / name)
    return ["distance", str(tmp / "a.json"), str(tmp / "b.json")]


def select():
    by_shape = {shape: [] for shape in QUOTAS}
    runs = [(flow_argv, s) for s in FLOW_SEEDS]
    runs += [(distance_argv, s) for s in DISTANCE_SEEDS]
    for make, seed in runs:
        with tempfile.TemporaryDirectory() as tmp:
            for p in record(make(seed, Path(tmp))):
                by_shape.get((len(p[1]), len(p[2])), []).append(p)
    picked = []
    for shape, quota in QUOTAS.items():
        group = by_shape[shape]
        picked += group[::max(1, len(group) // quota)][:quota]
    return picked


CASES = load(SHAPES) if SHAPES.exists() else []


def test_every_shape_is_there():
    shapes = [(len(a), len(b)) for (c, a, b), _ in CASES]
    assert {s: shapes.count(s) for s in QUOTAS} == QUOTAS


if __name__ == "__main__":
    redigest(SHAPES)
