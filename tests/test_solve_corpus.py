"""``exact_ot._solve_lists`` on problems recorded from ``hierot check``,
pinned by digest.

``tests/solve_corpus.json`` holds, as ``float.hex``, 300 of the 5,036
problems the core solves during ``hierot check --suite all --seed 1000
--samples 1``: every size class the workloads feed it (1xk and mx1, 2x2,
up to 16 cells, 17 to 64 cells, and the three larger problems, among them
the 18x14 one that takes 252 pivots), with marginals that sum to exactly
1.0 and marginals that do not.  Each problem carries the SHA-256 of its
plan, potentials, value and pivot count (``digest``), so a change to any
bit of a result, or to the pivot sequence, shows here.  The synthetic
problems of ``solver_golden.json`` do not have these shapes.  The pinning
test also runs the problems of ``tests/solve_shapes.json``, recorded from
``hierot flow`` and ``hierot distance`` by ``test_solve_shapes.py``.
Re-digest the pinned problems only when a result is meant to change::

    PYTHONPATH=src python tests/test_solve_corpus.py

That solves the committed inputs again and rewrites only their digests.
The command's problems change whenever the library's solves do, so
recording them afresh, ``write(select(record()))``, replaces the problems
themselves.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from hierot import exact_ot
from test_solver_golden import pivot_counts

CORPUS = Path(__file__).with_name("solve_corpus.json")
SHAPES = Path(__file__).with_name("solve_shapes.json")
ARGV = ["check", "--suite", "all", "--seed", "1000", "--samples", "1"]
# problems kept per size class; every problem larger than 64 cells is kept
QUOTAS = {"1xk": 50, "2x2": 40, "<=16": 110, "17-64": 55}
INEXACT = 42  # problems kept whose marginals do not sum to exactly 1.0


def size_class(m, k):
    if min(m, k) == 1:
        return "1xk"
    if (m, k) == (2, 2):
        return "2x2"
    return "<=16" if m * k <= 16 else "17-64" if m * k <= 64 else ">64"


def digest(x, phi, psi, value, pivots):
    """SHA-256 of a solve's plan, potentials, value and pivot counts."""
    record = [[[v.hex() for v in row] for row in x], [v.hex() for v in phi],
              [v.hex() for v in psi], value.hex(), pivots]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def solve(c, a, b):
    with pivot_counts() as pivots:
        x, phi, psi, value = exact_ot._solve_lists(c, a, b)
    return digest(x, phi, psi, value, pivots)


def record(argv=ARGV):
    """Every distinct ``(c, a, b)`` the core solves during the command
    ``argv``, in the order first solved."""
    from hierot import cli, plans, wasserstein
    seen, problems = set(), []
    core = exact_ot._solve_lists

    def recorded(c, a, b):
        key = json.dumps([c, a, b])
        if key not in seen:
            seen.add(key)
            problems.append(([list(row) for row in c], list(a), list(b)))
        return core(c, a, b)

    saved = wasserstein._solve_lists, plans._solve_lists
    wasserstein._solve_lists = plans._solve_lists = recorded
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    finally:
        wasserstein._solve_lists, plans._solve_lists = saved
    return problems


def select(problems):
    """Evenly spaced problems of each size class, up to its quota, then the
    first ``INEXACT`` unpicked ones whose marginals do not sum to 1.0."""
    by_class = {}
    for p in problems:
        by_class.setdefault(size_class(len(p[1]), len(p[2])), []).append(p)
    picked = list(by_class.pop(">64", []))
    for name, quota in QUOTAS.items():
        group = by_class.get(name, [])
        step = max(1, len(group) // quota)
        picked += group[::step][:quota]
    chosen = {json.dumps(p) for p in picked}
    inexact = [p for p in problems if json.dumps(p) not in chosen
               and (exact_ot._line_sum(p[1]) != 1.0
                    or exact_ot._line_sum(p[2]) != 1.0)]
    return picked + inexact[:INEXACT]


def _floats(values):
    return [float.fromhex(v) for v in values]


def load(path=CORPUS):
    entries = json.loads(path.read_text())
    return [(([_floats(row) for row in e["c"]], _floats(e["a"]),
              _floats(e["b"])), e["sha256"]) for e in entries]


CASES = load() if CORPUS.exists() else []
# the corpus, then the shapes file; each file's count is checked by its test
PINNED = CASES + (load(SHAPES) if SHAPES.exists() else [])


def test_corpus_covers_every_size_class():
    classes = [size_class(len(a), len(b)) for (c, a, b), _ in CASES]
    assert len(CASES) == 300
    for name in [*QUOTAS, ">64"]:
        assert classes.count(name) >= 3, name
    assert sum(exact_ot._line_sum(a) != 1.0 or exact_ot._line_sum(b) != 1.0
               for (c, a, b), _ in CASES) >= INEXACT
    assert (18, 14) in [(len(a), len(b)) for (c, a, b), _ in CASES]
    assert CORPUS.stat().st_size < 200_000


@pytest.mark.parametrize("case", range(len(PINNED)))
def test_recorded_solve_is_pinned(case):
    (c, a, b), want = PINNED[case]
    assert solve(c, a, b) == want


def write(problems, path=CORPUS):
    """Write ``problems`` to ``path`` as ``float.hex`` with their digests."""
    entries = []
    for c, a, b in problems:
        entries.append({"c": [[v.hex() for v in row] for row in c],
                        "a": [v.hex() for v in a], "b": [v.hex() for v in b],
                        "sha256": solve(c, a, b)})
    path.write_text("[\n" + ",\n".join(json.dumps(e, separators=(",", ":"))
                                         for e in entries) + "\n]\n")


def redigest(path=CORPUS):
    """Solve the problems pinned in ``path`` again and write them back with
    their new digests."""
    write([problem for problem, _ in load(path)], path)


if __name__ == "__main__":
    redigest()
