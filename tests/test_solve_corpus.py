"""Problems recorded from commands, pinned by digest.

The ``recorded`` part of ``tests/solver_golden.json`` holds, as
``float.hex``, 330 distinct ``(c, a, b)`` that ``exact_ot._solve_lists``
solved during commands, each with the digest of its result that
``test_solver_golden.pin`` takes (plan, potentials, value and pivot count),
so a change to any bit of a result, or to the pivot sequence, shows here.
The synthetic problems of ``test_solver_golden.py`` do not have these
shapes.  Each entry names its command (``from``):

- ``check``: 300 of the 5,036 problems of ``hierot check --suite all --seed
  1000 --samples 1``, evenly spaced within every size class the workloads
  feed the core (1xk and mx1, 2x2, up to 16 cells, 17 to 64 cells, and the
  three larger problems, among them the 18x14 one that takes 252 pivots),
  with marginals that sum to exactly 1.0 and marginals that do not;
- ``flow``: 9x5 and 10x5 problems of level-2 ``hierot flow`` runs (seeds
  501-504; 5 clouds of 5 points toward another such measure plus a
  quadratic potential, ``--tau 0.1 --iters 3``), where the pivot loop takes
  most of the command's time;
- ``distance``: 16x16 problems of level-1 ``hierot distance`` between
  measures of 16 uniform atoms (seeds 601-606), on ``euclidean(3)`` and
  ``sphere(3)``; ``test_solve_shapes.py`` checks that every such shape
  is there.

The inputs stay as committed when a result is meant to change; only their
digests are rewritten, by ``test_solver_golden.py``'s one command.
"""

import pytest

from hierot.exact_ot import _line_sum
from test_solver_golden import GOLDEN, RECORDED, pin

# problems of each size class among those from ``check``
QUOTAS = {"1xk": 50, "2x2": 40, "<=16": 110, "17-64": 55}
INEXACT = 42  # problems from ``check`` whose marginals do not sum to 1.0


def size_class(m, k):
    if min(m, k) == 1:
        return "1xk"
    if (m, k) == (2, 2):
        return "2x2"
    return "<=16" if m * k <= 16 else "17-64" if m * k <= 64 else ">64"


def test_corpus_covers_every_size_class():
    check = [p for command, p, _ in RECORDED if command == "check"]
    classes = [size_class(len(a), len(b)) for c, a, b in check]
    assert len(check) == 300
    for name in [*QUOTAS, ">64"]:
        assert classes.count(name) >= 3, name
    assert sum(_line_sum(a) != 1.0 or _line_sum(b) != 1.0
               for c, a, b in check) >= INEXACT
    assert (18, 14) in [(len(a), len(b)) for c, a, b in check]
    assert GOLDEN.stat().st_size < 300_000


@pytest.mark.parametrize("case", range(len(RECORDED)))
def test_recorded_solve_is_pinned(case):
    _, (c, a, b), want = RECORDED[case]
    assert pin(c, a, b) == want
