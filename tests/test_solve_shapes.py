"""The problem shapes of ``hierot flow`` and level-1 ``hierot distance``
among the recorded problems of ``tests/solver_golden.json``.

``test_solve_corpus.py`` describes the recorded problems and pins them by
digest; this file checks that every shape where the pivot loop takes most
of a command's time is there: the 9x5 and 10x5 problems of level-2
``hierot flow`` runs and the 16x16 problems of level-1 ``hierot distance``.
"""

from test_solver_golden import RECORDED

SHAPES = {(9, 5): 16, (10, 5): 8, (16, 16): 6}  # problems from flow, distance


def test_every_shape_is_there():
    shapes = [(len(a), len(b)) for command, (c, a, b), _ in RECORDED
              if command != "check"]
    assert {s: shapes.count(s) for s in set(shapes)} == SHAPES
