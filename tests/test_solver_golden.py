"""``solve_ot`` results pinned bit for bit.

``tests/solver_golden.json`` holds the ``float.hex`` of every plan entry,
dual potential and value, and the pivot count, that ``solve_ot`` returns on
160 seeded problems: 1x2, 1x6, 1x9, 2x1, 7x1, 9x1, 20x1, 2x2, 2x3, 2x4, 4x2,
3x3, 3x4, 4x4, 5x5, 8x8, 16x16, 3x8, 5x9 and 9x5, each with uniform weights,
random weights, repeated points (exact cost ties, uniform weights) and
weights below ``WEIGHT_DROP``; and on hand-made 2x2 problems (``HAND_2X2``)
whose north-west start is optimal, on a tie or not, or needs one pivot.
Lines of 8 entries or more reach numpy's pairwise summation in the polish,
and the 1xk and mx1 shapes take the forced coupling.  ``test_exact_ot.py``
checks values against HiGHS within a tolerance; this file sees every bit
and every pivot, so a change to the solver's arithmetic or its pivot
sequence shows here.  Regenerate only when a result is meant to change::

    PYTHONPATH=src python tests/test_solver_golden.py
"""

import contextlib
import json
from pathlib import Path

import numpy as np
import pytest

from hierot import exact_ot
from hierot.exact_ot import SUM_TOL, _northwest_corner, _tree_duals, solve_ot
from hierot.sampling import rng_from_seed

GOLDEN = Path(__file__).with_name("solver_golden.json")
SHAPES = [(1, 6), (7, 1), (2, 2), (3, 3), (5, 5), (8, 8), (16, 16), (3, 8),
          (9, 1), (1, 9), (20, 1), (5, 9), (9, 5), (2, 3),
          (1, 2), (2, 1), (2, 4), (4, 2), (3, 4), (4, 4)]
KINDS = ("uniform", "random", "ties", "tiny")
REPEATS = 2
# (cost, a, b): the north-west start (0, 0), (1, 0), (1, 1) when a[0] <= b[0],
# else (0, 0), (0, 1), (1, 1); the other cell enters if its reduced cost is
# below -1e-12 * max |c|
HAND_2X2 = {
    # north-west start optimal
    "equal_costs": ([[1.0, 1.0], [1.0, 1.0]], [0.5, 0.5], [0.5, 0.5]),
    "diagonal": ([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5]),
    "zero_reduced_cost": ([[0.0, 1.0], [1.0, 2.0]], [0.3, 0.7], [0.6, 0.4]),
    "reduced_cost_inside_tolerance": ([[0.0, 1.0], [1.0, 2.0 + 1e-13]],
                                      [0.5, 0.5], [0.5, 0.5]),
    "column_first_optimal": ([[0.0, 1.0], [4.0, 0.5]], [0.7, 0.3], [0.4, 0.6]),
    # one pivot
    "anti_diagonal": ([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], [0.5, 0.5]),
    "crossed": ([[3.0, 1.0], [1.0, 3.0]], [0.3, 0.7], [0.6, 0.4]),
    "leaving_tie": ([[2.0, 0.0], [0.0, 2.0]], [0.4, 0.6], [0.6, 0.4]),
    "column_first_pivot": ([[5.0, 0.0], [0.0, 5.0]], [0.7, 0.3], [0.4, 0.6]),
    "reduced_cost_past_tolerance": ([[0.0, 1.0], [1.0, 2.0 + 1e-11]],
                                    [0.5, 0.5], [0.5, 0.5]),
    "negative_costs": ([[-1.0, -2.0], [-3.0, -0.5]], [0.45, 0.55],
                       [0.25, 0.75]),
    "unnormalized": ([[2.0, 0.5], [0.25, 3.0]], [0.3 + 1e-10, 0.7],
                     [0.1, 0.9]),
}


def _points(rng, n, kind):
    if kind == "ties":
        # few distinct grid points, so points repeat and costs tie exactly
        return rng.integers(0, 3, size=(n, 2)).astype(float)
    return rng.random((n, 2)) * 2


def problem(m, k, kind, rep):
    """One seeded problem: squared-distance costs between two point sets,
    or a ``HAND_2X2`` problem for ``kind`` ``"hand"``."""
    if kind == "hand":
        return tuple(np.array(v) for v in HAND_2X2[rep])
    rng = rng_from_seed(7000 + 100 * m + 10 * k + 3 * KINDS.index(kind) + rep)
    x, y = _points(rng, m, kind), _points(rng, k, kind)
    c = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    if kind in ("uniform", "ties"):
        return c, np.full(m, 1.0 / m), np.full(k, 1.0 / k)
    a, b = rng.random(m) + 0.1, rng.random(k) + 0.1
    if kind == "tiny":
        if m > 1:
            a[rng.integers(m)] = 1e-16
        if k > 1:
            b[rng.integers(k)] = 1e-16
    return c, a / a.sum(), b / b.sum()


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


@contextlib.contextmanager
def pivot_counts():
    """The pivot count of every ``_simplex`` call made inside the block, and
    a 0 for every forced 1xk or mx1 solve, which the core answers without
    calling ``_simplex``."""
    counts = []
    simplex, forced = exact_ot._simplex, exact_ot._forced

    def counted(*args):
        out = simplex(*args)
        counts.append(out[3])
        return out

    def counted_forced(*args):
        counts.append(0)
        return forced(*args)

    exact_ot._simplex, exact_ot._forced = counted, counted_forced
    try:
        yield counts
    finally:
        exact_ot._simplex, exact_ot._forced = simplex, forced


def compute(m, k, kind, rep):
    with pivot_counts() as pivots:
        plan, duals, value = solve_ot(*problem(m, k, kind, rep))
    return {"matrix": _hex(plan.matrix), "phi": _hex(duals.phi),
            "psi": _hex(duals.psi), "value": float(value).hex(),
            "pivots": pivots[0]}


CASES = ([(m, k, kind, rep) for m, k in SHAPES for kind in KINDS
          for rep in range(REPEATS)]
         + [(2, 2, "hand", name) for name in HAND_2X2])


def _key(m, k, kind, rep):
    return f"{m}x{k}_{kind}_{rep}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("m,k,kind,rep", CASES, ids=[_key(*c) for c in CASES])
def test_solve_matches_golden(golden, m, k, kind, rep):
    assert compute(m, k, kind, rep) == golden[_key(m, k, kind, rep)]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*c) for c in CASES)


@pytest.mark.parametrize("m,k,kind,rep", CASES, ids=[_key(*c) for c in CASES])
def test_northwest_potentials_are_tree_duals(m, k, kind, rep):
    # the start is a spanning tree and its flows; one _tree_duals walk gives
    # its potentials, each line's the cost of the cell that joins it less
    # the potential of the line it joins, from u_0 = 0
    c, a, b = problem(m, k, kind, rep)
    c, a, b = c.tolist(), a.tolist(), b.tolist()
    cells, flows = _northwest_corner(a, b)
    assert len(cells) == m + k - 1
    assert all(p < q for p, q in zip(cells, cells[1:]))  # distinct, row-major
    u, v, _ = _tree_duals(m, k, cells, c)
    rows, cols = [0.0] * m, [0.0] * k
    for (i, j), flow in zip(cells, flows):
        rows[i] += flow
        cols[j] += flow
    assert all(abs(s - w) <= SUM_TOL for s, w in zip(rows + cols, a + b))
    assert u[0] == 0.0
    for i, j in cells:
        assert v[j] == c[i][j] - u[i] or u[i] == c[i][j] - v[j], (i, j)


def regenerate():
    record = {_key(*c): compute(*c) for c in CASES}
    GOLDEN.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
