"""The solver's path pins, and the tests that reach into its pivot loop.

Everywhere else the solver is held only to what any exact solver must meet:
values against HiGHS and ``permutation_oracle``, ``verify_optimality`` and
the core's certificate, exact line sums, the positive-row rule, and the
same bits from ``solve_ot`` as from the core.  Which optimal vertex, which
potentials and which last bits of the value the transportation simplex
returns, and how many pivots it takes, depend on its path, and are pinned
here and nowhere else.  A change to the pivot loop re-captures one file
and rewrites or deletes the pivot-loop tests of this module.

``tests/solver_golden.json`` holds, for every pinned problem, the SHA-256 of
the plan, the potentials and the value that ``exact_ot._solve_lists``
returns, each as ``float.hex``, and of its pivot count (0 for a forced 1xk
or mx1 problem):

- ``seeded``: the 160 problems of ``CASES`` (20 shapes from 1x2 to 16x16,
  among them the forced 1xk and mx1 ones and lines of 8 entries or more,
  which reach numpy's pairwise summation in the polish; each with uniform
  weights, random weights, repeated points that tie costs exactly, and
  weights below ``WEIGHT_DROP``), the hand-made 2x2 problems of
  ``HAND_2X2``, whose north-west start is optimal, on a tie or not, or
  needs one pivot, and the 39 problems of ``test_exact_ot.highs_cases``;
- ``recorded``: 330 problems recorded from commands, stored with their
  inputs as ``float.hex``, which ``test_solve_corpus.py`` describes.

Re-digest every pinned problem on its committed inputs only when a result
is meant to change::

    PYTHONPATH=src python tests/test_solver_golden.py
"""

import collections
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from hierot import exact_ot
from hierot.exact_ot import (SUM_TOL, DualPotentials, TransportPlan, _cycle,
                             _northwest_corner, _simplex, _tree_duals,
                             verify_optimality)
from hierot.sampling import rng_from_seed
from test_exact_ot import highs_cases

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


CASES = ([(m, k, kind, rep) for m, k in SHAPES for kind in KINDS
          for rep in range(REPEATS)]
         + [(2, 2, "hand", name) for name in HAND_2X2])


def _key(m, k, kind, rep):
    return f"{m}x{k}_{kind}_{rep}"


def pin(c, a, b):
    """SHA-256 of the core's plan, potentials and value on the lists
    ``(c, a, b)``, as ``float.hex``, and of its pivot count."""
    pivots = []
    simplex, forced = exact_ot._simplex, exact_ot._forced

    def counted(*args):
        out = simplex(*args)
        pivots.append(out[3])
        return out

    def counted_forced(*args):
        pivots.append(0)
        return forced(*args)

    exact_ot._simplex, exact_ot._forced = counted, counted_forced
    try:
        x, phi, psi, value = exact_ot._solve_lists(c, a, b)
    finally:
        exact_ot._simplex, exact_ot._forced = simplex, forced
    record = [[[v.hex() for v in row] for row in x], [v.hex() for v in phi],
              [v.hex() for v in psi], value.hex(), pivots]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def _lists(*arrays):
    return tuple(v.tolist() for v in arrays)


SEEDED = {_key(*case): _lists(*problem(*case)) for case in CASES}
SEEDED.update((f"highs_{m}x{k}_{kind}", _lists(c, a, b))
              for (m, k, kind), c, a, b in highs_cases())
PINS = json.loads(GOLDEN.read_text())


def _floats(values):
    return [float.fromhex(v) for v in values]


# (command, (c, a, b), digest) of every recorded problem, in file order
RECORDED = [(e["from"], ([_floats(row) for row in e["c"]], _floats(e["a"]),
                         _floats(e["b"])), e["sha256"])
            for e in PINS["recorded"]]


def write(pins):
    """Write ``pins`` to the golden file, one problem to a line."""
    seeded = ",\n".join(f"{json.dumps(name)}:{json.dumps(digest)}"
                        for name, digest in sorted(pins["seeded"].items()))
    recorded = ",\n".join(json.dumps(e, separators=(",", ":"))
                          for e in pins["recorded"])
    GOLDEN.write_text('{"seeded":{\n' + seeded + '\n},\n"recorded":[\n'
                      + recorded + "\n]}\n")


def _named(pins):
    """Every digest of ``pins`` by name: a seeded problem's own, and
    ``recorded[i] (command)`` for the recorded ones."""
    return {**pins["seeded"], **{f"recorded[{i}] ({e['from']})": e["sha256"]
                                 for i, e in enumerate(pins["recorded"])}}


def redigest():
    """Solve every pinned problem again and rewrite only its digest; print
    each pin that moves (its name and the first 12 hex digits of its digest,
    old -> new) and their count."""
    pins = {"seeded": {name: pin(*p) for name, p in SEEDED.items()},
            "recorded": [{**e, "sha256": pin(*p)}
                         for e, (_, p, _) in zip(PINS["recorded"], RECORDED)]}
    old, new = _named(PINS), _named(pins)
    moved = [name for name in new if old.get(name) != new[name]]
    for name in moved:
        print(f"{name}: {old.get(name, 'none')[:12]} -> {new[name][:12]}")
    print(f"{len(moved)} of {len(new)} pins moved")
    write(pins)


@pytest.mark.parametrize("name", SEEDED)
def test_solve_matches_golden(name):
    assert pin(*SEEDED[name]) == PINS["seeded"][name]


def test_golden_covers_every_case():
    assert sorted(PINS["seeded"]) == sorted(SEEDED)


# -- the pivot loop ------------------------------------------------------------

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


def test_two_by_two_pivot_loop_is_optimal_in_one_pivot():
    # random costs, tied costs, degenerate marginals (a == b) and reduced
    # costs on both sides of the tolerance: from the north-west start the
    # loop makes at most one pivot, and its plan and potentials certify
    rng = rng_from_seed(71)
    pivots = []
    for trial in range(4000):
        kind = trial % 4
        if kind == 0:
            c = rng.standard_normal((2, 2)) * 10.0 ** rng.integers(-3, 4)
        elif kind == 1:
            c = rng.integers(0, 3, size=(2, 2)).astype(float)
        elif kind == 2:
            c = rng.random((2, 2))
        else:
            eps = float(rng.choice([1e-13, 2.9e-12, 3.1e-12, 1e-11]))
            c = np.array([[0.0, 1.0], [1.0, 2.0 + float(rng.choice([-1, 1])) * eps]])
        a = rng.random(2) + 0.05
        b = a.copy() if kind == 2 else rng.random(2) + 0.05
        if kind == 1 and trial % 8 == 1:
            a, b = np.full(2, 0.5), np.full(2, 0.5)
        a, b = a / a.sum(), b / b.sum()
        x, u, v, it, _ = _simplex(c.tolist(), a.tolist(), b.tolist(),
                                  float(np.abs(c).max()))
        assert it <= 1, (c, a, b)
        plan = TransportPlan(matrix=np.array(x), row_marginal=a, col_marginal=b)
        duals = DualPotentials(phi=np.array(u), psi=np.array(v))
        assert verify_optimality(plan, duals, c), (c, a, b)
        pivots.append(it)
    assert 0 < sum(pivots) < len(pivots)


def _random_tree(rng, m, k):
    """A random spanning tree of the complete bipartite graph on rows
    ``0..m-1`` and columns ``m..m+k-1``, as basis cells: the first-entry
    edges of a random walk (Aldous-Broder)."""
    node = int(rng.integers(m + k))
    seen, cells = {node}, []
    while len(seen) < m + k:
        nxt = m + int(rng.integers(k)) if node < m else int(rng.integers(m))
        if nxt not in seen:
            seen.add(nxt)
            cells.append((node, nxt - m) if node < m else (nxt, node - m))
        node = nxt
    return cells


def _bfs_parents(m, cells, start):
    """Each node's predecessor on a breadth-first search from ``start``."""
    adj = collections.defaultdict(list)
    for i, j in cells:
        adj[i].append(m + j)
        adj[m + j].append(i)
    came, queue = {start: None}, collections.deque([start])
    while queue:
        node = queue.popleft()
        for nbr in adj[node]:
            if nbr not in came:
                came[nbr] = node
                queue.append(nbr)
    return came


def _chain(came, node):
    """``node`` and its predecessors up to the start of the search."""
    nodes = [node]
    while came[nodes[-1]] is not None:
        nodes.append(came[nodes[-1]])
    return nodes


def test_tree_duals_follow_each_nodes_path_from_row_zero():
    # potentials, parents, cells and depths are those of each node's one
    # path from row 0, as a breadth-first search finds it, bit for bit and
    # whatever the order of the basis cells
    rng = rng_from_seed(89)
    for m, k in itertools.product(range(1, 10), repeat=2):
        cells = _random_tree(rng, m, k)
        c = rng.random((m, k)).tolist()
        came = _bfs_parents(m, cells, 0)
        n = m + k
        u, parent, via, depth = [0.0] * n, [None] * n, [None] * n, [0] * n
        for node in range(1, n):
            path = _chain(came, node)[::-1]
            for p, q in zip(path, path[1:]):
                cell = (p, q - m) if p < m else (q, p - m)
                u[node] = c[cell[0]][cell[1]] - u[node]
            parent[node], via[node], depth[node] = path[-2], cell, len(path) - 1
        for _ in range(3):
            order = [cells[t] for t in rng.permutation(len(cells))]
            assert _tree_duals(m, k, order, c) == (u[:m], u[m:], (parent, via, depth))


def test_cycle_is_the_tree_path_closed_by_the_entering_cell():
    # every cell outside a random spanning tree enters; its cycle must be
    # the cell, then the tree path from its row to its column, each step's
    # cell in order, as a breadth-first search from the row finds it
    rng = rng_from_seed(83)
    seen = collections.Counter()
    for m, k in itertools.product(range(2, 17), repeat=2):
        for _ in range(2):
            cells = _random_tree(rng, m, k)
            c = rng.random((m, k)).tolist()
            tree = _tree_duals(m, k, cells, c)[2]
            from_root = _bfs_parents(m, cells, 0)
            for i0 in range(m):
                came = _bfs_parents(m, cells, i0)
                for j0 in range(k):
                    if (i0, j0) in cells:
                        continue
                    nodes = _chain(came, m + j0)[::-1]
                    want = [(i0, j0)] + [
                        (p, q - m) if p < m else (q, p - m)
                        for p, q in zip(nodes, nodes[1:])]
                    assert _cycle(m, tree, (i0, j0)) == want, (m, k, i0, j0)
                    # where the chains from the root meet
                    row_up = _chain(from_root, i0)
                    col_up = _chain(from_root, m + j0)
                    meet = next(n for n in row_up if n in col_up)
                    seen["row 0"] += i0 == 0
                    seen["meet at the root"] += meet == 0 != i0
                    seen["row above column"] += meet == i0
                    seen["column above row"] += meet == m + j0
                    seen["cells"] += 1
    assert min(seen.values()) >= 100, seen


if __name__ == "__main__":
    redigest()
