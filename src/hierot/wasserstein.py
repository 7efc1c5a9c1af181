"""Recursive hierarchical W2 distances and level-n optimal transport plans.

The distance between level-``n`` measures is the exact OT value for the
cost ``c_ij = w2(atom_i, atom_j)^2`` computed recursively down to the
manifold distance at level 0.  Each cost entry is solved where it is
needed, in its own orientation, so no value depends on another call and
nothing outlives the call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DeskScaleError, InvalidInput, LevelMismatch
from .exact_ot import WEIGHT_DROP, _solve_lists
from .measures import HierMeasure
from .plans import FiberEntry, VelocityPlan

MAX_LEVEL = 4
DEFAULT_MAX_ATOMS = 32
CLOSE_TOL = 1e-8  # measures_close: two measures within this w2 are equal

# Comparing two independently built representations of the same measure hits
# a sqrt(ulp) floor: one ulp of stray weight crossing an O(1) distance costs
# about 1.5e-8 in w2.  Same-plan interpolant comparisons do not suffer this.
TOL_NEAR_ZERO = 5e-8


def max_atoms_budget() -> int:
    raw = os.environ.get("HIEROT_MAX_ATOMS", "")
    try:
        limit = int(raw) if raw else DEFAULT_MAX_ATOMS
    except ValueError:
        limit = 0  # not an integer: rejected below with the rest
    if limit < 1:
        raise InvalidInput(
            f"HIEROT_MAX_ATOMS must be a positive integer, got {raw!r}")
    return limit


def _check_budget(mu: HierMeasure) -> None:
    if mu.level > MAX_LEVEL:
        raise DeskScaleError(f"level {mu.level} beyond the supported {MAX_LEVEL}")
    limit = max_atoms_budget()
    if mu.max_atoms() > limit:
        raise DeskScaleError(
            f"{mu.max_atoms()} atoms in a node exceeds the budget {limit} "
            "(override with HIEROT_MAX_ATOMS)")


def _check_pair(mu: HierMeasure, nu: HierMeasure) -> None:
    if mu.level != nu.level or mu.manifold != nu.manifold:
        raise LevelMismatch(
            f"operands at level {mu.level}/{nu.level} on "
            f"{mu.manifold.kind}/{nu.manifold.kind}")
    _check_budget(mu)
    _check_budget(nu)


def w2_sq(mu: HierMeasure, nu: HierMeasure) -> float:
    _check_pair(mu, nu)
    if mu.level == 0:
        d = mu.manifold.dist(mu.point, nu.point)
        return d * d
    return _solve(mu, nu, False)[0]


def w2(mu: HierMeasure, nu: HierMeasure) -> float:
    """Hierarchical 2-Wasserstein distance (manifold distance at level 0)."""
    return float(np.sqrt(w2_sq(mu, nu)))


def _solve(mu: HierMeasure, nu: HierMeasure, keep: bool, c=None):
    """``(value_sq, x, kids)`` of one certified exact solve on the cost rows
    ``c`` (``None``: build them), with the plan ``x`` as a list of rows;
    with ``keep``, ``kids`` maps each support cell of a level >= 2 pair to
    the solve of its cost entry (``None`` without ``keep``)."""
    kids = {} if keep else None
    if c is None:
        c = _cost_rows(mu, nu, kids)
    x, _, _, value = _solve_lists(c, list(mu.weights), list(nu.weights))
    if kids:
        kids = {(i, j): kid for (i, j), kid in kids.items() if x[i][j] > 0.0}
    return max(value, 0.0), x, kids


def cost_matrix(mu: HierMeasure, nu: HierMeasure) -> np.ndarray:
    """Pairwise squared distances between the atom lists of ``mu`` and ``nu``."""
    if mu.level != nu.level or mu.level < 1:
        raise LevelMismatch("cost_matrix needs two measures of equal level >= 1")
    return np.array(_cost_rows(mu, nu))


def _cost_rows(mu: HierMeasure, nu: HierMeasure, kids=None) -> list:
    """:func:`cost_matrix` as a list of rows, each entry solved in its own
    orientation (``kids``: see ``_solve``).

    A level-1 or level-2 pair takes the leaf distances of the whole pair
    from one table over its ``leaf_stack`` rows: level 1 returns it as the
    rows, and each level-2 entry is solved on its block of it, which
    becomes lists one atom's band of rows at a time, never whole.  Above
    level 2 each entry builds its own tables, so none spans more than one
    level-2 pair's leaves.
    """
    if mu.level <= 2:
        xs, rows = mu.leaf_stack()
        ys, cols = nu.leaf_stack()
        table = mu.manifold.pairwise_sq_dist(xs, ys)
        if mu.level == 1:
            return table.tolist()
    c = []
    for i, ai in enumerate(mu.atoms):
        band = table[rows[i]:rows[i + 1]].tolist() if mu.level == 2 else None
        c.append([])
        for j, bj in enumerate(nu.atoms):
            block = (None if band is None
                     else [row[cols[j]:cols[j + 1]] for row in band])
            kid = _solve(ai, bj, kids is not None, block)
            if kids is not None:
                kids[i, j] = kid
            c[i].append(kid[0])
    return c


@dataclass(frozen=True)
class Transport:
    """A pair's squared distance with its certified optimal plans: the top
    transport plan as a list of rows (``None`` at level 0), and the optimal
    velocity plan, whose energy is ``value_sq``."""

    value_sq: float
    top: Optional[list]
    velocity: VelocityPlan


def transport(mu: HierMeasure, nu: HierMeasure) -> Transport:
    """Solve ``mu -> nu`` once per level; the core certifies every plan.

    ``value_sq`` is the value ``w2_sq`` returns.  Each child plan reuses the
    solve made for its cost entry, kept for this call only.
    """
    _check_pair(mu, nu)
    if mu.level == 0:
        return Transport(w2_sq(mu, nu), None, _velocity(mu, nu, None))
    solve = _solve(mu, nu, True)
    return Transport(solve[0], solve[1], _velocity(mu, nu, solve))


def _velocity(mu: HierMeasure, nu: HierMeasure, solve) -> VelocityPlan:
    """The optimal velocity plan of a pair from its solve, made with
    ``keep`` (``None`` at level 0), with the minimizing log at the leaves."""
    if mu.level == 0:
        return VelocityPlan(base=mu, tangent=mu.manifold.log(mu.point, nu.point))
    _, x, kids = solve
    fibers = []
    for i, (w_i, row) in enumerate(zip(mu.weights, x)):
        entries = [(w, j) for j, w in enumerate(row) if w > 0.0]
        # drop the slivers below WEIGHT_DROP, never the first largest entry,
        # and write that one as w_i less the others, one fsum, as the solve
        # core's polish does, so that the fiber's fsum is still w_i
        top = max(entries, key=lambda e: e[0])[1]
        kept = [(w, j) for w, j in entries if w >= WEIGHT_DROP or j == top]
        if len(kept) < len(entries):
            peak = math.fsum([w_i, *(-w for w, j in kept if j != top)])
            kept = [(peak if j == top else w, j) for w, j in kept]
        fibers.append(tuple(
            FiberEntry(w, _velocity(mu.atoms[i], nu.atoms[j],
                                    kids[i, j] if mu.level > 1 else None))
            for w, j in kept))
    return VelocityPlan(base=mu, fibers=tuple(fibers))


def measures_close(mu: HierMeasure, nu: HierMeasure) -> bool:
    """Semantic equality of measures: ``w2`` within ``CLOSE_TOL``."""
    return w2(mu, nu) <= CLOSE_TOL


def plan_summary(result: Transport) -> dict:
    sup = [[i, j, float(w)] for i, row in enumerate(result.top)
           for j, w in enumerate(row) if w > 0.0]
    return {
        "level": result.velocity.level,
        "value": float(np.sqrt(result.value_sq)),
        "value_sq": result.value_sq,
        "top_support_size": len(sup),
        "top_support": sup,
    }
