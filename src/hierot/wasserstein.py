"""Recursive hierarchical W2 distances and level-n optimal transport plans.

The distance between level-``n`` measures is the exact OT value for the
cost ``c_ij = w2(atom_i, atom_j)^2`` computed recursively down to the
manifold distance at level 0.  Cost entries are memoized on canonical
structural keys; cache writes are idempotent, so concurrent evaluation of
independent entries is safe.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DeskScaleError, InvalidInput, LevelMismatch,
                     NumericalFailure)
from .exact_ot import _certified, _solve_lists
from .measures import HierMeasure
from .plans import FiberEntry, VelocityPlan

MAX_LEVEL = 4
DEFAULT_MAX_ATOMS = 32
CLOSE_TOL = 1e-8  # measures_close: two measures within this w2 are equal

# Comparing two independently built representations of the same measure hits
# a sqrt(ulp) floor: one ulp of stray weight crossing an O(1) distance costs
# about 1.5e-8 in w2.  Same-plan interpolant comparisons do not suffer this.
TOL_NEAR_ZERO = 5e-8

# fiber entries below this fraction of their atom's weight are dropped from
# velocity plans (degenerate simplex slivers)
FIBER_DROP = 1e-14

_w2_cache: dict = {}


def clear_cache() -> None:
    _w2_cache.clear()


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


def _pair_key(mu: HierMeasure, nu: HierMeasure):
    ka, kb = mu.structural_key(), nu.structural_key()
    return (ka, kb) if ka <= kb else (kb, ka)


def w2_sq(mu: HierMeasure, nu: HierMeasure) -> float:
    _check_pair(mu, nu)
    if mu.level == 0:
        d = mu.manifold.dist(mu.point, nu.point)
        return d * d
    return _memo_sq(mu, nu)


def w2(mu: HierMeasure, nu: HierMeasure) -> float:
    """Hierarchical 2-Wasserstein distance (manifold distance at level 0)."""
    return float(np.sqrt(w2_sq(mu, nu)))


def _solve(mu: HierMeasure, nu: HierMeasure, keep: bool, c=None):
    """``(value_sq, c, x, phi, psi, kids)`` of one exact solve on the cost
    rows ``c`` (``None``: build them), with the plan ``x`` as a list of rows
    and the potentials as lists; with ``keep``, ``kids`` maps each support
    cell to the solve made for its entry here (a cell whose entry came from
    the memo has none)."""
    kids = {} if keep else None
    if c is None:
        c = _cost_rows(mu, nu, kids)
    x, phi, psi, value = _solve_lists(c, list(mu.weights), list(nu.weights))
    if kids:  # only support cells become children; what one call keeps stays small
        kids = {ij: kid for ij, kid in kids.items() if x[ij[0]][ij[1]] > 0.0}
    return max(value, 0.0), c, x, phi, psi, kids


def _memo_sq(mu: HierMeasure, nu: HierMeasure, kids=None, cell=None,
             band=None, span=None) -> float:
    """Squared distance of a level >= 1 pair, memoized; a solve made here
    takes its cost from the leaf-table rows ``band``, columns ``span``, when
    given and is kept as ``kids[cell]`` when ``kids`` is a dict."""
    key = _pair_key(mu, nu)
    value = _w2_cache.get(key)
    if value is None:
        c = None if band is None else [row[span] for row in band]
        solve = _solve(mu, nu, kids is not None, c)
        value = _w2_cache[key] = solve[0]
        if kids is not None:
            kids[cell] = solve
    return value


def cost_matrix(mu: HierMeasure, nu: HierMeasure) -> np.ndarray:
    """Pairwise squared distances between the atom lists of ``mu`` and ``nu``."""
    if mu.level != nu.level or mu.level < 1:
        raise LevelMismatch("cost_matrix needs two measures of equal level >= 1")
    return np.array(_cost_rows(mu, nu))


def _cost_rows(mu: HierMeasure, nu: HierMeasure, kids=None) -> list:
    """:func:`cost_matrix` as a list of rows (``kids``: see ``_solve``).

    At level 2 the leaf distances of the whole pair come from one table, and
    an entry solved here takes its block of it.  The table becomes lists one
    atom's band of rows at a time, never whole.
    """
    if mu.level == 1:
        return mu.manifold.pairwise_sq_dist(mu.point_stack(),
                                            nu.point_stack()).tolist()
    if mu.level > 2:
        return [[_memo_sq(ai, bj, kids, (i, j)) for j, bj in enumerate(nu.atoms)]
                for i, ai in enumerate(mu.atoms)]
    xs, rows = mu.leaf_stack()
    ys, cols = nu.leaf_stack()
    table = mu.manifold.pairwise_sq_dist(xs, ys)
    spans = [slice(lo, hi) for lo, hi in zip(cols, cols[1:])]
    c = []
    for i, ai in enumerate(mu.atoms):
        band = table[rows[i]:rows[i + 1]].tolist()
        c.append([_memo_sq(ai, bj, kids, (i, j), band, span)
                  for j, (bj, span) in enumerate(zip(nu.atoms, spans))])
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
    """Solve ``mu -> nu`` once per level and certify every plan used.

    The top value is memoized as by ``w2_sq``.  A child reuses the solve made
    for its cost entry, kept for this call only; one whose entry came from
    the memo is solved again.
    """
    _check_pair(mu, nu)
    if mu.level == 0:
        return Transport(w2_sq(mu, nu), None, _velocity(mu, nu, None))
    solve = _solve(mu, nu, keep=True)
    value_sq = _w2_cache.setdefault(_pair_key(mu, nu), solve[0])
    return Transport(value_sq, solve[2], _velocity(mu, nu, solve))


def _velocity(mu: HierMeasure, nu: HierMeasure, solve) -> VelocityPlan:
    """The optimal velocity plan of a pair from its solve (``None``: solve
    it now), with the minimizing log at the leaves."""
    if mu.level == 0:
        return VelocityPlan(base=mu, tangent=mu.manifold.log(mu.point, nu.point))
    _, c, x, phi, psi, kids = solve or _solve(mu, nu, keep=True)
    if not _certified(c, mu.weights, nu.weights, x, phi, psi):
        raise NumericalFailure("solver returned an uncertified plan")
    fibers = []
    for i, (w_i, row) in enumerate(zip(mu.weights, x)):
        entries = [(w, j) for j, w in enumerate(row) if w > 0.0]
        kept = [(w, j) for w, j in entries if w >= FIBER_DROP * w_i]
        if len(kept) < len(entries):
            # complement the largest entry so the fiber still carries w_i
            # exactly after dropping degenerate slivers
            top = max(range(len(kept)), key=lambda t: kept[t][0])
            others = 0.0  # in order: the builtin sum compensates from 3.12
            for t, (w, _) in enumerate(kept):
                if t != top:
                    others += w
            kept[top] = (w_i - others, kept[top][1])
        fibers.append(tuple(
            FiberEntry(w, _velocity(mu.atoms[i], nu.atoms[j], kids.get((i, j))))
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
