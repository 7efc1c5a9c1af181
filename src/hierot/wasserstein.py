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

from . import exact_ot
from .errors import DeskScaleError, InvalidInput, LevelMismatch
from .exact_ot import DualPotentials, TransportPlan, solve_ot, verify_optimality
from .measures import HierMeasure

MAX_LEVEL = 4
DEFAULT_MAX_ATOMS = 32

# Comparing two independently built representations of the same measure hits
# a sqrt(ulp) floor: one ulp of stray weight crossing an O(1) distance costs
# about 1.5e-8 in w2.  Same-plan interpolant comparisons do not suffer this.
TOL_NEAR_ZERO = 5e-8

_w2_cache: dict = {}


def clear_cache() -> None:
    _w2_cache.clear()


def max_atoms_budget() -> int:
    raw = os.environ.get("HIEROT_MAX_ATOMS", "")
    try:
        return int(raw) if raw else DEFAULT_MAX_ATOMS
    except ValueError:
        raise InvalidInput(
            f"HIEROT_MAX_ATOMS must be an integer, got {raw!r}") from None


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
    return _w2_sq(mu, nu)


def _w2_sq(mu: HierMeasure, nu: HierMeasure) -> float:
    if mu.level == 0:
        d = mu.manifold.dist(mu.point, nu.point)
        return d * d
    ka, kb = mu.structural_key(), nu.structural_key()
    key = (ka, kb) if ka <= kb else (kb, ka)
    hit = _w2_cache.get(key)
    if hit is not None:
        return hit
    c = cost_matrix(mu, nu)
    _, _, value = solve_ot(c, np.asarray(mu.weights), np.asarray(nu.weights))
    value = max(value, 0.0)
    _w2_cache[key] = value
    return value


def w2(mu: HierMeasure, nu: HierMeasure) -> float:
    """Hierarchical 2-Wasserstein distance (manifold distance at level 0)."""
    return float(np.sqrt(w2_sq(mu, nu)))


def cost_matrix(mu: HierMeasure, nu: HierMeasure) -> np.ndarray:
    """Pairwise squared distances between the atom lists of ``mu`` and ``nu``."""
    if mu.level != nu.level or mu.level < 1:
        raise LevelMismatch("cost_matrix needs two measures of equal level >= 1")
    if mu.level == 1:
        xs = np.stack([a.point for a in mu.atoms])
        ys = np.stack([a.point for a in nu.atoms])
        return mu.manifold.pairwise_sq_dist(xs, ys)
    m, k = len(mu.atoms), len(nu.atoms)
    c = np.empty((m, k))
    for i, ai in enumerate(mu.atoms):
        for j, bj in enumerate(nu.atoms):
            c[i, j] = _w2_sq(ai, bj)
    return c


@dataclass(frozen=True)
class HierPlan:
    """Optimal plan between two hierarchical measures, certified per level."""

    level: int
    top: TransportPlan
    duals: DualPotentials
    value_sq: float
    children: tuple  # of (i, j, HierPlan); empty at level 1

    @property
    def value(self) -> float:
        return float(np.sqrt(max(self.value_sq, 0.0)))

    def support(self):
        x = self.top.matrix
        return [(i, j, float(x[i, j]))
                for i in range(x.shape[0]) for j in range(x.shape[1])
                if x[i, j] > 0.0]


def opt_hier_plan(mu: HierMeasure, nu: HierMeasure) -> HierPlan:
    """Certified optimal hierarchical plan (level >= 1)."""
    _check_pair(mu, nu)
    if mu.level < 1:
        raise LevelMismatch("opt_hier_plan needs level >= 1")
    return _opt_hier_plan(mu, nu)


def _opt_hier_plan(mu: HierMeasure, nu: HierMeasure) -> HierPlan:
    c = cost_matrix(mu, nu)
    plan, duals, value = solve_ot(c, np.asarray(mu.weights), np.asarray(nu.weights))
    if not verify_optimality(plan, duals, c):
        raise exact_ot.NumericalFailure("solver returned an uncertified plan")
    children = ()
    if mu.level >= 2:
        kids = []
        x = plan.matrix
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                if x[i, j] > 0.0:
                    kids.append((i, j, _opt_hier_plan(mu.atoms[i], nu.atoms[j])))
        children = tuple(kids)
    return HierPlan(level=mu.level, top=plan, duals=duals,
                    value_sq=max(value, 0.0), children=children)


def measures_close(mu: HierMeasure, nu: HierMeasure, tol: float = 1e-8) -> bool:
    """Semantic equality of measures: ``w2`` within ``tol``."""
    return w2(mu, nu) <= tol


def plan_summary(plan: HierPlan) -> dict:
    sup = plan.support()
    return {
        "level": plan.level,
        "value": plan.value,
        "value_sq": plan.value_sq,
        "top_support_size": len(sup),
        "top_support": [[i, j, w] for i, j, w in sup],
    }
