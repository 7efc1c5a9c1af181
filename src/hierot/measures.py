"""Recursive discrete measures over a manifold.

A ``HierMeasure`` of level 0 is a single manifold point; a measure of level
``n >= 1`` is a weighted list of level ``n-1`` measures.  Values are
immutable, so every operation here is pure and thread-safe.

Representations are not unique (the same measure can be written with
duplicated or differently ordered atoms); semantic equality is decided by
Wasserstein distance, while :func:`canonicalize` provides a normal form for
structural comparisons in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInput, InvalidPoint, LevelMismatch, NonUnitMass
from .exact_ot import MASS_TOL
from .manifolds import Manifold

DEDUP_TOL = 1e-10


def check_weights(weights) -> None:
    """The node-weight rule of ``mixture``, ``validate`` and the document
    reader: every weight finite (``InvalidInput`` otherwise) and positive,
    and their exact sum within ``MASS_TOL`` of one (``NonUnitMass``)."""
    if not all(map(math.isfinite, weights)):
        raise InvalidInput(f"weights must be finite, got {weights}")
    if not all(w > 0.0 for w in weights):
        raise NonUnitMass(f"weights must be strictly positive, got {weights}")
    try:
        total = math.fsum(weights)
    except OverflowError:  # finite weights whose exact sum overflows
        total = math.inf
    if abs(total - 1.0) > MASS_TOL:
        raise NonUnitMass(f"weights sum to {total}")


@dataclass(frozen=True, eq=False)
class HierMeasure:
    """Level-0 point or weighted mixture of level ``n-1`` measures."""

    manifold: Manifold
    level: int
    point: Optional[np.ndarray] = None
    weights: Optional[tuple] = None
    atoms: Optional[tuple] = None

    def __post_init__(self):
        if self.level == 0:
            if self.point is None or self.weights is not None:
                raise InvalidInput("level-0 measure must hold exactly a point")
        else:
            if self.point is not None or not self.atoms:
                raise InvalidInput("level >= 1 measure must hold a non-empty atom list")
            if self.weights is None or len(self.weights) != len(self.atoms):
                raise InvalidInput("weights and atoms must have equal length")

    def structural_key(self):
        """Hashable nested tuple identifying this exact representation."""
        cached = getattr(self, "_key", None)
        if cached is None:
            if self.level == 0:
                cached = (self.manifold.kind, self.manifold.ambient_dim,
                          tuple(float(c) for c in self.point))
            else:
                cached = (self.level,
                          tuple((float(w), a.structural_key())
                                for w, a in zip(self.weights, self.atoms)))
            object.__setattr__(self, "_key", cached)
        return cached

    def leaf_stack(self):
        """The leaf points of a level >= 1 measure as the rows of one
        read-only array, atom after atom, and the row offsets of the atoms
        (atom ``i`` holds rows ``offsets[i]:offsets[i + 1]``; at level 1 one
        row each, its point); stacked once and cached."""
        cached = getattr(self, "_leaves", None)
        if cached is None:
            points, offsets = [], [0]
            for a in self.atoms:
                points.extend(p for _, p in _leaf_rows(a, 1.0))
                offsets.append(len(points))
            stack = np.stack(points)
            stack.flags.writeable = False
            cached = (stack, tuple(offsets))
            object.__setattr__(self, "_leaves", cached)
        return cached


def dirac(manifold: Manifold, point) -> HierMeasure:
    """Level-0 measure: a bare manifold point."""
    return HierMeasure(manifold, 0, point=manifold.check_point(point))


def mixture(weights, atoms) -> HierMeasure:
    """One level above ``atoms``: checks shared manifold/level and unit mass."""
    atoms = tuple(atoms)
    if not atoms:
        raise InvalidInput("empty atom list")
    weights = tuple(float(w) for w in weights)
    lvl = atoms[0].level
    man = atoms[0].manifold
    for a in atoms:
        if a.level != lvl or a.manifold != man:
            raise LevelMismatch("atoms must share manifold and level")
    check_weights(weights)
    return HierMeasure(man, lvl + 1, weights=weights, atoms=atoms)


def dirac_lift(manifold: Manifold, point, n: int) -> HierMeasure:
    """``n`` nested single-atom measures of weight one over ``point``."""
    mu = dirac(manifold, point)
    for _ in range(n):
        mu = HierMeasure(manifold, mu.level + 1, weights=(1.0,), atoms=(mu,))
    return mu


@dataclass(frozen=True)
class ValidationIssue:
    code: str       # NonUnitMass | LevelMismatch | InvalidPoint | InvalidInput
    path: str
    message: str


def validate(mu: HierMeasure) -> Optional[ValidationIssue]:
    """Recursively check invariants; return the first violation or ``None``."""
    return _validate(mu, mu.level, "root")


def _validate(mu, expected_level, path):
    if mu.level != expected_level:
        return ValidationIssue(
            "LevelMismatch", path,
            f"expected level {expected_level}, found {mu.level}")
    if mu.level == 0:
        try:
            mu.manifold.check_point(mu.point)
        except (InvalidPoint, InvalidInput) as exc:
            return ValidationIssue("InvalidPoint", path, str(exc))
        return None
    try:
        check_weights(mu.weights)
    except (InvalidInput, NonUnitMass) as exc:
        return ValidationIssue(type(exc).__name__, path, str(exc))
    for i, atom in enumerate(mu.atoms):
        if atom.manifold != mu.manifold:
            return ValidationIssue("LevelMismatch", f"{path}.atom[{i}]",
                                   "atom on a different manifold")
        issue = _validate(atom, mu.level - 1, f"{path}.atom[{i}]")
        if issue is not None:
            return issue
    return None


def push_leaf(mu: HierMeasure, f: Callable[[np.ndarray], np.ndarray]) -> HierMeasure:
    """Apply a point map at level 0, preserving weights and tree shape."""
    if mu.level == 0:
        return dirac(mu.manifold, f(mu.point))
    return HierMeasure(mu.manifold, mu.level, weights=mu.weights,
                       atoms=tuple(push_leaf(a, f) for a in mu.atoms))


def _leaf_rows(mu: HierMeasure, prefix: float):
    """Depth-first (weight, leaf) pairs with product weights."""
    if mu.level == 0:
        yield prefix, mu.point
        return
    for w, a in zip(mu.weights, mu.atoms):
        yield from _leaf_rows(a, prefix * w)


def collapse(mu: HierMeasure) -> HierMeasure:
    """Flatten to the level-1 measure with product weights.

    Coincident leaves are kept separate; use :func:`canonicalize` to merge.
    """
    if mu.level < 1:
        raise LevelMismatch("collapse needs level >= 1")
    if mu.level == 1:
        return mu
    rows = list(_leaf_rows(mu, 1.0))
    return HierMeasure(
        mu.manifold, 1,
        weights=tuple(w for w, _ in rows),
        atoms=tuple(HierMeasure(mu.manifold, 0, point=p) for _, p in rows))


def n_expectancy(mu: HierMeasure, f: Callable[[np.ndarray], float]) -> float:
    """Multi-level expectation of a leaf function.

    Evaluates the recursion ``E(P) = sum_i w_i E(atom_i)`` with plain
    left-to-right accumulation so that results are reproducible bit for bit.
    """
    if mu.level == 0:
        return float(f(mu.point))
    total = 0.0
    for w, a in zip(mu.weights, mu.atoms):
        total += w * n_expectancy(a, f)
    return total


@dataclass(frozen=True)
class BaseSupport:
    points: tuple  # of ndarray


def base_support(mu: HierMeasure) -> BaseSupport:
    """Deduplicated set of manifold points ultimately charged by ``mu``:
    points within ``DEDUP_TOL`` of each other count once."""
    pts = []
    for _, p in _leaf_rows(mu, 1.0):
        if not any(mu.manifold.dist(p, q) <= DEDUP_TOL for q in pts):
            pts.append(p)
    return BaseSupport(points=tuple(pts))


@dataclass(frozen=True)
class UnrolledRow:
    weight: float
    path: tuple     # measures of levels n-1, ..., 1 (empty when n == 1)
    leaf: np.ndarray


@dataclass(frozen=True)
class UnrolledMeasure:
    rows: tuple


def unroll(mu: HierMeasure) -> UnrolledMeasure:
    """All root-to-leaf paths with product weights."""
    if mu.level < 1:
        raise LevelMismatch("unroll needs level >= 1")
    rows = []

    def walk(nu, weight, path):
        if nu.level == 0:
            rows.append(UnrolledRow(weight, tuple(path), nu.point))
            return
        for w, a in zip(nu.weights, nu.atoms):
            if a.level >= 1:
                path.append(a)
            walk(a, weight * w, path)
            if a.level >= 1:
                path.pop()

    walk(mu, 1.0, [])
    return UnrolledMeasure(rows=tuple(rows))


def eval_unrolled(mu: HierMeasure, f) -> float:
    """Expectation computed by regrouping unrolled rows per subtree.

    Independent evaluation path used to cross-check :func:`n_expectancy`;
    the grouping reproduces the recursion's exact floating-point order.
    """
    rows = unroll(mu).rows if mu.level >= 1 else None
    if rows is None:
        return float(f(mu.point))

    def group(items, depth, node_weights):
        # items: list of (row, local_weight_product_below_this_node)
        if depth == 0:
            assert len(items) == 1
            return float(f(items[0].leaf))
        total = 0.0
        i = 0
        for w in node_weights:
            # contiguous block sharing the next branch
            block, i = _take_block(items, i, depth)
            sub_weights = block[0].path[-depth + 1].weights if depth > 1 else None
            total += w * group(block, depth - 1, sub_weights)
        return total

    def _take_block(items, start, depth):
        # rows are in depth-first order: the block for one branch at this
        # depth is a run of len = product of child counts
        first = items[start]
        if depth == 1:
            return [first], start + 1
        node = first.path[-depth + 1]
        count = _leaf_count(node)
        return items[start:start + count], start + count

    def _leaf_count(nu):
        if nu.level == 0:
            return 1
        return sum(_leaf_count(a) for a in nu.atoms)

    return group(list(rows), mu.level, mu.weights)


def w2_to_dirac(mu: HierMeasure, o) -> float:
    """Hierarchical ``W2`` distance from ``mu`` to the Dirac lift of ``o``."""
    o = mu.manifold.check_point(o)
    m = mu.manifold
    val = n_expectancy(mu, lambda x: m.dist(x, o) ** 2)
    return float(np.sqrt(max(val, 0.0)))


def canonicalize(mu: HierMeasure) -> HierMeasure:
    """Normal form for equality testing: dedupe, sort, merge weights.

    Only used for comparisons; computational code never merges atoms
    because fiberwise plan alignment relies on the original atom indices.
    """
    if mu.level == 0:
        return mu
    canon_atoms = [canonicalize(a) for a in mu.atoms]
    merged = {}
    order = []
    for w, a in zip(mu.weights, canon_atoms):
        key = _rounded_key(a)
        if key in merged:
            merged[key] = (merged[key][0] + w, merged[key][1])
        else:
            merged[key] = (w, a)
            order.append(key)
    keys = sorted(order)
    weights = tuple(merged[k][0] for k in keys)
    atoms = tuple(merged[k][1] for k in keys)
    return HierMeasure(mu.manifold, mu.level, weights=weights, atoms=atoms)


def _rounded_key(mu: HierMeasure):
    if mu.level == 0:
        return (0, tuple(round(float(c), 10) for c in mu.point))
    return (mu.level, tuple((round(float(w), 10), _rounded_key(a))
                            for w, a in zip(mu.weights, mu.atoms)))
