"""Velocity plans, couplings, and the fixed-base distance/inner product.

A velocity plan is stored fiberwise over its base measure: at level 0 it is
a single tangent vector at the base point, and at level ``n >= 1`` every
base atom ``i`` carries a non-empty fiber of weighted sub-plans whose
weights sum to the atom's weight.  This representation makes the base
projection of the plan equal to the base by construction.

Fully deterministic plans are exactly the plans with singleton fibers at
every level; they form a vector space with an L2 isometry onto tangent
fields, and a plan with a fully deterministic side has a unique coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (BaseMismatch, CouplingMismatch, InvalidInput,
                     UnbalancedMarginals)
from .exact_ot import _solve_lists
from .manifolds import Manifold, euclidean
from .measures import HierMeasure, dirac


@dataclass(frozen=True, eq=False)
class VelocityPlan:
    base: HierMeasure
    tangent: Optional[np.ndarray] = None
    fibers: Optional[tuple] = None  # one tuple of FiberEntry per base atom

    def __post_init__(self):
        if self.base.level == 0:
            if self.tangent is None or self.fibers is not None:
                raise InvalidInput("level-0 plan must hold exactly a tangent")
        else:
            if self.fibers is None or len(self.fibers) != len(self.base.atoms):
                raise InvalidInput("fibers must align with the base atoms")

    def __hash__(self):
        return id(self)

    @property
    def level(self) -> int:
        return self.base.level

    @property
    def manifold(self) -> Manifold:
        return self.base.manifold


@dataclass(frozen=True)
class FiberEntry:
    weight: float
    plan: VelocityPlan


@dataclass(frozen=True, eq=False)
class Coupling:
    """Fiberwise pairing of two plans over a shared base.

    At level 0 the payload is a tangent pair; above, every base atom
    carries entries ``(weight, left fiber index, right fiber index, child)``.
    """

    base: HierMeasure
    v1: Optional[np.ndarray] = None
    v2: Optional[np.ndarray] = None
    entries: Optional[tuple] = None  # one tuple of CouplingEntry per base atom

    def __hash__(self):
        return id(self)

    @property
    def level(self) -> int:
        return self.base.level


@dataclass(frozen=True)
class CouplingEntry:
    weight: float
    left: int
    right: int
    child: Coupling


# ---------------------------------------------------------------------------
# construction and validation


def zero_plan(mu: HierMeasure) -> VelocityPlan:
    """The zero tangent plan; fully deterministic with singleton fibers."""
    return fd_from_field(mu, lambda x: np.zeros(mu.manifold.ambient_dim))


def fd_from_field(mu: HierMeasure, f: Callable, *, with_path: bool = False) -> VelocityPlan:
    """Fully deterministic plan carrying ``f(leaf)`` at every leaf.

    With ``with_path=True`` the field also receives the tuple of atom
    indices from the root, so path-dependent fields are expressible.
    """
    man = mu.manifold

    def build(node, path):
        if node.level == 0:
            vec = f(node.point, path) if with_path else f(node.point)
            vec = man.check_tangent(node.point, np.asarray(vec, dtype=float))
            return VelocityPlan(base=node, tangent=vec)
        fibers = tuple((FiberEntry(w, build(a, path + (i,))),)
                       for i, (w, a) in enumerate(zip(node.weights, node.atoms)))
        return VelocityPlan(base=node, fibers=fibers)

    return build(mu, ())


def validate_plan(gamma: VelocityPlan, weight_tol: float = 1e-10) -> None:
    """Check fiber alignment, weight bookkeeping, and leaf tangency."""
    base = gamma.base
    if base.level == 0:
        base.manifold.check_tangent(base.point, gamma.tangent)
        return
    for i, (w, atom) in enumerate(zip(base.weights, base.atoms)):
        fiber = gamma.fibers[i]
        if not fiber:
            raise InvalidInput(f"empty fiber at atom {i}")
        if not all(e.weight > 0.0 for e in fiber):
            raise InvalidInput(f"fiber weights at atom {i} must be positive")
        total = sum(e.weight for e in fiber)
        if abs(total - w) > weight_tol:
            raise InvalidInput(
                f"fiber weights at atom {i} sum to {total}, expected {w}")
        for e in fiber:
            if e.plan.base.structural_key() != atom.structural_key():
                raise BaseMismatch(f"fiber plan at atom {i} has a foreign base")
            validate_plan(e.plan, weight_tol)


def is_fully_deterministic(gamma: VelocityPlan) -> bool:
    if gamma.level == 0:
        return True
    return all(len(fiber) == 1 and is_fully_deterministic(fiber[0].plan)
               for fiber in gamma.fibers)


def _check_same_base(g1: VelocityPlan, g2: VelocityPlan) -> None:
    if g1.base is g2.base:
        return
    if g1.base.structural_key() != g2.base.structural_key():
        raise BaseMismatch("plans do not share a base measure")


# ---------------------------------------------------------------------------
# pseudo-norm, scaling, exponential pushforward


def plan_norm_sq(gamma: VelocityPlan) -> float:
    if gamma.level == 0:
        return float(np.dot(gamma.tangent, gamma.tangent))
    total = 0.0
    for fiber in gamma.fibers:
        for e in fiber:
            total += e.weight * plan_norm_sq(e.plan)
    return total


def plan_norm(gamma: VelocityPlan) -> float:
    return float(np.sqrt(max(plan_norm_sq(gamma), 0.0)))


def scale(tau: float, gamma: VelocityPlan) -> VelocityPlan:
    """Leafwise scaling; the base is unchanged."""
    if gamma.level == 0:
        return VelocityPlan(base=gamma.base, tangent=tau * gamma.tangent)
    fibers = tuple(tuple(FiberEntry(e.weight, scale(tau, e.plan)) for e in fiber)
                   for fiber in gamma.fibers)
    return VelocityPlan(base=gamma.base, fibers=fibers)


def exp_push(gamma: VelocityPlan) -> HierMeasure:
    """The measure reached by shooting every leaf along its tangent."""
    return _push_leaves(gamma, gamma.manifold, gamma.manifold.exp)


def _push_leaves(gamma, man, f):
    """Measure on ``man`` with every leaf ``(x, v)`` mapped to ``f(x, v)``."""
    if gamma.level == 0:
        return dirac(man, f(gamma.base.point, gamma.tangent))
    weights = []
    atoms = []
    for fiber in gamma.fibers:
        for e in fiber:
            weights.append(e.weight)
            atoms.append(_push_leaves(e.plan, man, f))
    return HierMeasure(man, gamma.level, weights=tuple(weights), atoms=tuple(atoms))


# ---------------------------------------------------------------------------
# couplings


def generic_coupling(g1: VelocityPlan, g2: VelocityPlan) -> Coupling:
    """Fiberwise independent product; the unique coupling when either side
    is fully deterministic."""
    _check_same_base(g1, g2)
    return _generic(g1, g2)


def _product_weight(w1: float, w2: float, w: float) -> float:
    # a singleton fiber carries the whole atom mass: keep the other side's
    # weight bitwise so unique couplings reproduce their marginal exactly
    if w1 == w:
        return w2
    if w2 == w:
        return w1
    return w1 * w2 / w


def _generic(g1, g2):
    base = g1.base
    if base.level == 0:
        return Coupling(base=base, v1=g1.tangent, v2=g2.tangent)
    per_atom = []
    for w, f1, f2 in zip(base.weights, g1.fibers, g2.fibers):
        entries = tuple(
            CouplingEntry(_product_weight(e1.weight, e2.weight, w), k, l,
                          _generic(e1.plan, e2.plan))
            for k, e1 in enumerate(f1) for l, e2 in enumerate(f2))
        per_atom.append(entries)
    return Coupling(base=base, entries=tuple(per_atom))


def optimal_coupling(g1: VelocityPlan, g2: VelocityPlan):
    """Coupling minimizing the expected squared tangent difference.

    Returns ``(coupling, w_mu)`` where ``w_mu**2`` is the attained minimum.
    Every fiber pair is solved exactly; children are optimal recursively.
    """
    _check_same_base(g1, g2)
    alpha, cost = _couple(g1, g2)
    return alpha, float(np.sqrt(max(cost, 0.0)))


def coupling_with_costs(g1: VelocityPlan, g2: VelocityPlan, cost_fn) -> Coupling:
    """Coupling whose per-fiber plan minimizes an arbitrary cost.

    ``cost_fn(n1, n2)`` must return an ``(n1, n2)`` cost matrix; used to
    build randomized witness couplings.
    """
    _check_same_base(g1, g2)
    return _couple(g1, g2, cost_fn)[0]


def _couple(g1, g2, cost_fn=None):
    """``(coupling, attained cost)``, each fiber pair solved once over
    ``cost_fn(n1, n2)`` or, by default, the children's optimal energies."""
    base = g1.base
    if base.level == 0:
        diff = g1.tangent - g2.tangent
        return Coupling(base=base, v1=g1.tangent, v2=g2.tangent), float(np.dot(diff, diff))
    per_atom = []
    total = 0.0
    for w, f1, f2 in zip(base.weights, g1.fibers, g2.fibers):
        if cost_fn is None:
            kids = [[_couple(e1.plan, e2.plan) for e2 in f2] for e1 in f1]
            cost = [[energy for _, energy in row] for row in kids]
        else:
            kids = None
            cost = _cost_fn_rows(cost_fn, len(f1), len(f2))
        x, _, _, val = _solve_lists(cost, [e.weight / w for e in f1],
                                    [e.weight / w for e in f2])
        # a cost_fn's children are built on support cells only, in row-major
        # order, so cost_fn is called once per fiber pair the coupling uses
        entries = tuple(
            CouplingEntry(w * flow, k, l,
                          kids[k][l][0] if kids is not None
                          else _couple(f1[k].plan, f2[l].plan, cost_fn)[0])
            for k, row in enumerate(x) for l, flow in enumerate(row) if flow > 0.0)
        per_atom.append(entries)
        total += w * val
    return Coupling(base=base, entries=tuple(per_atom)), total


def _cost_fn_rows(cost_fn, n1, n2):
    """``cost_fn(n1, n2)`` as a list of rows, with ``solve_ot``'s errors for
    a cost that is not a matrix of that shape."""
    cost = np.asarray(cost_fn(n1, n2), dtype=float)
    if cost.ndim != 2:
        raise InvalidInput(
            f"cost matrix must be 2-D, got {cost.ndim} dimension(s)")
    if cost.shape != (n1, n2):
        raise UnbalancedMarginals("marginal shapes do not match the cost matrix")
    return cost.tolist()


def validate_coupling(alpha: Coupling, g1: VelocityPlan, g2: VelocityPlan,
                      weight_tol: float = 1e-9) -> None:
    """Check that ``alpha`` has marginal plans ``g1`` and ``g2``."""
    if alpha.base.structural_key() != g1.base.structural_key():
        raise CouplingMismatch("coupling base differs from the plans' base")
    _check_same_base(g1, g2)
    _validate_coupling(alpha, g1, g2, weight_tol)


def _allclose(x, y, atol):
    """``np.allclose(x, y, atol=atol)`` for two leaf vectors, in floats.

    Each ``|x_i - y_i| <= atol + 1e-5 * |y_i|`` (numpy's default ``rtol``)
    with ``y_i`` finite, or ``x_i == y_i``: NaN is never close and equal
    infinities are.  Vectors of unequal length are never close.
    """
    xs, ys = np.ravel(x).tolist(), np.ravel(y).tolist()
    if len(xs) != len(ys):
        return False
    for xi, yi in zip(xs, ys):
        if not (xi == yi or (abs(xi - yi) <= atol + 1e-5 * abs(yi)
                             and math.isfinite(yi))):
            return False
    return True


def _validate_coupling(alpha, g1, g2, tol):
    base = alpha.base
    if base.level == 0:
        if not (_allclose(alpha.v1, g1.tangent, tol)
                and _allclose(alpha.v2, g2.tangent, tol)):
            raise CouplingMismatch("leaf tangents do not match the marginals")
        return
    for i, (f1, f2) in enumerate(zip(g1.fibers, g2.fibers)):
        entries = alpha.entries[i]
        left_mass = [0.0] * len(f1)
        right_mass = [0.0] * len(f2)
        for e in entries:
            if not (0 <= e.left < len(f1) and 0 <= e.right < len(f2)):
                raise CouplingMismatch(f"fiber index out of range at atom {i}")
            left_mass[e.left] += e.weight
            right_mass[e.right] += e.weight
            _validate_coupling(e.child, f1[e.left].plan, f2[e.right].plan, tol)
        for k, e1 in enumerate(f1):
            if abs(left_mass[k] - e1.weight) > tol:
                raise CouplingMismatch(
                    f"left marginal off by {left_mass[k] - e1.weight} at atom {i}")
        for l, e2 in enumerate(f2):
            if abs(right_mass[l] - e2.weight) > tol:
                raise CouplingMismatch(
                    f"right marginal off by {right_mass[l] - e2.weight} at atom {i}")


def coupling_expectation(alpha: Coupling, f: Callable) -> float:
    """Expectation of ``f(x, v1, v2)`` over the coupling's leaves."""
    if alpha.level == 0:
        return float(f(alpha.base.point, alpha.v1, alpha.v2))
    total = 0.0
    for entries in alpha.entries:
        for e in entries:
            total += e.weight * coupling_expectation(e.child, f)
    return total


def coupling_inner(alpha: Coupling) -> float:
    return coupling_expectation(alpha, lambda x, v1, v2: float(np.dot(v1, v2)))


def coupling_sq_diff(alpha: Coupling) -> float:
    return coupling_expectation(
        alpha, lambda x, v1, v2: float(np.dot(v1 - v2, v1 - v2)))


def push_coupling_leaves(alpha: Coupling, f: Callable) -> HierMeasure:
    """Measure obtained by mapping every leaf triple ``(x, v1, v2)`` to a point."""
    man = alpha.base.manifold
    if alpha.level == 0:
        return dirac(man, f(alpha.base.point, alpha.v1, alpha.v2))
    weights = []
    atoms = []
    for entries in alpha.entries:
        for e in entries:
            weights.append(e.weight)
            atoms.append(push_coupling_leaves(e.child, f))
    return HierMeasure(man, alpha.level, weights=tuple(weights), atoms=tuple(atoms))


def coupling_marginal_plan(alpha: Coupling, side: int) -> VelocityPlan:
    """Reconstruct one marginal of a coupling as a velocity plan."""
    if side not in (1, 2):
        raise InvalidInput("side must be 1 or 2")
    base = alpha.base
    if base.level == 0:
        vec = alpha.v1 if side == 1 else alpha.v2
        return VelocityPlan(base=base, tangent=vec)
    fibers = []
    for entries in alpha.entries:
        grouped = {}
        order = []
        for e in entries:
            idx = e.left if side == 1 else e.right
            if idx in grouped:
                grouped[idx] = (grouped[idx][0] + e.weight, grouped[idx][1])
            else:
                grouped[idx] = (e.weight, e.child)
                order.append(idx)
        fibers.append(tuple(
            FiberEntry(grouped[idx][0], coupling_marginal_plan(grouped[idx][1], side))
            for idx in sorted(order)))
    return VelocityPlan(base=base, fibers=tuple(fibers))


# ---------------------------------------------------------------------------
# W_mu distance and inner product


def w_mu(g1: VelocityPlan, g2: VelocityPlan) -> float:
    _, dist = optimal_coupling(g1, g2)
    return dist


def inner_mu(g1: VelocityPlan, g2: VelocityPlan, method: str = "polarization") -> float:
    """Coupling-sup inner product.

    The default evaluates the polarization identity
    ``<g1, g2> = (|g1|^2 + |g2|^2 - W_mu^2) / 2`` so the identity holds by
    construction; ``method="direct"`` maximizes the expected leaf dot
    product with its own recursive solves, as an independent cross-check.
    """
    if method == "polarization":
        d = w_mu(g1, g2)
        return 0.5 * (plan_norm_sq(g1) + plan_norm_sq(g2) - d * d)
    if method == "direct":
        _check_same_base(g1, g2)
        return _max_inner(g1, g2)
    raise InvalidInput(f"unknown method {method!r}")


def _max_inner(g1, g2):
    base = g1.base
    if base.level == 0:
        return float(np.dot(g1.tangent, g2.tangent))
    total = 0.0
    for w, f1, f2 in zip(base.weights, g1.fibers, g2.fibers):
        cost = [[-_max_inner(e1.plan, e2.plan) for e2 in f2] for e1 in f1]
        _, _, _, val = _solve_lists(cost, [e.weight / w for e in f1],
                                    [e.weight / w for e in f2])
        total += w * (-val)
    return total


# ---------------------------------------------------------------------------
# addition along couplings, fully deterministic arithmetic


def add(g1: VelocityPlan, g2: VelocityPlan, alpha: Coupling) -> VelocityPlan:
    validate_coupling(alpha, g1, g2)
    return _combine(alpha, 1.0)


def sub(g1: VelocityPlan, g2: VelocityPlan, alpha: Coupling) -> VelocityPlan:
    validate_coupling(alpha, g1, g2)
    return _combine(alpha, -1.0)


def _combine(alpha, sign):
    base = alpha.base
    if base.level == 0:
        return VelocityPlan(base=base, tangent=alpha.v1 + sign * alpha.v2)
    fibers = tuple(
        tuple(FiberEntry(e.weight, _combine(e.child, sign)) for e in entries)
        for entries in alpha.entries)
    return VelocityPlan(base=base, fibers=fibers)


def fd_add(g1: VelocityPlan, g2: VelocityPlan) -> VelocityPlan:
    """Leafwise sum of two fully deterministic plans (their unique coupling)."""
    _check_same_base(g1, g2)
    if not (is_fully_deterministic(g1) and is_fully_deterministic(g2)):
        raise InvalidInput("fd_add needs fully deterministic operands")
    return _combine(_generic(g1, g2), 1.0)


def fd_scale(tau: float, gamma: VelocityPlan) -> VelocityPlan:
    if not is_fully_deterministic(gamma):
        raise InvalidInput("fd_scale needs a fully deterministic operand")
    return scale(tau, gamma)


# ---------------------------------------------------------------------------
# structural helpers


def plans_structurally_equal(g1: VelocityPlan, g2: VelocityPlan,
                             tol: float = 1e-9) -> bool:
    if g1.level != g2.level:
        return False
    if g1.level == 0:
        return (_allclose(g1.base.point, g2.base.point, tol)
                and _allclose(g1.tangent, g2.tangent, tol))
    if len(g1.fibers) != len(g2.fibers):
        return False
    for f1, f2 in zip(g1.fibers, g2.fibers):
        if len(f1) != len(f2):
            return False
        for e1, e2 in zip(f1, f2):
            if abs(e1.weight - e2.weight) > tol:
                return False
            if not plans_structurally_equal(e1.plan, e2.plan, tol):
                return False
    return True


def couplings_structurally_equal(a1: Coupling, a2: Coupling,
                                 tol: float = 1e-9) -> bool:
    if a1.level != a2.level:
        return False
    if a1.level == 0:
        return (_allclose(a1.v1, a2.v1, tol)
                and _allclose(a1.v2, a2.v2, tol))
    if len(a1.entries) != len(a2.entries):
        return False
    for e1s, e2s in zip(a1.entries, a2.entries):
        if len(e1s) != len(e2s):
            return False
        for e1, e2 in zip(e1s, e2s):
            if (e1.left, e1.right) != (e2.left, e2.right):
                return False
            if abs(e1.weight - e2.weight) > tol:
                return False
            if not couplings_structurally_equal(e1.child, e2.child, tol):
                return False
    return True


def plan_as_measure(gamma: VelocityPlan) -> HierMeasure:
    """Embed a plan over flat space as a measure on ``R^{2d}``.

    On Euclidean base manifolds the Sasaki distance on ``TM`` is the flat
    distance of the concatenated ``(x, v)`` coordinates, so hierarchical
    distances between embedded plans are distances between the plans as
    measures on the tangent bundle.
    """
    man = gamma.manifold
    if man.kind != "euclidean":
        raise InvalidInput("plan_as_measure is exact on euclidean bases only")
    return _push_leaves(gamma, euclidean(2 * man.ambient_dim),
                        lambda x, v: np.concatenate([x, v]))
