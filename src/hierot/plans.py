"""Velocity plans, couplings, and the fixed-base distance/inner product.

A velocity plan is stored fiberwise over its base measure: at level 0 it is
a single tangent vector at the base point, and at level ``n >= 1`` every
base atom ``i`` carries a non-empty fiber of weighted sub-plans whose
weights sum to the atom's weight.  This representation makes the base
projection of the plan equal to the base by construction.

A coupling of two plans over the same base has the same shape: a tangent
pair at level 0, and above a fiber of weighted entries per base atom, each
entry pairing one fiber index of either plan with the coupling of their
sub-plans.  The leaf sums, leaf maps, pushforwards and structural
comparisons below are written once over that shape.

Fully deterministic plans are exactly the plans with singleton fibers at
every level; they form a vector space with an L2 isometry onto tangent
fields, and a plan with a fully deterministic side has a unique coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BaseMismatch, CouplingMismatch, InvalidInput
from .exact_ot import _solve_lists
from .manifolds import Manifold, euclidean
from .measures import HierMeasure, dirac

# fiber weights must add up to their atom's weight within this
FIBER_SUM_TOL = 1e-10
# a coupling's marginal masses and leaf tangents must match within this
MARGINAL_TOL = 1e-9


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
    """Fiberwise pairing of two plans over a shared base, in a plan's shape.

    At level 0 the payload is a tangent pair; above, every base atom
    carries a fiber of entries ``(weight, left fiber index, right fiber
    index, plan)``, where ``plan`` couples the two indexed sub-plans.
    """

    base: HierMeasure
    v1: Optional[np.ndarray] = None
    v2: Optional[np.ndarray] = None
    fibers: Optional[tuple] = None  # one tuple of CouplingEntry per base atom

    @property
    def level(self) -> int:
        return self.base.level


@dataclass(frozen=True)
class CouplingEntry:
    weight: float
    left: int
    right: int
    plan: Coupling


# ---------------------------------------------------------------------------
# walks over the shared shape: a plan or coupling node is a leaf at level 0,
# and above carries ``fibers`` of entries with a ``weight`` and a ``plan``


def _leaf_sum(node, leaf) -> float:
    """``sum weight * leaf(level-0 node)`` over the leaves, added in order."""
    if node.level == 0:
        return leaf(node)
    total = 0.0
    for fiber in node.fibers:
        for e in fiber:
            total += e.weight * _leaf_sum(e.plan, leaf)
    return total


def _map_leaves(node, tangent) -> VelocityPlan:
    """The plan with ``node``'s base and weights and ``tangent(leaf)`` at
    every leaf."""
    if node.level == 0:
        return VelocityPlan(base=node.base, tangent=tangent(node))
    fibers = tuple(tuple(FiberEntry(e.weight, _map_leaves(e.plan, tangent))
                         for e in fiber)
                   for fiber in node.fibers)
    return VelocityPlan(base=node.base, fibers=fibers)


def _push_leaves(node, man, point) -> HierMeasure:
    """Measure on ``man`` with one atom per fiber entry and every leaf
    mapped to ``point(leaf)``."""
    if node.level == 0:
        return dirac(man, point(node))
    weights = []
    atoms = []
    for fiber in node.fibers:
        for e in fiber:
            weights.append(e.weight)
            atoms.append(_push_leaves(e.plan, man, point))
    return HierMeasure(man, node.level, weights=tuple(weights), atoms=tuple(atoms))


def _fold(worst: float, gaps) -> float:
    """The largest of ``worst`` and ``gaps``.  A NaN, once met, is kept: it
    compares false with every tolerance."""
    for r in gaps:
        r = float(r)
        if r > worst or r != r:
            worst = r
    return worst


def _vec_gap(x, y) -> float:
    """The largest ``|x_i - y_i|`` of two leaf vectors, or NaN, which no
    tolerance accepts, when their lengths differ."""
    xs, ys = np.ravel(x).tolist(), np.ravel(y).tolist()
    if len(xs) != len(ys):
        return math.nan
    return _fold(0.0, [abs(a - b) for a, b in zip(xs, ys)])


def _tree_gap(n1, n2, leaf_gap, cell=lambda e: None) -> float:
    """The largest entry-weight gap and ``leaf_gap`` of two trees, or NaN
    when their levels, fiber counts, fiber lengths or entry cells differ."""
    if n1.level != n2.level:
        return math.nan
    if n1.level == 0:
        return leaf_gap(n1, n2)
    if len(n1.fibers) != len(n2.fibers):
        return math.nan
    worst = 0.0
    for f1, f2 in zip(n1.fibers, n2.fibers):
        if len(f1) != len(f2):
            return math.nan
        for e1, e2 in zip(f1, f2):
            if cell(e1) != cell(e2):
                return math.nan
            worst = _fold(worst, (abs(e1.weight - e2.weight),
                                  _tree_gap(e1.plan, e2.plan, leaf_gap, cell)))
    return worst


def _point_tangent_gap(a, b) -> float:
    return _fold(_vec_gap(a.base.point, b.base.point),
                 (_vec_gap(a.tangent, b.tangent),))


def _tangent_pair_gap(a, b) -> float:
    return _fold(_vec_gap(a.v1, b.v1), (_vec_gap(a.v2, b.v2),))


# ---------------------------------------------------------------------------
# construction and validation


def zero_plan(mu: HierMeasure) -> VelocityPlan:
    """The zero tangent plan; fully deterministic with singleton fibers."""
    return fd_from_field(mu, lambda x: np.zeros(mu.manifold.ambient_dim))


def fd_from_field(mu: HierMeasure, f: Callable) -> VelocityPlan:
    """Fully deterministic plan carrying ``f(leaf)`` at every leaf."""
    man = mu.manifold

    def build(node):
        if node.level == 0:
            vec = man.check_tangent(node.point, np.asarray(f(node.point), dtype=float))
            return VelocityPlan(base=node, tangent=vec)
        fibers = tuple((FiberEntry(w, build(a)),)
                       for w, a in zip(node.weights, node.atoms))
        return VelocityPlan(base=node, fibers=fibers)

    return build(mu)


def check_fiber(weights, mass: float, i: int) -> None:
    """The fiber rule of ``validate_plan`` and the plan reader: the entry
    ``weights`` at base atom ``i`` are non-empty and positive, and their
    exact sum is within ``FIBER_SUM_TOL`` of the atom's weight ``mass``."""
    if not weights:
        raise InvalidInput(f"empty fiber at atom {i}")
    if not all(w > 0.0 for w in weights):
        raise InvalidInput(f"fiber weights at atom {i} must be positive")
    try:
        total = math.fsum(weights)
    except OverflowError:  # finite weights whose exact sum overflows
        total = math.inf
    if abs(total - mass) > FIBER_SUM_TOL:
        raise InvalidInput(
            f"fiber weights at atom {i} sum to {total}, expected {mass}")


def validate_plan(gamma: VelocityPlan) -> None:
    """Check fiber alignment, weight bookkeeping, and leaf tangency."""
    base = gamma.base
    if base.level == 0:
        base.manifold.check_tangent(base.point, gamma.tangent)
        return
    for i, (w, atom, fiber) in enumerate(zip(base.weights, base.atoms,
                                             gamma.fibers)):
        check_fiber([e.weight for e in fiber], w, i)
        for e in fiber:
            if e.plan.base.structural_key() != atom.structural_key():
                raise BaseMismatch(f"fiber plan at atom {i} has a foreign base")
            validate_plan(e.plan)


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
    return _leaf_sum(gamma, lambda g: float(np.dot(g.tangent, g.tangent)))


def plan_norm(gamma: VelocityPlan) -> float:
    return float(np.sqrt(max(plan_norm_sq(gamma), 0.0)))


def scale(tau: float, gamma: VelocityPlan) -> VelocityPlan:
    """Leafwise scaling; the base is unchanged."""
    return _map_leaves(gamma, lambda g: tau * g.tangent)


def exp_push(gamma: VelocityPlan) -> HierMeasure:
    """The measure reached by shooting every leaf along its tangent."""
    exp = gamma.manifold.exp
    return _push_leaves(gamma, gamma.manifold,
                        lambda g: exp(g.base.point, g.tangent))


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
    return Coupling(base=base, fibers=tuple(per_atom))


def optimal_coupling(g1: VelocityPlan, g2: VelocityPlan):
    """Coupling minimizing the expected squared tangent difference.

    Returns ``(coupling, w_mu)`` where ``w_mu**2`` is the attained minimum.
    Every fiber pair is solved exactly; children are optimal recursively.
    """
    _check_same_base(g1, g2)
    alpha, cost = _couple(g1, g2)
    return alpha, float(np.sqrt(max(cost, 0.0)))


def _couple(g1, g2, rng=None):
    """``(coupling, attained cost)``, each fiber pair solved once over the
    children's optimal energies or, given ``rng``, over a cost matrix drawn
    uniformly from it (a random extreme point of the fiber polytope)."""
    base = g1.base
    if base.level == 0:
        diff = g1.tangent - g2.tangent
        return Coupling(base=base, v1=g1.tangent, v2=g2.tangent), float(np.dot(diff, diff))
    per_atom = []
    total = 0.0
    for w, f1, f2 in zip(base.weights, g1.fibers, g2.fibers):
        if rng is None:
            kids = [[_couple(e1.plan, e2.plan) for e2 in f2] for e1 in f1]
            cost = [[energy for _, energy in row] for row in kids]
        else:
            cost = rng.random((len(f1), len(f2))).tolist()
        x, _, _, val = _solve_lists(cost, [e.weight / w for e in f1],
                                    [e.weight / w for e in f2])
        # with rng, children are drawn on support cells only, in row-major
        # order, so one matrix is drawn per fiber pair the coupling uses
        entries = tuple(
            CouplingEntry(w * flow, k, l,
                          kids[k][l][0] if rng is None
                          else _couple(f1[k].plan, f2[l].plan, rng)[0])
            for k, row in enumerate(x) for l, flow in enumerate(row) if flow > 0.0)
        per_atom.append(entries)
        total += w * val
    return Coupling(base=base, fibers=tuple(per_atom)), total


def validate_coupling(alpha: Coupling, g1: VelocityPlan, g2: VelocityPlan) -> None:
    """Check that ``alpha`` has marginal plans ``g1`` and ``g2``."""
    if alpha.base.structural_key() != g1.base.structural_key():
        raise CouplingMismatch("coupling base differs from the plans' base")
    _check_same_base(g1, g2)
    _validate_coupling(alpha, g1, g2)


def _validate_coupling(alpha, g1, g2):
    base = alpha.base
    if base.level == 0:
        if not (_vec_gap(alpha.v1, g1.tangent) <= MARGINAL_TOL
                and _vec_gap(alpha.v2, g2.tangent) <= MARGINAL_TOL):
            raise CouplingMismatch("leaf tangents do not match the marginals")
        return
    for i, (f1, f2) in enumerate(zip(g1.fibers, g2.fibers)):
        entries = alpha.fibers[i]
        left_mass = [0.0] * len(f1)
        right_mass = [0.0] * len(f2)
        for e in entries:
            if not (0 <= e.left < len(f1) and 0 <= e.right < len(f2)):
                raise CouplingMismatch(f"fiber index out of range at atom {i}")
            if not (e.weight > 0 and math.isfinite(e.weight)):
                raise CouplingMismatch(
                    f"coupling weight {e.weight} at atom {i} is not finite and positive")
            left_mass[e.left] += e.weight
            right_mass[e.right] += e.weight
            _validate_coupling(e.plan, f1[e.left].plan, f2[e.right].plan)
        for k, e1 in enumerate(f1):
            if not abs(left_mass[k] - e1.weight) <= MARGINAL_TOL:
                raise CouplingMismatch(
                    f"left marginal off by {left_mass[k] - e1.weight} at atom {i}")
        for l, e2 in enumerate(f2):
            if not abs(right_mass[l] - e2.weight) <= MARGINAL_TOL:
                raise CouplingMismatch(
                    f"right marginal off by {right_mass[l] - e2.weight} at atom {i}")


def coupling_expectation(alpha: Coupling, f: Callable) -> float:
    """Expectation of ``f(x, v1, v2)`` over the coupling's leaves."""
    return _leaf_sum(alpha, lambda a: float(f(a.base.point, a.v1, a.v2)))


def coupling_inner(alpha: Coupling) -> float:
    return coupling_expectation(alpha, lambda x, v1, v2: float(np.dot(v1, v2)))


def coupling_sq_diff(alpha: Coupling) -> float:
    return coupling_expectation(
        alpha, lambda x, v1, v2: float(np.dot(v1 - v2, v1 - v2)))


def push_coupling_leaves(alpha: Coupling, f: Callable) -> HierMeasure:
    """Measure obtained by mapping every leaf triple ``(x, v1, v2)`` to a point."""
    return _push_leaves(alpha, alpha.base.manifold,
                        lambda a: f(a.base.point, a.v1, a.v2))


def coupling_marginal_plan(alpha: Coupling, side: int) -> VelocityPlan:
    """Reconstruct one marginal of a coupling as a velocity plan."""
    if side not in (1, 2):
        raise InvalidInput("side must be 1 or 2")
    base = alpha.base
    if base.level == 0:
        vec = alpha.v1 if side == 1 else alpha.v2
        return VelocityPlan(base=base, tangent=vec)
    fibers = []
    for entries in alpha.fibers:
        grouped = {}
        order = []
        for e in entries:
            idx = e.left if side == 1 else e.right
            if idx in grouped:
                grouped[idx] = (grouped[idx][0] + e.weight, grouped[idx][1])
            else:
                grouped[idx] = (e.weight, e.plan)
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
    return _map_leaves(alpha, lambda a: a.v1 + sign * a.v2)


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
    """Same shape; entry weights and leaf coordinates within absolute tol."""
    return _tree_gap(g1, g2, _point_tangent_gap) <= tol


def couplings_structurally_equal(a1: Coupling, a2: Coupling,
                                 tol: float = 1e-9) -> bool:
    """Same cells; entry weights and leaf coordinates within absolute tol."""
    return _tree_gap(a1, a2, _tangent_pair_gap,
                     cell=lambda e: (e.left, e.right)) <= tol


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
                        lambda g: np.concatenate([g.base.point, g.tangent]))
