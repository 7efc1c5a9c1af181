"""Potential energies, squared-distance terms, and their first-order calculus.

Potentials are ambient-smooth scalar functions with a gradient oracle and a
uniform Hessian operator-norm bound; on the sphere only ambient linear and
quadratic forms are registered so the bound is analytic.  The squared
Wasserstein term has optimal velocity plans as supergradients on the
nonnegatively curved manifolds supported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import InvalidInput, LevelMismatch
from .geodesics import interpolate, optimal_velocity_plan
from .manifolds import Manifold, dot, norm
from .measures import HierMeasure, n_expectancy
from .plans import (Coupling, VelocityPlan, _combine, coupling_inner,
                    coupling_sq_diff, exp_push, fd_from_field,
                    generic_coupling, plan_norm, plan_norm_sq,
                    push_coupling_leaves, scale)
from .wasserstein import transport, w2_sq

FD_STEP = 1e-5      # the gradient oracle's central-difference step
FD_REL_TOL = 1e-5   # and the relative error its check tolerates
TAYLOR_TOL = 1e-9   # slack of the Taylor bound
CHECK_TOL = 1e-8    # slack of the supergradient and convexity checks


@dataclass(frozen=True)
class Potential:
    """Scalar function on the manifold with gradient and Hessian bound."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hessian_bound: float


def make_quadratic(manifold: Manifold, center) -> Potential:
    """``V(x) = 0.5 |x - a|^2`` in ambient coordinates.

    Euclidean Hessian bound is 1; on the sphere the ambient quadratic
    reduces to a linear form whose Riemannian Hessian is bounded by ``|a|``.
    """
    a = np.asarray(center, dtype=float)
    if a.shape != (manifold.ambient_dim,):
        raise InvalidInput("center dimension mismatch")
    if manifold.kind == "euclidean":
        return Potential(
            value=lambda x: 0.5 * dot(x - a, x - a),
            grad=lambda x: x - a,
            hessian_bound=1.0)
    return Potential(
        value=lambda x: 0.5 * dot(x - a, x - a),
        grad=lambda x: -(a - dot(a, x) * x),
        hessian_bound=norm(a))


def make_linear_ambient(manifold: Manifold, direction) -> Potential:
    """``V(x) = <x, a>``; on the sphere the gradient is the tangent part of ``a``."""
    a = np.asarray(direction, dtype=float)
    if a.shape != (manifold.ambient_dim,):
        raise InvalidInput("direction dimension mismatch")
    if manifold.kind == "euclidean":
        return Potential(
            value=lambda x: dot(x, a),
            grad=lambda x: a.copy(),
            hessian_bound=0.0)
    return Potential(
        value=lambda x: dot(x, a),
        grad=lambda x: a - dot(a, x) * x,
        hessian_bound=norm(a))


def check_potential_gradient(pot: Potential, manifold: Manifold, points) -> float:
    """Finite-difference consistency of the gradient oracle; returns the
    worst relative error over the sampled points and tangent directions."""
    worst = 0.0
    for x in points:
        g = pot.grad(x)
        gn = norm(g)
        if gn < 1e-12:
            continue
        d = g / gn
        up = pot.value(manifold.exp(x, FD_STEP * d))
        dn = pot.value(manifold.exp(x, -FD_STEP * d))
        fd = (up - dn) / (2 * FD_STEP)
        worst = max(worst, abs(fd - gn) / (1.0 + gn))
    return worst


@dataclass(frozen=True)
class PotentialTerm:
    potential: Potential
    weight: float = 1.0


@dataclass(frozen=True)
class DistanceTerm:
    """``weight * 0.5 * w2(mu, target)^2``."""
    target: HierMeasure
    weight: float = 1.0


@dataclass(frozen=True)
class FunctionalSpec:
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise InvalidInput("a functional needs at least one term")
        for t in self.terms:
            if not np.isfinite(getattr(t, "weight", 0.0)):
                raise InvalidInput("term weights must be finite")


def eval_functional(spec: FunctionalSpec, mu: HierMeasure) -> float:
    return _evaluate(spec, mu, lambda term: w2_sq(mu, term.target))


def _evaluate(spec: FunctionalSpec, mu: HierMeasure, dist_sq) -> float:
    """``F(mu)``, taking each distance term's squared distance from
    ``dist_sq(term)``."""
    total = 0.0
    for term in spec.terms:
        if isinstance(term, PotentialTerm):
            total += term.weight * n_expectancy(mu, term.potential.value)
        elif isinstance(term, DistanceTerm):
            if term.target.level != mu.level:
                raise LevelMismatch("distance term target has a different level")
            total += term.weight * 0.5 * dist_sq(term)
        else:
            raise InvalidInput(f"unknown term {term!r}")
    return total


def grad_potential(pot: Potential, mu: HierMeasure) -> VelocityPlan:
    """The gradient plan of the lifted potential: the gradient field at every leaf."""
    return fd_from_field(mu, pot.grad)


def taylor_remainder_check(pot: Potential, mu: HierMeasure, gamma: VelocityPlan):
    """Second-order Taylor control of the lifted potential along a plan.

    Returns ``(lhs, bound, passed)`` with
    ``lhs = |V(nu) - V(mu) - E_alpha[<v1, v2>]|`` for the unique coupling of
    ``gamma`` with the gradient plan, ``bound = L/2 |gamma|^2``, and
    ``passed`` when ``lhs`` is within ``TAYLOR_TOL`` of the bound.
    """
    lhs = directional_residual(pot, mu, gamma)
    bound = 0.5 * pot.hessian_bound * plan_norm_sq(gamma)
    return lhs, bound, lhs <= bound + TAYLOR_TOL


def w2_supergradient(mu: HierMeasure, mubar: HierMeasure) -> VelocityPlan:
    """Optimal plan toward the reference; its negation is the supergradient
    of ``0.5 w2(. , mubar)^2`` on nonnegatively curved manifolds."""
    return optimal_velocity_plan(mu, mubar)


def supergradient_inequality_check(mu: HierMeasure, nu: HierMeasure,
                                   mubar: HierMeasure,
                                   coupling: Optional[Coupling] = None):
    """Upper bound of the halved squared distance after one exponential step.

    Checks ``F(nu) <= F(mu) - E_alpha[<v1, v2>] + 0.5 |gamma|^2`` where
    ``gamma`` is an optimal plan to ``nu``, the second marginal is an
    optimal plan to ``mubar``, and ``alpha`` is any coupling of the two
    (the default is the independent one).  Returns ``(lhs, rhs, passed)``,
    passed within ``CHECK_TOL``.
    """
    gamma = optimal_velocity_plan(mu, nu)
    toward = transport(mu, mubar)  # the supergradient plan and its value
    return _supergradient_sides(gamma, toward, 0.5 * w2_sq(nu, mubar),
                                coupling)


def _supergradient_sides(gamma, toward, lhs, coupling=None):
    """:func:`supergradient_inequality_check` on its solves: ``gamma``,
    ``toward = transport(mu, mubar)`` and ``lhs = 0.5 w2(nu, mubar)^2``."""
    alpha = (coupling if coupling is not None
             else generic_coupling(gamma, toward.velocity))
    rhs = (0.5 * toward.value_sq - coupling_inner(alpha)
           + 0.5 * plan_norm_sq(gamma))
    return lhs, rhs, lhs <= rhs + CHECK_TOL


def generalized_geodesic(mubar: HierMeasure, mu0: HierMeasure, mu1: HierMeasure,
                         t: float, coupling: Optional[Coupling] = None) -> HierMeasure:
    """Interpolation of two optimal plans anchored at a common base."""
    if coupling is None:
        g0 = optimal_velocity_plan(mubar, mu0)
        g1 = optimal_velocity_plan(mubar, mu1)
        coupling = generic_coupling(g0, g1)
    return GeneralizedGeodesicCurve(coupling).at(t)


@dataclass(frozen=True)
class GeodesicCurve:
    """A geodesic with its generating plan attached."""
    gamma: VelocityPlan

    def at(self, t: float) -> HierMeasure:
        return interpolate(self.gamma, t)

    def deficit(self) -> float:
        return w2_sq(self.at(0.0), self.at(1.0))


@dataclass(frozen=True)
class GeneralizedGeodesicCurve:
    """A generalized geodesic carrying the anchoring coupling."""
    alpha: Coupling

    def at(self, t: float) -> HierMeasure:
        man = self.alpha.base.manifold
        return push_coupling_leaves(
            self.alpha, lambda x, v0, v1: man.exp(x, (1.0 - t) * v0 + t * v1))

    def deficit(self) -> float:
        return coupling_sq_diff(self.alpha)


@dataclass(frozen=True)
class ConvexityReport:
    rows: tuple             # (t, value, chord_bound, margin)
    worst_margin: float     # max violation of value <= bound
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_margin <= self.tolerance


def convexity_check(spec: FunctionalSpec,
                    curve: Union[GeodesicCurve, GeneralizedGeodesicCurve],
                    lam: float, ts) -> ConvexityReport:
    """Pointwise ``lambda``-convexity along a curve with generating data, at
    the times ``ts``, within ``CHECK_TOL``.

    For plain geodesics the penalty uses the squared endpoint distance; for
    generalized geodesics it uses the coupling's squared-difference energy.
    """
    deficit = curve.deficit()
    # each time is evaluated once, the ends too when ts holds them
    values = {t: eval_functional(spec, curve.at(t))
              for t in dict.fromkeys([0.0, 1.0, *map(float, ts)])}
    f0, f1 = values[0.0], values[1.0]
    rows = []
    worst = -np.inf
    for t in ts:
        val = values[float(t)]
        bound = (1 - t) * f0 + t * f1 - 0.5 * lam * t * (1 - t) * deficit
        margin = val - bound
        worst = max(worst, margin)
        rows.append((float(t), val, bound, margin))
    return ConvexityReport(rows=tuple(rows), worst_margin=float(worst),
                           tolerance=CHECK_TOL)


# ---------------------------------------------------------------------------
# descent loop


@dataclass(frozen=True)
class DescentStep:
    index: int
    measure: HierMeasure
    value: float
    step_norm: float


@dataclass(frozen=True)
class DescentTrace:
    steps: tuple

    @property
    def values(self):
        return [s.value for s in self.steps]


def gradient_step(spec: FunctionalSpec, mu: HierMeasure, tau: float):
    """One explicit step: potentials push down their gradient field, distance
    terms move toward their target along an optimal plan.

    Returns ``(next_measure, step_plan, value)``, where ``value`` is
    ``F(mu)`` evaluated with the distances of the step's own solves.  The
    step plan's base is ``mu``.
    """
    if not 0 <= tau < math.inf:  # NaN fails too
        raise InvalidInput(f"tau must be a finite number >= 0, got {tau}")
    pot_terms = [t for t in spec.terms if isinstance(t, PotentialTerm)]
    dist_terms = [t for t in spec.terms if isinstance(t, DistanceTerm)]

    step = None
    if pot_terms or not dist_terms:
        def field(x):
            v = np.zeros(mu.manifold.ambient_dim)
            for t in pot_terms:
                v = v - (tau * t.weight) * t.potential.grad(x)
            return mu.manifold.project_tangent(x, v)
        step = fd_from_field(mu, field)

    dist_sq = {}
    for term in dist_terms:
        toward = transport(mu, term.target)
        dist_sq[id(term)] = toward.value_sq
        gbar = scale(tau * term.weight, toward.velocity)
        if step is None:
            step = gbar
        else:
            # addition along an already-validated construction coupling
            step = _combine(generic_coupling(step, gbar), 1.0)
    return exp_push(step), step, _evaluate(spec, mu, lambda term: dist_sq[id(term)])


def gradient_descent(spec: FunctionalSpec, mu0: HierMeasure, tau: float,
                     iters: int) -> DescentTrace:
    if iters < 1:
        raise InvalidInput("iters must be >= 1")
    mu, step_norm, steps = mu0, 0.0, []
    for i in range(iters):
        nxt, plan, value = gradient_step(spec, mu, tau)
        steps.append(DescentStep(i, mu, value, step_norm))
        mu, step_norm = nxt, plan_norm(plan)
    steps.append(DescentStep(iters, mu, eval_functional(spec, mu), step_norm))
    return DescentTrace(steps=tuple(steps))


def directional_residual(pot: Potential, mu: HierMeasure, xi: VelocityPlan) -> float:
    """First-order remainder of the lifted potential along ``xi``.

    ``|V(exp_push(xi)) - V(mu) - E[<grad, xi>]|``; superlinear decay of the
    normalized residual under halving certifies the gradient plan.
    """
    spec = FunctionalSpec((PotentialTerm(pot),))
    alpha = generic_coupling(xi, grad_potential(pot, mu))
    return abs(eval_functional(spec, exp_push(xi)) - eval_functional(spec, mu)
               - coupling_inner(alpha))
