"""Optimal velocity plans, geodesic interpolation, and parallel transport.

An optimal velocity plan realizes ``|gamma| = w2(mu, nu)``; shooting it with
``interpolate`` traces the constant speed geodesic between its marginals,
and ``pt_n`` transports the plan's own vectors along that curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotOptimalInput
from .measures import HierMeasure
from .plans import (FiberEntry, VelocityPlan, _push_leaves, exp_push,
                    plan_norm, plan_norm_sq, scale)
from .wasserstein import transport, w2

SPEED_TOL = 1e-8  # verify_constant_speed's bound on every deviation


def optimal_velocity_plan(mu: HierMeasure, nu: HierMeasure) -> VelocityPlan:
    """A certified optimal velocity plan from ``mu`` to ``nu``.

    Built by solving the transport problem at every level and taking the
    minimizing log at the leaves, so its energy equals the distance; every
    transport plan it uses passes the conditions of ``verify_optimality``
    (``NumericalFailure`` otherwise).
    """
    return transport(mu, nu).velocity


def interpolate(gamma: VelocityPlan, t: float) -> HierMeasure:
    """Point of the curve traced by ``gamma`` at time ``t``: every leaf
    shot along ``t`` times its tangent."""
    exp = gamma.manifold.exp
    return _push_leaves(gamma, gamma.manifold,
                        lambda g: exp(g.base.point, t * g.tangent))


def pt_n(gamma: VelocityPlan, t: float) -> VelocityPlan:
    """Transport the plan's vectors along their own geodesics to time ``t``.

    The result is a plan over ``interpolate(gamma, t)`` with the same norm;
    for any plan the family satisfies the group law in ``t``.
    """
    man = gamma.manifold
    if gamma.level == 0:
        x = gamma.base.point
        v = gamma.tangent
        y, v_t = man.parallel_transport(x, v, v, t)
        return VelocityPlan(base=HierMeasure(man, 0, point=y), tangent=v_t)
    weights = []
    atoms = []
    fibers = []
    for fiber in gamma.fibers:
        for e in fiber:
            moved = pt_n(e.plan, t)
            weights.append(e.weight)
            atoms.append(moved.base)
            fibers.append((FiberEntry(e.weight, moved),))
    new_base = HierMeasure(man, gamma.level, weights=tuple(weights),
                           atoms=tuple(atoms))
    return VelocityPlan(base=new_base, fibers=tuple(fibers))


def _require_optimal(gamma: VelocityPlan) -> float:
    nsq = plan_norm_sq(gamma)
    dist = w2(gamma.base, exp_push(gamma))
    if abs(nsq - dist * dist) > 1e-7 * (1.0 + dist * dist):
        raise NotOptimalInput(
            f"plan norm^2 {nsq} != squared distance {dist * dist}")
    return dist


def restriction_plan(gamma: VelocityPlan, t: float, s: float) -> VelocityPlan:
    """Optimal plan between the curve points at times ``t`` and ``s``.

    Requires a certified optimal ``gamma``; the restriction is the scaled
    parallel transport ``(s - t) PT_t(gamma)``.
    """
    _require_optimal(gamma)
    return scale(s - t, pt_n(gamma, t))


@dataclass(frozen=True)
class SpeedReport:
    distance: float          # w2 between the endpoints
    norm: float              # energy of the generating plan
    speed_mismatch: float    # |norm - distance|
    max_deviation: float     # worst pairwise constant-speed residual
    pairs: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return (self.max_deviation <= self.tolerance
                and self.speed_mismatch <= self.tolerance)


def verify_constant_speed(gamma: VelocityPlan, grid) -> SpeedReport:
    """Check ``w2(mu_t, mu_s) = |t - s| w2(mu_0, mu_1)`` on a time grid,
    within ``SPEED_TOL``.

    A plan whose energy differs from the endpoint distance (a non-optimal
    plan) is flagged through ``speed_mismatch`` even if the sampled curve
    happens to look metrically straight.
    """
    grid = sorted(float(t) for t in grid)
    samples = {t: interpolate(gamma, t) for t in grid}
    mu0 = samples[0.0] if 0.0 in samples else interpolate(gamma, 0.0)
    mu1 = samples[1.0] if 1.0 in samples else interpolate(gamma, 1.0)
    dist = w2(mu0, mu1)
    worst = 0.0
    pairs = 0
    for i, t in enumerate(grid):
        for s in grid[i + 1:]:
            dev = abs(w2(samples[t], samples[s]) - (s - t) * dist)
            worst = max(worst, dev)
            pairs += 1
    norm = plan_norm(gamma)
    return SpeedReport(distance=dist, norm=norm,
                       speed_mismatch=abs(norm - dist),
                       max_deviation=worst, pairs=pairs, tolerance=SPEED_TOL)
