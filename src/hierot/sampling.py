"""Seeded generators for random measures, plans, and couplings.

Weights come from a stick-breaking construction, euclidean leaves are
standard normal, sphere leaves are normalized normals; everything is driven
by an explicit ``numpy`` Generator so failures are reproducible from the
reported seed.
"""

from __future__ import annotations

import numpy as np

from .manifolds import Manifold
from .measures import HierMeasure, dirac, mixture
from .plans import (Coupling, FiberEntry, VelocityPlan, _check_same_base,
                    _couple)

MAX_FIBER = 3  # random_plan draws 1 to MAX_FIBER entries per fiber


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


def stick_weights(rng, n: int) -> tuple:
    """Random weights summing to one, no entry below 5% of uniform."""
    raw = rng.random(n) + 0.05
    raw = raw / raw.sum()
    # re-balance the first entry so the compensated total is exactly 1.0
    raw[0] += 1.0 - raw.sum()
    return tuple(float(w) for w in raw)


def random_point(rng, man: Manifold) -> np.ndarray:
    x = rng.standard_normal(man.ambient_dim)
    if man.kind == "sphere":
        n = np.linalg.norm(x)
        while n < 1e-8:
            x = rng.standard_normal(man.ambient_dim)
            n = np.linalg.norm(x)
        return x / n
    return x


def random_tangent(rng, man: Manifold, x, scale: float = 1.0) -> np.ndarray:
    v = rng.standard_normal(man.ambient_dim) * scale
    return man.project_tangent(x, v)


def random_measure(rng, man: Manifold, level: int, max_atoms: int = 4) -> HierMeasure:
    if level == 0:
        return dirac(man, random_point(rng, man))
    n = int(rng.integers(1, max_atoms + 1))
    atoms = [random_measure(rng, man, level - 1, max_atoms) for _ in range(n)]
    return mixture(stick_weights(rng, n), atoms)


def random_plan(rng, base: HierMeasure, scale: float = 1.0,
                deterministic: bool = False) -> VelocityPlan:
    """Random velocity plan over ``base``; singleton fibers if ``deterministic``."""
    man = base.manifold
    if base.level == 0:
        return VelocityPlan(base=base,
                            tangent=random_tangent(rng, man, base.point, scale))
    fibers = []
    for w, atom in zip(base.weights, base.atoms):
        n = 1 if deterministic else int(rng.integers(1, MAX_FIBER + 1))
        parts = stick_weights(rng, n)
        fibers.append(tuple(
            FiberEntry(w * p, random_plan(rng, atom, scale, deterministic))
            for p in parts))
    return VelocityPlan(base=base, fibers=tuple(fibers))


def random_coupling(rng, g1: VelocityPlan, g2: VelocityPlan) -> Coupling:
    """A feasible coupling at a random extreme point of each fiber polytope:
    every fiber pair is solved over a cost matrix drawn from ``rng``."""
    _check_same_base(g1, g2)
    return _couple(g1, g2, rng)[0]
