"""Plan-level values pinned byte for byte.

``tests/plan_golden.json`` holds the ``float.hex`` of every weight, point
and tangent (and every fiber index) that the coupling, plan-arithmetic and
pushforward functions produce on seeded inputs, levels 1-3 on
``euclidean(2)`` and ``sphere(3)``, plus one plan read back from JSON.
The command-level golden files see these functions only through residuals
compared against tolerances; this file sees every bit.  Regenerate only
when a value is meant to change::

    PYTHONPATH=src python tests/test_plan_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hierot import euclidean, sphere
from hierot.functionals import (generalized_geodesic, make_quadratic,
                                taylor_remainder_check)
from hierot.plans import (exp_push, fd_add, optimal_coupling, plan_as_measure,
                          w_mu, zero_plan)
from hierot.sampling import (random_coupling, random_measure, random_plan,
                             rng_from_seed)
from hierot.serialization import plan_from_obj, plan_to_obj

GOLDEN = Path(__file__).with_name("plan_golden.json")
MANIFOLDS = {"euclidean": euclidean(2), "sphere": sphere(3)}
LEVELS = (1, 2, 3)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _measure(mu):
    if mu.level == 0:
        return _hex(mu.point)
    out = []
    for w, a in zip(mu.weights, mu.atoms):
        out += _hex([w]) + _measure(a)
    return out


def _plan(gamma):
    if gamma.level == 0:
        return _hex(gamma.tangent)
    out = []
    for i, fiber in enumerate(gamma.fibers):
        out.append(f"atom {i}")
        for e in fiber:
            out += _hex([e.weight]) + _plan(e.plan)
    return out


def _coupling(alpha):
    if alpha.level == 0:
        return _hex(alpha.v1) + _hex(alpha.v2)
    out = []
    for i, entries in enumerate(alpha.fibers):
        out.append(f"atom {i}")
        for e in entries:
            out += [f"{e.left},{e.right}"] + _hex([e.weight]) + _coupling(e.plan)
    return out


def compute(kind, level):
    """Every pinned value for one manifold and level, by function name."""
    man = MANIFOLDS[kind]
    rng = rng_from_seed(600 + 10 * level + (kind == "sphere"))
    max_atoms = 3 if level < 3 else 2
    mu = random_measure(rng, man, level, max_atoms)
    g1 = random_plan(rng, mu, 0.5)
    g2 = random_plan(rng, mu, 0.5)
    d1 = random_plan(rng, mu, 0.5, deterministic=True)
    d2 = random_plan(rng, mu, 0.5, deterministic=True)
    out = {}
    alpha, dist = optimal_coupling(g1, g2)
    out["optimal_coupling"] = _coupling(alpha) + _hex([dist, w_mu(g1, g2)])
    out["random_coupling"] = _coupling(random_coupling(rng, g1, g2))
    out["fd_add"] = _plan(fd_add(d1, d2)) + _plan(fd_add(d2, zero_plan(mu)))
    out["zero_plan"] = _plan(zero_plan(mu))
    out["exp_push"] = _measure(exp_push(g1)) + _measure(exp_push(d2))
    if kind == "euclidean":
        out["plan_as_measure"] = _measure(plan_as_measure(g1))
    pot = make_quadratic(man, np.linspace(0.3, -0.6, man.ambient_dim))
    lhs, bound, passed = taylor_remainder_check(pot, mu, g1)
    out["taylor_remainder_check"] = _hex([lhs, bound]) + [str(passed)]
    mu0 = random_measure(rng, man, level, max_atoms)
    mu1 = random_measure(rng, man, level, max_atoms)
    out["generalized_geodesic"] = (
        _measure(generalized_geodesic(mu, mu0, mu1, 0.3))
        + _measure(generalized_geodesic(mu, mu0, mu1, 0.7, coupling=alpha)))
    # a plan read back from its JSON form goes through the same functions
    back = plan_from_obj(json.loads(json.dumps(plan_to_obj(g1))))
    alpha_b, dist_b = optimal_coupling(back, g2)
    out["plan_from_obj"] = (_coupling(alpha_b) + _hex([dist_b])
                            + _plan(fd_add(plan_from_obj(plan_to_obj(d1)), d2)))
    return out


CASES = [(kind, level) for kind in MANIFOLDS for level in LEVELS]


@pytest.mark.parametrize("kind,level", CASES)
def test_plan_values_match_golden(kind, level):
    want = json.loads(GOLDEN.read_text())[f"{kind}_{level}"]
    got = compute(kind, level)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def regenerate():
    record = {f"{kind}_{level}": compute(kind, level) for kind, level in CASES}
    GOLDEN.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
