"""A value-level net over the level recursion: ``w2_sq`` and ``transport`` at
levels 1-3 against an independent nested solver, not against pinned bits.

The reference is ``perfbench/oracle.py``, imported here read-only from its
file: its squared distance recurses over the measure's JSON node tree,
takes sphere distances by ``arctan2`` and solves every level with scipy's
HiGHS ``linprog``, and it imports nothing from ``hierot``.  For every drawn
pair the net checks that

- ``w2_sq`` is within 1e-9 relative of the oracle's nested value;
- ``transport(mu, nu).value_sq`` is ``w2_sq(mu, nu)``, bit for bit;
- the velocity plan passes ``validate_plan`` and its ``plan_norm_sq`` is
  the value;
- ``exp_push`` of the velocity plan lands on ``nu``: within
  ``measures_close``, or, where the plan dropped fiber entries below
  ``WEIGHT_DROP`` (``wasserstein._velocity``), within the squared distance
  that such slivers can account for;
- ``w2(mu, nu)`` and ``w2(nu, mu)`` agree within 1e-15 relative.

The draws cover levels 1-3 on ``euclidean(2)``, ``euclidean(3)`` and
``sphere(3)`` with 1-4 atoms per node, and three kinds of weights: uniform
over atoms drawn with repeats from a small pool, so costs tie exactly;
random; and random with one atom of weight 1e-15 in a node of two or more.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierot import euclidean, sphere
from hierot.exact_ot import WEIGHT_DROP
from hierot.measures import dirac, mixture
from hierot.plans import exp_push, plan_norm_sq, validate_plan
from hierot.serialization import measure_to_obj
from hierot.wasserstein import measures_close, transport, w2, w2_sq

_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle", Path(__file__).parents[1] / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

MANIFOLDS = {"euclidean2": euclidean(2), "euclidean3": euclidean(3),
             "sphere3": sphere(3)}
KINDS = ("repeated", "random", "tiny")
TINY = 1e-15


def _weights(rng, n, kind):
    if kind == "repeated" or n == 1:
        return [1.0 / n] * n
    w = rng.random(n) + 0.1
    w /= w.sum()
    if kind == "tiny":
        w[rng.integers(n)] = TINY
    w[np.argmax(w)] += 1.0 - math.fsum(w)
    return w.tolist()


def _node(rng, man, level, kind, pools):
    """A level-``level`` measure; with repeated atoms, each atom is one of
    the two measures of its level's pool, which both sides share."""
    if level == 0:
        point = rng.standard_normal(man.ambient_dim)
        return dirac(man, point / np.linalg.norm(point)
                     if man.kind == "sphere" else point)
    n = int(rng.integers(1, 5))
    if kind == "repeated":
        pool = pools.setdefault(level - 1, [
            _node(rng, man, level - 1, kind, pools) for _ in range(2)])
        atoms = [pool[int(i)] for i in rng.integers(0, 2, size=n)]
    else:
        atoms = [_node(rng, man, level - 1, kind, pools) for _ in range(n)]
    return mixture(_weights(rng, n, kind), atoms)


@st.composite
def pairs(draw):
    man = MANIFOLDS[draw(st.sampled_from(sorted(MANIFOLDS)))]
    level, kind = draw(st.integers(1, 3)), draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pools = {}
    return _node(rng, man, level, kind, pools), _node(rng, man, level, kind, pools)


def _sliver_bound(mu, nu):
    """The squared distance that fiber entries below ``WEIGHT_DROP``, one
    per pair of leaves at most, can cost when they are dropped."""
    xs, ys = mu.leaf_stack()[0], nu.leaf_stack()[0]
    far = float(mu.manifold.pairwise_sq_dist(xs, ys).max())
    return WEIGHT_DROP * len(xs) * len(ys) * max(far, 1.0)


def _oracle_w2_sq(mu, nu):
    kind = mu.manifold.kind
    return oracle.w2_sq(kind, mu.level, measure_to_obj(mu)["measure"],
                        measure_to_obj(nu)["measure"])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pairs())
def test_recursion_matches_the_nested_oracle(pair):
    mu, nu = pair
    value = w2_sq(mu, nu)
    assert value == pytest.approx(_oracle_w2_sq(mu, nu), rel=1e-9, abs=1e-12)
    result = transport(mu, nu)
    assert result.value_sq.hex() == value.hex()
    gamma = result.velocity
    validate_plan(gamma)
    assert plan_norm_sq(gamma) == pytest.approx(value, rel=1e-9, abs=1e-12)
    pushed = exp_push(gamma)
    assert measures_close(pushed, nu) or w2_sq(pushed, nu) <= _sliver_bound(mu, nu)
    assert w2(nu, mu) == pytest.approx(w2(mu, nu), rel=1e-15, abs=0.0)
