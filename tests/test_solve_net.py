"""A value-level net under ``exact_ot._solve_lists``: every solve is checked
against independent oracles rather than against pinned bits.

Each drawn problem is solved by the core on costs scaled by a power of ten
from 1e-150 to 1e150.  Its value must match HiGHS ``linprog`` on the
unscaled costs, within a relative 1e-9, or, for uniform square problems up
to ``ORACLE_MAX_ATOMS``, the brute-force ``permutation_oracle``.  Its plan
and potentials must pass ``verify_optimality``; every row of positive
weight must have a positive flow; every positive flow, those below
``FLOW_TOL`` that the certificate skips included, must sit on a cell whose
reduced cost is within ``SLACK_TOL`` of zero, relative to the largest
cost; and the plan must be a vertex, with at most m+k-1 positive entries.

The draws cover shapes up to 16x16 with 1xk and mx1 among them, costs with
exact ties, uniform weights, rows and columns of weight 0, 1e-300, 1e-16
and 9.9e-15 (just below ``WEIGHT_DROP``), and masses off one by up to
0.9 * ``MASS_TOL`` on each side.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierot.exact_ot import (MASS_TOL, ORACLE_MAX_ATOMS, SLACK_TOL,
                             DualPotentials, TransportPlan, _solve_lists,
                             permutation_oracle, verify_optimality)
from test_exact_ot import highs_value

SEEDS = st.integers(0, 2 ** 32 - 1)
SCALES = st.integers(-150, 150).map(lambda e: 10.0 ** e)
OFFSETS = st.one_of(st.just(0.0), st.sampled_from([-0.9, 0.9]),
                    st.floats(-0.9, 0.9)).map(lambda f: f * MASS_TOL)
TINY = st.sampled_from([None, 0.0, 1e-300, 1e-16, 9.9e-15])


def _costs(rng, m, k, ties):
    if ties:  # few distinct values, so costs tie exactly
        return rng.integers(0, 3, size=(m, k)).astype(float)
    return rng.random((m, k)) * 4.0


@st.composite
def problems(draw):
    """``(c0, scale, a, b)``: unscaled costs as an array, the power of ten
    the core's costs are scaled by, and the marginals as lists."""
    m, k = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(SEEDS))
    c0 = _costs(rng, m, k, draw(st.booleans()))
    uniform = draw(st.booleans())
    if draw(st.booleans()):  # both sides weigh the same, at the widest
        offs = [draw(st.sampled_from([-0.9, 0.9])) * MASS_TOL] * 2
    else:
        offs = [draw(OFFSETS), draw(OFFSETS)]
    sides = []
    for n, off in zip((m, k), offs):
        w = np.full(n, 1.0 / n) if uniform else rng.random(n) + 0.1
        tiny = draw(TINY)
        if tiny is not None and n > 1:  # the other entries keep the mass
            w[rng.integers(n)] = tiny
        w = w / w.sum() * (1.0 + off)
        sides.append(w.tolist())
    return c0, draw(SCALES), *sides


def _certified_value(c0, scale, a, b):
    """The core's value on ``c0 * scale``, unscaled, after checking its plan
    and potentials."""
    c = (c0 * scale).tolist()
    x, phi, psi, value = _solve_lists(c, a, b)
    plan = TransportPlan(np.array(x), np.array(a), np.array(b))
    duals = DualPotentials(np.array(phi), np.array(psi))
    assert verify_optimality(plan, duals, np.array(c))
    for w, row in zip(a, x):
        assert not w > 0 or max(row) > 0
    slack = SLACK_TOL * max(abs(v) for row in c for v in row)
    support = [(i, j) for i, row in enumerate(x)
               for j, flow in enumerate(row) if flow > 0]
    for i, j in support:
        assert abs(c[i][j] - phi[i] - psi[j]) <= slack
    assert len(support) <= len(a) + len(b) - 1
    return value / scale


@settings(derandomize=True, deadline=None, max_examples=160)
@given(problems())
def test_core_matches_highs(problem):
    c0, scale, a, b = problem
    value = _certified_value(c0, scale, a, b)
    # HiGHS needs balanced marginals, and the optimum scales with the row
    # mass; where the masses differ no plan meets both sides, and the
    # value may move by that gap times the largest cost
    sa, sb = math.fsum(a), math.fsum(b)
    want = sa * highs_value(c0, np.array(a) / sa, np.array(b) / sb)
    gap = abs(sa - sb) * float(c0.max())
    assert value == pytest.approx(want, rel=1e-9, abs=1e-12 + gap)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(1, ORACLE_MAX_ATOMS), SEEDS, st.booleans(), SCALES)
def test_core_matches_the_permutation_oracle(n, seed, ties, scale):
    c0 = _costs(np.random.default_rng(seed), n, n, ties)
    uniform = [1.0 / n] * n
    value = _certified_value(c0, scale, uniform, uniform)
    assert value == pytest.approx(permutation_oracle(c0), rel=1e-9, abs=1e-12)
