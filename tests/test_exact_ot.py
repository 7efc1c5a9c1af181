import dataclasses
import itertools

import numpy as np
import pytest

from hierot.errors import InvalidInput, TooLarge, UnbalancedMarginals
from hierot.exact_ot import (WEIGHT_DROP, DualPotentials, TransportPlan,
                             _certified, _forced, _line_sum, _plan_value,
                             _polish, _solve_lists, permutation_oracle,
                             solve_ot, verify_optimality)
from hierot.sampling import rng_from_seed


def two_by_two():
    # cost of matching {0, 1} to {2, 3} on the line, squared distances
    return np.array([[4.0, 9.0], [1.0, 4.0]])


def test_monotone_matching_value():
    # both permutations enumerated by hand: id -> 4, swap -> 5
    c = two_by_two()
    costs = [0.5 * (c[0, p[0]] + c[1, p[1]])
             for p in itertools.permutations(range(2))]
    assert min(costs) == 4.0
    plan, duals, value = solve_ot(c, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert value == pytest.approx(4.0, abs=1e-12)
    assert verify_optimality(plan, duals, c)


def test_identity_plan_zero_cost():
    c = np.array([[0.0, 5.0], [5.0, 0.0]])
    a = np.array([0.3, 0.7])
    plan, duals, value = solve_ot(c, a, a)
    assert value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(plan.matrix, np.diag(a))
    assert verify_optimality(plan, duals, c)


def test_single_row_problem():
    c = np.array([[1.0, 2.0, 3.0]])
    b = np.array([0.2, 0.3, 0.5])
    plan, duals, value = solve_ot(c, np.array([1.0]), b)
    assert value == pytest.approx(float(b @ c[0]))
    assert np.allclose(plan.matrix[0], b)
    assert verify_optimality(plan, duals, c)


def test_unbalanced_marginals_rejected():
    c = np.zeros((2, 2))
    with pytest.raises(UnbalancedMarginals):
        solve_ot(c, np.array([0.5, 0.6]), np.array([0.5, 0.5]))


def test_oracle_limits_and_zero_cost():
    assert permutation_oracle(np.zeros((3, 3))) == 0.0
    with pytest.raises(TooLarge):
        permutation_oracle(np.zeros((8, 8)))


def test_oracle_matches_solver_on_random_instances():
    rng = rng_from_seed(123)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        c = rng.random((n, n)) * 10
        a = np.full(n, 1.0 / n)
        plan, duals, value = solve_ot(c, a, a)
        assert verify_optimality(plan, duals, c)
        assert value == pytest.approx(permutation_oracle(c), abs=1e-10)
        # basic solution: at most 2n - 1 strictly positive entries
        assert int((plan.matrix > 0).sum()) <= 2 * n - 1


def test_general_marginals_against_lp_rounding():
    rng = rng_from_seed(77)
    for _ in range(100):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        c = rng.random((m, k)) * 5
        a = rng.random(m) + 0.1
        a /= a.sum()
        b = rng.random(k) + 0.1
        b /= b.sum()
        plan, duals, value = solve_ot(c, a, b)
        assert verify_optimality(plan, duals, c)
        assert np.abs(plan.matrix.sum(axis=1) - a).max() <= 1e-10
        assert np.abs(plan.matrix.sum(axis=0) - b).max() <= 1e-10
        gap = abs(value - float(a @ duals.phi + b @ duals.psi))
        assert gap <= 1e-8 * (1 + abs(value))


def test_value_invariant_under_permutation():
    rng = rng_from_seed(5)
    c = rng.random((5, 4))
    a = rng.random(5) + 0.1
    a /= a.sum()
    b = rng.random(4) + 0.1
    b /= b.sum()
    _, _, value = solve_ot(c, a, b)
    pr = rng.permutation(5)
    pc = rng.permutation(4)
    _, _, value_p = solve_ot(c[np.ix_(pr, pc)], a[pr], b[pc])
    assert value_p == pytest.approx(value, abs=1e-10)


def test_value_scales_linearly_in_cost():
    rng = rng_from_seed(6)
    c = rng.random((4, 4))
    a = np.full(4, 0.25)
    _, _, value = solve_ot(c, a, a)
    for lam in (0.5, 2.0, 7.5):
        _, _, scaled = solve_ot(lam * c, a, a)
        assert scaled == pytest.approx(lam * value, abs=1e-12 * (1 + lam))


def test_verify_optimality_rejects_swapped_plan():
    c = two_by_two()
    a = np.array([0.5, 0.5])
    plan, duals, value = solve_ot(c, a, a)
    # move all mass to the off-optimal permutation: cost 5 vs optimum 4
    swapped = TransportPlan(matrix=np.array([[0.0, 0.5], [0.5, 0.0]]),
                            row_marginal=a, col_marginal=a)
    assert float((swapped.matrix * c).sum()) == pytest.approx(5.0)
    assert not verify_optimality(swapped, duals, c)


def test_verify_optimality_zero_cost_any_plan():
    c = np.zeros((2, 2))
    a = np.array([0.5, 0.5])
    plan = TransportPlan(matrix=np.array([[0.25, 0.25], [0.25, 0.25]]),
                         row_marginal=a, col_marginal=a)
    duals = DualPotentials(phi=np.zeros(2), psi=np.zeros(2))
    assert verify_optimality(plan, duals, c)


@pytest.mark.parametrize("where", ["row_marginal", "plan_entry", "potential"])
def test_verify_optimality_refuses_nan(where):
    # one NaN put into a certified solve: a comparison with NaN is false, so
    # each test must be written to pass only on a number within tolerance
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = np.array([0.5, 0.5])
    plan, duals, _ = solve_ot(c, a, a)
    assert verify_optimality(plan, duals, c)
    x, row, phi = plan.matrix.copy(), a.copy(), duals.phi.copy()
    if where == "row_marginal":
        row[0] = np.nan
    elif where == "plan_entry":
        x[1, 1] = np.nan
    else:
        phi[1] = np.nan
    assert not verify_optimality(TransportPlan(x, row, a),
                                 DualPotentials(phi, duals.psi), c)
    assert not _certified(c.tolist(), row.tolist(), a.tolist(), x.tolist(),
                          phi.tolist(), duals.psi.tolist(), 1.0)


def assert_tiny_rows_ship_their_weight(plan, duals, c):
    """Each row of positive weight below WEIGHT_DROP carries exactly its
    weight, and only on tight cells (``c_ij - phi_i - psi_j`` zero)."""
    a = plan.row_marginal
    for i in np.flatnonzero((a > 0) & (a < WEIGHT_DROP)):
        row = plan.matrix[i]
        assert row.sum() == a[i], i
        cells = np.flatnonzero(row > 0)
        assert (c[i, cells] - duals.phi[i] - duals.psi[cells] == 0.0).all(), i


def test_tiny_weights_are_solved_with_the_rest():
    c = np.array([[1.0, 2.0], [3.0, 0.5]])
    a = np.array([1.0 - 1e-16, 1e-16])
    b = np.array([0.5, 0.5])
    plan, duals, value = solve_ot(c, a, b)
    # row 1 is solved like any other: its weight ships on column 1, the
    # cheaper column for it, which the tree keeps tight
    assert plan.matrix[1].tolist() == [0.0, 1e-16]
    assert_tiny_rows_ship_their_weight(plan, duals, c)
    assert verify_optimality(plan, duals, c)


def test_tolerances_scale_with_the_costs():
    # costs of 1e-13: the diagonal is the north-west start, and its
    # reduced cost -2e-13 on the other cells is far below tolerance at this
    # scale, so the solve pivots to the anti-diagonal, of value 0
    c = 1e-13 * np.eye(2)
    half = np.array([0.5, 0.5])
    plan, duals, value = solve_ot(c, half, half)
    assert value == 0.0
    assert plan.matrix.tolist() == [[0.0, 0.5], [0.5, 0.0]]
    assert verify_optimality(plan, duals, c)
    # the diagonal with its tree potentials is feasible, not optimal
    diagonal = TransportPlan(np.diag(half), half, half)
    assert not verify_optimality(
        diagonal, DualPotentials(np.array([0.0, -1e-13]),
                                 np.array([1e-13, 2e-13])), c)


def test_degenerate_marginals_do_not_cycle():
    # many exact ties force degenerate pivots
    rng = rng_from_seed(42)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        c = np.round(rng.random((n, n)) * 4) / 4.0
        a = np.full(n, 1.0 / n)
        plan, duals, value = solve_ot(c, a, a)
        assert verify_optimality(plan, duals, c)
        assert value == pytest.approx(permutation_oracle(c), abs=1e-10)


# -- cross-check against HiGHS ------------------------------------------------

HIGHS_SHAPES = [(1, 1), (1, 4), (1, 8), (5, 1), (8, 1), (2, 2), (3, 3),
                (5, 5), (8, 8), (2, 7), (7, 3), (4, 6), (8, 5)]
HIGHS_KINDS = ("uniform", "random", "tiny")


def highs_cases():
    """Seeded problems; ``tiny`` puts weights below WEIGHT_DROP on a row and
    a column wherever that leaves a side with mass."""
    rng = rng_from_seed(2024)
    for m, k in HIGHS_SHAPES:
        for kind in HIGHS_KINDS:
            c = rng.random((m, k)) * 4
            if kind == "uniform":
                a, b = np.full(m, 1.0 / m), np.full(k, 1.0 / k)
            else:
                a, b = rng.random(m) + 0.1, rng.random(k) + 0.1
                if kind == "tiny":
                    if m > 1:
                        a[rng.integers(m)] = 1e-16
                    if k > 1:
                        b[rng.integers(k)] = 1e-16
                a, b = a / a.sum(), b / b.sum()
            yield (m, k, kind), c, a, b


def highs_value(c, a, b):
    from scipy.optimize import linprog
    m, k = c.shape
    rows = np.kron(np.eye(m), np.ones(k))
    cols = np.kron(np.ones(m), np.eye(k))
    res = linprog(c.ravel(), A_eq=np.vstack([rows, cols]),
                  b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


# Cases whose polished sums stay off the marginals by a few ulps: where the
# marginals' own float sums differ no plan reproduces both sides exactly.
HIGHS_INEXACT = {
    (5, 1, "random"), (2, 2, "tiny"), (3, 3, "random"), (3, 3, "tiny"),
    (5, 5, "random"), (5, 5, "tiny"), (8, 8, "random"), (8, 8, "tiny"),
    (2, 7, "uniform"), (2, 7, "random"), (2, 7, "tiny"), (7, 3, "uniform"),
    (7, 3, "random"), (7, 3, "tiny"), (4, 6, "uniform"), (4, 6, "random"),
    (4, 6, "tiny"), (8, 5, "uniform"), (8, 5, "random"), (8, 5, "tiny")}


def test_solver_matches_highs():
    for case, c, a, b in highs_cases():
        plan, duals, value = solve_ot(c, a, b)
        assert value == pytest.approx(highs_value(c, a, b), rel=1e-9, abs=1e-12), case
        assert verify_optimality(plan, duals, c), case
        # rows below the weight floor ship their weight on tight cells
        assert_tiny_rows_ship_their_weight(plan, duals, c)
        gap = max(np.abs(plan.matrix.sum(axis=1) - a).max(),
                  np.abs(plan.matrix.sum(axis=0) - b).max())
        if case in HIGHS_INEXACT:
            assert gap <= 4 * np.finfo(float).eps, case
        else:
            assert gap == 0.0, case


def repair_by_lines(x, a, b, sweeps=3):
    """Line-by-line reference for the polish on every cell."""
    x = x.copy()
    m, k = x.shape
    positive = np.concatenate([a[a > 0], b[b > 0]])
    if positive.size:
        clip = 1e-15 * float(positive.min())
        x[(x > 0) & (x < clip)] = 0.0
    for _ in range(sweeps):
        if (x.sum(axis=1) == a).all() and (x.sum(axis=0) == b).all():
            break
        for j in range(k):
            rows = np.flatnonzero(x[:, j] > 0)
            if len(rows):
                top = rows[np.argmax(x[rows, j])]
                val = b[j] - float(x[rows, j].sum() - x[top, j])
                if val >= 0:
                    x[top, j] = val
        for i in range(m):
            cols = np.flatnonzero(x[i] > 0)
            if len(cols):
                top = cols[np.argmax(x[i, cols])]
                val = a[i] - float(x[i, cols].sum() - x[i, top])
                if val >= 0:
                    x[i, top] = val
    return x


def test_repair_flow_sums_matches_line_reference():
    # below eight entries a line sums in index order either way, so the
    # results agree bit for bit; longer lines may differ in the last ulp
    rng = rng_from_seed(31)
    for _ in range(300):
        m, k = (int(n) for n in rng.integers(1, 13, size=2))
        x = rng.random((m, k)) * (rng.random((m, k)) < 0.6)
        x[rng.integers(m), rng.integers(k)] += 0.5
        x /= x.sum()
        a = x.sum(axis=1) + rng.integers(-2, 3, size=m) * 1e-17
        b = x.sum(axis=0) + rng.integers(-2, 3, size=k) * 1e-17
        rows = x.tolist()
        _polish(rows, a.tolist(), b.tolist(),
                [(i, j) for i in range(m) for j in range(k)])
        got = np.array(rows)
        want = repair_by_lines(x, a, b)
        if max(m, k) < 8:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("a", [[float("nan"), 0.5], [float("nan"), 1.0],
                               [float("inf"), 0.5], [0.5, float("-inf")],
                               [1.5, -0.5]])
def test_non_finite_or_negative_marginal_rejected(a):
    # the mass test must fail for a NaN sum, which compares false with
    # anything; a negative weight must not be solved like a tiny one
    with pytest.raises(UnbalancedMarginals):
        solve_ot(np.ones((2, 2)), np.array(a), np.array([0.5, 0.5]))
    with pytest.raises(UnbalancedMarginals):
        solve_ot(np.ones((2, 2)), np.array([0.5, 0.5]), np.array(a))


def test_negative_marginal_rejected_before_its_sum():
    # the signs are tested first: these weights' in-order sum is 0.0, but
    # their exact sum overflows on the way
    a = np.array([1e308, 1e308] + [0.0] * 6 + [-1e308, -1e308] + [0.0] * 6)
    with pytest.raises(UnbalancedMarginals, match="nonnegative"):
        solve_ot(np.ones((16, 2)), a, np.array([0.5, 0.5]))
    with pytest.raises(UnbalancedMarginals, match="nonnegative"):
        solve_ot(np.ones((2, 16)), np.array([0.5, 0.5]), a)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("shape", [(1, 3), (3, 1), (2, 2), (3, 3)])
def test_non_finite_cost_rejected(bad, shape):
    c = np.ones(shape)
    c[-1, -1] = bad
    a, b = np.full(shape[0], 1.0 / shape[0]), np.full(shape[1], 1.0 / shape[1])
    with pytest.raises(InvalidInput, match="non-finite"):
        solve_ot(c, a, b)


@pytest.mark.parametrize("c", [np.zeros(3), np.zeros((2, 2, 2)), np.float64(1.0)])
def test_cost_that_is_not_2d_rejected(c):
    with pytest.raises(InvalidInput, match="2-D"):
        solve_ot(c, [1.0], [1.0])


def _spread(rng, shape):
    """Positive values over ten decades, with some exact zeros."""
    x = rng.random(shape) * 10.0 ** rng.integers(-10, 1, size=shape)
    return np.where(rng.random(shape) < 0.1, 0.0, x)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


# The polish decides exactness with these sums, so they must be numpy's to
# the last bit: short lines in order, longer ones pairwise in blocks.  The
# builtin sum() is no substitute: from Python 3.12 it compensates float sums
# and returns different bits.
def test_line_sum_matches_numpy_bit_for_bit():
    rng = rng_from_seed(41)
    for n in range(1, 301):
        for _ in range(3):
            x = _spread(rng, n)
            assert _bits(_line_sum(x.tolist())) == _bits(np.sum(x)), n
    assert _bits(_line_sum([-0.0, -0.0])) == _bits(np.sum([-0.0, -0.0]))


@pytest.mark.parametrize("m,k", [(1, 1), (1, 9), (9, 1), (20, 1), (300, 1),
                                 (2, 3), (5, 9), (9, 5), (7, 7), (8, 8),
                                 (13, 130), (130, 13), (300, 2), (2, 300)])
def test_matrix_line_sums_match_numpy_bit_for_bit(m, k):
    rng = rng_from_seed(43 + m * k)
    for _ in range(3):
        x = _spread(rng, (m, k))
        rows = x.tolist()
        assert _bits([_line_sum(r) for r in rows]) == _bits(x.sum(axis=1))


def _hexes(rows):
    return [[v.hex() for v in row] for row in rows]


@pytest.mark.parametrize("m,k", [(1, 1), (1, 2), (1, 7), (1, 8), (1, 13),
                                 (2, 1), (7, 1), (8, 1), (13, 1)])
def test_forced_coupling_is_the_general_path(m, k):
    # normalize, the product coupling of the normalized marginals, the
    # polish and the value sum, bit for bit: marginals whose sums are 1.0
    # exactly, and a few ulps or up to the 1e-9 tolerance off
    rng = rng_from_seed(61 + 16 * m + k)
    for trial in range(300):
        c = (rng.standard_normal((m, k)) * 10.0 ** rng.integers(-2, 3)).tolist()
        a = rng.random(m) + 0.05
        b = rng.random(k) + 0.05
        a, b = (a / a.sum()).tolist(), (b / b.sum()).tolist()
        off = [0.0, 2e-16, -3e-16, 1e-12, -5e-10][trial % 5]
        a = [w * (1.0 + off) for w in a]
        sa, sb = _line_sum(a), _line_sum(b)
        an, bn = [w / sa for w in a], [w / sb for w in b]
        if m == 1:
            x, phi, psi = [[w * an[0] for w in bn]], [0.0], list(c[0])
            basis = [(0, j) for j in range(k)]
        else:
            x, phi, psi = [[w * bn[0]] for w in an], [row[0] for row in c], [0.0]
            basis = [(i, 0) for i in range(m)]
        _polish(x, a, b, basis)
        value = _line_sum([xv * cv for xr, cr in zip(x, c)
                           for xv, cv in zip(xr, cr)])
        got = _forced(c, a, b, sa, sb)
        assert _hexes(got[0]) == _hexes(x)
        assert _hexes(got[1:]) == _hexes([phi, psi])
        assert _solve_lists(c, a, b)[3].hex() == value.hex()


@pytest.mark.parametrize("m,k", [(1, 3), (2, 3), (3, 3), (2, 4), (3, 5),
                                 (4, 4), (5, 7), (8, 8), (9, 15), (11, 12),
                                 (12, 11), (16, 16)])
def test_plan_value_from_cells_is_numpys_sum(m, k):
    # a sparse plan's value is np.sum of the whole product matrix, bit for
    # bit, zero products (of either sign) included
    rng = rng_from_seed(67 + 16 * m + k)
    for _ in range(200):
        x = rng.random((m, k)) * (rng.random((m, k)) < 0.3)
        c = rng.standard_normal((m, k)) * 10.0 ** rng.integers(-3, 4)
        x[rng.integers(m), rng.integers(k)] = 0.0
        got = _plan_value(x.tolist(), c.tolist())
        assert got.hex() == float(np.sum(x * c)).hex()


@pytest.mark.parametrize("m,k", [(1, 5), (5, 1), (3, 4), (4, 3), (6, 6),
                                 (3, 7), (3, 8), (2, 9), (9, 2), (12, 1),
                                 (1, 12), (10, 10)])
def test_polish_on_support_cells_matches_all_cells(m, k):
    # a plan's sums over its support cells alone, in numpy's order, decide
    # and repair exactly as the sums over every cell do
    rng = rng_from_seed(73 + 16 * m + k)
    for _ in range(200):
        x = rng.random((m, k)) * (rng.random((m, k)) < 0.5)
        x[rng.integers(m), rng.integers(k)] += 0.3
        x[rng.integers(m), rng.integers(k)] = 1e-19  # below the clip
        x /= x.sum()
        a = (x.sum(axis=1) + rng.integers(-2, 3, size=m) * 1e-17).tolist()
        b = (x.sum(axis=0) + rng.integers(-2, 3, size=k) * 1e-17).tolist()
        every = [(i, j) for i in range(m) for j in range(k)]
        support = [(i, j) for i, j in every if x[i, j] != 0.0]
        full, sparse = x.tolist(), x.tolist()
        _polish(full, a, b, every)
        _polish(sparse, a, b, support)
        assert _hexes(sparse) == _hexes(full)
        # a plan whose sums are numpy's marginals to the last bit is left as
        # it is, which needs numpy's order (pairwise from 8 entries up)
        x[x < 1e-17] = 0.0
        exact = x.tolist()
        _polish(exact, x.sum(axis=1).tolist(), x.sum(axis=0).tolist(), support)
        assert _hexes(exact) == _hexes(x.tolist())


def test_plan_and_duals_are_frozen_slotted_dataclasses():
    plan, duals, _ = solve_ot([[0.0, 1.0]], [1.0], [0.5, 0.5])
    for obj, names in ((plan, ("matrix", "row_marginal", "col_marginal")),
                       (duals, ("phi", "psi"))):
        assert tuple(f.name for f in dataclasses.fields(obj)) == names
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, names[0], None)
