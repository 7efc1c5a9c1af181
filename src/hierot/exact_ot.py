"""Exact solver for the discrete transportation problem.

Implements the transportation simplex (MODI) with north-west-corner
initialization and Bland's pivoting rule, which terminates without cycling
and returns a basic optimal solution: at most ``m + k - 1`` strictly
positive entries, plus dual potentials certifying optimality through
complementary slackness.  The pivot loop only picks the plan's support:
the polish writes its flows from the marginals.

The solve itself, :func:`_solve_lists`, runs on Python lists of floats from
input validation through the polish and the value; the library's own
callers (the level recursion and the fiber couplings) call it on lists.
:func:`solve_ot` is its numpy edge: costs and marginals come in once through
``tolist``, and numpy builds only the returned plan and potentials.

Every sum the core takes is ``math.fsum``: the marginals' masses, the line
sums of the polish and the certificate, the value and the dual value.  It is
correctly rounded, so no result depends on the order of the terms, on
numpy's summation order or on the Python version.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure, TooLarge, UnbalancedMarginals

WEIGHT_DROP = 1e-14
MASS_TOL = 1e-9
ORACLE_MAX_ATOMS = 7  # the permutation oracle enumerates n! matchings

# the dual certificate of _certified and verify_optimality; scale = max |c|
FLOW_TOL = 1e-12     # flows >= -FLOW_TOL, and the support is the flows above it
SUM_TOL = 1e-10      # every row and column sum within this of its marginal
REDUCED_TOL = 1e-9   # reduced costs >= -REDUCED_TOL * scale
GAP_TOL = 1e-8       # |primal - dual| <= GAP_TOL * scale
SLACK_TOL = 1e-8     # |reduced cost| <= SLACK_TOL * scale on the support


@dataclass(frozen=True, slots=True)
class TransportPlan:
    matrix: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray


@dataclass(frozen=True, slots=True)
class DualPotentials:
    phi: np.ndarray
    psi: np.ndarray


def solve_ot(c, a, b):
    """Minimize ``sum_ij x_ij c_ij`` over couplings of ``a`` and ``b``.

    Returns ``(TransportPlan, DualPotentials, value)``.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2:
        raise InvalidInput(f"cost matrix must be 2-D, got {c.ndim} dimension(s)")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    m, k = c.shape
    if a.shape != (m,) or b.shape != (k,):
        raise UnbalancedMarginals("marginal shapes do not match the cost matrix")
    x, phi, psi, value = _solve_lists(c.tolist(), a.tolist(), b.tolist())
    plan = TransportPlan(matrix=np.array(x), row_marginal=a.copy(),
                         col_marginal=b.copy())
    duals = DualPotentials(phi=np.array(phi), psi=np.array(psi))
    return plan, duals, value


def _solve_lists(c, a, b):
    """:func:`solve_ot` on a list of ``m`` cost rows of ``k`` floats and
    marginal lists of ``m`` and ``k`` floats; returns the plan as a list of
    rows, the potentials as two lists and the value.

    Validates the costs and marginals (the shapes are the caller's); each
    marginal's ``math.fsum`` must be within ``MASS_TOL`` of one.  A 1xk or
    mx1 problem takes its forced coupling (:func:`_forced`); every other
    problem is solved (:func:`_simplex`) and polished (:func:`_polish`) on
    its full marginals, zero and tiny weights included.  Either plan is then
    certified with :func:`_certified` (``NumericalFailure`` if that fails),
    which returns the value, the ``fsum`` of the products ``x_ij * c_ij``.
    The inputs are not modified.
    """
    # a NaN or infinite entry makes the sum non-finite; only an overflowing
    # sum of finite entries needs the entry-by-entry test
    flat = [*itertools.chain.from_iterable(c)]
    if not math.isfinite(sum(flat)) and not all(map(math.isfinite, flat)):
        raise InvalidInput("cost matrix has a non-finite entry")
    # signs first: weights of mixed sign can make fsum fail on the way to
    # a finite sum (inf - inf); nonnegative ones can only overflow it
    if min(a, default=0.0) < 0 or min(b, default=0.0) < 0:
        raise UnbalancedMarginals("marginals must be nonnegative")
    try:
        sa, sb = math.fsum(a), math.fsum(b)
    except OverflowError:
        sa = sb = math.inf
    if not (abs(sa - 1.0) <= MASS_TOL and abs(sb - 1.0) <= MASS_TOL):
        raise UnbalancedMarginals(f"marginals sum to {sa} and {sb}, expected 1")
    scale = max(max(flat), -min(flat))  # max |c_ij|
    if len(a) == 1 or len(b) == 1:
        x, phi, psi = _forced(c, a, b)
    else:
        x, phi, psi, _, basis = _simplex(c, a, b, scale)
        _polish(x, a, b, basis)
    value = _certified(c, a, b, x, phi, psi, scale)
    if value is False:
        raise NumericalFailure("solver returned an uncertified plan")
    return x, phi, psi, value


def _forced(c, a, b):
    """The plan and potentials of a 1xk or mx1 problem, whose coupling is
    forced, as :func:`_polish` leaves the coupling of the normalized
    marginals: an mx1 plan is ``a``; a 1xk plan is ``b`` with its first
    largest entry written as ``a[0]`` less the others, one ``fsum``."""
    if len(a) == 1:
        row, top = list(b), b.index(max(b))
        peak = math.fsum([a[0], *(-w for j, w in enumerate(b) if j != top)])
        if peak >= 0:
            row[top] = peak
        return [row], [0.0], list(c[0])
    return [[w] for w in a], [row[0] for row in c], [0.0]


def _northwest_corner(a, b):
    """Basic feasible start: the basis cells of the staircase (a spanning
    tree) in row-major order and their flows.  ``a`` and ``b`` are lists of
    floats."""
    m, k = len(a), len(b)
    basis, flows = [], []
    i = j = 0
    last_i, last_j = m - 1, k - 1
    ra, rb = a[0], b[0]  # what row i and column j have left
    while True:
        q = ra if ra <= rb else rb  # min(ra, rb)
        basis.append((i, j))
        flows.append(q)
        ra -= q
        rb -= q
        if (ra <= rb and i < last_i) or j == last_j:
            if i == last_i:
                break
            i += 1
            ra = a[i]
        else:
            j += 1
            rb = b[j]
    return basis, flows


def _tree_duals(m, k, basis, c):
    """Solve ``u_i + v_j = c_ij`` on the basis spanning tree, ``u_0 = 0``.

    ``c`` is a list of rows.  Returns the potentials as two lists and the
    tree of the walk from row 0: each node's parent, the basis cell joining
    them and its depth (rows are nodes ``0..m-1``, columns ``m..m+k-1``).
    Passes over the unused cells reach a node from a reached one: its
    potential is the cell's cost less theirs, as along its one path."""
    n = m + k
    u = [0.0] * n
    parent, via = [None] * n, [None] * n
    depth = [0] + [-1] * (n - 1)  # -1: not reached yet
    todo, left = None, list(basis)
    while left != todo:  # until a pass reaches no node
        todo, left = left, []
        for cell in todo:
            i, j = cell
            q = m + j
            if depth[q] < 0 <= depth[i]:
                u[q] = c[i][j] - u[i]
                parent[q], via[q], depth[q] = i, cell, depth[i] + 1
            elif depth[i] < 0 <= depth[q]:
                u[i] = c[i][j] - u[q]
                parent[i], via[i], depth[i] = q, cell, depth[q] + 1
            elif depth[i] < 0:
                left.append(cell)
    if -1 in depth:
        raise NumericalFailure("basis graph is not a spanning tree")
    return u[:m], u[m:], (parent, via, depth)


def _cycle(m, tree, enter):
    """The cycle that the entering cell ``(i0, j0)`` closes in the ``tree``
    of :func:`_tree_duals`: that cell, the parent cells from row ``i0`` up to
    where they meet those from column ``m + j0``, then the latter reversed."""
    parent, via, depth = tree
    p, q = enter[0], m + enter[1]
    up, down = [enter], []
    while p != q:
        if depth[p] >= depth[q]:
            up.append(via[p])
            p = parent[p]
        else:
            down.append(via[q])
            q = parent[q]
    return up + down[::-1]


def _polish(x, a, b, cells):
    """Write the flows of a plan so that each row's and column's
    ``math.fsum`` is its marginal.

    Works in place on a nonnegative plan ``x``, a list of rows whose entries
    outside ``cells`` (``(i, j)`` pairs: a solve's basis, or every cell) are
    zero, with the marginals as lists.  Positive flows below ``1e-15``
    times the least positive weight are rounding debris and become zero.
    A row of positive weight left without a positive flow then ships its
    weight on its first cell, which in a basis is tight.

    The positive cells join the lines into trees.  Each tree is walked from
    its column of largest weight (the first of them), and every other line,
    children first, writes the cell joining it to its parent as its
    marginal less the line's other flows, one ``fsum`` over them, correctly
    rounded: the line's ``fsum`` is then its marginal.  On a forest of
    positive cells (a basis's) every cell joins a line to its parent and is
    written from the marginals alone, so unless a complement is negative the
    plan depends only on which cells are above the clip, not on their flows.

    A line may stay off in two cases.  The root column of each tree takes
    what is left: it misses when the exact masses of the tree's rows and
    columns differ, because those of ``a`` and ``b`` do, or when the
    roundings of the written flows, each within half an ulp, add up past
    its own half ulp.  Any other line misses only where no float value of
    its written cell meets its marginal: on a rounding tie, where the
    complement falls halfway between two floats and neither rounds the
    line's sum to the marginal, or where the line's other flows already
    exceed it; a negative complement is not written.  Rows are never roots,
    so a row (a fiber, in the level recursion) misses only in that second
    case.
    """
    m = len(a)
    weights = a + b
    clip = 1e-15 * min((w for w in weights if w > 0), default=0.0)
    lines = [[] for _ in weights]  # the positive cells of each row and column
    for cell in cells:
        i, j = cell
        flow = x[i][j]
        if flow > 0.0:
            if flow < clip:
                x[i][j] = 0.0
            else:
                lines[i].append(cell)
                lines[m + j].append(cell)
    for cell in cells:
        i, j = cell
        if not lines[i] and a[i] > 0:
            x[i][j] = a[i]
            lines[i].append(cell)
            lines[m + j].append(cell)
    # each tree's lines from its root column, every one after its parent
    order, seen = [], [False] * len(weights)
    columns = sorted(range(m, len(weights)), key=weights.__getitem__,
                     reverse=True)  # stable: the first of equal weights first
    for root in columns:
        if seen[root]:
            continue
        seen[root] = True
        todo = [root]
        while todo:
            node = todo.pop()
            for cell in lines[node]:
                other = m + cell[1] if node < m else cell[0]
                if not seen[other]:
                    seen[other] = True
                    todo.append(other)
                    order.append((other, cell))
    for node, via in reversed(order):
        terms = [weights[node]]
        for cell in lines[node]:
            if cell is not via:
                terms.append(-x[cell[0]][cell[1]])
        val = math.fsum(terms)
        if val >= 0:
            x[via[0]][via[1]] = val


def _bland_entering(c, u, v, basis, neg_tol):
    """Bland's rule: the first cell in row-major order outside ``basis``
    whose reduced cost ``c_ij - u_i - v_j`` is below ``neg_tol``, or None.

    Reduced costs are evaluated only up to that cell.
    """
    for i, row in enumerate(c):
        ui = u[i]
        for j, vj in enumerate(v):
            if row[j] - ui - vj < neg_tol and (i, j) not in basis:
                return i, j
    return None


def _simplex(c, a, b, scale):
    """Transportation simplex from the north-west start on a list of cost
    rows and marginal lists, with ``scale = max |c_ij|``; returns its final
    flows as plan rows (``-0.0`` as ``0.0``), the potentials as lists, the
    pivot count and the basis cells in row-major order."""
    m, k = len(c), len(c[0])
    neg_tol = -1e-12 * scale  # Bland's entering threshold
    basis, flows = _northwest_corner(a, b)
    flow = dict(zip(basis, flows))  # the basis: cell -> flow
    u, v, tree = _tree_duals(m, k, basis, c)

    for it in range(200 * (m + k) * max(m, k) + 2000):
        enter = _bland_entering(c, u, v, flow, neg_tol)
        if enter is None:
            basis = sorted(flow) if it else basis  # the start is row-major
            x = [[0.0] * k for _ in range(m)]
            for (i, j), f in flow.items():
                x[i][j] = f + 0.0  # -0.0 + 0.0 is 0.0
            return x, u, v, it, basis

        cycle = _cycle(m, tree, enter)
        minus = cycle[1::2]
        theta = min(flow[cell] for cell in minus)
        leaving = min(cell for cell in minus if flow[cell] == theta)
        flow[enter] = theta
        for cell in minus:
            flow[cell] -= theta
        for cell in cycle[2::2]:
            flow[cell] += theta
        del flow[leaving]
        u, v, tree = _tree_duals(m, k, flow, c)

    raise NumericalFailure("transportation simplex exceeded its pivot budget")


def permutation_oracle(c) -> float:
    """Exact optimum for uniform square problems by brute force (test oracle)."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if c.shape != (n, n):
        raise UnbalancedMarginals("oracle needs a square cost matrix")
    if n > ORACLE_MAX_ATOMS:
        raise TooLarge(f"{n} > {ORACLE_MAX_ATOMS} atoms for the permutation oracle")
    rows = np.arange(n)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        val = float(c[rows, perm].sum())
        if val < best:
            best = val
    return best / n


def _certified(c, a, b, x, phi, psi, scale):
    """The dual certificate of a plan ``x`` and potentials ``phi``, ``psi``
    for the cost rows ``c``, of largest magnitude ``scale``, and marginals
    ``a``, ``b`` (lists or tuples): every flow is at least ``-FLOW_TOL``,
    every line sum within ``_sum_tol`` of its marginal, every reduced cost
    at least ``-REDUCED_TOL * scale``, within ``SLACK_TOL * scale`` of zero
    on the flows above ``FLOW_TOL``, and the plan's value within
    ``GAP_TOL * scale`` of the dual one.  Returns the value, the ``fsum`` of
    the products ``x_ij * c_ij``, if all hold, else ``False``.  Sums are
    ``math.fsum``; a NaN flow fails the sign test, and a NaN or infinite
    potential the duality gap.
    """
    m, k = len(a), len(b)
    if len(x) != m or len(phi) != m or len(psi) != k:
        return False
    low = loose = 0.0  # the least reduced cost, the largest |one| on the support
    for row, cost, ui in zip(x, c, phi):
        if len(row) != k:
            return False
        for flow, cij, vj in zip(row, cost, psi):
            if not flow >= -FLOW_TOL:
                return False
            slack = cij - ui - vj
            if slack < low:
                low = slack
            if flow > FLOW_TOL and abs(slack) > loose:
                loose = abs(slack)
    sums = [*map(math.fsum, x), *map(math.fsum, zip(*x) if x else [()] * k)]
    weights = [*a, *b]
    if sums != weights:  # an exact line passes; the others are held to SUM_TOL
        tol = SUM_TOL  # and, past it, to _sum_tol, which includes it
        for total, w in zip(sums, weights):
            off = abs(total - w)
            if not (off <= tol or off <= (tol := _sum_tol(a, b))):
                return False
    value = math.fsum(map(operator.mul, itertools.chain.from_iterable(x),
                          itertools.chain.from_iterable(c)))
    dual = math.fsum(map(operator.mul, weights, [*phi, *psi]))
    return value if (low >= -REDUCED_TOL * scale and loose <= SLACK_TOL * scale
                     and abs(value - dual) <= GAP_TOL * scale) else False


def _sum_tol(a, b) -> float:
    """SUM_TOL plus the gap between the exact masses of ``a`` and ``b``, which
    no plan closes on both sides, up to the 2 * MASS_TOL that ``_solve_lists``
    accepts; a NaN, infinite or overflowing gap takes that cap."""
    try:
        return SUM_TOL + min(2.0 * MASS_TOL, abs(math.fsum(a) - math.fsum(b)))
    except (OverflowError, ValueError):
        return SUM_TOL + 2.0 * MASS_TOL


def verify_optimality(plan: TransportPlan, duals: DualPotentials, c) -> bool:
    """Feasibility + dual feasibility + duality gap + complementary slackness:
    :func:`_certified` on the plan, its marginals, the potentials and the
    costs, at its tolerances against ``max |c|``.

    A plan, marginal or potential whose shape does not match the costs fails.
    """
    c = np.asarray(c, dtype=float)
    m, k = c.shape
    parts = [np.asarray(v, dtype=float) for v in (
        plan.matrix, plan.row_marginal, plan.col_marginal, duals.phi, duals.psi)]
    if [v.shape for v in parts] != [(m, k), (m,), (k,), (m,), (k,)]:
        return False
    x, a, b, phi, psi = (v.tolist() for v in parts)
    scale = float(np.abs(c).max()) if c.size else 0.0
    return _certified(c.tolist(), a, b, x, phi, psi, scale) is not False
