"""Exact solver for the discrete transportation problem.

Implements the transportation simplex (MODI) with north-west-corner
initialization and Bland's pivoting rule, which terminates without cycling
and returns a basic optimal solution: at most ``m + k - 1`` strictly
positive entries, plus dual potentials certifying optimality through
complementary slackness.

The solve itself, :func:`_solve_lists`, runs on Python lists of floats from
input validation through the polish and the value; the library's own
callers (the level recursion and the fiber couplings) call it on lists.
:func:`solve_ot` is its numpy edge: costs and marginals come in once through
``tolist``, and numpy builds only the returned plan and potentials.
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

    Validates the costs and marginals (the shapes are the caller's).  A 1xk
    or mx1 problem takes its forced coupling (:func:`_forced`); every other
    problem is normalized, solved, scaled back by a row mass off one by more
    than ``SUM_TOL`` and polished, on its full marginals, zero and tiny
    weights included.  A row of positive weight that the tree flows'
    rounding left without a positive flow then ships its weight on its
    first basis cell, which is tight.  Every plan returned is certified
    with :func:`_certified` (``NumericalFailure`` if that fails), whose pass
    also sums the value below 8 cells.  The inputs are not modified.
    """
    # a NaN or infinite entry makes the sum non-finite; only an overflowing
    # sum of finite entries needs the entry-by-entry test
    flat = [*itertools.chain.from_iterable(c)]
    if not math.isfinite(sum(flat)) and not all(map(math.isfinite, flat)):
        raise InvalidInput("cost matrix has a non-finite entry")
    # signs first: fsum cannot overflow on nonnegative weights of finite sum
    a_min, b_min = min(a, default=0.0), min(b, default=0.0)
    if a_min < 0 or b_min < 0:
        raise UnbalancedMarginals("marginals must be nonnegative")
    sa, sb = _line_sum(a), _line_sum(b)
    if not (_unit_sum(a, sa) and _unit_sum(b, sb)):
        raise UnbalancedMarginals(f"marginals sum to {sa} and {sb}, expected 1")
    scale = max(max(flat), -min(flat))  # max |c_ij|
    if len(a) == 1 or len(b) == 1:
        x, phi, psi = _forced(c, a, b, sa, sb)
    else:
        # w / 1.0 is w: marginals that sum to 1.0 exactly need no division
        an = a if sa == 1.0 else [w / sa for w in a]
        bn = b if sb == 1.0 else [w / sb for w in b]
        x, phi, psi, _, basis = _simplex(c, an, bn, scale)
        if abs(sa - 1.0) > SUM_TOL:  # the polish cannot move that much mass
            x = [[flow * sa for flow in row] for row in x]
        _polish(x, a, b, basis, min(a_min, b_min))
        if a_min < WEIGHT_DROP:  # a tiny row's tree flows may round to 0
            for i, j in basis:
                if a[i] > 0 and not max(x[i]) > 0:
                    x[i][j] = a[i]
    value = _certified(c, a, b, x, phi, psi, scale)
    if value is False:
        raise NumericalFailure("solver returned an uncertified plan")
    # below 8 products numpy sums in order, as the certificate did
    return x, phi, psi, value if len(flat) < 8 else _plan_value(x, c)


def _unit_sum(w, total):
    """Whether ``w``, of in-order sum ``total``, sums to one within MASS_TOL
    in order or exactly (as ``measures.check_weights``); NaN sums fail."""
    return abs(total - 1.0) <= MASS_TOL or (
        math.isfinite(total) and abs(math.fsum(w) - 1.0) <= MASS_TOL)


def _forced(c, a, b, sa, sb):
    """The plan and potentials of a 1xk or mx1 problem, whose coupling is
    forced: what normalizing, the forced coupling of the normalized
    marginals and :func:`_polish` return, bit for bit, without them.  ``sa``
    and ``sb`` are the marginals' sums; with both 1.0, ``a`` and ``b`` are
    coupled as they stand.  Zero and tiny weights are coupled like others.

    An mx1 plan is ``a`` itself: the polish's row pass writes each row's
    only entry as its weight, and it runs last.  A 1xk plan is ``b``: when
    both sums are exactly 1.0 the normalized plan is ``b`` and already
    exact; otherwise the column pass writes each column's only entry as its
    weight, and the row pass then writes the row's first largest entry as
    ``a[0]`` minus the sum of the others, every sweep alike.
    """
    if len(a) == 1:
        row = list(b)
        if not (sa == 1.0 and sb == 1.0):
            peak = max(row)
            val = a[0] - (sb - peak)
            if val >= 0 and val != peak:
                row[row.index(peak)] = val
        return [row], [0.0], list(c[0])
    return [[w] for w in a], [row[0] for row in c], [0.0]


def _plan_value(x, c):
    """``np.sum`` of the C-ordered product of the plan ``x`` and the costs
    ``c`` (lists of rows), bit for bit."""
    flat = itertools.chain.from_iterable
    return _line_sum(list(map(operator.mul, flat(x), flat(c))))


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


def _tree_flows(m, k, basis, a, b):
    """The plan, as a list of rows, whose only nonzero entries are the unique
    flows on the basis spanning tree that satisfy the marginals.

    Peels degree-one nodes, so every flow is a short alternating sum of
    marginals; this avoids the rounding drift of pivot-accumulated flows.
    A negative flow is written as ``0.0``, and a ``-0.0`` stays ``-0.0``.
    ``a`` and ``b`` are lists of floats.  Nodes are rows ``0..m-1`` and
    columns ``m..m+k-1``; a node of degree one finds its last neighbour as
    the XOR of all it had, less those peeled.
    """
    deg = [0] * (m + k)
    link = [0] * (m + k)
    for i, j in basis:
        j += m
        deg[i] += 1
        deg[j] += 1
        link[i] ^= j
        link[j] ^= i
    rem = a + b
    x = [[0.0] * k for _ in range(m)]
    stack = [node for node, d in enumerate(deg) if d == 1]
    while stack:
        node = stack.pop()
        if deg[node] != 1:  # the last node, whose neighbours all went first
            continue
        other = link[node]
        link[other] ^= node
        f = rem[node]
        if node < m:
            x[node][other - m] = 0.0 if f < 0.0 else f
        else:
            x[other][node - m] = 0.0 if f < 0.0 else f
        rem[other] -= f
        deg[other] -= 1
        if deg[other] == 1:
            stack.append(other)
    return x


def _polish(x, a, b, cells, low):
    """Nudge positive flows so row and column sums reproduce the marginals.

    Each pass rewrites the largest entry of a line as the complement of the
    others, which makes that line's floating-point sum exact (Sterbenz);
    up to three alternating passes drive both sides to exactness at ulp
    scale.  The adjustments are ~1e-16 and irrelevant to optimality, but
    they remove stray mass that would otherwise cross finite distances in
    downstream measure comparisons.  A plan whose sums are already exact is
    left unchanged, and the sweeps stop once one leaves the plan as it
    found it, whether it wrote no entry or wrote some back: the next would
    start from the same sums and repeat it.

    Works in place on a nonnegative plan ``x``, a list of rows whose entries
    outside ``cells`` (row-major ``(i, j)`` pairs, a solve's basis) are
    zero, with the marginals as lists and ``low`` the least of their
    weights.

    Sums are taken in numpy's order, so a line that is exact here is exact
    under ``np.sum`` on the matrix built from ``x`` too.  numpy adds a row
    of fewer than 8 entries in order, and columns row by row; such a sum
    starts from ``0.0`` and a zero term changes none of its partial sums, so
    it takes only ``cells``.  Longer rows go pairwise (``_line_sum``), where
    every position counts.  An (m, 1) plan, whose column numpy would add
    pairwise, never comes here: its coupling is forced.  The sweeps run
    only when a line is off, and read and write only ``cells``: a zero
    entry is never a line's positive peak.
    """
    m, k = len(a), len(b)
    if not low > 0:
        low = min((w for w in a + b if w > 0), default=0.0)
    clip = 1e-15 * low
    # line sums and each column's first largest positive entry
    rows, cols, peaks, tops = [0.0] * m, [0.0] * k, [0.0] * k, [-1] * k
    for i, j in cells:
        flow = x[i][j]
        if 0.0 < flow < clip:
            x[i][j] = flow = 0.0
        rows[i] += flow
        cols[j] += flow
        if flow > peaks[j]:
            peaks[j] = flow
            tops[j] = i
    pairwise_rows = k >= 8
    if pairwise_rows:
        rows = [_line_sum(row) for row in x]
    if cols == b and rows == a:
        return
    in_row = [[] for _ in range(m)]
    for i, j in cells:
        in_row[i].append(j)
    for sweep in range(3):
        if sweep:  # the column sums and peaks again, after a sweep's writes
            cols, peaks, tops = [0.0] * k, [0.0] * k, [-1] * k
            for i in range(m):
                row = x[i]
                for j in in_row[i]:
                    flow = row[j]
                    cols[j] += flow
                    if flow > peaks[j]:
                        peaks[j] = flow
                        tops[j] = i
            if cols == b and rows == a:
                return
        before = {}  # each cell this sweep writes: its flow before the sweep
        for j in range(k):
            i = tops[j]
            if i >= 0:
                peak = peaks[j]
                val = b[j] - (cols[j] - peak)
                if val >= 0 and val != peak:
                    before.setdefault((i, j), peak)
                    x[i][j] = val
        for i in range(m):
            row, js = x[i], in_row[i]
            peak, top, total = 0.0, -1, 0.0
            for j in js:
                flow = row[j]
                total += flow
                if flow > peak:
                    peak, top = flow, j
            if pairwise_rows:
                total = _line_sum(row)
            val = a[i] - (total - peak)
            if top >= 0 and val >= 0 and val != peak:
                before.setdefault((i, top), peak)
                row[top] = val
                total = 0.0
                for j in js:
                    total += row[j]
                if pairwise_rows:
                    total = _line_sum(row)
            rows[i] = total
        if all(x[i][j] == flow for (i, j), flow in before.items()):
            return


def _line_sum(v):
    """``np.sum`` of a list of floats, bit for bit.

    numpy adds a contiguous line of fewer than 8 entries in order, and a
    longer one pairwise with 8 accumulators in blocks of 128; the reduction
    starts from ``0.0``.  Explicit loops, not the builtin ``sum``, which
    compensates float sums from Python 3.12 on.
    """
    if len(v) < 8:
        total = 0.0
        for w in v:
            total += w
        return total
    return 0.0 + _pairwise_sum(v)


def _pairwise_sum(v):
    """numpy's pairwise sum of a list of 8 or more floats."""
    n = len(v)
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(v[:half]) + _pairwise_sum(v[half:])
    r0, r1, r2, r3, r4, r5, r6, r7 = v[:8]
    stop = n - n % 8
    for i in range(8, stop, 8):
        r0 += v[i]
        r1 += v[i + 1]
        r2 += v[i + 2]
        r3 += v[i + 3]
        r4 += v[i + 4]
        r5 += v[i + 5]
        r6 += v[i + 6]
        r7 += v[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for w in v[stop:]:
        total += w
    return total


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
    rows and marginal lists, with ``scale = max |c_ij|``; returns the plan
    rows, the potentials as lists, the pivot count and the basis cells in
    row-major order."""
    m, k = len(c), len(c[0])
    neg_tol = -1e-12 * scale  # Bland's entering threshold
    basis, flows = _northwest_corner(a, b)
    flow = dict(zip(basis, flows))  # the basis: cell -> flow
    u, v, tree = _tree_duals(m, k, basis, c)

    for it in range(200 * (m + k) * max(m, k) + 2000):
        enter = _bland_entering(c, u, v, flow, neg_tol)
        if enter is None:
            basis = sorted(flow) if it else basis  # the start is row-major
            return _tree_flows(m, k, basis, a, b), u, v, it, basis

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
    """:func:`verify_optimality` on lists: the plan ``x`` and potentials
    ``phi``, ``psi`` of a solve on the cost rows ``c``, of largest magnitude
    ``scale``, and marginals ``a``, ``b`` (lists or tuples), by the same five
    conditions at the same tolerances.  Returns the plan's value, summed in
    row-major order, if they hold, else ``False``.

    Sums are taken in order rather than in numpy's order, which moves them
    by ulps, far below the tolerances.  A NaN flow fails the sign test, and
    a NaN or infinite potential the duality gap.
    """
    m, k = len(a), len(b)
    if len(x) != m or len(phi) != m or len(psi) != k:
        return False
    neg, tol, cols = -FLOW_TOL, SUM_TOL, [0.0] * k
    value = dual = 0.0
    low = loose = 0.0  # the least reduced cost, the largest |one| on the support
    for i in range(m):
        row, cost, ui = x[i], c[i], phi[i]
        if len(row) != k:
            return False
        total = 0.0
        for j in range(k):
            flow = row[j]
            if not flow >= neg:
                return False
            cij = cost[j]
            slack = cij - ui - psi[j]
            if slack < low:
                low = slack
            if flow > FLOW_TOL and abs(slack) > loose:
                loose = abs(slack)
            total += flow
            cols[j] += flow
            value += flow * cij
        dual += a[i] * ui
        # a line that misses SUM_TOL is held to _sum_tol, which includes it
        off = abs(total - a[i])
        if not (off <= tol or off <= (tol := _sum_tol(a, b))):
            return False
    for j in range(k):
        dual += b[j] * psi[j]
        off = abs(cols[j] - b[j])
        if not (off <= tol or off <= (tol := _sum_tol(a, b))):
            return False
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
    """Feasibility + dual feasibility + duality gap + complementary slackness.

    A plan, marginal or potential whose shape does not match the costs fails.
    """
    c = np.asarray(c, dtype=float)
    x = plan.matrix
    m, k = c.shape
    shapes = [np.shape(v) for v in (x, plan.row_marginal, duals.phi,
                                    plan.col_marginal, duals.psi)]
    if shapes != [(m, k), (m,), (m,), (k,), (k,)]:
        return False
    scale = float(np.abs(c).max()) if c.size else 0.0
    # each test is written so that a NaN fails it, as in _certified
    if not np.all(x >= -FLOW_TOL):
        return False
    sum_tol = _sum_tol(plan.row_marginal, plan.col_marginal)
    if not (np.abs(x.sum(axis=1) - plan.row_marginal).max() <= sum_tol
            and np.abs(x.sum(axis=0) - plan.col_marginal).max() <= sum_tol):
        return False
    slack = c - duals.phi[:, None] - duals.psi[None, :]
    if not float(slack.min()) >= -REDUCED_TOL * scale:
        return False
    value = float((x * c).sum())
    dual_value = float(plan.row_marginal @ duals.phi + plan.col_marginal @ duals.psi)
    if not abs(value - dual_value) <= GAP_TOL * scale:
        return False
    support = x > FLOW_TOL
    if support.any() and not float(np.abs(slack[support]).max()) <= SLACK_TOL * scale:
        return False
    return True
