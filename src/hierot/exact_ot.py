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

# the dual certificate of _certified and verify_optimality; scale = 1 + max |c|
FLOW_TOL = 1e-12     # flows >= -FLOW_TOL, and the support is the flows above it
SUM_TOL = 1e-10      # every row and column sum within this of its marginal
REDUCED_TOL = 1e-9   # reduced costs >= -REDUCED_TOL * scale
GAP_TOL = 1e-8       # |primal - dual| <= GAP_TOL * (1 + |primal|)
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
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
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

    Validates the costs and marginals (the shapes are the caller's), drops
    and restores the rows and columns below ``WEIGHT_DROP``, normalizes,
    solves, polishes and sums the value, as ``solve_ot`` does.  The inputs
    are not modified.
    """
    # a NaN or infinite entry makes the sum non-finite; only an overflowing
    # sum of finite entries needs the entry-by-entry test
    if not math.isfinite(sum(map(sum, c))) and not all(
            map(math.isfinite, itertools.chain.from_iterable(c))):
        raise InvalidInput("cost matrix has a non-finite entry")
    sa, sb = _line_sum(a), _line_sum(b)
    # written so that a NaN sum (a NaN or infinite weight) fails too
    if not (abs(sa - 1.0) <= MASS_TOL and abs(sb - 1.0) <= MASS_TOL):
        raise UnbalancedMarginals(f"marginals sum to {sa} and {sb}, expected 1")

    a_min, b_min = min(a), min(b)
    if a_min < 0 or b_min < 0:
        raise UnbalancedMarginals("marginals must be nonnegative")
    dropped = a_min < WEIGHT_DROP or b_min < WEIGHT_DROP
    cc, ar, bc = c, a, b
    if dropped:
        keep_r = [i for i, w in enumerate(a) if w >= WEIGHT_DROP]
        keep_c = [j for j, w in enumerate(b) if w >= WEIGHT_DROP]
        cc = [[c[i][j] for j in keep_c] for i in keep_r]
        ar, bc = [a[i] for i in keep_r], [b[j] for j in keep_c]
        sa, sb = _line_sum(ar), _line_sum(bc)
    elif len(a) == 1 or len(b) == 1:
        return _forced(c, a, b, sa, sb)

    # w / 1.0 is w: marginals that sum to 1.0 exactly need no division
    an = ar if sa == 1.0 else [w / sa for w in ar]
    bn = bc if sb == 1.0 else [w / sb for w in bc]
    if len(an) == 1 or len(bn) == 1:  # forced after dropping: polished below
        x, phi, psi, _ = _forced(cc, an, bn, 1.0, 1.0)
        basis = [(i, j) for i in range(len(an)) for j in range(len(bn))]
    else:
        x, phi, psi, _, basis = _simplex(cc, an, bn)
    if dropped:
        x, phi, psi = _restore_dropped(c, keep_r, keep_c, x, phi, psi)
        basis = [(keep_r[i], keep_c[j]) for i, j in basis]

    _polish(x, a, b, basis)
    return x, phi, psi, _plan_value(x, c)


def _forced(c, a, b, sa, sb):
    """The solve of a 1xk or mx1 problem with no weight below
    ``WEIGHT_DROP``, whose coupling is forced: what normalizing, the forced
    coupling of the normalized marginals, :func:`_polish` and the value sum
    return, bit for bit, without them.  ``sa`` and ``sb`` are the marginals'
    sums; with both 1.0, ``a`` and ``b`` are coupled as they stand.

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
        return [row], [0.0], list(c[0]), _plan_value([row], c)
    x = [[w] for w in a]
    return x, [row[0] for row in c], [0.0], _plan_value(x, c)


def _plan_value(x, c):
    """``np.sum`` of the C-ordered product of the plan ``x`` and the costs
    ``c`` (lists of rows), bit for bit."""
    flat = itertools.chain.from_iterable
    return _line_sum(list(map(operator.mul, flat(x), flat(c))))


def _restore_dropped(c, keep_r, keep_c, x, u, v):
    """Scatter a solve on the kept rows and columns back to full size.

    Dropped rows and columns carry no flow and get tight feasible
    potentials; their mass is below ``WEIGHT_DROP``, so the dual value is
    unaffected at tolerance scale.  ``c`` is the full cost as a list of rows.
    """
    m, k = len(c), len(c[0])
    matrix = [[0.0] * k for _ in range(m)]
    for i, row in zip(keep_r, x):
        full = matrix[i]
        for j, flow in zip(keep_c, row):
            full[j] = flow
    phi = [None] * m
    psi = [None] * k
    for i, ui in zip(keep_r, u):
        phi[i] = ui
    for j, vj in zip(keep_c, v):
        psi[j] = vj
    for i in range(m):
        if phi[i] is None:
            phi[i] = min(c[i][j] - v_j for j, v_j in zip(keep_c, v))
    for j in range(k):
        if psi[j] is None:
            psi[j] = min(c[i][j] - phi[i] for i in range(m))
    return matrix, phi, psi


def _northwest_corner(a, b, c):
    """Basic feasible start: the basis cells of the staircase (a spanning
    tree) in row-major order, their flows and the tree's potentials.

    Each cell after ``(0, 0)`` joins one new row or column to the tree, whose
    potential is the cell's cost minus that of the line it joins, from
    ``u_0 = 0``: the recurrence of ``_tree_duals``, whose potentials these
    equal bit for bit.  ``a`` and ``b`` are lists of floats, ``c`` a list of
    rows.
    """
    m, k = len(a), len(b)
    basis = []
    flows = []
    u = [0.0] * m
    v = [0.0] * k
    v[0] = c[0][0] - u[0]
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
            u[i] = c[i][j] - v[j]
        else:
            j += 1
            rb = b[j]
            v[j] = c[i][j] - u[i]
    return basis, flows, u, v


def _tree_duals(m, k, basis, c):
    """Solve ``u_i + v_j = c_ij`` on the basis spanning tree, ``u_0 = 0``.

    ``c`` is a list of rows; returns the potentials as two lists.
    """
    adj = [[] for _ in range(m + k)]
    for (i, j) in basis:
        cost = c[i][j]
        adj[i].append((m + j, cost))
        adj[m + j].append((i, cost))
    u = [0.0] * (m + k)
    seen = [False] * (m + k)
    stack = [0]
    seen[0] = True
    while stack:
        node = stack.pop()
        for nbr, cost in adj[node]:
            if not seen[nbr]:
                u[nbr] = cost - u[node]
                seen[nbr] = True
                stack.append(nbr)
    if not all(seen):
        raise NumericalFailure("basis graph is not a spanning tree")
    return u[:m], u[m:]


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


def _polish(x, a, b, cells):
    """Nudge positive flows so row and column sums reproduce the marginals.

    Each pass rewrites the largest entry of a line as the complement of the
    others, which makes that line's floating-point sum exact (Sterbenz);
    up to three alternating passes drive both sides to exactness at ulp
    scale.  The adjustments are ~1e-16 and irrelevant to optimality, but
    they remove stray mass that would otherwise cross finite distances in
    downstream measure comparisons.  A plan whose sums are already exact is
    left unchanged, and the sweeps stop once one leaves the plan as it was
    (the next would repeat it).

    Works in place on a nonnegative plan ``x``, a list of rows whose entries
    outside ``cells`` (row-major ``(i, j)`` pairs, a solve's basis) are
    zero, with the marginals as lists.

    Sums are taken in numpy's order, so a line that is exact here is exact
    under ``np.sum`` on the matrix built from ``x`` too.  numpy adds a row
    of fewer than 8 entries in order, and the columns of a matrix with more
    than one column row by row; such a sum starts from ``0.0`` and a zero
    term changes none of its partial sums, so it takes only ``cells``.
    Longer rows and a contiguous (m, 1) column go pairwise (``_line_sum``),
    where every position counts.  The sweeps run only when a line is off,
    and read and write only ``cells``: a zero entry is never a line's
    positive peak.
    """
    m, k = len(a), len(b)
    low = min(a + b, default=0.0)
    if not low > 0:
        low = min((w for w in a + b if w > 0), default=0.0)
    clip = 1e-15 * low
    rows = [0.0] * m
    cols = [0.0] * k
    for i, j in cells:
        flow = x[i][j]
        if 0.0 < flow < clip:
            x[i][j] = flow = 0.0
        rows[i] += flow
        cols[j] += flow
    pairwise_rows = k >= 8
    pairwise_col = k == 1 and m >= 8
    if pairwise_rows:
        rows = [_line_sum(row) for row in x]
    if pairwise_col:
        cols = _column_sums(x)
    if cols == b and rows == a:
        return
    in_row = [[] for _ in range(m)]
    for i, j in cells:
        in_row[i].append(j)
    for sweep in range(3):
        # column sums and each column's first largest positive entry
        cols = [0.0] * k
        peaks = [0.0] * k
        tops = [None] * k
        for i, js in enumerate(in_row):
            row = x[i]
            for j in js:
                flow = row[j]
                cols[j] += flow
                if flow > peaks[j]:
                    peaks[j] = flow
                    tops[j] = i
        if pairwise_col:
            cols = _column_sums(x)
        if sweep and cols == b and rows == a:
            return
        before = [row[:] for row in x]
        for j, i in enumerate(tops):
            if i is not None:
                val = b[j] - (cols[j] - peaks[j])
                if val >= 0 and val != peaks[j]:
                    x[i][j] = val
        for i, js in enumerate(in_row):
            row = x[i]
            peak, top, total = 0.0, None, 0.0
            for j in js:
                flow = row[j]
                total += flow
                if flow > peak:
                    peak, top = flow, j
            if pairwise_rows:
                total = _line_sum(row)
            val = a[i] - (total - peak)
            if top is not None and val >= 0 and val != peak:
                row[top] = val
                total = 0.0
                for j in js:
                    total += row[j]
                if pairwise_rows:
                    total = _line_sum(row)
            rows[i] = total
        # a sweep that leaves the plan as it found it leaves every later
        # sweep so too
        if x == before:
            return


def _line_sum(v):
    """``np.sum`` of a list of floats, bit for bit.

    numpy adds a contiguous line of fewer than 8 entries in order, and a
    longer one pairwise with 8 accumulators in blocks of 128; the reduction
    starts from ``0.0``.  Explicit loops, not the builtin ``sum``, which
    compensates float sums from Python 3.12 on.
    """
    n = len(v)
    if n < 8:
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


def _column_sums(x):
    """``np.sum(axis=0)`` of a C-ordered matrix given as a list of rows.

    numpy adds whole rows in order; only an (m, 1) matrix, whose column is
    contiguous, is summed as one line.
    """
    if len(x[0]) == 1:
        return [_line_sum([row[0] for row in x])]
    totals = [0.0] * len(x[0])
    for row in x:
        totals = [t + w for t, w in zip(totals, row)]
    return totals


def _find_cycle(m, basis, enter):
    """Alternating cycle closed by the entering cell, as an ordered cell list."""
    i0, j0 = enter
    adj = {}
    for (i, j) in basis:
        adj.setdefault(i, []).append((m + j, (i, j)))
        adj.setdefault(m + j, []).append((i, (i, j)))
    # path in the tree from row node i0 to col node m + j0
    target = m + j0
    parent = {i0: (None, None)}
    stack = [i0]
    while stack:
        node = stack.pop()
        if node == target:
            break
        for nbr, cell in adj.get(node, ()):
            if nbr not in parent:
                parent[nbr] = (node, cell)
                stack.append(nbr)
    path_cells = []
    node = target
    while parent[node][0] is not None:
        node, cell = parent[node][0], parent[node][1]
        path_cells.append(cell)
    path_cells.reverse()
    return [enter] + path_cells


def _bland_entering(c, u, v, basis_set, neg_tol):
    """Bland's rule: the first non-basis cell in row-major order whose
    reduced cost ``c_ij - u_i - v_j`` is below ``neg_tol``, or None.

    Reduced costs are evaluated only up to that cell.
    """
    for i, row in enumerate(c):
        ui = u[i]
        for j, vj in enumerate(v):
            if row[j] - ui - vj < neg_tol and (i, j) not in basis_set:
                return i, j
    return None


def _simplex(c, a, b):
    """Transportation simplex from the north-west start on a list of cost
    rows and marginal lists; returns the plan rows, the potentials as lists,
    the pivot count and the basis cells in row-major order."""
    m, k = len(c), len(c[0])
    # Bland's entering threshold, -1e-12 * (1 + max |c_ij|)
    neg_tol = -1e-12 * (1.0 + max(map(abs, itertools.chain.from_iterable(c))))
    basis, flows, u, v = _northwest_corner(a, b, c)
    basis_set = set(basis)
    flow = None  # cell -> flow, built at the first pivot

    for it in range(200 * (m + k) * max(m, k) + 2000):
        enter = _bland_entering(c, u, v, basis_set, neg_tol)
        if enter is None:
            basis.sort()
            return _tree_flows(m, k, basis, a, b), u, v, it, basis

        if flow is None:
            flow = dict(zip(basis, flows))
        cycle = _find_cycle(m, basis, enter)
        minus = cycle[1::2]
        theta = min(flow[cell] for cell in minus)
        leaving = min(cell for cell in minus if flow[cell] == theta)
        for idx, cell in enumerate(cycle):
            if idx == 0:
                flow[cell] = flow.get(cell, 0.0) + theta
            elif idx % 2 == 1:
                flow[cell] -= theta
            else:
                flow[cell] += theta
        basis_set.remove(leaving)
        basis_set.add(enter)
        basis.remove(leaving)
        basis.append(enter)
        del flow[leaving]
        u, v = _tree_duals(m, k, basis, c)

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


def _certified(c, a, b, x, phi, psi) -> bool:
    """:func:`verify_optimality` on lists: the plan ``x`` and potentials
    ``phi``, ``psi`` of a solve on the cost rows ``c`` and marginals ``a``,
    ``b`` (lists or tuples), by the same five conditions at the same tolerances.

    Sums are taken in order rather than in numpy's order, which moves them
    by ulps, far below the tolerances.  A NaN flow fails the sign test, and
    a NaN or infinite potential the duality gap.
    """
    m, k = len(a), len(b)
    if len(x) != m or not all(len(row) == k for row in x):
        return False
    scale = 1.0 + max(max(map(max, c)), -min(map(min, c)))
    cols = [0.0] * k
    value = 0.0
    low = 0.0        # the least reduced cost
    loose = 0.0      # the largest |reduced cost| on the support
    for row, cost, ai, ui in zip(x, c, a, phi):
        total = 0.0
        for j, (flow, cij, vj) in enumerate(zip(row, cost, psi)):
            if not flow >= -FLOW_TOL:
                return False
            slack = cij - ui - vj
            if slack < low:
                low = slack
            if flow > FLOW_TOL and abs(slack) > loose:
                loose = abs(slack)
            total += flow
            cols[j] += flow
            value += flow * cij
        if not abs(total - ai) <= SUM_TOL:
            return False
    for total, bj in zip(cols, b):
        if not abs(total - bj) <= SUM_TOL:
            return False
    dual = 0.0
    for w, p in zip(itertools.chain(a, b), itertools.chain(phi, psi)):
        dual += w * p
    return (low >= -REDUCED_TOL * scale
            and abs(value - dual) <= GAP_TOL * (1.0 + abs(value))
            and loose <= SLACK_TOL * scale)


def verify_optimality(plan: TransportPlan, duals: DualPotentials, c) -> bool:
    """Feasibility + dual feasibility + duality gap + complementary slackness."""
    c = np.asarray(c, dtype=float)
    x = plan.matrix
    m, k = c.shape
    if x.shape != (m, k):
        return False
    scale = 1.0 + float(np.abs(c).max()) if c.size else 1.0
    if np.any(x < -FLOW_TOL):
        return False
    if np.abs(x.sum(axis=1) - plan.row_marginal).max() > SUM_TOL:
        return False
    if np.abs(x.sum(axis=0) - plan.col_marginal).max() > SUM_TOL:
        return False
    slack = c - duals.phi[:, None] - duals.psi[None, :]
    if float(slack.min()) < -REDUCED_TOL * scale:
        return False
    value = float((x * c).sum())
    dual_value = float(plan.row_marginal @ duals.phi + plan.col_marginal @ duals.psi)
    if abs(value - dual_value) > GAP_TOL * (1.0 + abs(value)):
        return False
    support = x > FLOW_TOL
    if support.any() and float(np.abs(slack[support]).max()) > SLACK_TOL * scale:
        return False
    return True
