"""Exact solver for the discrete transportation problem.

Implements the transportation simplex (MODI) with north-west-corner
initialization and Bland's pivoting rule, which terminates without cycling
and returns a basic optimal solution: at most ``m + k - 1`` strictly
positive entries, plus dual potentials certifying optimality through
complementary slackness.

A solve runs on Python floats from input validation through the polish
(costs and marginals come in once through ``tolist``); numpy builds only the
returned plan and potentials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NumericalFailure, TooLarge, UnbalancedMarginals

WEIGHT_DROP = 1e-14
MASS_TOL = 1e-9


@dataclass(frozen=True)
class TransportPlan:
    matrix: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray


@dataclass(frozen=True)
class DualPotentials:
    phi: np.ndarray
    psi: np.ndarray


@dataclass(frozen=True)
class SolveInfo:
    """Bookkeeping for a solve: indices dropped below the weight floor."""
    dropped_rows: tuple = field(default_factory=tuple)
    dropped_cols: tuple = field(default_factory=tuple)
    iterations: int = 0


def solve_ot(c, a, b, *, return_info: bool = False):
    """Minimize ``sum_ij x_ij c_ij`` over couplings of ``a`` and ``b``.

    Returns ``(TransportPlan, DualPotentials, value)``; with
    ``return_info=True`` a :class:`SolveInfo` is appended.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2:
        raise InvalidInput(f"cost matrix must be 2-D, got {c.ndim} dimension(s)")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, k = c.shape
    if a.shape != (m,) or b.shape != (k,):
        raise UnbalancedMarginals("marginal shapes do not match the cost matrix")
    if not np.isfinite(c).all():
        raise InvalidInput("cost matrix has a non-finite entry")
    al, bl = a.tolist(), b.tolist()
    sa, sb = _line_sum(al), _line_sum(bl)
    # written so that a NaN sum (a NaN or infinite weight) fails too
    if not (abs(sa - 1.0) <= MASS_TOL and abs(sb - 1.0) <= MASS_TOL):
        raise UnbalancedMarginals(f"marginals sum to {sa} and {sb}, expected 1")

    a_min, b_min = min(al), min(bl)
    if a_min < 0 or b_min < 0:
        raise UnbalancedMarginals("marginals must be nonnegative")
    cl = c.tolist()
    dropped = a_min < WEIGHT_DROP or b_min < WEIGHT_DROP
    cc, ar, bc = cl, al, bl
    if dropped:
        keep_r = [i for i, w in enumerate(al) if w >= WEIGHT_DROP]
        keep_c = [j for j, w in enumerate(bl) if w >= WEIGHT_DROP]
        cc = [[cl[i][j] for j in keep_c] for i in keep_r]
        ar, bc = [al[i] for i in keep_r], [bl[j] for j in keep_c]
        sa, sb = _line_sum(ar), _line_sum(bc)

    x, phi, psi, iters = _simplex(cc, [w / sa for w in ar], [w / sb for w in bc])
    if dropped:
        x, phi, psi = _restore_dropped(cl, keep_r, keep_c, x, phi, psi)

    _polish(x, al, bl)
    matrix = np.array(x)
    value = float((matrix * c).sum())
    plan = TransportPlan(matrix=matrix, row_marginal=a.copy(), col_marginal=b.copy())
    duals = DualPotentials(phi=np.array(phi), psi=np.array(psi))
    if return_info:
        info = SolveInfo(
            dropped_rows=tuple(i for i, w in enumerate(al) if w < WEIGHT_DROP),
            dropped_cols=tuple(j for j, w in enumerate(bl) if w < WEIGHT_DROP),
            iterations=iters)
        return plan, duals, value, info
    return plan, duals, value


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
    tree), their flows and the tree's potentials.

    Each cell after ``(0, 0)`` joins one new row or column to the tree, whose
    potential is the cell's cost minus that of the line it joins, from
    ``u_0 = 0``: the recurrence of ``_tree_duals``, whose potentials these
    equal bit for bit.  ``a`` and ``b`` are lists of floats, ``c`` a list of
    rows.
    """
    m, k = len(a), len(b)
    ra = list(a)
    rb = list(b)
    basis = []
    flow = {}
    u = [0.0] * m
    v = [0.0] * k
    v[0] = c[0][0] - u[0]
    i = j = 0
    while True:
        q = min(ra[i], rb[j])
        basis.append((i, j))
        flow[(i, j)] = q
        ra[i] -= q
        rb[j] -= q
        if i == m - 1 and j == k - 1:
            break
        if (ra[i] <= rb[j] and i < m - 1) or j == k - 1:
            i += 1
            u[i] = c[i][j] - v[j]
        else:
            j += 1
            v[j] = c[i][j] - u[i]
    return basis, flow, u, v


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
    """Unique flows on the basis spanning tree satisfying the marginals.

    Peels degree-one nodes, so every flow is a short alternating sum of
    marginals; this avoids the rounding drift of pivot-accumulated flows.
    ``a`` and ``b`` are lists of floats.
    """
    adj = [[] for _ in range(m + k)]
    for idx, (i, j) in enumerate(basis):
        adj[i].append((m + j, idx))
        adj[m + j].append((i, idx))
    deg = [len(lst) for lst in adj]
    rem = a + b
    used = [False] * len(basis)
    flows = [0.0] * len(basis)
    stack = [node for node in range(m + k) if deg[node] == 1]
    while stack:
        node = stack.pop()
        if deg[node] != 1:
            continue
        for other, idx in adj[node]:
            if not used[idx]:
                f = rem[node]
                flows[idx] = f
                used[idx] = True
                rem[node] = 0.0
                rem[other] -= f
                deg[node] -= 1
                deg[other] -= 1
                if deg[other] == 1:
                    stack.append(other)
                break
    return {basis[idx]: flows[idx] for idx in range(len(basis))}


def repair_flow_sums(x: np.ndarray, a: np.ndarray, b: np.ndarray,
                     sweeps: int = 3) -> np.ndarray:
    """Nudge positive flows so row and column sums reproduce the marginals.

    Each pass rewrites the largest entry of a line as the complement of the
    others, which makes that line's floating-point sum exact (Sterbenz);
    alternating passes drive both sides to exactness at ulp scale.  The
    adjustments are ~1e-16 and irrelevant to optimality, but they remove
    stray mass that would otherwise cross finite distances in downstream
    measure comparisons.  A plan whose sums are already exact is returned
    unchanged, and the sweeps stop once one leaves the plan as it was (the
    next would repeat it).  ``x`` is a nonnegative plan.
    """
    rows = x.tolist()
    _polish(rows, a.tolist(), b.tolist(), sweeps)
    return np.array(rows, dtype=float).reshape(x.shape)


def _polish(x, a, b, sweeps=3):
    """:func:`repair_flow_sums` in place on a list of rows ``x``, with the
    marginals as lists.

    Sums are taken in numpy's order (see ``_line_sum``), so a line that is
    exact here is exact under ``np.sum`` on the returned matrix too.
    """
    clip = 1e-15 * min((w for w in a + b if w > 0), default=0.0)
    for row in x:
        for j, flow in enumerate(row):
            if 0.0 < flow < clip:
                row[j] = 0.0
    for _ in range(sweeps):
        cols = _column_sums(x)
        if cols == b and [_line_sum(row) for row in x] == a:
            break
        changed = False
        for j, total in enumerate(cols):
            col = [row[j] for row in x]
            peak = max(col)
            val = b[j] - (total - peak)
            if peak > 0 and val >= 0 and val != peak:
                x[col.index(peak)][j] = val
                changed = True
        for i, row in enumerate(x):
            peak = max(row)
            val = a[i] - (_line_sum(row) - peak)
            if peak > 0 and val >= 0 and val != peak:
                row[row.index(peak)] = val
                changed = True
        if not changed:
            break


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


def _simplex(c, a, b, max_pivots=None):
    """Transportation simplex on a list of cost rows and marginal lists;
    returns the plan as a list of rows, the potentials as lists and the
    pivot count."""
    m, k = len(c), len(c[0])
    if m == 1:
        return [[w * a[0] for w in b]], [0.0], list(c[0]), 0
    if k == 1:
        return [[w * b[0]] for w in a], [row[0] for row in c], [0.0], 0

    neg_tol = -1e-12 * (1.0 + max(abs(cij) for row in c for cij in row))
    basis, flow, u, v = _northwest_corner(a, b, c)
    basis_set = set(basis)
    if max_pivots is None:
        max_pivots = 200 * (m + k) * max(m, k) + 2000

    for it in range(max_pivots):
        enter = _bland_entering(c, u, v, basis_set, neg_tol)
        if enter is None:
            exact = _tree_flows(m, k, basis, a, b)
            x = [[0.0] * k for _ in range(m)]
            for i, j in basis:
                x[i][j] = max(exact[i, j], 0.0)
            return x, u, v, it

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


def permutation_oracle(c, n_max: int = 7) -> float:
    """Exact optimum for uniform square problems by brute force (test oracle)."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if c.shape != (n, n):
        raise UnbalancedMarginals("oracle needs a square cost matrix")
    if n > n_max:
        raise TooLarge(f"{n} > {n_max} atoms for the permutation oracle")
    rows = np.arange(n)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        val = float(c[rows, perm].sum())
        if val < best:
            best = val
    return best / n


def verify_optimality(plan: TransportPlan, duals: DualPotentials, c,
                      gap_tol: float = 1e-8) -> bool:
    """Feasibility + dual feasibility + duality gap + complementary slackness."""
    c = np.asarray(c, dtype=float)
    x = plan.matrix
    m, k = c.shape
    if x.shape != (m, k):
        return False
    scale = 1.0 + float(np.abs(c).max()) if c.size else 1.0
    if np.any(x < -1e-12):
        return False
    if np.abs(x.sum(axis=1) - plan.row_marginal).max() > 1e-10:
        return False
    if np.abs(x.sum(axis=0) - plan.col_marginal).max() > 1e-10:
        return False
    slack = c - duals.phi[:, None] - duals.psi[None, :]
    if float(slack.min()) < -1e-9 * scale:
        return False
    value = float((x * c).sum())
    dual_value = float(plan.row_marginal @ duals.phi + plan.col_marginal @ duals.psi)
    if abs(value - dual_value) > gap_tol * (1.0 + abs(value)):
        return False
    support = x > 1e-12
    if support.any() and float(np.abs(slack[support]).max()) > 1e-8 * scale:
        return False
    return True
