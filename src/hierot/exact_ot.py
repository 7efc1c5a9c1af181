"""Exact solver for the discrete transportation problem.

Implements the transportation simplex (MODI) with north-west-corner
initialization and Bland's pivoting rule, which terminates without cycling
and returns a basic optimal solution: at most ``m + k - 1`` strictly
positive entries, plus dual potentials certifying optimality through
complementary slackness.

The pivot loop runs on Python floats (costs and marginals come in through
``tolist``); numpy builds only the returned plan and potentials.
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
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, k = c.shape
    if a.shape != (m,) or b.shape != (k,):
        raise UnbalancedMarginals("marginal shapes do not match the cost matrix")
    if not np.isfinite(c).all():
        raise InvalidInput("cost matrix has a non-finite entry")
    sa, sb = a.sum(), b.sum()
    # written so that a NaN sum (a NaN or infinite weight) fails too
    if not (abs(sa - 1.0) <= MASS_TOL and abs(sb - 1.0) <= MASS_TOL):
        raise UnbalancedMarginals(f"marginals sum to {sa} and {sb}, expected 1")

    a_min, b_min = a.min(), b.min()
    if a_min < 0 or b_min < 0:
        raise UnbalancedMarginals("marginals must be nonnegative")
    dropped = a_min < WEIGHT_DROP or b_min < WEIGHT_DROP
    cc, ar, bc = c, a, b
    if dropped:
        keep_r, keep_c = a >= WEIGHT_DROP, b >= WEIGHT_DROP
        cc, ar, bc = c[np.ix_(keep_r, keep_c)], a[keep_r], b[keep_c]
        sa, sb = ar.sum(), bc.sum()

    x, phi, psi, iters = _simplex(cc, ar / sa, bc / sb)
    if dropped:
        x, phi, psi = _restore_dropped(c, keep_r, keep_c, x, phi, psi)

    matrix = _repair(x, a, b)
    value = float((matrix * c).sum())
    plan = TransportPlan(matrix=matrix, row_marginal=a.copy(), col_marginal=b.copy())
    duals = DualPotentials(phi=phi, psi=psi)
    if return_info:
        info = SolveInfo(
            dropped_rows=tuple(int(i) for i in np.flatnonzero(a < WEIGHT_DROP)),
            dropped_cols=tuple(int(j) for j in np.flatnonzero(b < WEIGHT_DROP)),
            iterations=iters)
        return plan, duals, value, info
    return plan, duals, value


def _restore_dropped(c, keep_r, keep_c, x, u, v):
    """Scatter a solve on the kept rows and columns back to full size.

    Dropped rows and columns carry no flow and get tight feasible
    potentials; their mass is below ``WEIGHT_DROP``, so the dual value is
    unaffected at tolerance scale.
    """
    m, k = c.shape
    matrix = np.zeros((m, k))
    matrix[np.ix_(keep_r, keep_c)] = x
    phi = np.zeros(m)
    psi = np.zeros(k)
    phi[keep_r] = u
    psi[keep_c] = v
    phi[~keep_r] = np.min(c[~keep_r][:, keep_c] - v, axis=1)
    psi[~keep_c] = np.min(c[:, ~keep_c] - phi[:, None], axis=0)
    return matrix, phi, psi


def _northwest_corner(a, b):
    """Basic feasible start: returns basis cells (spanning tree) and flows.

    ``a`` and ``b`` are lists of floats.
    """
    m, k = len(a), len(b)
    ra = list(a)
    rb = list(b)
    basis = []
    flow = {}
    i = j = 0
    while True:
        q = min(ra[i], rb[j])
        basis.append((i, j))
        flow[(i, j)] = q
        ra[i] -= q
        rb[j] -= q
        if i == m - 1 and j == k - 1:
            break
        if ra[i] <= rb[j] and i < m - 1:
            i += 1
        elif j < k - 1:
            j += 1
        else:
            i += 1
    return basis, flow


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
    return _repair(x.copy(), a, b, sweeps)


def _repair(x, a, b, sweeps=3):
    """:func:`repair_flow_sums` in place on ``x``, which it returns."""
    floor = np.minimum(a.min(), b.min()) if a.size and b.size else 0.0
    if not floor > 0:
        # a zero, negative or NaN weight: the floor is the least positive one
        positive = np.concatenate([a[a > 0], b[b > 0]])
        floor = positive.min() if positive.size else 0.0
    if floor > 0:
        clip = 1e-15 * float(floor)
        x[(x > 0) & (x < clip)] = 0.0
    for _ in range(sweeps):
        if (x.sum(axis=1) == a).all() and (x.sum(axis=0) == b).all():
            break
        before = x.copy()
        _pin_line_sums(x, b)
        _pin_line_sums(x.T, a)
        if (x == before).all():
            break
    return x


def _pin_line_sums(x: np.ndarray, target: np.ndarray) -> None:
    """Rewrite in place the largest entry of each nonzero column ``j`` of
    ``x`` as ``target[j]`` minus the column's other entries, unless that
    complement is negative.

    Columns do not interact, so a whole pass is a few array operations;
    pass ``x.T`` to treat the rows.
    """
    cols = np.arange(x.shape[1])
    top = x.argmax(axis=0)
    peak = x[top, cols]
    val = target - (x.sum(axis=0) - peak)
    # where the rewrite is refused the peak is written back unchanged
    x[top, cols] = np.where((peak > 0) & (val >= 0), val, peak)


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
    m, k = c.shape
    if m == 1 or k == 1:
        if m == 1:
            x = b.reshape(1, -1) * a[0]
            u = np.zeros(1)
            v = c[0] - u[0]
        else:
            x = a.reshape(-1, 1) * b[0]
            v = np.zeros(1)
            u = c[:, 0] - v[0]
        return x, u, v, 0

    neg_tol = -1e-12 * (1.0 + float(np.abs(c).max()))
    c, a, b = c.tolist(), a.tolist(), b.tolist()
    basis, flow = _northwest_corner(a, b)
    basis_set = set(basis)
    if max_pivots is None:
        max_pivots = 200 * (m + k) * max(m, k) + 2000

    for it in range(max_pivots):
        u, v = _tree_duals(m, k, basis, c)
        enter = _bland_entering(c, u, v, basis_set, neg_tol)
        if enter is None:
            exact = _tree_flows(m, k, basis, a, b)
            x = np.zeros((m, k))
            for cell in basis:
                x[cell] = max(exact[cell], 0.0)
            return x, np.array(u), np.array(v), it

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
