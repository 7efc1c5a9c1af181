"""The list core behind ``solve_ot`` and the list certificate.

``exact_ot._solve_lists`` is the solve the level recursion and the fiber
couplings call; ``solve_ot`` wraps it in numpy.  Here the core must return
the wrapper's results bit for bit, ``cost_matrix`` must be the
internal cost rows as an array, and ``exact_ot._certified`` must decide as
``verify_optimality`` does.  A core whose pivot loop returns a perturbed
potential or a plan off its marginals must make every caller raise
``NumericalFailure``.  Every line of a returned plan has its marginal as its
``math.fsum``, except where the polish's documented rule lets it miss.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierot import euclidean, exact_ot, sphere
from hierot.cli import main
from hierot.errors import NumericalFailure
from hierot.exact_ot import (MASS_TOL, DualPotentials, TransportPlan,
                             _certified, _polish, _solve_lists, solve_ot,
                             verify_optimality)
from hierot.measures import dirac, mixture
from hierot.plans import FiberEntry, VelocityPlan, inner_mu, optimal_coupling
from hierot.sampling import (random_coupling, random_measure, random_plan,
                             rng_from_seed)
from hierot.wasserstein import _cost_rows, cost_matrix, w2, w2_sq
from test_solver_golden import CASES, _key, _random_tree, problem
from test_wasserstein import EDGE_WEIGHTS

IDS = [_key(*c) for c in CASES]
E2 = euclidean(2)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _lists(m, k, kind, rep):
    c, a, b = problem(m, k, kind, rep)
    return c.tolist(), a.tolist(), b.tolist()


@pytest.mark.parametrize("m,k,kind,rep", CASES, ids=IDS)
def test_core_returns_the_wrappers_bits(m, k, kind, rep):
    x, phi, psi, value = _solve_lists(*_lists(m, k, kind, rep))
    plan, duals, wrapped = solve_ot(*problem(m, k, kind, rep))
    core = {"matrix": _hex(x), "phi": _hex(phi), "psi": _hex(psi),
            "value": value.hex()}
    assert core == {"matrix": _hex(plan.matrix), "phi": _hex(duals.phi),
                    "psi": _hex(duals.psi), "value": wrapped.hex()}
    assert all(type(v) is float for row in x for v in row)


def test_core_leaves_its_inputs_alone():
    c, a, b = _lists(5, 9, "tiny", 0)
    saved = json.dumps([c, a, b])
    _solve_lists(c, a, b)
    assert json.dumps([c, a, b]) == saved


@pytest.mark.parametrize("man", [euclidean(3), sphere(3)], ids=["euclidean", "sphere"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_cost_matrix_is_the_cost_rows(man, level):
    rng = rng_from_seed(40 + level)
    mu, nu = random_measure(rng, man, level, 3), random_measure(rng, man, level, 3)
    rows = _cost_rows(mu, nu)
    c = cost_matrix(mu, nu)
    assert all(type(v) is float for row in rows for v in row)
    assert c.dtype == float and c.shape == (len(mu.atoms), len(nu.atoms))
    assert np.array(rows).tobytes() == c.tobytes()
    # each entry is the squared distance of its atom pair, solved on its own
    if level == 1:
        ref = man.pairwise_sq_dist(mu.leaf_stack()[0], nu.leaf_stack()[0])
    else:
        ref = np.array([[w2_sq(ai, bj) for bj in nu.atoms] for ai in mu.atoms])
    assert ref.tobytes() == c.tobytes()


def _scale(c):
    return max(abs(v) for row in c for v in row)


def _both(c, a, b, x, phi, psi):
    """The list certificate's verdict, after checking that
    ``verify_optimality`` reaches the same one."""
    listed = _certified(c, a, b, x, phi, psi, _scale(c)) is not False
    plan = TransportPlan(np.array(x), np.array(a), np.array(b))
    assert verify_optimality(plan, DualPotentials(np.array(phi), np.array(psi)),
                             np.array(c)) == listed
    return listed


@pytest.mark.parametrize("m,k,kind,rep", CASES, ids=IDS)
def test_list_certificate_decides_as_verify_optimality(m, k, kind, rep):
    c, a, b = _lists(m, k, kind, rep)
    x, phi, psi, _ = _solve_lists(c, a, b)
    assert _both(c, a, b, x, phi, psi)
    scale = _scale(c)
    # a perturbed potential: a tight cell of row 0 goes negative
    assert not _both(c, a, b, x, [phi[0] + 1e-6 * scale] + phi[1:], psi)
    # a plan off its marginals: row 0 and column 0 carry 1e-9 too much
    off = [list(row) for row in x]
    off[0][0] += 1e-9
    assert not _both(c, a, b, off, phi, psi)
    # the product plan with the optimal duals: feasible, optimal only where
    # the coupling is forced or the costs allow it
    product = [[ai * bj for bj in b] for ai in a]
    value = sum(xi * ci for pr, cr in zip(product, c) for xi, ci in zip(pr, cr))
    if min(m, k) > 1 and value > sum(xi * ci for xr, cr in zip(x, c)
                                     for xi, ci in zip(xr, cr)) + 1e-6:
        assert not _both(c, a, b, product, phi, psi)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_certificates_allow_the_mass_gap_and_no_more(k):
    # marginals whose exact masses differ by 1e-9, which the node rule
    # accepts: no plan meets both sides, so a line may be off by that gap
    a, b = list(EDGE_WEIGHTS), [1.0 / k] * k
    c = [[(i - 2.5 * j) ** 2 for j in range(k)] for i in range(12)]
    x, phi, psi, _ = _solve_lists(c, a, b)
    assert _both(c, a, b, x, phi, psi)
    # row 0 off by more than SUM_TOL plus the gap; column 0 by less
    off = [list(row) for row in x]
    off[0][0] -= 1.3e-9
    assert not _both(c, a, b, off, phi, psi)


@pytest.mark.parametrize("a,b,certified", [
    ([1.0], [0.5], False), ([0.5, 0.5], [0.5, 0.5 + 5e-9], False),
    ([0.5, 0.5], [0.5, 0.5 + 1.5e-9], True)])
def test_certificates_cap_the_mass_gap(a, b, certified):
    # the allowance stops at 2 * MASS_TOL, the widest gap between marginals
    # that _solve_lists accepts: [[0.5]] is no plan of [1.0] and [0.5]
    x = [[0.5 if i == j else 0.0 for j in range(len(b))] for i in range(len(a))]
    c = [[0.0] * len(b) for _ in a]
    assert _both(c, a, b, x, [0.0] * len(a), [0.0] * len(b)) == certified


def test_list_certificate_refuses_nan_potentials_and_bad_shapes():
    c, a, b = _lists(3, 4, "random", 0)
    x, phi, psi, _ = _solve_lists(c, a, b)
    s = _scale(c)
    assert _certified(c, a, b, x, phi, psi, s) is not False
    assert _certified(c, a, b, x, [float("nan")] + phi[1:], psi, s) is False
    assert _certified(c, a, b, x, phi, psi[:-1] + [float("inf")], s) is False
    assert _certified(c, a, b, x[:-1], phi, psi, s) is False
    assert _certified(c, a, b, [row[:-1] for row in x], phi, psi, s) is False
    # potentials one short or one long; the last column has weight 0 and no
    # flow, so only the potentials' length shows a short psi
    c, a, b = [[1.0, 2.0, 3.0], [2.0, 1.0, 5.0]], [0.5, 0.5], [0.5, 0.5, 0.0]
    x, phi, psi, _ = _solve_lists(c, a, b)
    assert _certified(c, a, b, x, phi, psi, 5.0) is not False
    # both certificates refuse potentials or marginals of the wrong length;
    # verify_optimality returns False for them instead of raising
    for bad_phi, bad_psi in ((phi, psi[:-1]), (phi[:-1], psi),
                             (phi, psi + [0.0]), (phi + [0.0], psi)):
        assert _certified(c, a, b, x, bad_phi, bad_psi, 5.0) is False
        assert _both(c, a, b, x, bad_phi, bad_psi) is False
    for bad_a, bad_b in ((a[:1], b), (a + [0.0], b), (a, b[:-1]), (a, b + [0.0])):
        assert _both(c, bad_a, bad_b, x, phi, psi) is False


# -- fault injection: the core refuses a plan that fails its certificate ------

def _shift_a_potential(out, c):
    x, u, v, pivots, basis = out
    scale = _scale(c)
    return x, [u[0] + 1e-6 * scale] + u[1:], v, pivots, basis


def _off_a_marginal(out, c):
    # a cell outside the basis, which the polish neither reads nor writes
    x, u, v, pivots, basis = out
    i, j = next(cell for cell in itertools.product(range(len(x)), range(len(v)))
                if cell not in basis)
    x[i][j] += 1e-9
    return x, u, v, pivots, basis


def _fault_inputs():
    """Two level-1 measures, and two velocity plans over one level-2 base
    whose fibers all have two entries, so each call below reaches the
    pivot loop."""
    rng = rng_from_seed(17)
    mu = mixture((0.4, 0.6), [dirac(E2, p) for p in rng.standard_normal((2, 2))])
    nu = mixture((0.3, 0.7), [dirac(E2, p) for p in rng.standard_normal((2, 2))])
    base = mixture((0.5, 0.5), [mu, nu])

    def plan():
        return VelocityPlan(base=base, fibers=tuple(
            tuple(FiberEntry(w * p, random_plan(rng, atom, 1.0, True))
                  for p in (0.25, 0.75))
            for w, atom in zip(base.weights, base.atoms)))
    return mu, nu, plan(), plan()


def _inject(monkeypatch, fault):
    simplex = exact_ot._simplex
    monkeypatch.setattr(exact_ot, "_simplex",
                        lambda c, a, b, scale: fault(simplex(c, a, b, scale), c))


FAULT_CALLS = {
    "w2": lambda mu, nu, g1, g2: w2(mu, nu),
    "w2_sq": lambda mu, nu, g1, g2: w2_sq(mu, nu),
    "optimal_coupling": lambda mu, nu, g1, g2: optimal_coupling(g1, g2),
    "inner_mu_direct": lambda mu, nu, g1, g2: inner_mu(g1, g2, method="direct"),
    "random_coupling": lambda mu, nu, g1, g2: random_coupling(
        rng_from_seed(5), g1, g2),
}


@pytest.mark.parametrize("fault", [_shift_a_potential, _off_a_marginal],
                         ids=["potential", "marginal"])
@pytest.mark.parametrize("call", list(FAULT_CALLS))
def test_faulty_core_is_refused(monkeypatch, fault, call):
    args = _fault_inputs()
    FAULT_CALLS[call](*args)  # certified without the fault
    _inject(monkeypatch, fault)
    with pytest.raises(NumericalFailure, match="uncertified"):
        FAULT_CALLS[call](*args)


@pytest.mark.parametrize("fault", [_shift_a_potential, _off_a_marginal],
                         ids=["potential", "marginal"])
def test_faulty_core_fails_check(monkeypatch, capsys, fault):
    _inject(monkeypatch, fault)
    assert main(["check", "--suite", "coupling", "--samples", "1"]) == 4
    assert "uncertified" in capsys.readouterr().err


# -- the polish's contract: each line's fsum is its marginal -----------------

def _no_float_meets(line, w):
    """Whether some positive entry of ``line`` has no float value that makes
    the line's fsum ``w``: its neighbouring floats put the sum on either
    side of ``w`` and itself misses it (a rounding tie), or the other
    entries alone exceed ``w``."""
    for p, v in enumerate(line):
        rest = line[:p] + line[p + 1:]
        if v > 0 and (math.fsum([w, *(-r for r in rest)]) < 0 or (
                math.fsum([*rest, math.nextafter(v, -math.inf)]) < w
                < math.fsum([*rest, math.nextafter(v, math.inf)]))):
            return True
    return False


def _misses_outside_the_rule(x, a, b):
    """The lines of ``x`` (rows ``0..m-1``, then columns) whose fsum misses
    their marginal, less those the polish's rule allows: the root of each
    tree of positive cells, its first column of largest weight, and a line
    that no float value of one of its entries brings to its marginal."""
    m = len(a)
    w = [*a, *b]
    near = [[] for _ in w]
    for i, row in enumerate(x):
        for j, flow in enumerate(row):
            if flow > 0:
                near[i].append(m + j)
                near[m + j].append(i)
    roots, seen = set(), [False] * len(w)
    for q in sorted(range(m, len(w)), key=lambda q: -w[q]):
        if not seen[q]:
            roots.add(q)
            seen[q], todo = True, [q]
            while todo:
                for other in near[todo.pop()]:
                    if not seen[other]:
                        seen[other] = True
                        todo.append(other)
    lines = [*x, *map(list, zip(*x))]
    return [q for q, line in enumerate(lines) if math.fsum(line) != w[q]
            and q not in roots and not _no_float_meets(line, w[q])]


def _floats(values):
    return [float.fromhex(v) for v in values]


# a problem of `hierot check --suite all --seed 1000 --samples 1` whose
# marginals have the same exact mass, so some float plan meets every one;
# rewriting each line's largest entry in alternating column and row sweeps
# leaves its row 1 and column 0 an ulp off
RECORDED_MISS = (
    [["0x1.11110f10b8439p+0", "0x1.418a4025e743cp+1", "0x1.c4f4a894b5b2ep+0"],
     ["0x1.29c3ce441d868p+0", "0x1.8fd6dba51c40dp+0", "0x1.30b65047940d6p+1"]],
    ["0x1.0dc1db1d4f3afp-2", "0x1.791f127158629p-1"],
    ["0x1.a11e5499c0530p-2", "0x1.352e6a2d9a6f7p-2", "0x1.29b34138a53dap-2"])


def test_recorded_plan_meets_every_marginal():
    c, a, b = ([_floats(row) for row in RECORDED_MISS[0]],
               _floats(RECORDED_MISS[1]), _floats(RECORDED_MISS[2]))
    assert math.fsum(a) == math.fsum(b) == 1.0
    x = _solve_lists(c, a, b)[0]
    assert [math.fsum(row) for row in x] == a
    assert [math.fsum(col) for col in zip(*x)] == b


@st.composite
def polish_problems(draw):
    """``(c, a, b)`` from 2x2 to 12x12: random weights, uniform weights over
    repeated points (costs tie exactly), or random weights with one of
    1e-15 on each side; each side's mass off one by up to 0.9 * ``MASS_TOL``,
    as far as rounding lets the solve accept it."""
    m, k = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "repeated", "tiny"]))
    pool = rng.standard_normal(3)
    xs, ys = (pool[rng.integers(3, size=n)] if kind == "repeated"
              else rng.standard_normal(n) for n in (m, k))
    c = ((xs[:, None] - ys[None, :]) ** 2).tolist()
    sides = []
    for n in (m, k):
        w = np.full(n, 1.0 / n) if kind == "repeated" else rng.random(n) + 0.1
        if kind == "tiny":
            w[rng.integers(n)] = 1e-15 * w.sum()
        off = draw(st.one_of(st.just(0.0), st.floats(-0.9, 0.9))) * MASS_TOL
        sides.append((w / w.sum() * (1.0 + off)).tolist())
    return c, *sides


@settings(derandomize=True, deadline=None, max_examples=300)
@given(polish_problems())
def test_every_line_meets_its_marginal_but_by_the_rule(problem):
    c, a, b = problem
    x = _solve_lists(c, a, b)[0]
    assert _misses_outside_the_rule(x, a, b) == []


@st.composite
def polish_pairs(draw):
    """The cells of a random spanning tree from 1x1 to 12x12, as a basis;
    marginals that are the line sums of flows of 1e-9 to 1 on a forest
    among them, so no complement the polish writes is negative; and two
    plans with other, unrelated flows above the polish's clip on that
    forest and zero or debris below the clip on the tree's other cells."""
    m, k = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tree = sorted(_random_tree(rng, m, k))
    forest = {cell for cell in tree if rng.random() > 0.2} or {tree[0]}
    flows = np.zeros((m, k))
    for i, j in forest:
        flows[i, j] = 10.0 ** rng.uniform(-9, 0)
    a, b = ([math.fsum(line) for line in side.tolist()]
            for side in (flows, flows.T))
    clip = 1e-15 * min(w for w in a + b if w > 0)
    plans = []
    for _ in range(2):
        x = np.zeros((m, k))
        for cell in tree:
            x[cell] = (10.0 ** rng.uniform(-12, 1) if cell in forest
                       else clip * rng.random() * (rng.random() < 0.5))
        plans.append(x.tolist())
    return tree, a, b, plans


@settings(derandomize=True, deadline=None, max_examples=300)
@given(polish_pairs())
def test_polish_writes_the_plan_from_its_support(pair):
    # every positive cell of a forest joins a line to its parent and is
    # written from the marginals and the cells written before it, so the
    # flows the polish is given decide only which cells are above its clip
    tree, a, b, (x, y) = pair
    _polish(x, a, b, tree)
    _polish(y, a, b, tree)
    assert _hex(x) == _hex(y)
