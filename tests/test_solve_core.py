"""The list core behind ``solve_ot`` and the list certificate.

``exact_ot._solve_lists`` is the solve the level recursion and the fiber
couplings call; ``solve_ot`` wraps it in numpy.  Here the core must return
the wrapper's results bit for bit, ``cost_matrix`` must be the
internal cost rows as an array, and ``exact_ot._certified`` must decide as
``verify_optimality`` does.  A core whose pivot loop returns a perturbed
potential or a plan off its marginals must make every caller raise
``NumericalFailure``.
"""

import itertools
import json

import numpy as np
import pytest

from hierot import euclidean, exact_ot, sphere
from hierot.cli import main
from hierot.errors import NumericalFailure
from hierot.exact_ot import (DualPotentials, TransportPlan, _certified,
                             _solve_lists, solve_ot, verify_optimality)
from hierot.measures import dirac, mixture
from hierot.plans import FiberEntry, VelocityPlan, inner_mu, optimal_coupling
from hierot.sampling import (random_coupling, random_measure, random_plan,
                             rng_from_seed)
from hierot.wasserstein import _cost_rows, cost_matrix, w2, w2_sq
from test_solver_golden import CASES, _key, problem
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
        ref = man.pairwise_sq_dist(mu.point_stack(), nu.point_stack())
    else:
        ref = np.array([[w2_sq(ai, bj) for bj in nu.atoms] for ai in mu.atoms])
    assert ref.tobytes() == c.tobytes()


def _scale(c):
    return max(abs(v) for row in c for v in row)


def _both(c, a, b, x, phi, psi):
    """The list certificate's verdict, after checking that
    ``verify_optimality`` reaches the same one."""
    listed = _certified(c, a, b, x, phi, psi, _scale(c))
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
    assert _certified(c, a, b, x, phi, psi, s)
    assert not _certified(c, a, b, x, [float("nan")] + phi[1:], psi, s)
    assert not _certified(c, a, b, x, phi, psi[:-1] + [float("inf")], s)
    assert not _certified(c, a, b, x[:-1], phi, psi, s)
    assert not _certified(c, a, b, [row[:-1] for row in x], phi, psi, s)


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
