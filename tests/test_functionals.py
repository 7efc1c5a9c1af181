from pathlib import Path

import numpy as np
import pytest

from hierot import euclidean, sphere
from hierot.functionals import (DistanceTerm, FunctionalSpec,
                                GeneralizedGeodesicCurve, GeodesicCurve,
                                PotentialTerm, check_potential_gradient,
                                convexity_check, directional_residual,
                                eval_functional, generalized_geodesic,
                                grad_potential, gradient_descent,
                                gradient_step, make_linear_ambient,
                                make_quadratic, supergradient_inequality_check,
                                taylor_remainder_check, w2_supergradient)
from hierot.errors import InvalidInput
from hierot.exact_ot import WEIGHT_DROP
from hierot.geodesics import interpolate, optimal_velocity_plan
from hierot.measures import collapse, dirac, dirac_lift, mixture, n_expectancy
from hierot.plans import (exp_push, fd_add, fd_from_field, fd_scale,
                          generic_coupling, plan_norm, plans_structurally_equal,
                          scale, validate_plan, zero_plan)
from hierot.sampling import (random_coupling, random_measure, random_plan,
                             random_point, rng_from_seed)
from hierot.serialization import (functional_spec_from_obj, load_json,
                                  load_measure)
from hierot.wasserstein import w2

E1 = euclidean(1)
E2 = euclidean(2)
S3 = sphere(3)


def pt(x):
    return dirac(E1, [float(x)])


def test_eval_potential_terms():
    v = make_quadratic(E1, [0.0])
    spec = FunctionalSpec((PotentialTerm(v, 1.0),))
    mu = mixture((0.5, 0.5), [pt(0), pt(2)])
    assert eval_functional(spec, mu) == pytest.approx(1.0)
    # level-2 evaluation equals the collapsed one
    p = mixture((0.5, 0.5), [mixture((1.0,), [pt(0)]),
                             mixture((1.0,), [pt(2)])])
    assert eval_functional(spec, p) == pytest.approx(
        eval_functional(spec, collapse(p)))


def test_eval_distance_term_zero_at_reference():
    mu = mixture((0.5, 0.5), [pt(0), pt(2)])
    spec = FunctionalSpec((DistanceTerm(mu, 1.0),))
    assert eval_functional(spec, mu) == 0.0


def test_grad_constant_potential_is_zero_plan():
    from hierot.functionals import Potential
    const = Potential(value=lambda x: 3.0,
                      grad=lambda x: np.zeros(1), hessian_bound=0.0)
    mu = mixture((0.5, 0.5), [pt(0), pt(2)])
    g = grad_potential(const, mu)
    assert plan_norm(g) == 0.0


def test_grad_quadratic_leaves():
    mu = mixture((0.5, 0.5), [dirac(E2, [0.0, 0.0]), dirac(E2, [2.0, 0.0])])
    pot = make_quadratic(E2, [1.0, 1.0])
    g = grad_potential(pot, mu)
    assert np.allclose(g.fibers[0][0].plan.tangent, [-1.0, -1.0])
    assert np.allclose(g.fibers[1][0].plan.tangent, [1.0, -1.0])


def test_sphere_gradients_match_finite_differences():
    rng = rng_from_seed(1)
    pts = [random_point(rng, S3) for _ in range(10)]
    for make in (make_quadratic, make_linear_ambient):
        pot = make(S3, rng.standard_normal(3))
        assert check_potential_gradient(pot, S3, pts) <= 1e-5


def test_taylor_zero_plan():
    mu = mixture((0.5, 0.5), [pt(0), pt(2)])
    pot = make_quadratic(E1, [0.5])
    lhs, bound, ok = taylor_remainder_check(pot, mu, zero_plan(mu))
    assert lhs == 0.0 and bound == 0.0 and ok


def test_taylor_quadratic_equality():
    rng = rng_from_seed(2)
    mu = random_measure(rng, E2, 2, 3)
    pot = make_quadratic(E2, rng.standard_normal(2))
    g = random_plan(rng, mu, 1.0)
    lhs, bound, ok = taylor_remainder_check(pot, mu, g)
    # pure quadratic: the remainder attains the bound with L = 1
    assert lhs == pytest.approx(bound, abs=1e-12)
    assert ok


def test_taylor_sphere_random():
    rng = rng_from_seed(3)
    for _ in range(100):
        mu = random_measure(rng, S3, int(rng.integers(1, 3)), 3)
        pot = make_linear_ambient(S3, rng.standard_normal(3))
        g = random_plan(rng, mu, 0.8)
        lhs, bound, ok = taylor_remainder_check(pot, mu, g)
        assert ok, (lhs, bound)


def test_supergradient_zero_case():
    rng = rng_from_seed(4)
    mu = random_measure(rng, E2, 2, 3)
    g = w2_supergradient(mu, mu)
    assert plan_norm(g) <= 1e-12
    lhs, rhs, ok = supergradient_inequality_check(mu, mu, mu)
    assert ok


def test_supergradient_line_diracs():
    mu = dirac_lift(E1, [0.0], 1)
    gbar = w2_supergradient(mu, dirac_lift(E1, [2.0], 1))
    assert gbar.fibers[0][0].plan.tangent[0] == pytest.approx(2.0)


def test_supergradient_equality_case_0_1_3():
    # hand arithmetic: lhs = 0.5 (3-1)^2 = 2, rhs = 4.5 - 3 + 0.5 = 2
    mu = dirac_lift(E1, [0.0], 1)
    nu = dirac_lift(E1, [1.0], 1)
    mubar = dirac_lift(E1, [3.0], 1)
    lhs, rhs, ok = supergradient_inequality_check(mu, nu, mubar)
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-12)
    assert ok


def test_supergradient_random_triples():
    rng = rng_from_seed(5)
    for man in (E2, S3):
        for level in (1, 2):
            for _ in range(20):
                mu = random_measure(rng, man, level, 3)
                nu = random_measure(rng, man, level, 3)
                mubar = random_measure(rng, man, level, 3)
                lhs, rhs, ok = supergradient_inequality_check(mu, nu, mubar)
                assert ok, (lhs, rhs)
                # a second, randomized witness coupling
                gamma = optimal_velocity_plan(mu, nu)
                gbar = w2_supergradient(mu, mubar)
                alpha = random_coupling(rng, gamma, gbar)
                lhs, rhs, ok = supergradient_inequality_check(
                    mu, nu, mubar, coupling=alpha)
                assert ok, (lhs, rhs)


def test_generalized_geodesic_endpoints_and_constant():
    rng = rng_from_seed(6)
    mubar = random_measure(rng, E2, 2, 3)
    mu0 = random_measure(rng, E2, 2, 3)
    mu1 = random_measure(rng, E2, 2, 3)
    assert w2(generalized_geodesic(mubar, mu0, mu1, 0.0), mu0) <= 5e-8
    assert w2(generalized_geodesic(mubar, mu0, mu1, 1.0), mu1) <= 5e-8
    const = generalized_geodesic(mubar, mubar, mubar, 0.37)
    assert w2(const, mubar) <= 1e-12


def test_generalized_geodesic_matches_displacement_when_anchored():
    rng = rng_from_seed(7)
    for _ in range(10):
        mu0 = random_measure(rng, E2, 2, 3)
        mu1 = random_measure(rng, E2, 2, 3)
        t = float(rng.uniform(0, 1))
        gen = generalized_geodesic(mu0, mu0, mu1, t)
        disp = interpolate(optimal_velocity_plan(mu0, mu1), t)
        assert w2(gen, disp) <= 5e-8


def test_one_convexity_along_generalized_geodesics():
    rng = rng_from_seed(8)
    for man in (E2, S3):
        for _ in range(10):
            mubar = random_measure(rng, man, 2, 3)
            mu0 = random_measure(rng, man, 2, 3)
            mu1 = random_measure(rng, man, 2, 3)
            g0 = optimal_velocity_plan(mubar, mu0)
            g1 = optimal_velocity_plan(mubar, mu1)
            curve = GeneralizedGeodesicCurve(generic_coupling(g0, g1))
            spec = FunctionalSpec((DistanceTerm(mubar, 1.0),))
            rep = convexity_check(spec, curve, 1.0,
                                  ts=[0.0, 0.25, 0.5, 0.75, 1.0])
            assert rep.passed, rep.worst_margin


def test_quadratic_convexity_along_plain_geodesics():
    rng = rng_from_seed(9)
    for _ in range(10):
        mu0 = random_measure(rng, E2, 2, 3)
        mu1 = random_measure(rng, E2, 2, 3)
        pot = make_quadratic(E2, rng.standard_normal(2))
        spec = FunctionalSpec((PotentialTerm(pot),))
        curve = GeodesicCurve(optimal_velocity_plan(mu0, mu1))
        rep = convexity_check(spec, curve, 1.0, ts=[0.0, 0.25, 0.5, 0.75, 1.0])
        assert rep.passed, rep.worst_margin


def test_w2_squared_nonconvex_counterexample_is_reported():
    # assignment switch mid-curve: min of two parabolas has a concave kink
    sigma = mixture((0.5, 0.5), [dirac(E2, [-1.0, 0.0]), dirac(E2, [1.0, 0.0])])
    mu0 = mixture((0.5, 0.5), [dirac(E2, [-1.0, 0.2]), dirac(E2, [0.0, -5.0])])
    mu1 = mixture((0.5, 0.5), [dirac(E2, [1.0, 0.2]), dirac(E2, [0.0, -5.0])])
    spec = FunctionalSpec((DistanceTerm(sigma, 1.0),))
    curve = GeodesicCurve(optimal_velocity_plan(mu0, mu1))
    rep = convexity_check(spec, curve, 0.0, ts=[0.0, 0.5, 1.0])
    assert not rep.passed
    assert rep.worst_margin == pytest.approx(0.25, abs=1e-9)


def test_gradient_step_exact_minimizer():
    rng = rng_from_seed(10)
    mu = random_measure(rng, E2, 2, 3)
    center = np.array([0.3, -1.2])
    spec = FunctionalSpec((PotentialTerm(make_quadratic(E2, center), 1.0),))
    nxt, step, _ = gradient_step(spec, mu, 1.0)
    assert w2(nxt, dirac_lift(E2, center, 2)) <= 1e-12


def test_gradient_step_zero_tau():
    rng = rng_from_seed(11)
    mu = random_measure(rng, E2, 2, 3)
    spec = FunctionalSpec((PotentialTerm(make_quadratic(E2, [0.0, 0.0]), 1.0),))
    nxt, step, _ = gradient_step(spec, mu, 0.0)
    assert plan_norm(step) == 0.0
    assert w2(nxt, mu) == 0.0


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf"), -1e-3])
def test_gradient_step_rejects_bad_tau(tau):
    rng = rng_from_seed(11)
    mu = random_measure(rng, E2, 2, 3)
    spec = FunctionalSpec((PotentialTerm(make_quadratic(E2, [0.0, 0.0]), 1.0),))
    with pytest.raises(InvalidInput, match="tau"):
        gradient_step(spec, mu, tau)


def test_gradient_step_pure_distance_reaches_target():
    rng = rng_from_seed(12)
    mu = random_measure(rng, E2, 2, 3)
    target = random_measure(rng, E2, 2, 3)
    spec = FunctionalSpec((DistanceTerm(target, 1.0),))
    nxt, _, value = gradient_step(spec, mu, 1.0)
    assert w2(nxt, target) <= 5e-8
    # F(mu) from the step's own solve is the value eval_functional solves for
    assert value == eval_functional(spec, mu)


def _light_atoms(mu):
    """The number of atoms below WEIGHT_DROP at every node of ``mu``."""
    if mu.level == 0:
        return 0
    return (sum(w < WEIGHT_DROP for w in mu.weights)
            + sum(_light_atoms(a) for a in mu.atoms))


def test_gradient_step_keeps_atoms_below_weight_drop():
    # the step plan's base is mu: the transport plan gives the 1e-15 atom a
    # fiber of one entry of its weight, and the push keeps it as an atom
    rng = rng_from_seed(13)
    atoms = [random_measure(rng, E2, 1, 3) for _ in range(2)]
    atoms[0] = mixture((0.999999999999999, 1e-15), atoms[0].atoms[:2])
    mu = mixture((0.999999999999999, 1e-15), atoms)
    spec = FunctionalSpec((PotentialTerm(make_quadratic(E2, [0.0, 0.0]), 1.0),
                           DistanceTerm(random_measure(rng, E2, 2, 3), 1.0)))
    nxt, step, _ = gradient_step(spec, mu, 0.5)
    assert step.base is mu
    validate_plan(step)
    entry, = step.fibers[1]
    assert entry.weight == 1e-15
    assert len(nxt.atoms) == 3 and 1e-15 in nxt.weights


def _width(mu):
    """The most atoms in one node of ``mu``."""
    if mu.level == 0:
        return 0
    return max(len(mu.atoms), *(_width(a) for a in mu.atoms))


def test_flow_carries_no_atom_below_weight_drop_to_its_end():
    # velocity plans drop fiber entries below WEIGHT_DROP, so no push splits
    # a fiber into such a sliver, over 25 steps of either golden flow input,
    # and after the first step every measure holds 9 atoms at its widest
    inputs = Path(__file__).with_name("golden") / "inputs"
    for kind in ("euclidean", "sphere"):
        mu = load_measure(inputs / f"flow_{kind}_init.json")
        spec = functional_spec_from_obj(
            load_json(inputs / f"flow_{kind}_spec.json"), mu.manifold, mu.level)
        assert _light_atoms(mu) == 0
        for _ in range(25):
            mu = gradient_step(spec, mu, 0.1)[0]
            assert _light_atoms(mu) == 0 and _width(mu) == 9, kind


def test_gradient_descent_quadratic_rate():
    # per-coordinate contraction (1 - tau) of the offset: values shrink 4x
    mu0 = mixture((0.5, 0.5), [pt(0), pt(2)])
    spec = FunctionalSpec((PotentialTerm(make_quadratic(E1, [5.0]), 1.0),))
    trace = gradient_descent(spec, mu0, 0.5, 10)
    vals = trace.values
    for v1, v2 in zip(vals, vals[1:]):
        assert v2 == pytest.approx(0.25 * v1, rel=1e-10)


def test_gradient_descent_flat_at_optimum():
    mu0 = dirac_lift(E1, [5.0], 1)
    spec = FunctionalSpec((PotentialTerm(make_quadratic(E1, [5.0]), 1.0),))
    trace = gradient_descent(spec, mu0, 0.5, 5)
    assert all(v == 0.0 for v in trace.values)
    assert all(s.step_norm == 0.0 for s in trace.steps)


def test_gradient_descent_combined_monotone():
    rng = rng_from_seed(13)
    mu0 = random_measure(rng, E1, 2, 3)
    target = random_measure(rng, E1, 2, 3)
    spec = FunctionalSpec((PotentialTerm(make_quadratic(E1, [0.0]), 1.0),
                           DistanceTerm(target, 0.5)))
    trace = gradient_descent(spec, mu0, 0.3, 50)
    vals = trace.values
    assert all(v2 <= v1 + 1e-10 for v1, v2 in zip(vals, vals[1:]))


def test_sum_and_scalar_rules_exact():
    rng = rng_from_seed(14)
    mu = random_measure(rng, E2, 2, 3)
    p1 = make_quadratic(E2, rng.standard_normal(2))
    p2 = make_linear_ambient(E2, rng.standard_normal(2))
    from hierot.functionals import Potential
    summed = Potential(value=lambda x: p1.value(x) + p2.value(x),
                       grad=lambda x: p1.grad(x) + p2.grad(x),
                       hessian_bound=p1.hessian_bound + p2.hessian_bound)
    assert plans_structurally_equal(
        grad_potential(summed, mu),
        fd_add(grad_potential(p1, mu), grad_potential(p2, mu)), 0.0)
    lam = 2.5
    scaled = Potential(value=lambda x: lam * p1.value(x),
                       grad=lambda x: lam * p1.grad(x),
                       hessian_bound=lam * p1.hessian_bound)
    assert plans_structurally_equal(
        grad_potential(scaled, mu),
        fd_scale(lam, grad_potential(p1, mu)), 0.0)


def test_directional_residual_superlinear():
    rng = rng_from_seed(15)
    mu = random_measure(rng, E2, 2, 3)
    pot = make_quadratic(E2, rng.standard_normal(2))
    xi = random_plan(rng, mu, 1.0)
    prev = None
    ratios = []
    for k in range(4):
        xik = scale(0.5 ** k, xi)
        r = directional_residual(pot, mu, xik) / plan_norm(xik)
        if prev is not None:
            ratios.append(r / prev)
        prev = r
    assert all(rho <= 0.6 for rho in ratios)
