import numpy as np
import pytest

from hierot import euclidean, sphere
from hierot.errors import NotOptimalInput, NumericalFailure
from hierot.geodesics import (interpolate, optimal_velocity_plan, pt_n,
                              restriction_plan, verify_constant_speed)
from hierot.measures import dirac, dirac_lift, mixture
from hierot.plans import (FiberEntry, VelocityPlan, exp_push,
                          is_fully_deterministic, plan_norm, scale, w_mu,
                          zero_plan)
from hierot.sampling import random_measure, rng_from_seed
from hierot.wasserstein import w2

E1 = euclidean(1)
S3 = sphere(3)
N = np.array([0.0, 0.0, 1.0])
S = np.array([0.0, 0.0, -1.0])


def pt(x):
    return dirac(E1, [float(x)])


def level2_pair():
    p = mixture((0.5, 0.5), [mixture((1.0,), [pt(0)]),
                             mixture((1.0,), [pt(2)])])
    q = mixture((1.0,), [mixture((0.5, 0.5), [pt(0), pt(2)])])
    return p, q


def test_pole_plan_is_optimal():
    a = dirac_lift(S3, N, 1)
    b = dirac_lift(S3, S, 1)
    g = optimal_velocity_plan(a, b)
    assert plan_norm(g) == pytest.approx(np.pi, abs=1e-12)
    assert w2(exp_push(g), b) <= 1e-9


def test_uncertified_plan_is_refused(monkeypatch):
    # negative control of the certificate: the core's plan is swapped for
    # the independent coupling (feasible, not optimal) with the optimal duals
    import hierot.exact_ot as exact_ot
    certified = exact_ot._certified

    def product_plan(c, a, b, x, phi, psi, scale):
        return certified(c, a, b, np.outer(a, b).tolist(), phi, psi, scale)

    monkeypatch.setattr(exact_ot, "_certified", product_plan)
    p = mixture((0.5, 0.5), [pt(0), pt(2)])
    q = mixture((0.5, 0.5), [pt(0), pt(2)])
    with pytest.raises(NumericalFailure):
        optimal_velocity_plan(p, q)


def test_identical_marginals_give_zero_plan():
    rng = rng_from_seed(0)
    mu = random_measure(rng, euclidean(2), 2, 3)
    g = optimal_velocity_plan(mu, mu)
    assert plan_norm(g) <= 1e-12


def test_level2_plan_energy():
    p, q = level2_pair()
    g = optimal_velocity_plan(p, q)
    assert plan_norm(g) ** 2 == pytest.approx(2.0, abs=1e-10)
    assert w2(exp_push(g), q) <= 1e-9


def test_norm_equals_distance_random():
    rng = rng_from_seed(1)
    for man in (euclidean(2), S3):
        for level in (1, 2, 3):
            for _ in range(8):
                a = random_measure(rng, man, level, 3)
                b = random_measure(rng, man, level, 3)
                g = optimal_velocity_plan(a, b)
                assert abs(plan_norm(g) - w2(a, b)) <= 1e-8
                # cross-representation near-zero distances sit on the
                # sqrt(ulp) floor, see hierot.wasserstein.TOL_NEAR_ZERO
                assert w2(exp_push(g), b) <= 5e-8


def test_interpolate_endpoints_and_midpoint():
    a = dirac_lift(E1, [0.0], 1)
    b = dirac_lift(E1, [2.0], 1)
    g = optimal_velocity_plan(a, b)
    assert w2(interpolate(g, 0.0), a) == 0.0
    assert w2(interpolate(g, 1.0), b) <= 1e-12
    mid = interpolate(g, 0.5)
    assert w2(mid, dirac_lift(E1, [1.0], 1)) <= 1e-12


def test_pt_n_euclidean_moves_base_keeps_vector():
    rng = rng_from_seed(2)
    mu = random_measure(rng, euclidean(2), 1, 3)
    g = optimal_velocity_plan(mu, random_measure(rng, euclidean(2), 1, 3))
    moved = pt_n(g, 0.5)
    # every leaf becomes (x + t v, v)
    def leaves(p):
        if p.level == 0:
            return [(p.base.point, p.tangent)]
        out = []
        for fiber in p.fibers:
            for e in fiber:
                out.extend(leaves(e.plan))
        return out
    for (x0, v0), (x1, v1) in zip(leaves(g), leaves(moved)):
        assert np.allclose(x1, x0 + 0.5 * v0)
        assert np.allclose(v1, v0)


def test_pt_n_identity_at_zero_and_norm():
    rng = rng_from_seed(3)
    for man in (euclidean(2), S3):
        mu = random_measure(rng, man, 2, 3)
        nu = random_measure(rng, man, 2, 3)
        g = optimal_velocity_plan(mu, nu)
        moved0 = pt_n(g, 0.0)
        assert w2(moved0.base, mu) <= 1e-12
        assert abs(plan_norm(moved0) - plan_norm(g)) <= 1e-12
        assert abs(plan_norm(pt_n(g, 0.7)) - plan_norm(g)) <= 1e-9


def _leaf_gap(g1, g2):
    if g1.level == 0:
        return max(float(np.max(np.abs(g1.base.point - g2.base.point))),
                   float(np.max(np.abs(g1.tangent - g2.tangent))))
    worst = 0.0
    for f1, f2 in zip(g1.fibers, g2.fibers):
        assert len(f1) == len(f2)
        for e1, e2 in zip(f1, f2):
            worst = max(worst, abs(e1.weight - e2.weight),
                        _leaf_gap(e1.plan, e2.plan))
    return worst


def test_pt_n_group_law():
    rng = rng_from_seed(4)
    for man in (euclidean(2), S3):
        for _ in range(10):
            mu = random_measure(rng, man, 2, 3)
            g = optimal_velocity_plan(mu, random_measure(rng, man, 2, 3))
            t = float(rng.uniform(-1, 1))
            s = float(rng.uniform(-1, 1))
            lhs = pt_n(pt_n(g, t), s)
            rhs = pt_n(g, t + s)
            assert _leaf_gap(lhs, rhs) <= 1e-8


def test_pt_base_follows_curve():
    rng = rng_from_seed(5)
    mu = random_measure(rng, S3, 2, 3)
    nu = random_measure(rng, S3, 2, 3)
    g = optimal_velocity_plan(mu, nu)
    for t in (0.25, 0.5, 1.25):
        assert w2(pt_n(g, t).base, interpolate(g, t)) <= 1e-9


def test_restriction_plan_endpoints():
    p, q = level2_pair()
    g = optimal_velocity_plan(p, q)
    full = restriction_plan(g, 0.0, 1.0)
    assert abs(plan_norm(full) - w2(p, q)) <= 1e-10
    degenerate = restriction_plan(g, 0.3, 0.3)
    assert plan_norm(degenerate) == 0.0


def test_restriction_plan_optimality_random():
    rng = rng_from_seed(6)
    for man in (euclidean(2), S3):
        for _ in range(6):
            a = random_measure(rng, man, 2, 3)
            b = random_measure(rng, man, 2, 3)
            g = optimal_velocity_plan(a, b)
            dist = w2(a, b)
            t, s = 0.2, 0.9
            r = restriction_plan(g, t, s)
            assert abs(plan_norm(r) - (s - t) * dist) <= 1e-8
            assert w2(exp_push(r), interpolate(g, s)) <= 1e-8
            assert is_fully_deterministic(pt_n(g, t))


def test_sphere_pole_restriction_hits_canonical_equator_point():
    a = dirac_lift(S3, N, 1)
    b = dirac_lift(S3, S, 1)
    g = optimal_velocity_plan(a, b)
    half = restriction_plan(g, 0.0, 0.5)
    assert plan_norm(half) == pytest.approx(np.pi / 2, abs=1e-12)
    mid = exp_push(half)
    # tie-break direction is e_0, so the midpoint is on the equator at e_0
    assert np.allclose(mid.atoms[0].point, [1.0, 0.0, 0.0], atol=1e-12)


def test_restriction_requires_optimal_plan():
    base = dirac_lift(S3, N, 1)
    v = np.array([3 * np.pi, 0.0, 0.0])
    bad = VelocityPlan(base=base, fibers=(
        (FiberEntry(1.0, VelocityPlan(base=base.atoms[0], tangent=v)),),))
    with pytest.raises(NotOptimalInput):
        restriction_plan(bad, 0.0, 0.5)


def test_verify_constant_speed_zero_plan():
    rng = rng_from_seed(7)
    mu = random_measure(rng, euclidean(2), 2, 3)
    rep = verify_constant_speed(zero_plan(mu), [0.0, 0.5, 1.0])
    assert rep.max_deviation == 0.0 and rep.passed


def test_verify_constant_speed_level2():
    p, q = level2_pair()
    g = optimal_velocity_plan(p, q)
    rep = verify_constant_speed(g, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert rep.max_deviation <= 1e-8
    assert rep.passed


def test_verify_constant_speed_flags_non_optimal():
    base = dirac_lift(S3, N, 1)
    v = np.array([3 * np.pi, 0.0, 0.0])
    bad = VelocityPlan(base=base, fibers=(
        (FiberEntry(1.0, VelocityPlan(base=base.atoms[0], tangent=v)),),))
    rep = verify_constant_speed(bad, [0.0, 1 / 6, 0.5, 1.0])
    assert rep.speed_mismatch == pytest.approx(2 * np.pi, abs=1e-9)
    assert not rep.passed


def test_lipschitz_bound_along_any_plan():
    rng = rng_from_seed(8)
    from hierot.sampling import random_plan
    for man in (euclidean(2), S3):
        mu = random_measure(rng, man, 2, 3)
        g = random_plan(rng, mu, 1.0)
        nrm = plan_norm(g)
        for _ in range(10):
            t = float(rng.uniform(-0.5, 1.5))
            s = float(rng.uniform(-0.5, 1.5))
            assert (w2(interpolate(g, t), interpolate(g, s))
                    <= abs(t - s) * nrm + 1e-8)


def test_midpoint_restriction():
    rng = rng_from_seed(9)
    a = random_measure(rng, euclidean(2), 2, 3)
    b = random_measure(rng, euclidean(2), 2, 3)
    g = optimal_velocity_plan(a, b)
    half = restriction_plan(g, 0.0, 0.5)
    assert abs(plan_norm(half) - 0.5 * w2(a, b)) <= 1e-8
    assert w2(exp_push(half), interpolate(g, 0.5)) <= 1e-8
