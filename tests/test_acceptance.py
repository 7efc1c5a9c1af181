"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary.  Tolerances are fixed here, not configurable.
"""

import itertools
import json

import numpy as np
import pytest

from hierot import euclidean, sphere
from hierot.checks import run_suite
from hierot.exact_ot import permutation_oracle, solve_ot, verify_optimality
from hierot.functionals import (DistanceTerm, FunctionalSpec,
                                GeneralizedGeodesicCurve, GeodesicCurve,
                                PotentialTerm, convexity_check,
                                directional_residual, grad_potential,
                                make_linear_ambient, make_quadratic,
                                supergradient_inequality_check,
                                taylor_remainder_check, w2_supergradient)
from hierot.geodesics import (interpolate, optimal_velocity_plan, pt_n,
                              restriction_plan, verify_constant_speed)
from hierot.manifolds import Manifold
from hierot.measures import dirac_lift
from hierot.plans import (VelocityPlan, FiberEntry, coupling_inner,
                          coupling_sq_diff, couplings_structurally_equal,
                          exp_push, fd_add, fd_scale, fd_from_field,
                          generic_coupling, inner_mu, is_fully_deterministic,
                          optimal_coupling, plan_norm, plan_norm_sq, scale,
                          w_mu, zero_plan)
from hierot.sampling import (random_coupling, random_measure, random_plan,
                             random_point, random_tangent, rng_from_seed)
from hierot.wasserstein import w2

E2 = euclidean(2)
E3 = euclidean(3)
S3 = sphere(3)
MANIFOLDS = (E2, S3)


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_ot_oracle_equivalence():
    """200 random uniform instances, n <= 6: solver == brute force, gap certified."""
    rng = rng_from_seed(1001)
    worst_val = 0.0
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        c = rng.random((n, n)) * 10.0
        a = np.full(n, 1.0 / n)
        plan, duals, value = solve_ot(c, a, a)
        assert verify_optimality(plan, duals, c)
        worst_val = max(worst_val, abs(value - permutation_oracle(c)))
        gap = abs(value - float(a @ duals.phi + a @ duals.psi))
        worst_gap = max(worst_gap, gap / (1.0 + abs(value)))
    assert worst_val <= 1e-9
    assert worst_gap <= 1e-8
    report("criterion 1 (OT oracle equivalence)",
           f"200 instances, worst value gap {worst_val:.2e}, "
           f"worst duality gap {worst_gap:.2e}")


def test_criterion_2_metric_suite():
    """Symmetry/triangle at levels 1-3 (100 triples each); Dirac isometry."""
    rng = rng_from_seed(1002)
    worst = 0.0
    for level in (1, 2, 3):
        for i in range(100):
            man = MANIFOLDS[i % 2]
            a = random_measure(rng, man, level, 3)
            b = random_measure(rng, man, level, 3)
            c = random_measure(rng, man, level, 3)
            worst = max(worst, abs(w2(a, b) - w2(b, a)))
            worst = max(worst, w2(a, c) - w2(a, b) - w2(b, c))
    assert worst <= 1e-8
    worst_iso = 0.0
    for level in (1, 2, 3):
        for man in MANIFOLDS:
            for _ in range(20):
                x = random_point(rng, man)
                y = random_point(rng, man)
                worst_iso = max(worst_iso, abs(
                    w2(dirac_lift(man, x, level), dirac_lift(man, y, level))
                    - man.dist(x, y)))
    assert worst_iso <= 1e-10
    report("criterion 2 (metric suite)",
           f"worst metric residual {worst:.2e}, "
           f"worst Dirac-lift residual {worst_iso:.2e}")


def test_criterion_3_optimal_plan_norm_identity():
    """|norm - w2| <= 1e-8 on 100 pairs per level; sphere pole norms pi/3pi."""
    rng = rng_from_seed(1003)
    worst = 0.0
    for level in (1, 2, 3):
        for i in range(100):
            man = MANIFOLDS[i % 2]
            a = random_measure(rng, man, level, 3)
            b = random_measure(rng, man, level, 3)
            g = optimal_velocity_plan(a, b)
            worst = max(worst, abs(plan_norm(g) - w2(a, b)))
    assert worst <= 1e-8

    north = np.array([0.0, 0.0, 1.0])
    a = dirac_lift(S3, north, 1)
    b = dirac_lift(S3, -north, 1)
    g_opt = optimal_velocity_plan(a, b)
    assert plan_norm(g_opt) == pytest.approx(np.pi, abs=1e-12)
    v = np.array([3 * np.pi, 0.0, 0.0])
    g_bad = VelocityPlan(base=a, fibers=(
        (FiberEntry(1.0, VelocityPlan(base=a.atoms[0], tangent=v)),),))
    rep = verify_constant_speed(g_bad, [0.0, 1 / 6, 0.5, 1.0])
    assert plan_norm(g_bad) == pytest.approx(3 * np.pi, abs=1e-12)
    assert not rep.passed and rep.speed_mismatch > 1.0
    report("criterion 3 (optimal plan norm identity)",
           f"worst |norm - w2| {worst:.2e}; pole norms pi and 3pi reproduced, "
           "non-optimal plan flagged")


def test_criterion_4_constant_speed():
    """11-point grid deviation <= 1e-8 on 50 instances per level."""
    rng = rng_from_seed(1004)
    grid = [i / 10.0 for i in range(11)]
    worst = 0.0
    for level in (1, 2, 3):
        for i in range(50):
            man = MANIFOLDS[i % 2]
            atoms = 3 if level < 3 else 2
            a = random_measure(rng, man, level, atoms)
            b = random_measure(rng, man, level, atoms)
            g = optimal_velocity_plan(a, b)
            rep = verify_constant_speed(g, grid)
            worst = max(worst, rep.max_deviation)
    assert worst <= 1e-8
    report("criterion 4 (constant speed geodesics)",
           f"150 instances, worst grid deviation {worst:.2e}")


def test_criterion_5_parallel_transport():
    """Group law/norm of pt_n at 1e-8; restriction plan norm identity."""
    rng = rng_from_seed(1005)
    worst = 0.0

    def leaf_gap(g1, g2):
        if g1.level == 0:
            return max(float(np.max(np.abs(g1.base.point - g2.base.point))),
                       float(np.max(np.abs(g1.tangent - g2.tangent))))
        out = 0.0
        for f1, f2 in zip(g1.fibers, g2.fibers):
            assert len(f1) == len(f2)
            for e1, e2 in zip(f1, f2):
                out = max(out, abs(e1.weight - e2.weight),
                          leaf_gap(e1.plan, e2.plan))
        return out

    for man in MANIFOLDS:
        for level in (1, 2):
            for _ in range(15):
                base = random_measure(rng, man, level, 3)
                g = random_plan(rng, base, 1.0)
                t = float(rng.uniform(-1.0, 1.0))
                s = float(rng.uniform(-1.0, 1.0))
                worst = max(worst, abs(plan_norm(pt_n(g, t)) - plan_norm(g)))
                worst = max(worst, leaf_gap(pt_n(pt_n(g, t), s),
                                            pt_n(g, t + s)))
    assert worst <= 1e-8

    worst_restrict = 0.0
    for man in MANIFOLDS:
        for _ in range(10):
            a = random_measure(rng, man, 2, 3)
            b = random_measure(rng, man, 2, 3)
            g = optimal_velocity_plan(a, b)
            dist = w2(a, b)
            t = float(rng.uniform(0.0, 1.0))
            s = float(rng.uniform(0.0, 1.0))
            r = restriction_plan(g, t, s)
            worst_restrict = max(worst_restrict,
                                 abs(plan_norm(r) - abs(s - t) * dist))
    assert worst_restrict <= 1e-8
    report("criterion 5 (parallel transport)",
           f"worst group-law/norm residual {worst:.2e}, "
           f"worst restriction residual {worst_restrict:.2e}")


def test_criterion_6_wmu_inner_product():
    """W_mu metric axioms, Cauchy-Schwarz, polarization, second moments,
    per-fiber permutation oracles (n <= 5)."""
    rng = rng_from_seed(1006)
    worst = 0.0
    for man in MANIFOLDS:
        for level in (1, 2):
            for _ in range(10):
                base = random_measure(rng, man, level, 3)
                g1 = random_plan(rng, base, 1.0)
                g2 = random_plan(rng, base, 1.0)
                g3 = random_plan(rng, base, 1.0)
                worst = max(worst, abs(w_mu(g1, g2) - w_mu(g2, g1)))
                worst = max(worst, w_mu(g1, g3) - w_mu(g1, g2) - w_mu(g2, g3))
                worst = max(worst, abs(inner_mu(g1, g2))
                            - plan_norm(g1) * plan_norm(g2))
                d = w_mu(g1, g2)
                worst = max(worst, abs(
                    d * d - (plan_norm_sq(g1) - 2 * inner_mu(g1, g2)
                             + plan_norm_sq(g2))))
                worst = max(worst, abs(inner_mu(g1, g1) - plan_norm_sq(g1)))
                alpha = generic_coupling(g1, g2)
                total = coupling_sq_diff(alpha) + 2 * coupling_inner(alpha)
                worst = max(worst, abs(
                    total - (plan_norm_sq(g1) + plan_norm_sq(g2))))
    assert worst <= 1e-10

    worst_fiber = 0.0
    for man in MANIFOLDS:
        for _ in range(25):
            k = int(rng.integers(2, 6))
            x = random_point(rng, man)
            from hierot.measures import HierMeasure, mixture
            base = mixture((1.0,), [HierMeasure(man, 0, point=x)])
            v1 = [random_tangent(rng, man, x) for _ in range(k)]
            v2 = [random_tangent(rng, man, x) for _ in range(k)]
            g1 = VelocityPlan(base=base, fibers=(tuple(
                FiberEntry(1.0 / k, VelocityPlan(base=base.atoms[0], tangent=v))
                for v in v1),))
            g2 = VelocityPlan(base=base, fibers=(tuple(
                FiberEntry(1.0 / k, VelocityPlan(base=base.atoms[0], tangent=v))
                for v in v2),))
            _, dist = optimal_coupling(g1, g2)
            c = np.array([[float(np.dot(p - q, p - q)) for q in v2] for p in v1])
            worst_fiber = max(worst_fiber, abs(dist ** 2 - permutation_oracle(c)))
    assert worst_fiber <= 1e-9
    report("criterion 6 (W_mu / inner product)",
           f"worst identity residual {worst:.2e}, "
           f"worst fiber-oracle residual {worst_fiber:.2e}")


def test_criterion_7_fully_deterministic_structure():
    """Vector-space axioms, L2 isometry, unique couplings (100 cases)."""
    rng = rng_from_seed(1007)
    from hierot.measures import n_expectancy
    from hierot.plans import plans_structurally_equal
    worst = 0.0
    unique_ok = 0
    for i in range(100):
        man = MANIFOLDS[i % 2]
        level = 1 + (i % 2)
        base = random_measure(rng, man, level, 3)
        g1 = random_plan(rng, base, 1.0, deterministic=True)
        g2 = random_plan(rng, base, 1.0, deterministic=True)
        zero = zero_plan(base)
        assert plans_structurally_equal(fd_add(g1, g2), fd_add(g2, g1), 0.0)
        assert plans_structurally_equal(fd_add(g1, zero), g1, 0.0)
        assert plan_norm(fd_add(g1, fd_scale(-1.0, g1))) == 0.0
        assert is_fully_deterministic(fd_add(g1, g2))
        a = rng.standard_normal(man.ambient_dim)
        f = (lambda aa: lambda x: man.project_tangent(x, aa))(a)
        gf = fd_from_field(base, f)
        iso_gap = abs(plan_norm_sq(gf) - n_expectancy(
            base, lambda x: float(np.dot(f(x), f(x)))))
        worst = max(worst, iso_gap)
        g3 = random_plan(rng, base, 1.0)
        if couplings_structurally_equal(generic_coupling(g1, g3),
                                        optimal_coupling(g1, g3)[0], 1e-9):
            unique_ok += 1
    assert worst == 0.0
    assert unique_ok == 100
    report("criterion 7 (fully deterministic structure)",
           "axioms and L2 isometry exact, 100/100 unique couplings")


def test_criterion_8_calculus_suite():
    """Taylor bounds, supergradient inequality (with the hand-checked
    equality case), 1-convexity deficit, convexity lifting."""
    rng = rng_from_seed(1008)
    worst_taylor = 0.0
    for man in MANIFOLDS:
        for i in range(100):
            level = 1 + (i % 2)
            mu = random_measure(rng, man, level, 3)
            if man.kind == "euclidean":
                pot = make_quadratic(man, rng.standard_normal(man.ambient_dim))
            else:
                pot = make_linear_ambient(man, rng.standard_normal(3))
            g = random_plan(rng, mu, 0.8)
            lhs, bound, ok = taylor_remainder_check(pot, mu, g)
            assert ok, (lhs, bound)
            worst_taylor = max(worst_taylor, lhs - bound)

    worst_super = 0.0
    for i in range(100):
        man = MANIFOLDS[i % 2]
        level = 1 + (i % 2)
        mu = random_measure(rng, man, level, 3)
        nu = random_measure(rng, man, level, 3)
        mubar = random_measure(rng, man, level, 3)
        lhs, rhs, ok = supergradient_inequality_check(mu, nu, mubar)
        assert ok, (lhs, rhs)
        worst_super = max(worst_super, lhs - rhs)

    e1 = euclidean(1)
    lhs, rhs, ok = supergradient_inequality_check(
        dirac_lift(e1, [0.0], 1), dirac_lift(e1, [1.0], 1),
        dirac_lift(e1, [3.0], 1))
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-12)

    worst_gen = 0.0
    for i in range(50):
        man = MANIFOLDS[i % 2]
        mubar = random_measure(rng, man, 2, 3)
        mu0 = random_measure(rng, man, 2, 3)
        mu1 = random_measure(rng, man, 2, 3)
        g0 = optimal_velocity_plan(mubar, mu0)
        g1 = optimal_velocity_plan(mubar, mu1)
        curve = GeneralizedGeodesicCurve(generic_coupling(g0, g1))
        spec = FunctionalSpec((DistanceTerm(mubar, 1.0),))
        rep = convexity_check(spec, curve, 1.0, ts=[0.0, 0.25, 0.5, 0.75, 1.0])
        assert rep.passed, rep.worst_margin
        worst_gen = max(worst_gen, rep.worst_margin)

    worst_lift = 0.0
    for _ in range(20):
        mu0 = random_measure(rng, E2, 2, 3)
        mu1 = random_measure(rng, E2, 2, 3)
        pot = make_quadratic(E2, rng.standard_normal(2))
        spec = FunctionalSpec((PotentialTerm(pot),))
        curve = GeodesicCurve(optimal_velocity_plan(mu0, mu1))
        rep = convexity_check(spec, curve, 1.0, ts=[0.0, 0.25, 0.5, 0.75, 1.0])
        assert rep.passed, rep.worst_margin
        worst_lift = max(worst_lift, rep.worst_margin)

    report("criterion 8 (calculus suite)",
           f"Taylor margin {worst_taylor:.2e}, supergradient margin "
           f"{worst_super:.2e} (equality case 2=2), generalized-geodesic "
           f"margin {worst_gen:.2e}, lifting margin {worst_lift:.2e}")


def test_criterion_9_gradient_finite_differences():
    """Normalized first-order residual halves under three halvings (<= 0.6)."""
    rng = rng_from_seed(1009)
    count = 0
    for level in (1, 2):
        for _ in range(10):
            mu = random_measure(rng, E3, level, 3)
            pot = make_quadratic(E3, rng.standard_normal(3))
            xi = random_plan(rng, mu, 1.0)
            normalized = []
            for k in range(4):
                xik = scale(0.5 ** k, xi)
                normalized.append(directional_residual(pot, mu, xik)
                                  / plan_norm(xik))
            ratios = [b / a for a, b in zip(normalized, normalized[1:])]
            assert len(ratios) == 3
            assert all(r <= 0.6 for r in ratios), ratios
            count += 1
    report("criterion 9 (finite-difference gradient checks)",
           f"{count} instances, all halving ratios <= 0.6")


def test_criterion_10_check_determinism(tmp_path):
    """cmd_check emits byte-identical reports for a fixed seed."""
    from hierot.cli import main
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code = main(["check", "--suite", "coupling", "--seed", "7",
                     "--samples", "2", "--report", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    report("criterion 10 (determinism)",
           f"identical {len(outs[0])}-byte reports across two runs")
