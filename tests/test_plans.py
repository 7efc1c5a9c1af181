import math
from dataclasses import replace

import numpy as np
import pytest

from hierot import euclidean, sphere
from hierot.errors import BaseMismatch, InvalidInput, SchemaError
from hierot.measures import dirac, dirac_lift, mixture, n_expectancy
from hierot.plans import (FiberEntry, VelocityPlan, add, coupling_inner,
                          coupling_marginal_plan, coupling_sq_diff,
                          couplings_structurally_equal, exp_push, fd_add,
                          fd_from_field, fd_scale, generic_coupling, inner_mu,
                          is_fully_deterministic, optimal_coupling,
                          plan_as_measure, plan_norm, plan_norm_sq,
                          plans_structurally_equal, scale, sub, validate_plan,
                          w_mu, zero_plan)
from hierot.sampling import (random_coupling, random_measure, random_plan,
                             rng_from_seed)
from hierot.serialization import plan_from_obj, plan_to_obj
from hierot.wasserstein import w2

E2 = euclidean(2)
S3 = sphere(3)
N = np.array([0.0, 0.0, 1.0])


def test_zero_plan_properties():
    rng = rng_from_seed(1)
    mu = random_measure(rng, E2, 2, 3)
    zero = zero_plan(mu)
    validate_plan(zero)
    assert is_fully_deterministic(zero)
    assert plan_norm(zero) == 0.0
    assert w2(exp_push(zero), mu) == 0.0


def test_pole_plan_norms():
    # Dirac at the north pole with a tangent of norm 3*pi: a valid plan to
    # the south pole, with energy 3*pi (not the distance pi)
    base = dirac_lift(S3, N, 1)
    v = np.array([3 * np.pi, 0.0, 0.0])
    gamma = VelocityPlan(base=base, fibers=(
        (FiberEntry(1.0, VelocityPlan(base=base.atoms[0], tangent=v)),),))
    validate_plan(gamma)
    assert plan_norm(gamma) == pytest.approx(3 * np.pi)
    pushed = exp_push(gamma)
    assert w2(pushed, dirac_lift(S3, -N, 1)) <= 1e-9


def test_scale_homogeneity():
    rng = rng_from_seed(2)
    mu = random_measure(rng, E2, 2, 3)
    g = random_plan(rng, mu, 1.0)
    assert plan_norm(scale(-2.5, g)) == pytest.approx(2.5 * plan_norm(g))
    assert plan_norm(scale(0.0, g)) == 0.0
    assert plans_structurally_equal(scale(1.0, g), g, 0.0)


def test_exp_push_shapes():
    rng = rng_from_seed(3)
    mu = random_measure(rng, E2, 2, 3)
    g = random_plan(rng, mu, 0.5)
    nu = exp_push(g)
    assert nu.level == mu.level
    # identity field: exp_push of the zero plan is the base, atom for atom
    assert w2(exp_push(zero_plan(mu)), mu) == 0.0


def test_generic_coupling_marginals_and_self():
    rng = rng_from_seed(4)
    for man in (E2, S3):
        mu = random_measure(rng, man, 2, 3)
        g1 = random_plan(rng, mu, 1.0)
        g2 = random_plan(rng, mu, 1.0)
        alpha = generic_coupling(g1, g2)
        m1 = coupling_marginal_plan(alpha, 1)
        m2 = coupling_marginal_plan(alpha, 2)
        assert plans_structurally_equal(m1, g1, 1e-9)
        assert plans_structurally_equal(m2, g2, 1e-9)


def test_unique_coupling_with_fully_det_side():
    rng = rng_from_seed(5)
    for man in (E2, S3):
        for _ in range(25):
            mu = random_measure(rng, man, 2, 3)
            fd = random_plan(rng, mu, 1.0, deterministic=True)
            g = random_plan(rng, mu, 1.0)
            a_gen = generic_coupling(fd, g)
            a_opt, _ = optimal_coupling(fd, g)
            assert couplings_structurally_equal(a_gen, a_opt, 1e-9)


def test_zero_coupling_inner_is_zero():
    rng = rng_from_seed(6)
    mu = random_measure(rng, E2, 2, 3)
    g = random_plan(rng, mu, 1.0)
    alpha = generic_coupling(zero_plan(mu), g)
    assert abs(coupling_inner(alpha)) <= 1e-15


def test_optimal_coupling_fully_det_pair_is_norm_of_diff():
    rng = rng_from_seed(7)
    mu = random_measure(rng, E2, 2, 3)
    g1 = random_plan(rng, mu, 1.0, deterministic=True)
    g2 = random_plan(rng, mu, 1.0, deterministic=True)
    _, dist = optimal_coupling(g1, g2)
    diff = fd_add(g1, fd_scale(-1.0, g2))
    assert dist == pytest.approx(plan_norm(diff), abs=1e-12)


def test_wmu_self_and_oracle():
    from hierot.exact_ot import permutation_oracle
    rng = rng_from_seed(8)
    mu = random_measure(rng, E2, 1, 1)
    # uniform 4-entry fibers at a single atom: assignment problem
    x = mu.atoms[0].point
    from hierot.plans import FiberEntry
    k = 4
    v1 = [rng.standard_normal(2) for _ in range(k)]
    v2 = [rng.standard_normal(2) for _ in range(k)]
    g1 = VelocityPlan(base=mu, fibers=(tuple(
        FiberEntry(1.0 / k, VelocityPlan(base=mu.atoms[0], tangent=v))
        for v in v1),))
    g2 = VelocityPlan(base=mu, fibers=(tuple(
        FiberEntry(1.0 / k, VelocityPlan(base=mu.atoms[0], tangent=v))
        for v in v2),))
    _, dist = optimal_coupling(g1, g2)
    c = np.array([[float(np.dot(a - b, a - b)) for b in v2] for a in v1])
    assert dist ** 2 == pytest.approx(permutation_oracle(c), abs=1e-10)
    assert w_mu(g1, g1) == 0.0


def test_inner_mu_identities():
    rng = rng_from_seed(9)
    for man in (E2, S3):
        mu = random_measure(rng, man, 2, 3)
        g1 = random_plan(rng, mu, 1.0)
        g2 = random_plan(rng, mu, 1.0)
        assert inner_mu(g1, g1) == pytest.approx(plan_norm_sq(g1), abs=1e-10)
        assert abs(inner_mu(g1, g2)) <= plan_norm(g1) * plan_norm(g2) + 1e-9
        # polarization identity
        d = w_mu(g1, g2)
        assert d * d == pytest.approx(
            plan_norm_sq(g1) - 2 * inner_mu(g1, g2) + plan_norm_sq(g2),
            abs=1e-10)
        # independent maximization agrees
        assert inner_mu(g1, g2) == pytest.approx(
            inner_mu(g1, g2, method="direct"), abs=1e-8)
        # homogeneity in nonnegative scalars
        assert inner_mu(scale(2.0, g1), scale(0.5, g2)) == pytest.approx(
            inner_mu(g1, g2), abs=1e-8)


def test_second_moment_additivity():
    rng = rng_from_seed(10)
    mu = random_measure(rng, E2, 2, 3)
    g1 = random_plan(rng, mu, 1.0)
    g2 = random_plan(rng, mu, 1.0)
    for alpha in (generic_coupling(g1, g2), random_coupling(rng, g1, g2),
                  optimal_coupling(g1, g2)[0]):
        total = coupling_sq_diff(alpha) + 2 * coupling_inner(alpha)
        assert total == pytest.approx(plan_norm_sq(g1) + plan_norm_sq(g2),
                                      abs=1e-12)


def test_add_and_sub_identities():
    rng = rng_from_seed(11)
    mu = random_measure(rng, E2, 2, 3)
    g = random_plan(rng, mu, 1.0)
    zero = zero_plan(mu)
    alpha = generic_coupling(g, zero)
    assert w_mu(add(g, zero, alpha), g) <= 1e-12
    fd = random_plan(rng, mu, 1.0, deterministic=True)
    a2 = generic_coupling(fd, fd)
    assert plan_norm(sub(fd, fd, a2)) <= 1e-15
    g2 = random_plan(rng, mu, 1.0)
    a3 = generic_coupling(g, g2)
    assert plan_norm(add(g, g2, a3)) <= plan_norm(g) + plan_norm(g2) + 1e-12


def test_base_mismatch_rejected():
    rng = rng_from_seed(12)
    mu = random_measure(rng, E2, 1, 3)
    nu = random_measure(rng, E2, 1, 3)
    g1 = random_plan(rng, mu, 1.0)
    g2 = random_plan(rng, nu, 1.0)
    with pytest.raises(BaseMismatch):
        generic_coupling(g1, g2)


def test_add_rejects_foreign_coupling():
    from hierot.errors import CouplingMismatch
    rng = rng_from_seed(18)
    mu = random_measure(rng, E2, 1, 3)
    g1 = random_plan(rng, mu, 1.0)
    g2 = random_plan(rng, mu, 1.0)
    g3 = random_plan(rng, mu, 1.0)
    alpha = generic_coupling(g1, g2)
    with pytest.raises(CouplingMismatch):
        add(g1, g3, alpha)


@pytest.mark.parametrize("diag,bad", [(0.6, -0.1), (0.5, 0.0), (0.5, math.nan)])
def test_add_rejects_coupling_weight_not_finite_and_positive(diag, bad):
    # both plans split one atom into two halves; the coupling's entries
    # meet both marginals (NaN passes an `abs(...) > tol` test), yet an
    # entry that is negative, zero or NaN is no coupling
    from hierot.errors import CouplingMismatch
    from hierot.plans import Coupling, CouplingEntry
    mu = dirac_lift(E2, [0.0, 0.0], 1)
    leaf = mu.atoms[0]
    tangents = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    halves = tuple(FiberEntry(0.5, VelocityPlan(base=leaf, tangent=t))
                   for t in tangents)
    g = VelocityPlan(base=mu, fibers=(halves,))
    validate_plan(g)
    entries = tuple(
        CouplingEntry(diag if k == l else bad, k, l,
                      Coupling(base=leaf, v1=tangents[k], v2=tangents[l]))
        for k in range(2) for l in range(2))
    alpha = Coupling(base=mu, fibers=(entries,))
    with pytest.raises(CouplingMismatch):
        add(g, g, alpha)


def test_wmu_zero_between_representation_variants():
    # splitting one fiber entry into two equal halves leaves the plan
    # unchanged as a measure: W_mu must vanish and the pushforwards agree
    from hierot.measures import canonicalize
    rng = rng_from_seed(19)
    mu = random_measure(rng, E2, 1, 2)
    g1 = random_plan(rng, mu, 1.0, deterministic=True)
    e = g1.fibers[0][0]
    half = FiberEntry(e.weight / 2, e.plan)
    g2 = VelocityPlan(base=mu, fibers=((half, half),) + g1.fibers[1:])
    validate_plan(g2)
    assert w_mu(g1, g2) <= 1e-10
    assert (canonicalize(exp_push(g1)).structural_key()
            == canonicalize(exp_push(g2)).structural_key())


def test_fd_from_field_and_isometry():
    rng = rng_from_seed(13)
    for man in (euclidean(3), S3):
        mu = random_measure(rng, man, 2, 3)
        a = rng.standard_normal(3)
        f = lambda x: man.project_tangent(x, a)
        g = fd_from_field(mu, f)
        assert is_fully_deterministic(g)
        assert plan_norm_sq(g) == n_expectancy(
            mu, lambda x: float(np.dot(f(x), f(x))))
    # gradient field of a centered quadratic on flat space
    mu = mixture((0.5, 0.5), [dirac(E2, [0.0, 0.0]), dirac(E2, [2.0, 0.0])])
    center = np.array([1.0, 1.0])
    g = fd_from_field(mu, lambda x: x - center)
    leaves = [g.fibers[i][0].plan.tangent for i in range(2)]
    assert np.allclose(leaves[0], [-1.0, -1.0])
    assert np.allclose(leaves[1], [1.0, -1.0])


def test_fd_vector_space_axioms():
    rng = rng_from_seed(14)
    mu = random_measure(rng, E2, 2, 3)
    g1 = random_plan(rng, mu, 1.0, deterministic=True)
    g2 = random_plan(rng, mu, 1.0, deterministic=True)
    g3 = random_plan(rng, mu, 1.0, deterministic=True)
    zero = zero_plan(mu)
    assert plans_structurally_equal(fd_add(g1, g2), fd_add(g2, g1), 0.0)
    assert plans_structurally_equal(fd_add(g1, zero), g1, 0.0)
    assert plan_norm(fd_add(g1, fd_scale(-1.0, g1))) == 0.0
    assert plans_structurally_equal(
        fd_add(fd_add(g1, g2), g3), fd_add(g1, fd_add(g2, g3)), 1e-12)
    assert is_fully_deterministic(fd_add(g1, g2))
    # bilinearity of the inner product on the deterministic subspace
    lam = 0.75
    lhs = inner_mu(fd_add(g1, fd_scale(lam, g2)), g3)
    rhs = inner_mu(g1, g3) + lam * inner_mu(g2, g3)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_fd_scale_requires_deterministic():
    mu = mixture((0.5, 0.5), [dirac(E2, [0.0, 0.0]), dirac(E2, [1.0, 0.0])])
    multi = VelocityPlan(base=mu, fibers=(
        (FiberEntry(0.25, VelocityPlan(base=mu.atoms[0], tangent=np.ones(2))),
         FiberEntry(0.25, VelocityPlan(base=mu.atoms[0], tangent=np.zeros(2)))),
        (FiberEntry(0.5, VelocityPlan(base=mu.atoms[1], tangent=np.zeros(2))),)))
    validate_plan(multi)
    assert not is_fully_deterministic(multi)
    with pytest.raises(InvalidInput):
        fd_scale(2.0, multi)


def test_norm_bounds_distance_between_marginals():
    rng = rng_from_seed(16)
    for man in (E2, S3):
        for level in (1, 2):
            mu = random_measure(rng, man, level, 3)
            g = random_plan(rng, mu, 1.0)
            assert w2(mu, exp_push(g)) <= plan_norm(g) + 1e-9


def test_plan_as_measure_bounds():
    rng = rng_from_seed(17)
    mu = random_measure(rng, E2, 2, 3)
    g = random_plan(rng, mu, 1.0)
    zero_m = plan_as_measure(zero_plan(mu))
    g_m = plan_as_measure(g)
    assert w2(zero_m, g_m) <= plan_norm(g) + 1e-9
    with pytest.raises(InvalidInput):
        plan_as_measure(random_plan(rng, random_measure(rng, S3, 1, 2), 0.5))


def test_validate_plan_detects_bad_weights():
    from hierot.plans import FiberEntry
    mu = mixture((0.5, 0.5), [dirac(E2, [0.0, 0.0]), dirac(E2, [1.0, 0.0])])
    bad = VelocityPlan(base=mu, fibers=(
        (FiberEntry(0.4, VelocityPlan(base=mu.atoms[0], tangent=np.zeros(2))),),
        (FiberEntry(0.5, VelocityPlan(base=mu.atoms[1], tangent=np.zeros(2))),)))
    with pytest.raises(InvalidInput):
        validate_plan(bad)


def _scale_v1(node, factor, every=True):
    """``node`` with the ``v1`` of every leaf, or of its first leaf only,
    scaled by ``factor``."""
    if node.level == 0:
        return replace(node, v1=factor * node.v1)
    fibers = [list(f) for f in node.fibers]
    for f in fibers if every else fibers[:1]:
        for k in range(len(f) if every else 1):
            f[k] = replace(f[k], plan=_scale_v1(f[k].plan, factor, every))
    return replace(node, fibers=tuple(map(tuple, fibers)))


def test_structural_tolerance_is_absolute():
    rng = rng_from_seed(53)
    mu = random_measure(rng, E2, 2, 3)
    g, h = random_plan(rng, mu, 1.0), random_plan(rng, mu, 1.0)
    assert plans_structurally_equal(g, g, 0.0)
    assert not plans_structurally_equal(g, scale(1 + 5e-6, g), 0.0)
    alpha = generic_coupling(g, h)
    assert couplings_structurally_equal(alpha, alpha, 0.0)
    assert not couplings_structurally_equal(
        alpha, _scale_v1(alpha, 1 + 5e-6, every=False))
    # one fiber fewer is another shape, whatever the tolerance
    pts = [dirac(E2, [float(k), 0.0]) for k in range(3)]
    three = zero_plan(mixture((0.25, 0.25, 0.5), pts))
    two = zero_plan(mixture((0.5, 0.5), pts[:2]))
    assert not plans_structurally_equal(three, two, math.inf)
    assert not plans_structurally_equal(two, three, math.inf)


def test_coupling_leaf_tangents_are_held_to_marginal_tol():
    from hierot.errors import CouplingMismatch
    from hierot.plans import MARGINAL_TOL, validate_coupling
    rng = rng_from_seed(5)
    mu = random_measure(rng, euclidean(2), 1, 3)
    g1 = random_plan(rng, mu, 1.0, deterministic=True)
    g2 = random_plan(rng, mu, 1.0, deterministic=True)
    off = _scale_v1(generic_coupling(g1, g2), 1 + 1e-6)
    gap = max(float(np.max(np.abs(1e-6 * e.plan.v1)))
              for f in off.fibers for e in f)
    assert 1e3 * MARGINAL_TOL < gap < 1e-5
    with pytest.raises(CouplingMismatch):
        validate_coupling(off, g1, g2)
    with pytest.raises(CouplingMismatch):
        add(g1, g2, off)


# twelve fiber weights whose exact sum is 1 + 1.00000008e-10, beyond the
# 1e-10 fiber bound, while their sum in order is 1 + 0.99999786e-10
EDGE_FIBER = [0.09148703129665424, 0.07240177700236046, 0.07547685625379698,
              0.07188694628378375, 0.07584077826938679, 0.09169350541002755,
              0.07102827813559126, 0.07640122389302417, 0.10405913887108846,
              0.051884484350653105, 0.08984806014494076, 0.12799192018869243]


def test_fiber_sum_is_exact_in_validation_and_the_reader():
    in_order = 0.0
    for w in EDGE_FIBER:
        in_order += w
    assert abs(in_order - 1.0) <= 1e-10 < abs(math.fsum(EDGE_FIBER) - 1.0)
    base = mixture((1.0,), [dirac(E2, [0.0, 0.0])])
    leaf = base.atoms[0]
    gamma = VelocityPlan(base=base, fibers=(tuple(
        FiberEntry(w, VelocityPlan(base=leaf, tangent=np.zeros(2)))
        for w in EDGE_FIBER),))
    with pytest.raises(InvalidInput, match="fiber weights at atom 0 sum to"):
        validate_plan(gamma)
    with pytest.raises(SchemaError, match="fiber weights at atom 0 sum to"):
        plan_from_obj(plan_to_obj(gamma))
