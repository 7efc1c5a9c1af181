"""Executable invariant suites.

Every inequality and identity the library is built on is encoded here as a
seeded property check returning a worst residual.  The CLI ``check``
command and the acceptance tests both run these functions, so a failure is
reproducible from the printed seed.

A property is its body: :func:`_property` declares the body's suite, report
name, rng label, manifolds, levels, draw count and tolerance, turns it into a
check ``check(seed, samples)`` and appends that to its suite in ``SUITES``,
so a suite reports its properties in the order they are declared.  The
harness owns the sampling loop, the residual fold and the result;
``samples`` is the only setting.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import functionals as fn
from . import geodesics as geo
from . import plans as pl
from . import sampling as smp
from .errors import InvalidInput
from .exact_ot import permutation_oracle
from .manifolds import euclidean, sphere
from .measures import (DEDUP_TOL, HierMeasure, base_support, canonicalize,
                       collapse, dirac_lift, eval_unrolled, mixture,
                       n_expectancy, push_leaf, w2_to_dirac)
from .plans import FiberEntry, _fold, _point_tangent_gap, _tree_gap
from .wasserstein import TOL_NEAR_ZERO, transport, w2, w2_sq

LEVELS = (1, 2, 3)
MAX_ATOMS = 3
E1, E2, E3, S3 = euclidean(1), euclidean(2), euclidean(3), sphere(3)
# suite name -> its checks, in declaration order
SUITES = {}


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    worst_residual: float
    samples: int
    detail: str = ""

    def as_obj(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "worst_residual": float(self.worst_residual),
                "samples": int(self.samples), "detail": self.detail}


def _rng(seed: int, name: str) -> np.random.Generator:
    return smp.rng_from_seed((int(seed) << 16) ^ zlib.crc32(name.encode()))


def _result(name, worst, tol, samples, detail="") -> PropertyResult:
    return PropertyResult(name=name, passed=worst <= tol,
                          worst_residual=float(worst), samples=samples,
                          detail=detail or f"tolerance {tol}")


def _property(suite, name, label, *, tol, manifolds, levels=(0,),
              draws=lambda samples: samples, detail=""):
    """Declare a seeded property of ``suite`` around its body.

    ``body(rng, man, level)`` draws one instance from ``rng`` and returns
    its residuals, or ``None`` to skip the draw, which is then not counted.
    The check ``check(seed, samples)`` this returns seeds ``rng`` from
    ``seed`` and ``label``, makes ``draws(samples)`` draws for each manifold
    and, within it, each level, and passes when no residual exceeds ``tol``.
    A body that draws only points keeps the default level 0.  The check
    is appended to ``SUITES[suite]``.
    """
    def declare(body):
        def check(seed: int, samples: int) -> PropertyResult:
            rng = _rng(seed, label)
            count = draws(samples)
            worst, n = 0.0, 0
            for man in manifolds:
                for level in levels:
                    for _ in range(count):
                        residuals = body(rng, man, level)
                        if residuals is not None:
                            worst = _fold(worst, residuals)
                            n += 1
            return _result(name, worst, tol, n, detail)
        check.__name__ = check.__qualname__ = body.__name__
        SUITES.setdefault(suite, []).append(check)
        return check
    return declare


def _measure(rng, man, level):
    return smp.random_measure(rng, man, level, MAX_ATOMS)


# ---------------------------------------------------------------------------
# metric suite


@_property("metric", "manifold.exp_log_identity", "exp_log", tol=1e-9,
           manifolds=(E1, E3, S3), draws=lambda s: s * 4)
def check_exp_log_identity(rng, man, level):
    x = smp.random_point(rng, man)
    y = smp.random_point(rng, man)
    v = man.log(x, y)
    return (man.dist(man.exp(x, v), y),
            abs(float(np.linalg.norm(v)) - man.dist(x, y)))


@_property("metric", "manifold.triangle", "mtri", tol=1e-12,
           manifolds=(E1, E3, S3), draws=lambda s: s * 4)
def check_manifold_triangle(rng, man, level):
    x, y, z = (smp.random_point(rng, man) for _ in range(3))
    return (man.dist(x, z) - man.dist(x, y) - man.dist(y, z),)


@_property("metric", "manifold.exp_contraction", "contraction", tol=1e-9,
           manifolds=(S3, E3), draws=lambda s: s * 4)
def check_exp_contraction(rng, man, level):
    # exp contracts on the sphere and is an isometry in flat space
    x = smp.random_point(rng, man)
    if man.kind == "euclidean":
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        return (abs(man.dist(man.exp(x, u), man.exp(x, v))
                    - float(np.linalg.norm(u - v))),)
    u = smp.random_tangent(rng, man, x, 0.8)
    v = smp.random_tangent(rng, man, x, 0.8)
    return (man.dist(man.exp(x, u), man.exp(x, v))
            - float(np.linalg.norm(u - v)),)


@_property("metric", "w2.metric_axioms", "w2metric", tol=1e-8,
           manifolds=(E2, S3), levels=LEVELS)
def check_w2_metric(rng, man, level):
    a, b, c = (_measure(rng, man, level) for _ in range(3))
    ab = w2(a, b)
    return (abs(ab - w2(b, a)), w2(a, c) - ab - w2(b, c), w2(a, a))


@_property("metric", "w2.dirac_lift_isometry", "dirac_iso", tol=1e-10,
           manifolds=(E2, S3), levels=LEVELS)
def check_dirac_isometry(rng, man, level):
    x = smp.random_point(rng, man)
    y = smp.random_point(rng, man)
    return (abs(w2(dirac_lift(man, x, level), dirac_lift(man, y, level))
                - man.dist(x, y)),)


@_property("metric", "w2.collapse_lower_bound", "collapse_lb", tol=1e-9,
           manifolds=(E2, S3), levels=(2, 3))
def check_collapse_lower_bound(rng, man, level):
    a = _measure(rng, man, level)
    b = _measure(rng, man, level)
    return (w2(collapse(a), collapse(b)) - w2(a, b),)


@_property("metric", "w2.dirac_second_moment", "w2dirac", tol=1e-9,
           manifolds=(E2, S3), levels=LEVELS)
def check_w2_to_dirac(rng, man, level):
    mu = _measure(rng, man, level)
    o = smp.random_point(rng, man)
    return (abs(w2(mu, dirac_lift(man, o, level)) - w2_to_dirac(mu, o)),)


def _random_scalar_fn(rng, man):
    a = rng.standard_normal(man.ambient_dim)
    c = float(rng.standard_normal())
    return lambda x: float(np.dot(a, x)) + c


@_property("metric", "measure.holder_minkowski", "holder", tol=1e-9,
           manifolds=(E2, S3), levels=LEVELS)
def check_holder_minkowski(rng, man, level):
    mu = _measure(rng, man, level)
    f = _random_scalar_fn(rng, man)
    g = _random_scalar_fn(rng, man)
    ef2 = n_expectancy(mu, lambda x: f(x) ** 2)
    eg2 = n_expectancy(mu, lambda x: g(x) ** 2)
    efg = n_expectancy(mu, lambda x: abs(f(x) * g(x)))
    holder = efg - np.sqrt(ef2) * np.sqrt(eg2)
    esum = n_expectancy(mu, lambda x: (f(x) + g(x)) ** 2)
    return holder, np.sqrt(esum) - np.sqrt(ef2) - np.sqrt(eg2)


@_property("metric", "measure.expectancy_matches_unrolled", "expect_unrolled",
           tol=0.0, manifolds=(E2, S3), levels=LEVELS,
           detail="exact equality (shared summation order)")
def check_expectancy_unrolled(rng, man, level):
    mu = _measure(rng, man, level)
    f = _random_scalar_fn(rng, man)
    return (abs(n_expectancy(mu, f) - eval_unrolled(mu, f)),)


@_property("metric", "measure.pushforward_naturality", "push_nat", tol=0.0,
           manifolds=(E3,), levels=(2, 3), detail="structural equality")
def check_pushforward_naturality(rng, man, level):
    mu = _measure(rng, man, level)
    shift = rng.standard_normal(3)
    lhs = collapse(push_leaf(mu, lambda x: x + shift))
    rhs = push_leaf(collapse(mu), lambda x: x + shift)
    residuals = []
    for wl, wr, al, ar in zip(lhs.weights, rhs.weights, lhs.atoms, rhs.atoms):
        residuals += [abs(wl - wr), float(np.max(np.abs(al.point - ar.point)))]
    return residuals


@_property("metric", "measure.base_support_recurrence", "spt", tol=0.0,
           manifolds=(E2, S3), levels=(2, 3))
def check_base_support(rng, man, level):
    mu = _measure(rng, man, level)
    direct = base_support(mu).points
    rec = []
    for atom in mu.atoms:
        for p in base_support(atom).points:
            if not any(man.dist(p, q) <= DEDUP_TOL for q in rec):
                rec.append(p)
    ok = len(direct) == len(rec) and all(
        any(man.dist(p, q) <= 1e-9 for q in rec) for p in direct)
    return (0.0 if ok else 1.0,)


@_property("metric", "measure.representation_invariance", "repr_inv", tol=1e-8,
           manifolds=(E2,), levels=(1, 2))
def check_representation_invariance(rng, man, level):
    mu = _measure(rng, man, level)
    # split the first atom in two equal halves: same measure, new tree
    w0 = mu.weights[0]
    if w0 <= 2e-4:
        return None
    weights = (w0 / 2, w0 / 2) + mu.weights[1:]
    atoms = (mu.atoms[0], mu.atoms[0]) + mu.atoms[1:]
    nu = HierMeasure(man, mu.level, weights=weights, atoms=atoms)
    dist = w2(mu, nu)
    same = canonicalize(mu).structural_key() == canonicalize(nu).structural_key()
    return dist, 0.0 if same else 1.0


# ---------------------------------------------------------------------------
# coupling suite


def _random_base_and_plans(rng, man, level, count=2):
    base = _measure(rng, man, level)
    return base, [smp.random_plan(rng, base, 1.0) for _ in range(count)]


@_property("coupling", "plans.wmu_metric_axioms", "wmu_metric", tol=1e-8,
           manifolds=(E2, S3), levels=(1, 2))
def check_wmu_metric(rng, man, level):
    _, (g1, g2, g3) = _random_base_and_plans(rng, man, level, 3)
    return (abs(pl.w_mu(g1, g2) - pl.w_mu(g2, g1)),
            pl.w_mu(g1, g3) - pl.w_mu(g1, g2) - pl.w_mu(g2, g3),
            pl.w_mu(g1, g1))


@_property("coupling", "plans.cauchy_schwarz", "cs", tol=1e-9,
           manifolds=(E2, S3), levels=(1, 2))
def check_cauchy_schwarz(rng, man, level):
    _, (g1, g2) = _random_base_and_plans(rng, man, level)
    return (abs(pl.inner_mu(g1, g2)) - pl.plan_norm(g1) * pl.plan_norm(g2),)


@_property("coupling", "plans.polarization_identity", "polar", tol=1e-12,
           manifolds=(E2, S3), levels=(1, 2), detail="holds by construction")
def check_polarization(rng, man, level):
    _, (g1, g2) = _random_base_and_plans(rng, man, level)
    d = pl.w_mu(g1, g2)
    lhs = d * d
    rhs = pl.plan_norm_sq(g1) - 2 * pl.inner_mu(g1, g2) + pl.plan_norm_sq(g2)
    return (abs(lhs - rhs) / (1.0 + abs(lhs)),)


@_property("coupling", "plans.inner_product_dual_route", "inner_direct",
           tol=1e-8, manifolds=(E2, S3), levels=(1, 2))
def check_inner_direct(rng, man, level):
    _, (g1, g2) = _random_base_and_plans(rng, man, level)
    return (abs(pl.inner_mu(g1, g2) - pl.inner_mu(g1, g2, method="direct")),)


@_property("coupling", "plans.inner_self_and_homogeneity", "inner_self",
           tol=1e-8, manifolds=(E2, S3), levels=(1, 2))
def check_inner_self_and_homogeneity(rng, man, level):
    _, (g1, g2) = _random_base_and_plans(rng, man, level)
    self_gap = abs(pl.inner_mu(g1, g1) - pl.plan_norm_sq(g1))
    l1 = float(rng.uniform(0, 2))
    l2 = float(rng.uniform(0, 2))
    return self_gap, abs(pl.inner_mu(pl.scale(l1, g1), pl.scale(l2, g2))
                         - l1 * l2 * pl.inner_mu(g1, g2))


@_property("coupling", "plans.coupling_second_moment", "second_moment",
           tol=1e-12, manifolds=(E2, S3), levels=(1, 2))
def check_second_moment_additivity(rng, man, level):
    _, (g1, g2) = _random_base_and_plans(rng, man, level)
    residuals = []
    for alpha in (pl.generic_coupling(g1, g2),
                  smp.random_coupling(rng, g1, g2),
                  pl.optimal_coupling(g1, g2)[0]):
        lhs = pl.coupling_expectation(
            alpha, lambda x, v1, v2: float(np.dot(v1, v1) + np.dot(v2, v2)))
        rhs = pl.plan_norm_sq(g1) + pl.plan_norm_sq(g2)
        residuals.append(abs(lhs - rhs) / (1.0 + abs(rhs)))
    return residuals


@_property("coupling", "plans.zero_plan", "zero_plan", tol=1e-10,
           manifolds=(E2, S3), levels=(1, 2))
def check_zero_plan(rng, man, level):
    base, (g,) = _random_base_and_plans(rng, man, level, 1)
    zero = pl.zero_plan(base)
    return (pl.plan_norm(zero), w2(pl.exp_push(zero), base),
            abs(pl.coupling_inner(pl.generic_coupling(zero, g))))


@_property("coupling", "plans.unique_coupling_fully_det", "unique_fd", tol=0.0,
           manifolds=(E2, S3), levels=(1, 2), draws=lambda s: s * 2,
           detail="structural equality of generic and optimal couplings")
def check_unique_coupling_fully_det(rng, man, level):
    base = _measure(rng, man, level)
    fd = smp.random_plan(rng, base, 1.0, deterministic=True)
    g = smp.random_plan(rng, base, 1.0)
    a_gen = pl.generic_coupling(fd, g)
    a_opt, _ = pl.optimal_coupling(fd, g)
    same = pl.couplings_structurally_equal(a_gen, a_opt, 1e-9)
    return (0.0 if same else 1.0,)


@_property("coupling", "plans.coupling_marginals", "marginals", tol=0.0,
           manifolds=(E2, S3), levels=(1, 2))
def check_coupling_marginals(rng, man, level):
    _, (g1, g2) = _random_base_and_plans(rng, man, level)
    residuals = []
    for alpha in (pl.generic_coupling(g1, g2),
                  smp.random_coupling(rng, g1, g2)):
        pl.validate_coupling(alpha, g1, g2)
        m1 = pl.coupling_marginal_plan(alpha, 1)
        m2 = pl.coupling_marginal_plan(alpha, 2)
        ok = (pl.plans_structurally_equal(m1, g1, 1e-9)
              and pl.plans_structurally_equal(m2, g2, 1e-9))
        residuals.append(0.0 if ok else 1.0)
    return residuals


@_property("coupling", "plans.fully_det_vector_space", "fd_vs", tol=1e-10,
           manifolds=(E2, S3), levels=(1, 2))
def check_fd_vector_space(rng, man, level):
    base = _measure(rng, man, level)
    g1 = smp.random_plan(rng, base, 1.0, deterministic=True)
    g2 = smp.random_plan(rng, base, 1.0, deterministic=True)
    g3 = smp.random_plan(rng, base, 1.0, deterministic=True)
    zero = pl.zero_plan(base)
    # commutativity and neutral element are float-exact
    comm = pl.plans_structurally_equal(pl.fd_add(g1, g2), pl.fd_add(g2, g1), 0.0)
    neut = pl.plans_structurally_equal(pl.fd_add(g1, zero), g1, 0.0)
    inv = pl.plan_norm(pl.fd_add(g1, pl.fd_scale(-1.0, g1)))
    one = pl.plans_structurally_equal(pl.fd_scale(1.0, g1), g1, 0.0)
    assoc = pl.plans_structurally_equal(
        pl.fd_add(pl.fd_add(g1, g2), g3),
        pl.fd_add(g1, pl.fd_add(g2, g3)), 1e-12)
    lam = float(rng.uniform(-2, 2))
    dist_law = pl.plans_structurally_equal(
        pl.fd_scale(lam, pl.fd_add(g1, g2)),
        pl.fd_add(pl.fd_scale(lam, g1), pl.fd_scale(lam, g2)), 1e-12)
    det = pl.is_fully_deterministic(pl.fd_add(g1, g2))
    # prehilbert bilinearity in the first slot
    lhs = pl.inner_mu(pl.fd_add(g1, pl.fd_scale(lam, g2)), g3)
    rhs = pl.inner_mu(g1, g3) + lam * pl.inner_mu(g2, g3)
    # W_mu reduces to the norm of the difference
    dd = pl.w_mu(g1, g2)
    diff = pl.plan_norm(pl.fd_add(g1, pl.fd_scale(-1.0, g2)))
    return (0.0 if (comm and neut and one) else 1.0, inv,
            0.0 if (assoc and dist_law) else 1.0, 0.0 if det else 1.0,
            abs(lhs - rhs) / (1.0 + abs(rhs)), abs(dd - diff))


@_property("coupling", "plans.fd_l2_isometry", "fd_l2", tol=0.0,
           manifolds=(E3, S3), levels=LEVELS,
           detail="exact (identical summation order)")
def check_fd_l2_isometry(rng, man, level):
    mu = _measure(rng, man, level)
    a = rng.standard_normal(man.ambient_dim)
    f = lambda x: man.project_tangent(x, a)
    g = pl.fd_from_field(mu, f)
    direct = n_expectancy(mu, lambda x: float(np.dot(f(x), f(x))))
    return (abs(pl.plan_norm_sq(g) - direct),)


@_property("coupling", "plans.norm_bounds_w2", "pnorm", tol=1e-9,
           manifolds=(E2, S3), levels=(1, 2))
def check_pseudo_norm_bounds(rng, man, level):
    base, (g,) = _random_base_and_plans(rng, man, level, 1)
    return (w2(base, pl.exp_push(g)) - pl.plan_norm(g),)


@_property("coupling", "plans.sasaki_zero_section", "sasaki", tol=1e-8,
           manifolds=(E2,), levels=(1, 2))
def check_sasaki_embedding_bounds(rng, man, level):
    base, (g,) = _random_base_and_plans(rng, man, level, 1)
    zero_m = pl.plan_as_measure(pl.zero_plan(base))
    g_m = pl.plan_as_measure(g)
    bound = w2(zero_m, g_m) - pl.plan_norm(g)
    # norm identity against a fixed Sasaki base point
    o = np.zeros(2 * man.ambient_dim)
    lhs = pl.plan_norm_sq(g)
    rhs = (w2_to_dirac(g_m, o) ** 2
           - w2_to_dirac(base, np.zeros(man.ambient_dim)) ** 2)
    return bound, abs(lhs - rhs) / (1.0 + abs(lhs))


@_property("coupling", "plans.inner_subadditivity", "subadd", tol=1e-8,
           manifolds=(E2, S3), levels=(1, 2))
def check_inner_subadditive(rng, man, level):
    _, (g1, g2, g3) = _random_base_and_plans(rng, man, level, 3)
    residuals = []
    for alpha in (pl.generic_coupling(g1, g2),
                  smp.random_coupling(rng, g1, g2)):
        s = pl.add(g1, g2, alpha)
        residuals.append(pl.inner_mu(s, g3)
                         - pl.inner_mu(g1, g3) - pl.inner_mu(g2, g3))
        residuals.append(pl.plan_norm(s) - pl.plan_norm(g1) - pl.plan_norm(g2))
    return residuals


@_property("coupling", "plans.addition_identities", "add_ids", tol=1e-9,
           manifolds=(E2, S3), levels=(1, 2))
def check_add_identities(rng, man, level):
    base, (g,) = _random_base_and_plans(rng, man, level, 1)
    zero = pl.zero_plan(base)
    alpha = pl.generic_coupling(g, zero)
    neutral = pl.w_mu(pl.add(g, zero, alpha), g)
    fd = smp.random_plan(rng, base, 1.0, deterministic=True)
    a2 = pl.generic_coupling(fd, fd)
    return neutral, pl.plan_norm(pl.sub(fd, fd, a2))


@_property("coupling", "plans.fiber_optimal_vs_bruteforce", "fiber_oracle",
           tol=1e-9, manifolds=(E2, S3), levels=(1,), draws=lambda s: s * 2)
def check_fiber_permutation_oracle(rng, man, level):
    k = int(rng.integers(2, 6))
    x = smp.random_point(rng, man)
    base = mixture((1.0,), [HierMeasure(man, 0, point=x)])
    leafs1 = [smp.random_tangent(rng, man, x) for _ in range(k)]
    leafs2 = [smp.random_tangent(rng, man, x) for _ in range(k)]
    atom = base.atoms[0]
    f1 = tuple(FiberEntry(1.0 / k, pl.VelocityPlan(base=atom, tangent=v))
               for v in leafs1)
    f2 = tuple(FiberEntry(1.0 / k, pl.VelocityPlan(base=atom, tangent=v))
               for v in leafs2)
    g1 = pl.VelocityPlan(base=base, fibers=(f1,))
    g2 = pl.VelocityPlan(base=base, fibers=(f2,))
    _, dist = pl.optimal_coupling(g1, g2)
    c = np.array([[float(np.dot(v - u, v - u)) for u in leafs2]
                  for v in leafs1])
    return (abs(dist ** 2 - permutation_oracle(c)),)


# ---------------------------------------------------------------------------
# geodesic suite


@_property("geodesic", "manifold.pt_isometry", "pt_leaf_iso", tol=1e-9,
           manifolds=(E1, E3, S3), draws=lambda s: s * 4)
def check_pt_leaf_isometry(rng, man, level):
    x = smp.random_point(rng, man)
    v = smp.random_tangent(rng, man, x, 1.0)
    w1 = smp.random_tangent(rng, man, x, 1.0)
    w2_ = smp.random_tangent(rng, man, x, 1.0)
    t = float(rng.uniform(-1.5, 1.5))
    _, tw1 = man.parallel_transport(x, v, w1, t)
    _, tw2 = man.parallel_transport(x, v, w2_, t)
    return (abs(np.linalg.norm(tw1) - np.linalg.norm(w1)),
            abs(float(np.dot(tw1, tw2)) - float(np.dot(w1, w2_))))


@_property("geodesic", "manifold.pt_group_law", "pt_leaf_group", tol=1e-8,
           manifolds=(E1, E3, S3), draws=lambda s: s * 4)
def check_pt_leaf_group(rng, man, level):
    x = smp.random_point(rng, man)
    v = smp.random_tangent(rng, man, x, 1.0)
    w = smp.random_tangent(rng, man, x, 1.0)
    t = float(rng.uniform(-1.0, 1.0))
    s = float(rng.uniform(-1.0, 1.0))
    y, v_t = man.parallel_transport(x, v, v, t)
    _, w_t = man.parallel_transport(x, v, w, t)
    y2, w_ts = man.parallel_transport(y, v_t, w_t, s)
    y_direct, w_direct = man.parallel_transport(x, v, w, t + s)
    return (float(np.linalg.norm(y2 - y_direct)),
            float(np.linalg.norm(w_ts - w_direct)))


@_property("geodesic", "geodesic.optimal_plan_norm", "ovp_norm", tol=1e-8,
           manifolds=(E2, S3), levels=LEVELS)
def check_ovp_norm(rng, man, level):
    a = _measure(rng, man, level)
    b = _measure(rng, man, level)
    ab = transport(a, b)
    g = ab.velocity
    return (abs(pl.plan_norm(g) - float(np.sqrt(ab.value_sq))),
            w2(pl.exp_push(g), b) - TOL_NEAR_ZERO)


@_property("geodesic", "geodesic.constant_speed", "cspeed", tol=1e-8,
           manifolds=(E2, S3), levels=LEVELS, draws=lambda s: max(2, s // 2))
def check_constant_speed(rng, man, level):
    a = _measure(rng, man, level)
    b = _measure(rng, man, level)
    g = geo.optimal_velocity_plan(a, b)
    rep = geo.verify_constant_speed(g, [0.0, 0.25, 0.5, 0.75, 1.0])
    return rep.max_deviation, rep.speed_mismatch


@_property("geodesic", "geodesic.endpoints", "endpoints", tol=TOL_NEAR_ZERO,
           manifolds=(E2, S3), levels=LEVELS)
def check_endpoints(rng, man, level):
    a = _measure(rng, man, level)
    b = _measure(rng, man, level)
    g = geo.optimal_velocity_plan(a, b)
    return w2(geo.interpolate(g, 0.0), a), w2(geo.interpolate(g, 1.0), b)


@_property("geodesic", "geodesic.lipschitz_along_plans", "lips", tol=1e-8,
           manifolds=(E2, S3), levels=(1, 2))
def check_lipschitz_any_plan(rng, man, level):
    base, (g,) = _random_base_and_plans(rng, man, level, 1)
    t = float(rng.uniform(-0.5, 1.5))
    s = float(rng.uniform(-0.5, 1.5))
    lhs = w2(geo.interpolate(g, t), geo.interpolate(g, s))
    return (lhs - abs(t - s) * pl.plan_norm(g),)


@_property("geodesic", "geodesic.parallel_transport_group_law", "ptn",
           tol=1e-8, manifolds=(E2, S3), levels=(1, 2))
def check_ptn(rng, man, level):
    base, (g,) = _random_base_and_plans(rng, man, level, 1)
    t = float(rng.uniform(-1.0, 1.0))
    s = float(rng.uniform(-1.0, 1.0))
    moved = geo.pt_n(g, t)
    norm_gap = abs(pl.plan_norm(moved) - pl.plan_norm(g))
    base_gap = w2(moved.base, geo.interpolate(g, t))
    lhs = geo.pt_n(moved, s)
    rhs = geo.pt_n(g, t + s)
    return norm_gap, base_gap, _tree_gap(lhs, rhs, _point_tangent_gap)


@_property("geodesic", "geodesic.restriction_optimality", "restrict", tol=1e-8,
           manifolds=(E2, S3), levels=(1, 2))
def check_restriction(rng, man, level):
    a = _measure(rng, man, level)
    b = _measure(rng, man, level)
    ab = transport(a, b)
    g, dist = ab.velocity, float(np.sqrt(ab.value_sq))
    t = float(rng.uniform(0.1, 0.9))
    s = float(rng.uniform(0.0, 1.0))
    r = geo.restriction_plan(g, t, s)
    residuals = [abs(pl.plan_norm(r) - abs(s - t) * dist),
                 w2(pl.exp_push(r), geo.interpolate(g, s))]
    if 0.0 < t < 1.0:
        det = pl.is_fully_deterministic(geo.pt_n(g, t))
        residuals.append(0.0 if det else 1.0)
    mid = geo.restriction_plan(g, 0.0, 0.5)
    residuals.append(abs(pl.plan_norm(mid) - 0.5 * dist))
    return residuals


@_property("geodesic", "geodesic.equal_interpolant_plans", "noncross",
           tol=1e-6, manifolds=(E2,), levels=(1, 2))
def check_equal_interpolant_plans(rng, man, level):
    a = _measure(rng, man, level)
    b = _measure(rng, man, level)
    g1 = geo.optimal_velocity_plan(a, b)
    perm = list(rng.permutation(len(a.atoms)))
    a2 = HierMeasure(man, a.level,
                     weights=tuple(a.weights[i] for i in perm),
                     atoms=tuple(a.atoms[i] for i in perm))
    g2p = geo.optimal_velocity_plan(a2, b)
    inv = [perm.index(i) for i in range(len(perm))]
    g2 = pl.VelocityPlan(base=a, fibers=tuple(g2p.fibers[inv[i]]
                                              for i in range(len(perm))))
    if w2(geo.interpolate(g1, 0.5), geo.interpolate(g2, 0.5)) <= 1e-9:
        return (pl.w_mu(g1, g2),)
    return ()


# ---------------------------------------------------------------------------
# calculus suite


def _random_potential(rng, man):
    if man.kind == "euclidean" and rng.random() < 0.5:
        return fn.make_quadratic(man, rng.standard_normal(man.ambient_dim))
    if rng.random() < 0.5:
        return fn.make_linear_ambient(man, rng.standard_normal(man.ambient_dim))
    return fn.make_quadratic(man, rng.standard_normal(man.ambient_dim))


@_property("calculus", "calculus.taylor_remainder", "taylor", tol=1e-9,
           manifolds=(E3, S3), levels=(1, 2))
def check_taylor_bound(rng, man, level):
    mu = _measure(rng, man, level)
    pot = _random_potential(rng, man)
    g = smp.random_plan(rng, mu, 0.7)
    lhs, bound, ok = fn.taylor_remainder_check(pot, mu, g)
    return (lhs - bound,)


@_property("calculus", "calculus.taylor_quadratic_equality", "taylor_eq",
           tol=1e-10, manifolds=(E3,), levels=(1, 2))
def check_taylor_quadratic_equality(rng, man, level):
    mu = _measure(rng, man, level)
    pot = fn.make_quadratic(man, rng.standard_normal(3))
    g = smp.random_plan(rng, mu, 1.0)
    lhs, bound, _ = fn.taylor_remainder_check(pot, mu, g)
    return (abs(lhs - bound),)


@_property("calculus", "calculus.sum_and_scalar_rules", "sumrule", tol=0.0,
           manifolds=(E3, S3), levels=(1, 2), detail="exact leafwise equality")
def check_sum_scalar_rules(rng, man, level):
    mu = _measure(rng, man, level)
    p1 = _random_potential(rng, man)
    p2 = _random_potential(rng, man)
    summed = fn.Potential(
        value=lambda x: p1.value(x) + p2.value(x),
        grad=lambda x: p1.grad(x) + p2.grad(x),
        hessian_bound=p1.hessian_bound + p2.hessian_bound)
    lhs = fn.grad_potential(summed, mu)
    rhs = pl.fd_add(fn.grad_potential(p1, mu), fn.grad_potential(p2, mu))
    ok = pl.plans_structurally_equal(lhs, rhs, 0.0)
    lam = float(rng.uniform(0, 3))
    scaled = fn.Potential(
        value=lambda x: lam * p1.value(x),
        grad=lambda x: lam * p1.grad(x),
        hessian_bound=lam * p1.hessian_bound)
    ok = ok and pl.plans_structurally_equal(
        fn.grad_potential(scaled, mu),
        pl.fd_scale(lam, fn.grad_potential(p1, mu)), 0.0)
    return (0.0 if ok else 1.0,)


def _halving_ratios(residual_fn, xi):
    """Ratios of the normalized residual under successive halvings of ``xi``.

    Returns ``None`` when a residual falls to float noise (sign cancellation
    across leaves), in which case the instance is uninformative.
    """
    normalized = []
    for k in range(4):  # xi and its three halvings
        xik = pl.scale(0.5 ** k, xi)
        nk = pl.plan_norm(xik)
        r = residual_fn(xik)
        if r < 1e-12 or nk < 1e-12:
            return None
        normalized.append(r / nk)
    return [b / a for a, b in zip(normalized, normalized[1:])]


@_property("calculus", "calculus.gradient_superlinear_decay", "grad_fd",
           tol=0.0, manifolds=(E3,), levels=(1, 2), draws=lambda s: max(3, s),
           detail="halving ratio <= 0.6")
def check_gradient_superlinear(rng, man, level):
    # euclidean instances: the remainder is a positive quadratic with exact
    # halving ratio 1/2.  On the sphere mixed-order terms of opposite sign
    # can transiently break the finite-scale ratio even for the correct
    # gradient, so curved first-order consistency is covered by the Taylor
    # bound and the finite-difference gradient checks instead.
    mu = _measure(rng, man, level)
    pot = fn.make_quadratic(man, rng.standard_normal(3))
    xi = smp.random_plan(rng, mu, 1.0)
    ratios = _halving_ratios(lambda g: fn.directional_residual(pot, mu, g), xi)
    if ratios is None:
        return None
    return [r - 0.6 for r in ratios]


@_property("calculus", "calculus.chain_rule_first_order", "chain", tol=0.0,
           manifolds=(E3,), levels=(1, 2), draws=lambda s: max(3, s // 2),
           detail="halving ratio <= 0.6")
def check_chain_rule(rng, man, level):
    mu = _measure(rng, man, level)
    pot = fn.make_quadratic(man, rng.standard_normal(3))
    spec = fn.FunctionalSpec((fn.PotentialTerm(pot),))
    f_mu = fn.eval_functional(spec, mu)
    xi = smp.random_plan(rng, mu, 1.0)
    nrm = pl.plan_norm(xi)
    if nrm < 1e-9:
        return None
    # start inside the quadratic-dominated regime; at larger scales
    # the cubic part of g can push the first ratio past the bound
    xi = pl.scale(0.5 / nrm, xi)
    grad_plan = fn.grad_potential(pot, mu)
    g_fun = lambda y: y + y ** 3
    g_prime = lambda y: 1.0 + 3.0 * y * y

    def residual(g):
        alpha = pl.generic_coupling(g, grad_plan)
        return abs(g_fun(fn.eval_functional(spec, pl.exp_push(g)))
                   - g_fun(f_mu)
                   - g_prime(f_mu) * pl.coupling_inner(alpha))

    ratios = _halving_ratios(residual, xi)
    if ratios is None:
        return None
    return [r - 0.6 for r in ratios]


@_property("calculus", "calculus.gradient_uniqueness", "grad_unique", tol=0.0,
           manifolds=(E3,), levels=(2,),
           detail="perturbed gradients violate the two-sided bound")
def check_gradient_uniqueness(rng, man, level):
    mu = _measure(rng, man, level)
    pot = fn.make_quadratic(man, rng.standard_normal(3))
    delta = rng.standard_normal(3)
    delta = delta / np.linalg.norm(delta) * 0.5
    spec = fn.FunctionalSpec((fn.PotentialTerm(pot),))
    wrong = fn.Potential(value=pot.value,
                         grad=lambda x: pot.grad(x) + delta,
                         hessian_bound=pot.hessian_bound)
    for c in (0.05, 0.01, 0.002):
        xi = pl.fd_from_field(mu, lambda x: c * delta)
        alpha = pl.generic_coupling(xi, fn.grad_potential(wrong, mu))
        lhs = abs(fn.eval_functional(spec, pl.exp_push(xi))
                  - fn.eval_functional(spec, mu)
                  - pl.coupling_inner(alpha))
        if lhs > 0.5 * pot.hessian_bound * pl.plan_norm_sq(xi) + 1e-9:
            return (0.0,)
    return (1.0,)


@_property("calculus", "calculus.w2_supergradient_inequality", "supergrad",
           tol=1e-8, manifolds=(E2, S3), levels=(1, 2))
def check_supergradient(rng, man, level):
    mu = _measure(rng, man, level)
    nu = _measure(rng, man, level)
    mubar = _measure(rng, man, level)
    # supergradient_inequality_check with the default and a random coupling,
    # on one solve of each plan and of w2(nu, mubar)
    gamma = geo.optimal_velocity_plan(mu, nu)
    toward = transport(mu, mubar)  # its velocity: w2_supergradient(mu, mubar)
    half = 0.5 * w2_sq(nu, mubar)
    lhs, rhs, _ = fn._supergradient_sides(gamma, toward, half)
    gap = lhs - rhs
    alpha = smp.random_coupling(rng, gamma, toward.velocity)
    lhs, rhs, _ = fn._supergradient_sides(gamma, toward, half, alpha)
    return gap, lhs - rhs


@_property("calculus", "calculus.generalized_geodesic_one_convexity",
           "gen_geo", tol=1e-8, manifolds=(E2, S3), levels=(1, 2),
           draws=lambda s: max(3, s // 2))
def check_generalized_geodesic_convexity(rng, man, level):
    mubar = _measure(rng, man, level)
    mu0 = _measure(rng, man, level)
    mu1 = _measure(rng, man, level)
    g0 = geo.optimal_velocity_plan(mubar, mu0)
    g1 = geo.optimal_velocity_plan(mubar, mu1)
    alpha = pl.generic_coupling(g0, g1)
    curve = fn.GeneralizedGeodesicCurve(alpha)
    spec = fn.FunctionalSpec((fn.DistanceTerm(mubar, 1.0),))
    rep = fn.convexity_check(spec, curve, 1.0, ts=[0.0, 0.25, 0.5, 0.75, 1.0])
    return (rep.worst_margin, w2(curve.at(0.0), mu0) - TOL_NEAR_ZERO,
            w2(curve.at(1.0), mu1) - TOL_NEAR_ZERO)


@_property("calculus", "calculus.generalized_geodesic_anchored_at_start",
           "gen_disp", tol=TOL_NEAR_ZERO, manifolds=(E2,), levels=(1, 2))
def check_generalized_matches_displacement(rng, man, level):
    mu0 = _measure(rng, man, level)
    mu1 = _measure(rng, man, level)
    t = float(rng.uniform(0, 1))
    gen = fn.generalized_geodesic(mu0, mu0, mu1, t)
    disp = geo.interpolate(geo.optimal_velocity_plan(mu0, mu1), t)
    return (w2(gen, disp),)


@_property("calculus", "calculus.convexity_lifting_quadratic", "lifting",
           tol=1e-8, manifolds=(E2,), levels=(2,))
def check_convexity_lifting(rng, man, level):
    mu0 = _measure(rng, man, level)
    mu1 = _measure(rng, man, level)
    pot = fn.make_quadratic(man, rng.standard_normal(2))
    spec = fn.FunctionalSpec((fn.PotentialTerm(pot),))
    curve = fn.GeodesicCurve(geo.optimal_velocity_plan(mu0, mu1))
    rep = fn.convexity_check(spec, curve, 1.0, ts=[0.0, 0.25, 0.5, 0.75, 1.0])
    return (rep.worst_margin,)


@_property("calculus", "calculus.w2_not_geodesically_convex", "nonconvex",
           tol=0.0, manifolds=(E2,), draws=lambda s: 1,
           detail="counterexample family must violate convexity")
def check_w2_geodesic_nonconvexity_witness(rng, man, level):
    """The squared distance is not convex along plain geodesics.

    A two-atom family whose optimal assignment to the reference switches
    mid-curve produces a concave kink; the property holds when the violation
    is actually observed (a regression guard on the reported-only status).
    Its one instance is fixed: it draws nothing from ``rng``.
    """
    sigma = mixture((0.5, 0.5), [
        HierMeasure(man, 0, point=np.array([-1.0, 0.0])),
        HierMeasure(man, 0, point=np.array([1.0, 0.0]))])
    mu0 = mixture((0.5, 0.5), [
        HierMeasure(man, 0, point=np.array([-1.0, 0.2])),
        HierMeasure(man, 0, point=np.array([0.0, -5.0]))])
    mu1 = mixture((0.5, 0.5), [
        HierMeasure(man, 0, point=np.array([1.0, 0.2])),
        HierMeasure(man, 0, point=np.array([0.0, -5.0]))])
    curve = fn.GeodesicCurve(geo.optimal_velocity_plan(mu0, mu1))
    spec = fn.FunctionalSpec((fn.DistanceTerm(sigma, 1.0),))
    rep = fn.convexity_check(spec, curve, 0.0, ts=[0.0, 0.5, 1.0])
    return (0.0 if rep.worst_margin > 1e-6 else 1.0,)


@_property("calculus", "calculus.descent_monotone", "descent", tol=1e-10,
           manifolds=(E1,), levels=(2,), draws=lambda s: max(2, s // 3))
def check_descent(rng, man, level):
    mu0 = _measure(rng, man, level)
    target = _measure(rng, man, level)
    pot = fn.make_quadratic(man, rng.standard_normal(1))
    spec = fn.FunctionalSpec((fn.PotentialTerm(pot, 1.0),
                              fn.DistanceTerm(target, 0.5)))
    vals = fn.gradient_descent(spec, mu0, 0.3, 25).values
    return [v2 - v1 for v1, v2 in zip(vals, vals[1:])]


def check_potential_gradients(seed, samples):
    # one point set per manifold, shared by its two potentials
    rng = _rng(seed, "pot_fd")
    residuals = []
    for man in (E3, S3):
        pts = [smp.random_point(rng, man) for _ in range(samples)]
        for make in (fn.make_quadratic, fn.make_linear_ambient):
            pot = make(man, rng.standard_normal(3))
            residuals.append(fn.check_potential_gradient(pot, man, pts))
    return _result("calculus.potential_gradient_fd", _fold(0.0, residuals),
                   1e-5, len(residuals))


SUITES["calculus"].append(check_potential_gradients)


def run_suite(suite: str, seed: int, samples: int) -> dict:
    """Run one suite (or ``"all"``) with ``samples`` draws per property and
    grid cell (each property scales it by its own rule); returns a
    JSON-ready report."""
    # with no samples most properties would pass vacuously
    if samples < 1:
        raise InvalidInput(f"samples (--samples) must be at least 1, got {samples}")
    # the generators take nonnegative seeds only
    if seed < 0:
        raise InvalidInput(f"seed (--seed) must be nonnegative, got {seed}")
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
    suites = {}
    all_passed = True
    for name in names:
        results = [check(seed, samples) for check in SUITES[name]]
        all_passed &= all(r.passed for r in results)
        suites[name] = {
            "passed": all(r.passed for r in results),
            "properties": [r.as_obj() for r in results],
        }
    return {"seed": int(seed), "samples": samples,
            "suites": suites, "passed": bool(all_passed)}
