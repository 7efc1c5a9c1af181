"""Executable invariant suites.

Every inequality and identity the library is built on is encoded here as a
seeded property check returning a worst residual.  The CLI ``check``
command and the acceptance tests both run these functions, so a failure is
reproducible from the printed seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from . import functionals as fn
from . import geodesics as geo
from . import plans as pl
from . import sampling as smp
from .errors import InvalidInput
from .manifolds import euclidean, sphere
from .measures import (HierMeasure, base_support, canonicalize, collapse,
                       dirac_lift, eval_unrolled, mixture, n_expectancy,
                       push_leaf, w2_to_dirac)
from .plans import FiberEntry
from .wasserstein import TOL_NEAR_ZERO, w2


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


@dataclass(frozen=True)
class CheckConfig:
    samples: int = 12
    levels: tuple = (1, 2, 3)
    max_atoms: int = 3
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        # with no samples most properties would pass vacuously
        if self.samples < 1:
            raise InvalidInput(
                f"samples (--samples) must be at least 1, got {self.samples}")

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))


def _rng(seed: int, name: str) -> np.random.Generator:
    return smp.rng_from_seed((int(seed) << 16) ^ zlib.crc32(name.encode()))


def _manifolds():
    return [euclidean(1), euclidean(3), sphere(3)]


def _result(name, worst, tol, samples, detail="") -> PropertyResult:
    return PropertyResult(name=name, passed=worst <= tol,
                          worst_residual=float(worst), samples=samples,
                          detail=detail or f"tolerance {tol}")


# ---------------------------------------------------------------------------
# metric suite


def check_exp_log_identity(seed, cfg):
    rng = _rng(seed, "exp_log")
    worst = 0.0
    n = 0
    for man in _manifolds():
        for _ in range(cfg.samples * 4):
            x = smp.random_point(rng, man)
            y = smp.random_point(rng, man)
            v = man.log(x, y)
            worst = max(worst, man.dist(man.exp(x, v), y))
            worst = max(worst, abs(float(np.linalg.norm(v)) - man.dist(x, y)))
            n += 1
    return _result("manifold.exp_log_identity", worst, cfg.tol("exp_log", 1e-9), n)


def check_manifold_triangle(seed, cfg):
    rng = _rng(seed, "mtri")
    worst = 0.0
    n = 0
    for man in _manifolds():
        for _ in range(cfg.samples * 4):
            x, y, z = (smp.random_point(rng, man) for _ in range(3))
            worst = max(worst, man.dist(x, z) - man.dist(x, y) - man.dist(y, z))
            n += 1
    return _result("manifold.triangle", worst, cfg.tol("mtri", 1e-12), n)


def check_exp_contraction(seed, cfg):
    rng = _rng(seed, "contraction")
    worst = 0.0
    n = 0
    man = sphere(3)
    for _ in range(cfg.samples * 4):
        x = smp.random_point(rng, man)
        u = smp.random_tangent(rng, man, x, 0.8)
        v = smp.random_tangent(rng, man, x, 0.8)
        worst = max(worst, man.dist(man.exp(x, u), man.exp(x, v))
                    - float(np.linalg.norm(u - v)))
        n += 1
    man = euclidean(3)
    for _ in range(cfg.samples * 4):
        x = smp.random_point(rng, man)
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        worst = max(worst, abs(man.dist(man.exp(x, u), man.exp(x, v))
                               - float(np.linalg.norm(u - v))))
        n += 1
    return _result("manifold.exp_contraction", worst, cfg.tol("contraction", 1e-9), n)


def check_pt_leaf_isometry(seed, cfg):
    rng = _rng(seed, "pt_leaf_iso")
    worst = 0.0
    n = 0
    for man in _manifolds():
        for _ in range(cfg.samples * 4):
            x = smp.random_point(rng, man)
            v = smp.random_tangent(rng, man, x, 1.0)
            w1 = smp.random_tangent(rng, man, x, 1.0)
            w2_ = smp.random_tangent(rng, man, x, 1.0)
            t = float(rng.uniform(-1.5, 1.5))
            _, tw1 = man.parallel_transport(x, v, w1, t)
            _, tw2 = man.parallel_transport(x, v, w2_, t)
            worst = max(worst, abs(np.linalg.norm(tw1) - np.linalg.norm(w1)))
            worst = max(worst, abs(float(np.dot(tw1, tw2)) - float(np.dot(w1, w2_))))
            n += 1
    return _result("manifold.pt_isometry", worst, cfg.tol("pt_iso", 1e-9), n)


def check_pt_leaf_group(seed, cfg):
    rng = _rng(seed, "pt_leaf_group")
    worst = 0.0
    n = 0
    for man in _manifolds():
        for _ in range(cfg.samples * 4):
            x = smp.random_point(rng, man)
            v = smp.random_tangent(rng, man, x, 1.0)
            w = smp.random_tangent(rng, man, x, 1.0)
            t = float(rng.uniform(-1.0, 1.0))
            s = float(rng.uniform(-1.0, 1.0))
            y, v_t = man.parallel_transport(x, v, v, t)
            _, w_t = man.parallel_transport(x, v, w, t)
            y2, w_ts = man.parallel_transport(y, v_t, w_t, s)
            y_direct, w_direct = man.parallel_transport(x, v, w, t + s)
            worst = max(worst, float(np.linalg.norm(y2 - y_direct)))
            worst = max(worst, float(np.linalg.norm(w_ts - w_direct)))
            n += 1
    return _result("manifold.pt_group_law", worst, cfg.tol("pt_group", 1e-8), n)


def check_w2_metric(seed, cfg):
    rng = _rng(seed, "w2metric")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in cfg.levels:
            for _ in range(cfg.samples):
                a = smp.random_measure(rng, man, level, cfg.max_atoms)
                b = smp.random_measure(rng, man, level, cfg.max_atoms)
                c = smp.random_measure(rng, man, level, cfg.max_atoms)
                worst = max(worst, abs(w2(a, b) - w2(b, a)))
                worst = max(worst, w2(a, c) - w2(a, b) - w2(b, c))
                worst = max(worst, w2(a, a))
                n += 1
    return _result("w2.metric_axioms", worst, cfg.tol("w2_metric", 1e-8), n)


def check_dirac_isometry(seed, cfg):
    rng = _rng(seed, "dirac_iso")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in cfg.levels:
            for _ in range(cfg.samples):
                x = smp.random_point(rng, man)
                y = smp.random_point(rng, man)
                worst = max(worst, abs(w2(dirac_lift(man, x, level),
                                          dirac_lift(man, y, level))
                                       - man.dist(x, y)))
                n += 1
    return _result("w2.dirac_lift_isometry", worst, cfg.tol("dirac_iso", 1e-10), n)


def check_collapse_lower_bound(seed, cfg):
    rng = _rng(seed, "collapse_lb")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (2, 3):
            for _ in range(cfg.samples):
                a = smp.random_measure(rng, man, level, cfg.max_atoms)
                b = smp.random_measure(rng, man, level, cfg.max_atoms)
                worst = max(worst, w2(collapse(a), collapse(b)) - w2(a, b))
                n += 1
    return _result("w2.collapse_lower_bound", worst, cfg.tol("collapse_lb", 1e-9), n)


def check_w2_to_dirac(seed, cfg):
    rng = _rng(seed, "w2dirac")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in cfg.levels:
            for _ in range(cfg.samples):
                mu = smp.random_measure(rng, man, level, cfg.max_atoms)
                o = smp.random_point(rng, man)
                worst = max(worst, abs(w2(mu, dirac_lift(man, o, level))
                                       - w2_to_dirac(mu, o)))
                n += 1
    return _result("w2.dirac_second_moment", worst, cfg.tol("w2_dirac", 1e-9), n)


def _random_scalar_fn(rng, man):
    a = rng.standard_normal(man.ambient_dim)
    c = float(rng.standard_normal())
    return lambda x: float(np.dot(a, x)) + c


def check_holder_minkowski(seed, cfg):
    rng = _rng(seed, "holder")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in cfg.levels:
            for _ in range(cfg.samples):
                mu = smp.random_measure(rng, man, level, cfg.max_atoms)
                f = _random_scalar_fn(rng, man)
                g = _random_scalar_fn(rng, man)
                ef2 = n_expectancy(mu, lambda x: f(x) ** 2)
                eg2 = n_expectancy(mu, lambda x: g(x) ** 2)
                efg = n_expectancy(mu, lambda x: abs(f(x) * g(x)))
                worst = max(worst, efg - np.sqrt(ef2) * np.sqrt(eg2))
                esum = n_expectancy(mu, lambda x: (f(x) + g(x)) ** 2)
                worst = max(worst, np.sqrt(esum) - np.sqrt(ef2) - np.sqrt(eg2))
                n += 1
    return _result("measure.holder_minkowski", worst, cfg.tol("holder", 1e-9), n)


def check_expectancy_unrolled(seed, cfg):
    rng = _rng(seed, "expect_unrolled")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in cfg.levels:
            for _ in range(cfg.samples):
                mu = smp.random_measure(rng, man, level, cfg.max_atoms)
                f = _random_scalar_fn(rng, man)
                worst = max(worst, abs(n_expectancy(mu, f) - eval_unrolled(mu, f)))
                n += 1
    return _result("measure.expectancy_matches_unrolled", worst, 0.0, n,
                   detail="exact equality (shared summation order)")


def check_pushforward_naturality(seed, cfg):
    rng = _rng(seed, "push_nat")
    worst = 0.0
    n = 0
    man = euclidean(3)
    for level in (2, 3):
        for _ in range(cfg.samples):
            mu = smp.random_measure(rng, man, level, cfg.max_atoms)
            shift = rng.standard_normal(3)
            lhs = collapse(push_leaf(mu, lambda x: x + shift))
            rhs = push_leaf(collapse(mu), lambda x: x + shift)
            for wl, wr, al, ar in zip(lhs.weights, rhs.weights, lhs.atoms, rhs.atoms):
                worst = max(worst, abs(wl - wr),
                            float(np.max(np.abs(al.point - ar.point))))
            n += 1
    return _result("measure.pushforward_naturality", worst, 0.0, n,
                   detail="structural equality")


def check_base_support(seed, cfg):
    rng = _rng(seed, "spt")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (2, 3):
            for _ in range(cfg.samples):
                mu = smp.random_measure(rng, man, level, cfg.max_atoms)
                direct = base_support(mu).points
                rec = []
                for atom in mu.atoms:
                    for p in base_support(atom).points:
                        if not any(man.dist(p, q) <= 1e-10 for q in rec):
                            rec.append(p)
                ok = len(direct) == len(rec) and all(
                    any(man.dist(p, q) <= 1e-9 for q in rec) for p in direct)
                worst = max(worst, 0.0 if ok else 1.0)
                n += 1
    return _result("measure.base_support_recurrence", worst, 0.0, n)


def check_representation_invariance(seed, cfg):
    rng = _rng(seed, "repr_inv")
    worst = 0.0
    n = 0
    man = euclidean(2)
    for level in (1, 2):
        for _ in range(cfg.samples):
            mu = smp.random_measure(rng, man, level, cfg.max_atoms)
            # split the first atom in two equal halves: same measure, new tree
            w0 = mu.weights[0]
            if w0 <= 2e-4:
                continue
            weights = (w0 / 2, w0 / 2) + mu.weights[1:]
            atoms = (mu.atoms[0], mu.atoms[0]) + mu.atoms[1:]
            nu = HierMeasure(man, mu.level, weights=weights, atoms=atoms)
            worst = max(worst, w2(mu, nu))
            same = canonicalize(mu).structural_key() == canonicalize(nu).structural_key()
            worst = max(worst, 0.0 if same else 1.0)
            n += 1
    return _result("measure.representation_invariance", worst,
                   cfg.tol("repr_inv", 1e-8), n)


# ---------------------------------------------------------------------------
# coupling suite


def _random_base_and_plans(rng, man, level, cfg, count=2, scale=1.0):
    base = smp.random_measure(rng, man, level, cfg.max_atoms)
    return base, [smp.random_plan(rng, base, scale) for _ in range(count)]


def check_wmu_metric(seed, cfg):
    rng = _rng(seed, "wmu_metric")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                _, (g1, g2, g3) = _random_base_and_plans(rng, man, level, cfg, 3)
                worst = max(worst, abs(pl.w_mu(g1, g2) - pl.w_mu(g2, g1)))
                worst = max(worst, pl.w_mu(g1, g3) - pl.w_mu(g1, g2) - pl.w_mu(g2, g3))
                worst = max(worst, pl.w_mu(g1, g1))
                n += 1
    return _result("plans.wmu_metric_axioms", worst, cfg.tol("wmu_metric", 1e-8), n)


def check_cauchy_schwarz(seed, cfg):
    rng = _rng(seed, "cs")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                _, (g1, g2) = _random_base_and_plans(rng, man, level, cfg)
                worst = max(worst, abs(pl.inner_mu(g1, g2))
                            - pl.plan_norm(g1) * pl.plan_norm(g2))
                n += 1
    return _result("plans.cauchy_schwarz", worst, cfg.tol("cs", 1e-9), n)


def check_polarization(seed, cfg):
    rng = _rng(seed, "polar")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                _, (g1, g2) = _random_base_and_plans(rng, man, level, cfg)
                d = pl.w_mu(g1, g2)
                lhs = d * d
                rhs = (pl.plan_norm_sq(g1) - 2 * pl.inner_mu(g1, g2)
                       + pl.plan_norm_sq(g2))
                worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
                n += 1
    return _result("plans.polarization_identity", worst, cfg.tol("polar", 1e-12), n,
                   detail="holds by construction")


def check_inner_direct(seed, cfg):
    rng = _rng(seed, "inner_direct")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                _, (g1, g2) = _random_base_and_plans(rng, man, level, cfg)
                worst = max(worst, abs(pl.inner_mu(g1, g2)
                                       - pl.inner_mu(g1, g2, method="direct")))
                n += 1
    return _result("plans.inner_product_dual_route", worst,
                   cfg.tol("inner_direct", 1e-8), n)


def check_inner_self_and_homogeneity(seed, cfg):
    rng = _rng(seed, "inner_self")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                _, (g1, g2) = _random_base_and_plans(rng, man, level, cfg)
                worst = max(worst, abs(pl.inner_mu(g1, g1) - pl.plan_norm_sq(g1)))
                l1 = float(rng.uniform(0, 2))
                l2 = float(rng.uniform(0, 2))
                worst = max(worst, abs(pl.inner_mu(pl.scale(l1, g1), pl.scale(l2, g2))
                                       - l1 * l2 * pl.inner_mu(g1, g2)))
                n += 1
    return _result("plans.inner_self_and_homogeneity", worst,
                   cfg.tol("inner_self", 1e-8), n)


def check_second_moment_additivity(seed, cfg):
    rng = _rng(seed, "second_moment")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                _, (g1, g2) = _random_base_and_plans(rng, man, level, cfg)
                for alpha in (pl.generic_coupling(g1, g2),
                              smp.random_coupling(rng, g1, g2),
                              pl.optimal_coupling(g1, g2)[0]):
                    lhs = pl.coupling_expectation(
                        alpha, lambda x, v1, v2: float(np.dot(v1, v1) + np.dot(v2, v2)))
                    rhs = pl.plan_norm_sq(g1) + pl.plan_norm_sq(g2)
                    worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
                n += 1
    return _result("plans.coupling_second_moment", worst,
                   cfg.tol("second_moment", 1e-12), n)


def check_zero_plan(seed, cfg):
    rng = _rng(seed, "zero_plan")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                base, (g,) = _random_base_and_plans(rng, man, level, cfg, 1)
                zero = pl.zero_plan(base)
                worst = max(worst, pl.plan_norm(zero))
                worst = max(worst, w2(pl.exp_push(zero), base))
                alpha = pl.generic_coupling(zero, g)
                worst = max(worst, abs(pl.coupling_inner(alpha)))
                n += 1
    return _result("plans.zero_plan", worst, cfg.tol("zero_plan", 1e-10), n)


def check_unique_coupling_fully_det(seed, cfg):
    rng = _rng(seed, "unique_fd")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples * 2):
                base = smp.random_measure(rng, man, level, cfg.max_atoms)
                fd = smp.random_plan(rng, base, 1.0, deterministic=True)
                g = smp.random_plan(rng, base, 1.0)
                a_gen = pl.generic_coupling(fd, g)
                a_opt, _ = pl.optimal_coupling(fd, g)
                same = pl.couplings_structurally_equal(a_gen, a_opt, 1e-9)
                worst = max(worst, 0.0 if same else 1.0)
                n += 1
    return _result("plans.unique_coupling_fully_det", worst, 0.0, n,
                   detail="structural equality of generic and optimal couplings")


def check_coupling_marginals(seed, cfg):
    rng = _rng(seed, "marginals")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                _, (g1, g2) = _random_base_and_plans(rng, man, level, cfg)
                for alpha in (pl.generic_coupling(g1, g2),
                              smp.random_coupling(rng, g1, g2)):
                    pl.validate_coupling(alpha, g1, g2)
                    m1 = pl.coupling_marginal_plan(alpha, 1)
                    m2 = pl.coupling_marginal_plan(alpha, 2)
                    ok = (pl.plans_structurally_equal(m1, g1, 1e-9)
                          and pl.plans_structurally_equal(m2, g2, 1e-9))
                    worst = max(worst, 0.0 if ok else 1.0)
                n += 1
    return _result("plans.coupling_marginals", worst, 0.0, n)


def check_fd_vector_space(seed, cfg):
    rng = _rng(seed, "fd_vs")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                base = smp.random_measure(rng, man, level, cfg.max_atoms)
                g1 = smp.random_plan(rng, base, 1.0, deterministic=True)
                g2 = smp.random_plan(rng, base, 1.0, deterministic=True)
                g3 = smp.random_plan(rng, base, 1.0, deterministic=True)
                zero = pl.zero_plan(base)
                # commutativity and neutral element are float-exact
                comm = pl.plans_structurally_equal(
                    pl.fd_add(g1, g2), pl.fd_add(g2, g1), 0.0)
                neut = pl.plans_structurally_equal(pl.fd_add(g1, zero), g1, 0.0)
                inv = pl.plan_norm(pl.fd_add(g1, pl.fd_scale(-1.0, g1)))
                one = pl.plans_structurally_equal(pl.fd_scale(1.0, g1), g1, 0.0)
                worst = max(worst, 0.0 if (comm and neut and one) else 1.0, inv)
                assoc = pl.plans_structurally_equal(
                    pl.fd_add(pl.fd_add(g1, g2), g3),
                    pl.fd_add(g1, pl.fd_add(g2, g3)), 1e-12)
                lam = float(rng.uniform(-2, 2))
                dist_law = pl.plans_structurally_equal(
                    pl.fd_scale(lam, pl.fd_add(g1, g2)),
                    pl.fd_add(pl.fd_scale(lam, g1), pl.fd_scale(lam, g2)), 1e-12)
                worst = max(worst, 0.0 if (assoc and dist_law) else 1.0)
                det = pl.is_fully_deterministic(pl.fd_add(g1, g2))
                worst = max(worst, 0.0 if det else 1.0)
                # prehilbert bilinearity in the first slot
                lhs = pl.inner_mu(pl.fd_add(g1, pl.fd_scale(lam, g2)), g3)
                rhs = pl.inner_mu(g1, g3) + lam * pl.inner_mu(g2, g3)
                worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
                # W_mu reduces to the norm of the difference
                dd = pl.w_mu(g1, g2)
                diff = pl.plan_norm(pl.fd_add(g1, pl.fd_scale(-1.0, g2)))
                worst = max(worst, abs(dd - diff))
                n += 1
    return _result("plans.fully_det_vector_space", worst,
                   cfg.tol("fd_vs", 1e-10), n)


def check_fd_l2_isometry(seed, cfg):
    rng = _rng(seed, "fd_l2")
    worst = 0.0
    n = 0
    for man in (euclidean(3), sphere(3)):
        for level in (1, 2, 3):
            for _ in range(cfg.samples):
                mu = smp.random_measure(rng, man, level, cfg.max_atoms)
                a = rng.standard_normal(man.ambient_dim)
                f = (lambda aa: lambda x: man.project_tangent(x, aa))(a)
                g = pl.fd_from_field(mu, f)
                direct = n_expectancy(mu, lambda x: float(np.dot(f(x), f(x))))
                worst = max(worst, abs(pl.plan_norm_sq(g) - direct))
                n += 1
    return _result("plans.fd_l2_isometry", worst, 0.0, n,
                   detail="exact (identical summation order)")


def check_pseudo_norm_bounds(seed, cfg):
    rng = _rng(seed, "pnorm")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                base, (g,) = _random_base_and_plans(rng, man, level, cfg, 1)
                worst = max(worst, w2(base, pl.exp_push(g)) - pl.plan_norm(g))
                n += 1
    return _result("plans.norm_bounds_w2", worst, cfg.tol("pnorm", 1e-9), n)


def check_sasaki_embedding_bounds(seed, cfg):
    rng = _rng(seed, "sasaki")
    worst = 0.0
    n = 0
    man = euclidean(2)
    for level in (1, 2):
        for _ in range(cfg.samples):
            base, (g,) = _random_base_and_plans(rng, man, level, cfg, 1)
            zero_m = pl.plan_as_measure(pl.zero_plan(base))
            g_m = pl.plan_as_measure(g)
            worst = max(worst, w2(zero_m, g_m) - pl.plan_norm(g))
            # norm identity against a fixed Sasaki base point
            o = np.zeros(2 * man.ambient_dim)
            lhs = pl.plan_norm_sq(g)
            rhs = (w2_to_dirac(g_m, o) ** 2
                   - w2_to_dirac(base, np.zeros(man.ambient_dim)) ** 2)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
            n += 1
    return _result("plans.sasaki_zero_section", worst, cfg.tol("sasaki", 1e-8), n)


def check_inner_subadditive(seed, cfg):
    rng = _rng(seed, "subadd")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                _, (g1, g2, g3) = _random_base_and_plans(rng, man, level, cfg, 3)
                for alpha in (pl.generic_coupling(g1, g2),
                              smp.random_coupling(rng, g1, g2)):
                    s = pl.add(g1, g2, alpha)
                    worst = max(worst, pl.inner_mu(s, g3)
                                - pl.inner_mu(g1, g3) - pl.inner_mu(g2, g3))
                    worst = max(worst, pl.plan_norm(s)
                                - pl.plan_norm(g1) - pl.plan_norm(g2))
                n += 1
    return _result("plans.inner_subadditivity", worst, cfg.tol("subadd", 1e-8), n)


def check_add_identities(seed, cfg):
    rng = _rng(seed, "add_ids")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                base, (g,) = _random_base_and_plans(rng, man, level, cfg, 1)
                zero = pl.zero_plan(base)
                alpha = pl.generic_coupling(g, zero)
                worst = max(worst, pl.w_mu(pl.add(g, zero, alpha), g))
                fd = smp.random_plan(rng, base, 1.0, deterministic=True)
                a2 = pl.generic_coupling(fd, fd)
                worst = max(worst, pl.plan_norm(pl.sub(fd, fd, a2)))
                n += 1
    return _result("plans.addition_identities", worst, cfg.tol("add_ids", 1e-9), n)


def check_fiber_permutation_oracle(seed, cfg):
    from .exact_ot import permutation_oracle
    rng = _rng(seed, "fiber_oracle")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for _ in range(cfg.samples * 2):
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
            worst = max(worst, abs(dist ** 2 - permutation_oracle(c)))
            n += 1
    return _result("plans.fiber_optimal_vs_bruteforce", worst,
                   cfg.tol("fiber_oracle", 1e-9), n)


# ---------------------------------------------------------------------------
# geodesic suite


def check_ovp_norm(seed, cfg):
    rng = _rng(seed, "ovp_norm")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in cfg.levels:
            for _ in range(cfg.samples):
                a = smp.random_measure(rng, man, level, cfg.max_atoms)
                b = smp.random_measure(rng, man, level, cfg.max_atoms)
                g = geo.optimal_velocity_plan(a, b)
                worst = max(worst, abs(pl.plan_norm(g) - w2(a, b)))
                worst = max(worst, w2(pl.exp_push(g), b) - TOL_NEAR_ZERO)
                n += 1
    return _result("geodesic.optimal_plan_norm", worst, cfg.tol("ovp", 1e-8), n)


def check_constant_speed(seed, cfg):
    rng = _rng(seed, "cspeed")
    worst = 0.0
    n = 0
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for man in (euclidean(2), sphere(3)):
        for level in cfg.levels:
            for _ in range(max(2, cfg.samples // 2)):
                a = smp.random_measure(rng, man, level, cfg.max_atoms)
                b = smp.random_measure(rng, man, level, cfg.max_atoms)
                g = geo.optimal_velocity_plan(a, b)
                rep = geo.verify_constant_speed(g, grid)
                worst = max(worst, rep.max_deviation, rep.speed_mismatch)
                n += 1
    return _result("geodesic.constant_speed", worst, cfg.tol("cspeed", 1e-8), n)


def check_endpoints(seed, cfg):
    rng = _rng(seed, "endpoints")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in cfg.levels:
            for _ in range(cfg.samples):
                a = smp.random_measure(rng, man, level, cfg.max_atoms)
                b = smp.random_measure(rng, man, level, cfg.max_atoms)
                g = geo.optimal_velocity_plan(a, b)
                worst = max(worst, w2(geo.interpolate(g, 0.0), a))
                worst = max(worst, w2(geo.interpolate(g, 1.0), b))
                n += 1
    return _result("geodesic.endpoints", worst,
                   cfg.tol("endpoints", TOL_NEAR_ZERO), n)


def check_lipschitz_any_plan(seed, cfg):
    rng = _rng(seed, "lips")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                base, (g,) = _random_base_and_plans(rng, man, level, cfg, 1)
                t = float(rng.uniform(-0.5, 1.5))
                s = float(rng.uniform(-0.5, 1.5))
                lhs = w2(geo.interpolate(g, t), geo.interpolate(g, s))
                worst = max(worst, lhs - abs(t - s) * pl.plan_norm(g))
                n += 1
    return _result("geodesic.lipschitz_along_plans", worst, cfg.tol("lips", 1e-8), n)


def check_ptn(seed, cfg):
    rng = _rng(seed, "ptn")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                base, (g,) = _random_base_and_plans(rng, man, level, cfg, 1)
                t = float(rng.uniform(-1.0, 1.0))
                s = float(rng.uniform(-1.0, 1.0))
                moved = geo.pt_n(g, t)
                worst = max(worst, abs(pl.plan_norm(moved) - pl.plan_norm(g)))
                worst = max(worst, w2(moved.base, geo.interpolate(g, t)))
                lhs = geo.pt_n(moved, s)
                rhs = geo.pt_n(g, t + s)
                worst = max(worst, _plan_leaf_gap(lhs, rhs))
                n += 1
    return _result("geodesic.parallel_transport_group_law", worst,
                   cfg.tol("ptn", 1e-8), n)


def _plan_leaf_gap(g1, g2) -> float:
    if g1.level == 0:
        return max(float(np.max(np.abs(g1.base.point - g2.base.point))),
                   float(np.max(np.abs(g1.tangent - g2.tangent))))
    worst = 0.0
    for f1, f2 in zip(g1.fibers, g2.fibers):
        if len(f1) != len(f2):
            return np.inf
        for e1, e2 in zip(f1, f2):
            worst = max(worst, abs(e1.weight - e2.weight),
                        _plan_leaf_gap(e1.plan, e2.plan))
    return worst


def check_restriction(seed, cfg):
    rng = _rng(seed, "restrict")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                a = smp.random_measure(rng, man, level, cfg.max_atoms)
                b = smp.random_measure(rng, man, level, cfg.max_atoms)
                g = geo.optimal_velocity_plan(a, b)
                dist = w2(a, b)
                t = float(rng.uniform(0.1, 0.9))
                s = float(rng.uniform(0.0, 1.0))
                r = geo.restriction_plan(g, t, s)
                worst = max(worst, abs(pl.plan_norm(r) - abs(s - t) * dist))
                worst = max(worst, w2(pl.exp_push(r), geo.interpolate(g, s)))
                if 0.0 < t < 1.0:
                    det = pl.is_fully_deterministic(geo.pt_n(g, t))
                    worst = max(worst, 0.0 if det else 1.0)
                mid = geo.restriction_plan(g, 0.0, 0.5)
                worst = max(worst, abs(pl.plan_norm(mid) - 0.5 * dist))
                n += 1
    return _result("geodesic.restriction_optimality", worst,
                   cfg.tol("restrict", 1e-8), n)


def check_equal_interpolant_plans(seed, cfg):
    rng = _rng(seed, "noncross")
    worst = 0.0
    n = 0
    man = euclidean(2)
    for level in (1, 2):
        for _ in range(cfg.samples):
            a = smp.random_measure(rng, man, level, cfg.max_atoms)
            b = smp.random_measure(rng, man, level, cfg.max_atoms)
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
                worst = max(worst, pl.w_mu(g1, g2))
            n += 1
    return _result("geodesic.equal_interpolant_plans", worst,
                   cfg.tol("noncross", 1e-6), n)


# ---------------------------------------------------------------------------
# calculus suite


def _random_potential(rng, man):
    if man.kind == "euclidean" and rng.random() < 0.5:
        return fn.make_quadratic(man, rng.standard_normal(man.ambient_dim))
    if rng.random() < 0.5:
        return fn.make_linear_ambient(man, rng.standard_normal(man.ambient_dim))
    return fn.make_quadratic(man, rng.standard_normal(man.ambient_dim))


def check_taylor_bound(seed, cfg):
    rng = _rng(seed, "taylor")
    worst = 0.0
    n = 0
    for man in (euclidean(3), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                mu = smp.random_measure(rng, man, level, cfg.max_atoms)
                pot = _random_potential(rng, man)
                g = smp.random_plan(rng, mu, 0.7)
                lhs, bound, ok = fn.taylor_remainder_check(pot, mu, g)
                worst = max(worst, lhs - bound)
                n += 1
    return _result("calculus.taylor_remainder", worst, cfg.tol("taylor", 1e-9), n)


def check_taylor_quadratic_equality(seed, cfg):
    rng = _rng(seed, "taylor_eq")
    worst = 0.0
    n = 0
    man = euclidean(3)
    for level in (1, 2):
        for _ in range(cfg.samples):
            mu = smp.random_measure(rng, man, level, cfg.max_atoms)
            pot = fn.make_quadratic(man, rng.standard_normal(3))
            g = smp.random_plan(rng, mu, 1.0)
            lhs, bound, _ = fn.taylor_remainder_check(pot, mu, g)
            worst = max(worst, abs(lhs - bound))
            n += 1
    return _result("calculus.taylor_quadratic_equality", worst,
                   cfg.tol("taylor_eq", 1e-10), n)


def check_sum_scalar_rules(seed, cfg):
    rng = _rng(seed, "sumrule")
    worst = 0.0
    n = 0
    for man in (euclidean(3), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                mu = smp.random_measure(rng, man, level, cfg.max_atoms)
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
                worst = max(worst, 0.0 if ok else 1.0)
                n += 1
    return _result("calculus.sum_and_scalar_rules", worst, 0.0, n,
                   detail="exact leafwise equality")


def _halving_ratios(residual_fn, xi, halvings=3):
    """Ratios of the normalized residual under successive halvings of ``xi``.

    Returns ``None`` when a residual falls to float noise (sign cancellation
    across leaves), in which case the instance is uninformative.
    """
    normalized = []
    for k in range(halvings + 1):
        xik = pl.scale(0.5 ** k, xi)
        nk = pl.plan_norm(xik)
        r = residual_fn(xik)
        if r < 1e-12 or nk < 1e-12:
            return None
        normalized.append(r / nk)
    return [b / a for a, b in zip(normalized, normalized[1:])]


def check_gradient_superlinear(seed, cfg):
    # euclidean instances: the remainder is a positive quadratic with exact
    # halving ratio 1/2.  On the sphere mixed-order terms of opposite sign
    # can transiently break the finite-scale ratio even for the correct
    # gradient, so curved first-order consistency is covered by the Taylor
    # bound and the finite-difference gradient checks instead.
    rng = _rng(seed, "grad_fd")
    worst = 0.0
    n = 0
    man = euclidean(3)
    for level in (1, 2):
        for _ in range(max(3, cfg.samples)):
            mu = smp.random_measure(rng, man, level, cfg.max_atoms)
            pot = fn.make_quadratic(man, rng.standard_normal(3))
            xi = smp.random_plan(rng, mu, 1.0)
            ratios = _halving_ratios(
                lambda g: fn.directional_residual(pot, mu, g), xi)
            if ratios is None:
                continue
            worst = max(worst, max(ratios) - 0.6)
            n += 1
    return _result("calculus.gradient_superlinear_decay", worst, 0.0, n,
                   detail="halving ratio <= 0.6")


def check_chain_rule(seed, cfg):
    rng = _rng(seed, "chain")
    worst = 0.0
    n = 0
    man = euclidean(3)
    g_fun = lambda y: y + y ** 3
    g_prime = lambda y: 1.0 + 3.0 * y * y
    for level in (1, 2):
        for _ in range(max(3, cfg.samples // 2)):
            mu = smp.random_measure(rng, man, level, cfg.max_atoms)
            pot = fn.make_quadratic(man, rng.standard_normal(3))
            spec = fn.FunctionalSpec((fn.PotentialTerm(pot),))
            f_mu = fn.eval_functional(spec, mu)
            xi = smp.random_plan(rng, mu, 1.0)
            nrm = pl.plan_norm(xi)
            if nrm < 1e-9:
                continue
            # start inside the quadratic-dominated regime; at larger scales
            # the cubic part of g can push the first ratio past the bound
            xi = pl.scale(0.5 / nrm, xi)
            grad_plan = fn.grad_potential(pot, mu)

            def residual(g):
                alpha = pl.generic_coupling(g, grad_plan)
                return abs(g_fun(fn.eval_functional(spec, pl.exp_push(g)))
                           - g_fun(f_mu)
                           - g_prime(f_mu) * pl.coupling_inner(alpha))

            ratios = _halving_ratios(residual, xi)
            if ratios is None:
                continue
            worst = max(worst, max(ratios) - 0.6)
            n += 1
    return _result("calculus.chain_rule_first_order", worst, 0.0, n,
                   detail="halving ratio <= 0.6")


def check_gradient_uniqueness(seed, cfg):
    rng = _rng(seed, "grad_unique")
    worst = 0.0
    n = 0
    man = euclidean(3)
    for _ in range(cfg.samples):
        mu = smp.random_measure(rng, man, 2, cfg.max_atoms)
        pot = fn.make_quadratic(man, rng.standard_normal(3))
        delta = rng.standard_normal(3)
        delta = delta / np.linalg.norm(delta) * 0.5
        spec = fn.FunctionalSpec((fn.PotentialTerm(pot),))
        wrong = fn.Potential(value=pot.value,
                             grad=lambda x: pot.grad(x) + delta,
                             hessian_bound=pot.hessian_bound)
        failed = False
        for c in (0.05, 0.01, 0.002):
            xi = pl.fd_from_field(mu, lambda x: c * delta)
            alpha = pl.generic_coupling(xi, fn.grad_potential(wrong, mu))
            lhs = abs(fn.eval_functional(spec, pl.exp_push(xi))
                      - fn.eval_functional(spec, mu)
                      - pl.coupling_inner(alpha))
            if lhs > 0.5 * pot.hessian_bound * pl.plan_norm_sq(xi) + 1e-9:
                failed = True
                break
        worst = max(worst, 0.0 if failed else 1.0)
        n += 1
    return _result("calculus.gradient_uniqueness", worst, 0.0, n,
                   detail="perturbed gradients violate the two-sided bound")


def check_supergradient(seed, cfg):
    rng = _rng(seed, "supergrad")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(cfg.samples):
                mu = smp.random_measure(rng, man, level, cfg.max_atoms)
                nu = smp.random_measure(rng, man, level, cfg.max_atoms)
                mubar = smp.random_measure(rng, man, level, cfg.max_atoms)
                lhs, rhs, _ = fn.supergradient_inequality_check(mu, nu, mubar)
                worst = max(worst, lhs - rhs)
                gamma = geo.optimal_velocity_plan(mu, nu)
                gbar = fn.w2_supergradient(mu, mubar)
                alpha = smp.random_coupling(rng, gamma, gbar)
                lhs, rhs, _ = fn.supergradient_inequality_check(
                    mu, nu, mubar, coupling=alpha)
                worst = max(worst, lhs - rhs)
                n += 1
    return _result("calculus.w2_supergradient_inequality", worst,
                   cfg.tol("supergrad", 1e-8), n)


def check_generalized_geodesic_convexity(seed, cfg):
    rng = _rng(seed, "gen_geo")
    worst = 0.0
    n = 0
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2):
            for _ in range(max(3, cfg.samples // 2)):
                mubar = smp.random_measure(rng, man, level, cfg.max_atoms)
                mu0 = smp.random_measure(rng, man, level, cfg.max_atoms)
                mu1 = smp.random_measure(rng, man, level, cfg.max_atoms)
                g0 = geo.optimal_velocity_plan(mubar, mu0)
                g1 = geo.optimal_velocity_plan(mubar, mu1)
                alpha = pl.generic_coupling(g0, g1)
                curve = fn.GeneralizedGeodesicCurve(alpha)
                spec = fn.FunctionalSpec((fn.DistanceTerm(mubar, 1.0),))
                rep = fn.convexity_check(spec, curve, 1.0,
                                         ts=[0.0, 0.25, 0.5, 0.75, 1.0])
                worst = max(worst, rep.worst_margin)
                worst = max(worst, w2(curve.at(0.0), mu0) - TOL_NEAR_ZERO)
                worst = max(worst, w2(curve.at(1.0), mu1) - TOL_NEAR_ZERO)
                n += 1
    return _result("calculus.generalized_geodesic_one_convexity", worst,
                   cfg.tol("gen_geo", 1e-8), n)


def check_generalized_matches_displacement(seed, cfg):
    rng = _rng(seed, "gen_disp")
    worst = 0.0
    n = 0
    man = euclidean(2)
    for level in (1, 2):
        for _ in range(cfg.samples):
            mu0 = smp.random_measure(rng, man, level, cfg.max_atoms)
            mu1 = smp.random_measure(rng, man, level, cfg.max_atoms)
            t = float(rng.uniform(0, 1))
            gen = fn.generalized_geodesic(mu0, mu0, mu1, t)
            disp = geo.interpolate(geo.optimal_velocity_plan(mu0, mu1), t)
            worst = max(worst, w2(gen, disp))
            n += 1
    return _result("calculus.generalized_geodesic_anchored_at_start", worst,
                   cfg.tol("gen_disp", TOL_NEAR_ZERO), n)


def check_convexity_lifting(seed, cfg):
    rng = _rng(seed, "lifting")
    worst = 0.0
    n = 0
    man = euclidean(2)
    for _ in range(cfg.samples):
        mu0 = smp.random_measure(rng, man, 2, cfg.max_atoms)
        mu1 = smp.random_measure(rng, man, 2, cfg.max_atoms)
        pot = fn.make_quadratic(man, rng.standard_normal(2))
        spec = fn.FunctionalSpec((fn.PotentialTerm(pot),))
        curve = fn.GeodesicCurve(geo.optimal_velocity_plan(mu0, mu1))
        rep = fn.convexity_check(spec, curve, 1.0, ts=[0.0, 0.25, 0.5, 0.75, 1.0])
        worst = max(worst, rep.worst_margin)
        n += 1
    return _result("calculus.convexity_lifting_quadratic", worst,
                   cfg.tol("lifting", 1e-8), n)


def check_w2_geodesic_nonconvexity_witness(seed, cfg):
    """The squared distance is not convex along plain geodesics.

    A two-atom family whose optimal assignment to the reference switches
    mid-curve produces a concave kink; the check passes when the violation
    is actually observed (a regression guard on the reported-only status).
    """
    man = euclidean(2)
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
    violated = rep.worst_margin > 1e-6
    return _result("calculus.w2_not_geodesically_convex", 0.0 if violated else 1.0,
                   0.0, 1, detail="counterexample family must violate convexity")


def check_descent(seed, cfg):
    rng = _rng(seed, "descent")
    worst = 0.0
    n = 0
    man = euclidean(1)
    for _ in range(max(2, cfg.samples // 3)):
        mu0 = smp.random_measure(rng, man, 2, cfg.max_atoms)
        target = smp.random_measure(rng, man, 2, cfg.max_atoms)
        pot = fn.make_quadratic(man, rng.standard_normal(1))
        spec = fn.FunctionalSpec((fn.PotentialTerm(pot, 1.0),
                                  fn.DistanceTerm(target, 0.5)))
        trace = fn.gradient_descent(spec, mu0, 0.3, 25)
        vals = trace.values
        worst = max(worst, max(v2 - v1 for v1, v2 in zip(vals, vals[1:])))
        n += 1
    return _result("calculus.descent_monotone", worst, cfg.tol("descent", 1e-10), n)


def check_potential_gradients(seed, cfg):
    rng = _rng(seed, "pot_fd")
    worst = 0.0
    n = 0
    for man in (euclidean(3), sphere(3)):
        pts = [smp.random_point(rng, man) for _ in range(cfg.samples)]
        for make in (fn.make_quadratic, fn.make_linear_ambient):
            pot = make(man, rng.standard_normal(3))
            worst = max(worst, fn.check_potential_gradient(pot, man, pts))
            n += 1
    return _result("calculus.potential_gradient_fd", worst,
                   cfg.tol("pot_fd", 1e-5), n)


# ---------------------------------------------------------------------------
# suite registry


SUITES = {
    "metric": (
        check_exp_log_identity,
        check_manifold_triangle,
        check_exp_contraction,
        check_w2_metric,
        check_dirac_isometry,
        check_collapse_lower_bound,
        check_w2_to_dirac,
        check_holder_minkowski,
        check_expectancy_unrolled,
        check_pushforward_naturality,
        check_base_support,
        check_representation_invariance,
    ),
    "coupling": (
        check_wmu_metric,
        check_cauchy_schwarz,
        check_polarization,
        check_inner_direct,
        check_inner_self_and_homogeneity,
        check_second_moment_additivity,
        check_zero_plan,
        check_unique_coupling_fully_det,
        check_coupling_marginals,
        check_fd_vector_space,
        check_fd_l2_isometry,
        check_pseudo_norm_bounds,
        check_sasaki_embedding_bounds,
        check_inner_subadditive,
        check_add_identities,
        check_fiber_permutation_oracle,
    ),
    "geodesic": (
        check_pt_leaf_isometry,
        check_pt_leaf_group,
        check_ovp_norm,
        check_constant_speed,
        check_endpoints,
        check_lipschitz_any_plan,
        check_ptn,
        check_restriction,
        check_equal_interpolant_plans,
    ),
    "calculus": (
        check_taylor_bound,
        check_taylor_quadratic_equality,
        check_sum_scalar_rules,
        check_gradient_superlinear,
        check_chain_rule,
        check_gradient_uniqueness,
        check_supergradient,
        check_generalized_geodesic_convexity,
        check_generalized_matches_displacement,
        check_convexity_lifting,
        check_w2_geodesic_nonconvexity_witness,
        check_descent,
        check_potential_gradients,
    ),
}


def run_suite(suite: str, seed: int, cfg: CheckConfig = None) -> dict:
    """Run one suite (or ``"all"``); returns a JSON-ready report."""
    cfg = cfg or CheckConfig()
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
    suites = {}
    all_passed = True
    for name in names:
        results = [check(seed, cfg) for check in SUITES[name]]
        all_passed &= all(r.passed for r in results)
        suites[name] = {
            "passed": all(r.passed for r in results),
            "properties": [r.as_obj() for r in results],
        }
    return {"seed": int(seed), "samples": cfg.samples,
            "suites": suites, "passed": bool(all_passed)}
