import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierot import euclidean, sphere
from hierot.errors import InvalidInput, InvalidPoint
from hierot.manifolds import dot, norm
from hierot.sampling import random_point, random_tangent, rng_from_seed

N = np.array([0.0, 0.0, 1.0])
S = np.array([0.0, 0.0, -1.0])


def test_dist_euclidean_pythagorean():
    m = euclidean(2)
    assert m.dist(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_dist_sphere_poles():
    m = sphere(3)
    assert m.dist(N, S) == pytest.approx(np.pi)
    assert m.dist(N, N) == 0.0


def test_dist_dimension_mismatch():
    m = euclidean(2)
    with pytest.raises(InvalidInput):
        m.dist(np.zeros(2), np.zeros(3))


def test_exp_euclidean():
    m = euclidean(2)
    assert np.allclose(m.exp(np.array([1.0, 1.0]), np.array([2.0, 0.0])),
                       [3.0, 1.0])


def test_exp_sphere_pole_plans():
    # tangents of norm pi and 3*pi both land on the south pole
    m = sphere(3)
    for r in (np.pi, 3 * np.pi):
        v = np.array([r, 0.0, 0.0])
        assert np.allclose(m.exp(N, v), S, atol=1e-12)
    assert np.allclose(m.exp(N, np.zeros(3)), N)


def test_log_euclidean():
    m = euclidean(2)
    assert np.allclose(m.log(np.zeros(2), np.array([3.0, 4.0])), [3.0, 4.0])


def test_log_antipodal_tie_break():
    m = sphere(3)
    v = m.log(N, S)
    # canonical direction: first basis vector projected to the tangent plane
    assert np.allclose(v, [np.pi, 0.0, 0.0])
    assert np.linalg.norm(v) == pytest.approx(m.dist(N, S))
    assert np.allclose(m.exp(N, v), S, atol=1e-12)


def test_log_identity_case():
    for m in (euclidean(3), sphere(3)):
        x = m.check_point([1.0, 0.0, 0.0])
        assert np.allclose(m.log(x, x), np.zeros(3))


def test_exp_log_roundtrip_random():
    rng = rng_from_seed(7)
    for m in (euclidean(3), sphere(4)):
        for _ in range(200):
            x = random_point(rng, m)
            y = random_point(rng, m)
            v = m.log(x, y)
            assert m.dist(m.exp(x, v), y) <= 1e-9
            assert abs(np.linalg.norm(v) - m.dist(x, y)) <= 1e-9


def _pt_ode_oracle(x, v, w, t, steps=4000):
    """Integrate the transport equation dw/ds = -<w, c'> c along the sphere
    geodesic c(s) = exp_x(s t v) with RK4 (independent of the closed form)."""
    nv = np.linalg.norm(v)
    if nv == 0:
        return x, w
    u = v / nv
    theta = t * nv

    def c(s):
        return np.cos(s * theta) * x + np.sin(s * theta) * u

    def cdot(s):
        return theta * (-np.sin(s * theta) * x + np.cos(s * theta) * u)

    def rhs(s, wv):
        return -np.dot(wv, cdot(s)) * c(s)

    h = 1.0 / steps
    wv = w.astype(float).copy()
    for i in range(steps):
        s = i * h
        k1 = rhs(s, wv)
        k2 = rhs(s + h / 2, wv + h / 2 * k1)
        k3 = rhs(s + h / 2, wv + h / 2 * k2)
        k4 = rhs(s + h, wv + h * k3)
        wv = wv + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return c(1.0), wv


def test_parallel_transport_euclidean_identity():
    m = euclidean(3)
    x = np.array([1.0, 2.0, 3.0])
    v = np.array([0.5, -1.0, 0.0])
    w = np.array([0.0, 1.0, 2.0])
    y, wt = m.parallel_transport(x, v, w, 0.7)
    assert np.allclose(y, x + 0.7 * v)
    assert np.allclose(wt, w)


def test_parallel_transport_sphere_orthogonal_component_fixed():
    m = sphere(3)
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, np.pi / 2, 0.0])
    w = np.array([0.0, 0.0, 1.0])
    y, wt = m.parallel_transport(x, v, w, 1.0)
    assert np.allclose(y, [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(wt, [0.0, 0.0, 1.0], atol=1e-12)
    y_o, w_o = _pt_ode_oracle(x, v, w, 1.0)
    assert np.allclose(y, y_o, atol=1e-9)
    assert np.allclose(wt, w_o, atol=1e-9)


def test_parallel_transport_sphere_velocity_along_itself():
    m = sphere(3)
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, np.pi / 2, 0.0])
    y, wt = m.parallel_transport(x, v, v, 1.0)
    assert np.allclose(y, [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(wt, [-np.pi / 2, 0.0, 0.0], atol=1e-12)
    y_o, w_o = _pt_ode_oracle(x, v, v, 1.0)
    assert np.allclose(wt, w_o, atol=1e-9)


def test_parallel_transport_random_against_ode():
    rng = rng_from_seed(11)
    m = sphere(3)
    for _ in range(20):
        x = random_point(rng, m)
        v = random_tangent(rng, m, x, 1.0)
        w = random_tangent(rng, m, x, 1.0)
        t = float(rng.uniform(-1.2, 1.2))
        y, wt = m.parallel_transport(x, v, w, t)
        y_o, w_o = _pt_ode_oracle(x, v, w, t)
        assert np.allclose(y, y_o, atol=1e-8)
        assert np.allclose(wt, w_o, atol=1e-8)


def test_parallel_transport_isometry_and_group_law():
    rng = rng_from_seed(3)
    for m in (euclidean(3), sphere(3)):
        for _ in range(100):
            x = random_point(rng, m)
            v = random_tangent(rng, m, x, 1.0)
            w1 = random_tangent(rng, m, x, 1.0)
            w2 = random_tangent(rng, m, x, 1.0)
            t, s = rng.uniform(-1, 1, size=2)
            y, tw1 = m.parallel_transport(x, v, w1, t)
            _, tw2 = m.parallel_transport(x, v, w2, t)
            assert abs(np.linalg.norm(tw1) - np.linalg.norm(w1)) <= 1e-9
            assert abs(np.dot(tw1, tw2) - np.dot(w1, w2)) <= 1e-9
            _, v_t = m.parallel_transport(x, v, v, t)
            y2, w_ts = m.parallel_transport(y, v_t, tw1, s)
            y_d, w_d = m.parallel_transport(x, v, w1, t + s)
            assert np.linalg.norm(y2 - y_d) <= 1e-8
            assert np.linalg.norm(w_ts - w_d) <= 1e-8
    # PT_0 is the identity
    m = sphere(3)
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    y, wt = m.parallel_transport(x, v, v, 0.0)
    assert np.allclose(y, x) and np.allclose(wt, v)


def test_triangle_inequality_random():
    rng = rng_from_seed(5)
    for m in (euclidean(3), sphere(3)):
        for _ in range(200):
            x, y, z = (random_point(rng, m) for _ in range(3))
            assert m.dist(x, z) <= m.dist(x, y) + m.dist(y, z) + 1e-12


def test_sphere_exp_contraction():
    rng = rng_from_seed(9)
    m = sphere(3)
    for _ in range(200):
        x = random_point(rng, m)
        u = random_tangent(rng, m, x, 1.0)
        v = random_tangent(rng, m, x, 1.0)
        assert m.dist(m.exp(x, u), m.exp(x, v)) <= np.linalg.norm(u - v) + 1e-9


def test_point_validation():
    m = sphere(3)
    with pytest.raises(InvalidPoint):
        m.check_point([2.0, 0.0, 0.0])
    # inside the renormalization band: projected back
    x = m.check_point([1.0 + 1e-8, 0.0, 0.0])
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-15
    with pytest.raises(InvalidInput):
        m.check_tangent(N, np.array([0.0, 0.0, 0.5]))


def _one_shot_sq_dist(man, xs, ys):
    """pairwise_sq_dist as one (n, k, dim) computation."""
    if man.kind == "euclidean":
        diff = xs[:, None, :] - ys[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)
    asin = np.vectorize(math.asin, otypes=[float])
    dots = np.einsum("ik,jk->ij", xs, ys)
    d_minus = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2)
    d_plus = np.linalg.norm(xs[:, None, :] + ys[None, :, :], axis=2)
    near = 2.0 * asin(np.minimum(0.5 * d_minus, 1.0))
    far = math.pi - 2.0 * asin(np.minimum(0.5 * d_plus, 1.0))
    ang = np.where(dots >= 0.0, near, far)
    return ang * ang


@pytest.mark.parametrize("man", [euclidean(1), euclidean(3), sphere(3), sphere(5)],
                         ids=["euclidean1", "euclidean3", "sphere3", "sphere5"])
def test_pairwise_sq_dist_blocks_keep_the_bits(monkeypatch, man):
    import hierot.manifolds as manifolds
    rng = rng_from_seed(61)
    shapes = [(1, 1), (1, 17), (17, 1), (9, 13), (40, 7), (33, 33)]
    for block in (1, 5, 64, 1000, manifolds.PAIRWISE_BLOCK):
        monkeypatch.setattr(manifolds, "PAIRWISE_BLOCK", block)
        for n, k in shapes:
            xs = np.stack([random_point(rng, man) for _ in range(n)])
            ys = np.stack([random_point(rng, man) for _ in range(k)])
            if man.kind == "sphere":
                ys[: min(n, k) // 2] = -xs[: min(n, k) // 2]  # antipodes: far branch
            got = man.pairwise_sq_dist(xs, ys)
            assert got.shape == (n, k)
            assert got.tobytes() == _one_shot_sq_dist(man, xs, ys).tobytes()


@pytest.mark.parametrize("man", [euclidean(3), sphere(3)], ids=["euclidean", "sphere"])
def test_pairwise_sq_dist_memory_is_bounded(man):
    # a 1024 x 1024 table is 8 MB; the one-shot form peaked at 32 MB
    # (euclidean) and 80 MB (sphere) in (n, k, dim) temporaries
    import tracemalloc
    rng = rng_from_seed(67)
    xs = np.stack([random_point(rng, man) for _ in range(1024)])
    ys = np.stack([random_point(rng, man) for _ in range(1024)])
    tracemalloc.start()
    try:
        man.pairwise_sq_dist(xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = 1024 * 1024 * 8
    # the sphere also holds its (n, k) matrix of dot products
    allowed = (1 if man.kind == "euclidean" else 2) * result + 2 * 2**20
    assert peak <= allowed, peak / 2**20


def _check_point_reference(man, x):
    """``check_point`` as it was written with numpy's ``isfinite`` and the
    library's leaf norm."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidPoint("non-finite coordinates")
    if man.kind == "sphere":
        nrm = norm(x)
        if abs(nrm - 1.0) > 1e-6:
            raise InvalidPoint(f"sphere point has norm {nrm}")
        if abs(nrm - 1.0) > 1e-12:
            x = x / nrm
    return x


def _outcome(fn, *args):
    try:
        return fn(*args).tobytes()
    except InvalidPoint as exc:
        return str(exc)


@pytest.mark.parametrize("man", [euclidean(3), sphere(3), sphere(2)],
                         ids=["euclidean", "sphere3", "sphere2"])
def test_point_validation_matches_numpy_forms_bit_for_bit(man):
    # unit points, points inside and outside the renormalization band, and
    # coordinates from tiny to huge; the same array or the same error
    rng = rng_from_seed(91)
    d = man.ambient_dim
    for _ in range(4000):
        x = rng.standard_normal(d)
        if man.kind == "sphere":
            x /= np.linalg.norm(x)
            x *= 1.0 + float(rng.choice([0.0, 1e-15, 3e-13, 2e-9, 8e-7, 2e-6]))
        else:
            x *= 10.0 ** rng.integers(-300, 300)
        assert _outcome(man.check_point, x) == _outcome(_check_point_reference, man, x)
    for bad in (float("nan"), float("inf"), -float("inf")):
        x = np.full(d, 0.5)
        x[-1] = bad
        with pytest.raises(InvalidPoint, match="non-finite"):
            man.check_point(x)
        with pytest.raises(InvalidInput, match="non-finite"):
            man.check_tangent(np.eye(d)[0], x)
    if man.kind == "euclidean":
        # finite coordinates whose sum overflows are finite
        huge = np.full(d, 1e308)
        assert man.check_point(huge).tobytes() == huge.tobytes()
        assert man.check_tangent(np.zeros(d), huge).tobytes() == huge.tobytes()


def test_sphere_exp_matches_leaf_norms_bit_for_bit():
    man = sphere(3)
    rng = rng_from_seed(92)
    for _ in range(2000):
        x = random_point(rng, man)
        v = random_tangent(rng, man, x) * 10.0 ** rng.integers(-8, 2)
        nrm = math.sqrt(math.fsum(c * c for c in v.tolist()))
        y = math.cos(nrm) * x + math.sin(nrm) * (v / nrm)
        assert man.exp(x, v).tobytes() == (y / norm(y)).tobytes()


# products of two such floats stay below 1e300, so no partial sum overflows
FINITE = st.floats(-1e150, 1e150)


@st.composite
def _vector_pairs(draw):
    """Two vectors of length 1-8 and a permutation of their coordinates.
    Half of the draws repeat the first half of the coordinates with one side
    negated, so the products cancel."""
    n = draw(st.integers(1, 8))
    x = draw(st.lists(FINITE, min_size=n, max_size=n))
    y = draw(st.lists(FINITE, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        half = n // 2
        x[half:2 * half] = x[:half]
        y[half:2 * half] = [-b * draw(st.sampled_from([1.0, 1.0 + 2.0 ** -52]))
                            for b in y[:half]]
    return np.array(x), np.array(y), draw(st.permutations(range(n)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_vector_pairs())
def test_dot_is_the_correctly_rounded_sum_of_the_products(case):
    x, y, order = case
    got = dot(x, y)
    assert got == float(sum((Fraction(a * b) for a, b in zip(x.tolist(), y.tolist())),
                            Fraction(0)))
    assert dot(x[order], y[order]) == got
    assert dot(y, x) == got
    assert norm(x) == math.sqrt(dot(x, x))


# m * 2**e with |m| <= 2**26: every product fits in 53 bits, so the correctly
# rounded sum of the products is the exact inner product rounded once
EXACT = st.builds(lambda m, e: math.ldexp(m, e),
                  st.integers(-2 ** 26, 2 ** 26), st.integers(-60, 60))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.tuples(EXACT, EXACT), min_size=1, max_size=8))
@example([(2.0 ** 60, 1.0), (1.0, 1.0), (-(2.0 ** 60), 1.0)])  # summed in order: 0.0
def test_dot_with_exact_products_is_the_exact_inner_product(pairs):
    x, y = np.array(pairs).T
    exact = sum((Fraction(a) * Fraction(b) for a, b in pairs), Fraction(0))
    assert dot(x, y) == float(exact)


def test_dot_keeps_ieee_infinities_where_fsum_raises():
    # fsum raises OverflowError on a partial sum past the largest float,
    # even when the exact sum is finite, and ValueError on inf - inf
    huge = np.array([1.3e154, 1.3e154, 0.0])
    assert dot(huge, huge) == math.inf and norm(huge) == math.inf
    assert dot(np.array([1e308, 1e308, -1e308]), np.ones(3)) == math.inf
    assert math.isnan(dot(np.array([math.inf, -math.inf]), np.ones(2)))
    assert math.isnan(dot(np.array([math.nan, 1.0]), np.ones(2)))
