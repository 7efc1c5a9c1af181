import itertools
import json
import math

import numpy as np
import pytest

from hierot import euclidean, sphere
from hierot.cli import main
from hierot.errors import DeskScaleError, LevelMismatch
from hierot.exact_ot import MASS_TOL, WEIGHT_DROP, solve_ot
from hierot.manifolds import Manifold
from hierot.measures import (canonicalize, collapse, dirac, dirac_lift,
                             mixture, push_leaf)
from hierot.geodesics import optimal_velocity_plan
from hierot.plans import plans_structurally_equal, validate_plan
from hierot.sampling import (random_measure, random_point, rng_from_seed,
                             stick_weights)
from hierot.serialization import (MAX_ATOMS, measure_from_obj,
                                  measure_to_obj, save_measure)
from hierot.wasserstein import (_velocity, cost_matrix, measures_close,
                                transport, w2, w2_sq)

E1 = euclidean(1)


def pt(x):
    return dirac(E1, [float(x)])


def level2_pair():
    p = mixture((0.5, 0.5), [mixture((1.0,), [pt(0)]),
                             mixture((1.0,), [pt(2)])])
    q = mixture((1.0,), [mixture((0.5, 0.5), [pt(0), pt(2)])])
    return p, q


def test_dirac_lift_isometry():
    for man in (euclidean(2), sphere(3)):
        rng = rng_from_seed(4)
        for level in (1, 2, 3):
            x = random_point(rng, man)
            y = random_point(rng, man)
            lifted = w2(dirac_lift(man, x, level), dirac_lift(man, y, level))
            assert abs(lifted - man.dist(x, y)) <= 1e-10


def test_level2_value_by_enumeration():
    # inner costs W2^2(delta_0, nu) = W2^2(delta_2, nu) = 2 enumerated over
    # the two matchings; the single top column forces the 1/2-1/2 split
    p, q = level2_pair()
    inner_costs = []
    for leaf in (0.0, 2.0):
        best = min(0.5 * (leaf - 0.0) ** 2 + 0.5 * (leaf - 2.0) ** 2
                   for _ in itertools.permutations(range(2)))
        inner_costs.append(best)
    assert inner_costs == [2.0, 2.0]
    expected_sq = 0.5 * inner_costs[0] + 0.5 * inner_costs[1]
    assert w2_sq(p, q) == pytest.approx(expected_sq, abs=1e-12)
    assert w2(p, q) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_w2_self_and_symmetry():
    p, q = level2_pair()
    assert w2(p, p) == 0.0
    assert w2(p, q) == w2(q, p)


def test_level_mismatch_is_an_error():
    p, _ = level2_pair()
    with pytest.raises(LevelMismatch):
        w2(p, collapse(p))


def cli_plan_summary(p, q, tmp_path, capsys):
    pa, qa = tmp_path / "p.json", tmp_path / "q.json"
    save_measure(p, pa)
    save_measure(q, qa)
    assert main(["distance", str(pa), str(qa)]) == 0
    return json.loads(capsys.readouterr().out)["plan_summary"]


def top_matrix(summary, shape):
    x = np.zeros(shape)
    for i, j, w in summary["top_support"]:
        x[i, j] = w
    return x


def test_top_plan_structure(tmp_path, capsys):
    p, q = level2_pair()
    summary = cli_plan_summary(p, q, tmp_path, capsys)
    assert summary["level"] == 2
    assert summary["value"] == pytest.approx(np.sqrt(2.0))
    # the single atom of q takes half of each of p's atoms
    assert np.allclose(top_matrix(summary, (2, 1)), [[0.5], [0.5]])
    children = [e.plan for fiber in optimal_velocity_plan(p, q).fibers
                for e in fiber]
    assert len(children) == 2
    for child in children:
        assert child.level == 1


def test_top_plan_dirac_to_dirac(tmp_path, capsys):
    a = dirac_lift(E1, [0.0], 2)
    b = dirac_lift(E1, [3.0], 2)
    summary = cli_plan_summary(a, b, tmp_path, capsys)
    assert top_matrix(summary, (1, 1))[0, 0] == pytest.approx(1.0)
    assert summary["value"] == pytest.approx(3.0)


def test_plan_value_matches_permutation_oracle():
    from hierot.exact_ot import permutation_oracle
    rng = rng_from_seed(9)
    man = euclidean(2)
    for _ in range(20):
        xs = [random_point(rng, man) for _ in range(3)]
        ys = [random_point(rng, man) for _ in range(3)]
        a = mixture((1 / 3, 1 / 3, 1 / 3), [dirac(man, x) for x in xs])
        b = mixture((1 / 3, 1 / 3, 1 / 3), [dirac(man, y) for y in ys])
        c = np.array([[np.dot(x - y, x - y) for y in ys] for x in xs])
        assert w2_sq(a, b) == pytest.approx(permutation_oracle(c), abs=1e-10)


def test_cost_matrix_symmetry_and_cache():
    p, q = level2_pair()
    c1 = cost_matrix(p, q)
    c2 = cost_matrix(q, p)
    assert np.array_equal(c1, c2.T)
    assert np.all(np.diag(cost_matrix(p, p)) == 0.0)
    # cache hit: bit-identical entries
    c3 = cost_matrix(p, q)
    assert np.array_equal(c1, c3)


def test_metric_axioms_random():
    rng = rng_from_seed(31)
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2, 3):
            for _ in range(12):
                a = random_measure(rng, man, level, 3)
                b = random_measure(rng, man, level, 3)
                c = random_measure(rng, man, level, 3)
                assert abs(w2(a, b) - w2(b, a)) <= 1e-10
                assert w2(a, c) <= w2(a, b) + w2(b, c) + 1e-8
                assert w2(a, a) <= 1e-12


def test_collapse_lower_bound_random():
    rng = rng_from_seed(17)
    for man in (euclidean(2), sphere(3)):
        for level in (2, 3):
            for _ in range(10):
                a = random_measure(rng, man, level, 3)
                b = random_measure(rng, man, level, 3)
                assert w2(collapse(a), collapse(b)) <= w2(a, b) + 1e-9


def test_zero_distance_implies_canonical_equality():
    p, _ = level2_pair()
    # same measure written with a split atom
    q = mixture((0.25, 0.25, 0.5),
                [p.atoms[0], p.atoms[0], p.atoms[1]])
    assert w2(p, q) <= 1e-12
    assert measures_close(p, q)
    assert (canonicalize(p).structural_key()
            == canonicalize(q).structural_key())


def test_desk_scale_guard():
    # the reader refuses a node above MAX_ATOMS atoms at any depth; the
    # library limits nothing it builds
    def uniform(n):
        return mixture(tuple(1 / n for _ in range(n)), [pt(i) for i in range(n)])

    big = uniform(40)
    assert w2(big, big) == 0.0
    inside = mixture((1.0,), [uniform(MAX_ATOMS)])
    assert w2(measure_from_obj(measure_to_obj(inside)), inside) == 0.0
    with pytest.raises(DeskScaleError, match="33 atoms in a node"):
        measure_from_obj(measure_to_obj(mixture((1.0,), [uniform(33)])))


MANIFOLDS = pytest.mark.parametrize(
    "man", [euclidean(1), euclidean(3), sphere(3)],
    ids=["euclidean1", "euclidean3", "sphere3"])


def _own_leaves(atom):
    """The leaf rows of one atom: its point at level 0, else its stack."""
    return atom.point[None] if atom.level == 0 else atom.leaf_stack()[0]


def _check_leaf_table(man, level):
    # atoms of 1 to 9 leaves (one each at level 1): the stack holds the
    # atoms' leaves in order at their offsets, read-only and cached, and
    # every block of one table over all the leaves is the atom pair's own
    # pairwise_sq_dist, bit for bit
    rng = rng_from_seed(23)
    for _ in range(6):
        a = random_measure(rng, man, level, 9)
        b = random_measure(rng, man, level, 9)
        xs, rows = a.leaf_stack()
        ys, cols = b.leaf_stack()
        assert not xs.flags.writeable and a.leaf_stack()[0] is xs
        assert a.leaf_stack()[1] is rows and rows[0] == 0
        assert rows[-1] == len(xs) and cols[-1] == len(ys)
        for i, ai in enumerate(a.atoms):
            assert xs[rows[i]:rows[i + 1]].tobytes() == _own_leaves(ai).tobytes()
        table = man.pairwise_sq_dist(xs, ys)
        for i, ai in enumerate(a.atoms):
            for j, bj in enumerate(b.atoms):
                block = table[rows[i]:rows[i + 1], cols[j]:cols[j + 1]]
                own = man.pairwise_sq_dist(_own_leaves(ai), _own_leaves(bj))
                assert block.tobytes() == own.tobytes()


@MANIFOLDS
def test_level1_leaf_table_blocks_match_pairwise(man):
    _check_leaf_table(man, 1)


@MANIFOLDS
def test_level2_leaf_table_blocks_match_pairwise(man):
    _check_leaf_table(man, 2)


PAIRWISE = Manifold.pairwise_sq_dist


def _check_pairwise_calls(monkeypatch, man, level, solve):
    # a level-1 or level-2 pair makes one table over all its leaves; a
    # level-3 pair one per cost entry, over that level-2 pair's leaves only
    calls = []

    def counted(self, xs, ys):
        calls.append((len(xs), len(ys)))
        return PAIRWISE(self, xs, ys)

    monkeypatch.setattr(Manifold, "pairwise_sq_dist", counted)
    rng = rng_from_seed(29)
    a = random_measure(rng, man, level, 3 if level == 3 else 5)
    b = random_measure(rng, man, level, 3 if level == 3 else 5)
    solve(a, b)
    pairs = [(a, b)] if level < 3 else [(x, y) for x in a.atoms for y in b.atoms]
    assert calls == [(len(x.leaf_stack()[0]), len(y.leaf_stack()[0]))
                     for x, y in pairs]
    assert len(calls) == (9 if level == 3 else 1)


PAIR_MANIFOLDS = pytest.mark.parametrize("man", [euclidean(3), sphere(3)],
                                         ids=["euclidean", "sphere"])


@PAIR_MANIFOLDS
def test_level2_distance_makes_one_pairwise_call(monkeypatch, man):
    for solve in (w2_sq, transport):
        _check_pairwise_calls(monkeypatch, man, 2, solve)


@PAIR_MANIFOLDS
@pytest.mark.parametrize("solve", [w2_sq, transport], ids=["w2_sq", "transport"])
@pytest.mark.parametrize("level", [1, 3])
def test_pairwise_calls_per_level2_pair(monkeypatch, man, level, solve):
    _check_pairwise_calls(monkeypatch, man, level, solve)


def test_distance_does_not_depend_on_call_history():
    # a pair whose two orientations differ in the last bit: each call solves
    # its own orientation, whatever was asked before it
    rng = rng_from_seed(1)
    a = random_measure(rng, euclidean(2), 2, 4)
    b = random_measure(rng, euclidean(2), 2, 4)
    ab = w2(a, b)
    ba = w2(b, a)
    assert ab != ba and ab == pytest.approx(ba, rel=1e-15)
    assert w2(a, b) == ab and w2(b, a) == ba
    assert transport(a, b).value_sq == w2_sq(a, b)


def test_cost_entries_come_from_their_own_orientation():
    # the (1, 1) entry pairs Y with X, and the (0, 0) entry X with Y, whose
    # value differs from it in the last bit
    rng = rng_from_seed(4)
    X = random_measure(rng, euclidean(2), 1, 3)
    Y = random_measure(rng, euclidean(2), 1, 3)
    a = mixture((0.5, 0.5), [X, Y])
    b = mixture((0.5, 0.5), [Y, X])
    assert w2_sq(X, Y) != w2_sq(Y, X)
    assert cost_matrix(a, b)[1][1] == w2_sq(Y, X)


E2 = euclidean(2)
TINY = (0.999999999999999, 1e-15)  # the second weight is below WEIGHT_DROP


def test_weight_below_weight_drop_keeps_its_fiber():
    # the core solves the tiny atom's row with the others: it ships its
    # weight to (2, 2), whose reduced cost 5 - (-3) - 8 is zero, and its
    # fiber is that one entry
    assert TINY[1] < WEIGHT_DROP
    a = mixture(TINY, [dirac(E2, [0.0, 0.0]), dirac(E2, [1.0, 0.0])])
    b = mixture((0.5, 0.5), [dirac(E2, [0.0, 1.0]), dirac(E2, [2.0, 2.0])])
    result = transport(a, b)
    assert result.top[1] == [0.0, TINY[1]]
    gamma = result.velocity
    validate_plan(gamma)
    entry, = gamma.fibers[1]
    assert entry.weight == TINY[1]
    assert entry.plan.tangent.tolist() == [1.0, 2.0]


def test_weight_below_weight_drop_solves_its_child():
    # at level 2 the tiny atom's child is the level-1 plan of its own pair
    rng = rng_from_seed(3)
    atoms = [random_measure(rng, E2, 1, 3) for _ in range(4)]
    a = mixture(TINY, atoms[:2])
    b = mixture((0.5, 0.5), atoms[2:])
    result = transport(a, b)
    j = int(np.argmax(result.top[1]))
    gamma = result.velocity
    validate_plan(gamma)
    entry, = gamma.fibers[1]
    assert entry.weight == TINY[1]
    assert plans_structurally_equal(
        entry.plan, transport(atoms[1], b.atoms[j]).velocity, 0.0)


def test_weight_below_weight_drop_may_go_to_a_tiny_column():
    # nu's first atom is below WEIGHT_DROP too, and the core solves both
    # with the rest: the tiny atom ships its whole weight to the tiny target
    # at distance 1, on a cell whose reduced cost 1 - (-25) - 26 is zero
    a = mixture(TINY, [dirac(E2, [0.0, 0.0]), dirac(E2, [5.0, 0.0])])
    b = mixture(TINY[::-1], [dirac(E2, [5.0, 1.0]), dirac(E2, [1.0, 0.0])])
    c = cost_matrix(a, b)
    _, duals, _ = solve_ot(c, a.weights, b.weights)
    assert c[1, 0] - duals.phi[1] - duals.psi[0] == 0.0
    gamma = transport(a, b).velocity
    validate_plan(gamma)
    entry, = gamma.fibers[1]
    assert entry.weight == TINY[1]
    assert entry.plan.tangent.tolist() == [0.0, 1.0]


def test_velocity_sliver_complement_is_correctly_rounded():
    # a solve by hand: the plan row has a sliver below WEIGHT_DROP that is
    # dropped; the largest kept entry becomes the atom's weight less the
    # others, one fsum (1 - 0.1 - 0.2 - 0.3 is 0.4 correctly rounded, and
    # 0.3999999999999999 with the others added in order first), so the
    # fiber's fsum is the atom's weight
    row = np.array([[0.1, 0.2, 0.3, 0.4, 1e-18]])
    assert row[0, -1] < WEIGHT_DROP
    mu = mixture((1.0,), [pt(0)])
    nu = mixture(tuple(row[0]), [pt(j) for j in range(5)])
    solve = (0.0, row.tolist(), {})
    fiber, = _velocity(mu, nu, solve).fibers
    assert [e.weight for e in fiber] == [0.1, 0.2, 0.3, 0.4]
    assert math.fsum(e.weight for e in fiber) == 1.0
    assert [e.plan.tangent[0] for e in fiber] == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("s", [1e-3, 1e-7, 1e-12, 1e-100, 1e100])
@pytest.mark.parametrize("level", [1, 2])
def test_w2_scales_with_the_points(level, s):
    # every tolerance of the solve scales with the largest cost, so a pair
    # whose points are scaled by s solves as the pair itself does
    for seed in range(5):
        rng = rng_from_seed(300 + seed)
        mu, nu = (random_measure(rng, E2, level, 5) for _ in range(2))
        scaled = (push_leaf(m, lambda p: s * p) for m in (mu, nu))
        assert w2(*scaled) / s == pytest.approx(w2(mu, nu), rel=1e-14)


def test_transport_takes_the_mass_the_node_rule_accepts():
    # both sides weigh 1 + 9e-10, which check_weights accepts: the core
    # solves and polishes on those marginals as given, so the plan carries
    # their mass
    rng = rng_from_seed(77)

    def measure(n):
        w = tuple(v * (1.0 + 9e-10) for v in stick_weights(rng, n))
        return mixture(w, [dirac(E2, p) for p in rng.standard_normal((n, 2))])

    for _ in range(200):
        m, k = (int(n) for n in rng.integers(2, 9, size=2))
        mu, nu = measure(m), measure(k)
        result = transport(mu, nu)
        validate_plan(result.velocity)
        assert result.value_sq == w2_sq(mu, nu)


# twelve weights that the node rule accepts, exact sum 1 + 0.99999986e-9,
# whose sum in numpy's order, 1 + 1.00000008e-9, is just past MASS_TOL
EDGE_WEIGHTS = (0.11190485225201423, 0.05219954231770593, 0.09561495543600212,
                0.11560571712137083, 0.08781299133380266, 0.07600569163980186,
                0.10318221875676957, 0.09733929795181631, 0.06569215529384695,
                0.07906639548874628, 0.10115099133018884, 0.014425192077934348)


def test_core_accepts_the_mass_the_node_rule_accepts():
    assert float(np.sum(EDGE_WEIGHTS)) - 1.0 > MASS_TOL
    mu = mixture(EDGE_WEIGHTS, [pt(i) for i in range(12)])
    nu = mixture((1.0,), [pt(2.5)])
    want = math.fsum(w * (i - 2.5) ** 2 for i, w in enumerate(EDGE_WEIGHTS))
    for a, b in ((mu, nu), (nu, mu)):
        assert w2_sq(a, b) == pytest.approx(want, rel=MASS_TOL)
