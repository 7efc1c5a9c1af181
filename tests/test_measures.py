import numpy as np
import pytest

from hierot import euclidean, sphere
from hierot.errors import InvalidInput, LevelMismatch, NonUnitMass, SchemaError
from hierot.measures import (HierMeasure, base_support, canonicalize, collapse,
                             dirac, dirac_lift, eval_unrolled, mixture,
                             n_expectancy, push_leaf, unroll, validate,
                             w2_to_dirac)
from hierot.sampling import random_measure, rng_from_seed
from hierot.serialization import measure_from_obj

E1 = euclidean(1)


def pt(x):
    return dirac(E1, [float(x)])


def two_level_example():
    # P = 1/2 delta_{delta_0} + 1/2 delta_{delta_2}
    return mixture((0.5, 0.5), [mixture((1.0,), [pt(0)]),
                                mixture((1.0,), [pt(2)])])


def test_validate_ok():
    issue = validate(two_level_example())
    assert issue is None


def test_validate_non_unit_mass():
    bad = HierMeasure(E1, 1, weights=(0.5, 0.6), atoms=(pt(0), pt(1)))
    issue = validate(bad)
    assert issue is not None and issue.code == "NonUnitMass"


@pytest.mark.parametrize("weights", [(1.0, 0.0), (1.5, -0.5)])
def test_validate_non_positive_weight_is_a_positivity_fault(weights):
    # both lists sum to 1.0: the fault is the sign, not the mass
    bad = HierMeasure(E1, 1, weights=weights, atoms=(pt(0), pt(1)))
    issue = validate(bad)
    assert issue.code == "NonUnitMass" and "strictly positive" in issue.message


@pytest.mark.parametrize("weights,ok", [([0.5, 0.5000000005], True),
                                        ([0.5, 0.4999999995], True),
                                        ([0.5, 0.500000002], False)])
def test_one_weight_rule_for_mixture_validate_and_the_reader(weights, ok):
    # a sum 5e-10 off one is inside the 1e-9 bound for all three; 2e-9 is not
    doc = {"manifold": {"kind": "euclidean", "ambient_dim": 1}, "level": 1,
           "measure": {"weights": weights,
                       "atoms": [{"point": [0.0]}, {"point": [1.0]}]}}
    direct = HierMeasure(E1, 1, weights=tuple(weights), atoms=(pt(0), pt(1)))
    if ok:
        mixture(weights, [pt(0), pt(1)])
        assert validate(measure_from_obj(doc)) is None
        assert validate(direct) is None
        return
    with pytest.raises(NonUnitMass, match="weights sum to"):
        mixture(weights, [pt(0), pt(1)])
    with pytest.raises(SchemaError, match="node weights sum to"):
        measure_from_obj(doc)
    issue = validate(direct)
    assert issue.code == "NonUnitMass" and "weights sum to" in issue.message


def test_validate_bad_sphere_point():
    s = sphere(3)
    bad_leaf = HierMeasure(s, 0, point=np.array([2.0, 0.0, 0.0]))
    bad = HierMeasure(s, 1, weights=(1.0,), atoms=(bad_leaf,))
    issue = validate(bad)
    assert issue is not None and issue.code == "InvalidPoint"
    assert "atom[0]" in issue.path


@pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weights_rejected(w):
    with pytest.raises(InvalidInput):
        mixture((w, 0.5), [pt(0), pt(1)])
    bad = HierMeasure(E1, 1, weights=(w, 0.5), atoms=(pt(0), pt(1)))
    issue = validate(bad)
    assert issue is not None and issue.code == "InvalidInput"


@pytest.mark.parametrize("level,fields", [
    (0, {}), (0, {"point": np.zeros(1), "weights": (1.0,)}),
    (1, {"weights": (1.0,)}), (1, {"weights": (0.5, 0.5), "atoms": (pt(0),)}),
    (1, {"atoms": (pt(0),)})],
    ids=["no_point", "point_and_weights", "no_atoms", "more_weights",
         "no_weights"])
def test_malformed_node_is_invalid_input(level, fields):
    with pytest.raises(InvalidInput):
        HierMeasure(E1, level, **fields)


def test_validate_level_mismatch_path():
    bad = HierMeasure(E1, 2, weights=(1.0,), atoms=(pt(0),))
    issue = validate(bad)
    assert issue is not None and issue.code == "LevelMismatch"


def test_dirac_lift():
    mu = dirac_lift(E1, [1.5], 0)
    assert mu.level == 0 and mu.point[0] == 1.5
    mu2 = dirac_lift(E1, [1.5], 2)
    assert mu2.level == 2
    assert mu2.weights == (1.0,)
    assert mu2.atoms[0].weights == (1.0,)
    assert mu2.atoms[0].atoms[0].point[0] == 1.5


def test_dirac_lift_pushforward_naturality():
    mu = dirac_lift(E1, [1.0], 3)
    shifted = push_leaf(mu, lambda x: x + 2.0)
    expected = dirac_lift(E1, [3.0], 3)
    assert canonicalize(shifted).structural_key() == canonicalize(expected).structural_key()


def test_push_leaf_identity_and_translate():
    mu = two_level_example()
    same = push_leaf(mu, lambda x: x)
    assert canonicalize(same).structural_key() == canonicalize(mu).structural_key()
    moved = push_leaf(mu, lambda x: x + 1.0)
    assert moved.atoms[0].atoms[0].point[0] == 1.0
    assert moved.atoms[1].atoms[0].point[0] == 3.0


def test_collapse_level2():
    flat = collapse(two_level_example())
    assert flat.level == 1
    assert flat.weights == (0.5, 0.5)
    assert [a.point[0] for a in flat.atoms] == [0.0, 2.0]


def test_collapse_dirac_lift():
    flat = collapse(dirac_lift(E1, [4.0], 3))
    assert flat.level == 1 and flat.weights == (1.0,)
    assert flat.atoms[0].point[0] == 4.0


def test_collapse_equal_for_different_trees():
    # P and Q differ as level-2 measures but share the collapsed view
    p = two_level_example()
    q = mixture((1.0,), [mixture((0.5, 0.5), [pt(0), pt(2)])])
    cp = canonicalize(collapse(p))
    cq = canonicalize(collapse(q))
    assert cp.structural_key() == cq.structural_key()
    assert canonicalize(p).structural_key() != canonicalize(q).structural_key()


def test_collapse_level_error():
    with pytest.raises(LevelMismatch):
        collapse(pt(0))


def test_n_expectancy_constants_and_moments():
    mu = two_level_example()
    assert n_expectancy(mu, lambda x: 1.0) == pytest.approx(1.0, abs=1e-15)
    assert n_expectancy(mu, lambda x: float(x[0] ** 2)) == pytest.approx(2.0)
    flat = mixture((0.5, 0.5), [pt(0), pt(2)])
    assert n_expectancy(flat, lambda x: float(x[0] ** 2)) == pytest.approx(2.0)


def test_n_expectancy_matches_unrolled_exactly():
    rng = rng_from_seed(21)
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2, 3):
            for _ in range(10):
                mu = random_measure(rng, man, level, 3)
                a = rng.standard_normal(man.ambient_dim)
                f = lambda x: float(np.dot(a, x)) + 0.25
                assert n_expectancy(mu, f) == eval_unrolled(mu, f)


def test_base_support():
    assert len(base_support(dirac_lift(E1, [1.0], 2)).points) == 1
    sup = base_support(two_level_example())
    vals = sorted(p[0] for p in sup.points)
    assert vals == [0.0, 2.0]
    dup = mixture((0.5, 0.5), [pt(1), pt(1)])
    assert len(base_support(dup).points) == 1


def test_unroll():
    rows = unroll(dirac_lift(E1, [1.0], 2)).rows
    assert len(rows) == 1
    assert rows[0].weight == 1.0
    assert len(rows[0].path) == 1
    assert rows[0].leaf[0] == 1.0

    # 2 x 2 uniform nested measure: four rows of weight 1/4
    inner1 = mixture((0.5, 0.5), [pt(0), pt(1)])
    inner2 = mixture((0.5, 0.5), [pt(2), pt(3)])
    mu = mixture((0.5, 0.5), [inner1, inner2])
    rows = unroll(mu).rows
    assert len(rows) == 4
    assert all(r.weight == pytest.approx(0.25) for r in rows)
    # leaf marginal of the unrolling equals the collapse
    flat = collapse(mu)
    assert [r.leaf[0] for r in rows] == [a.point[0] for a in flat.atoms]
    assert [r.weight for r in rows] == list(flat.weights)
    # marginal on the first variable reproduces the top weights
    first = {}
    for r in rows:
        first[id(r.path[0])] = first.get(id(r.path[0]), 0.0) + r.weight
    assert sorted(first.values()) == [pytest.approx(0.5)] * 2


def test_w2_to_dirac():
    mu = dirac_lift(E1, [3.0], 2)
    assert w2_to_dirac(mu, [1.0]) == pytest.approx(2.0)
    flat = mixture((0.5, 0.5), [pt(0), pt(2)])
    assert w2_to_dirac(flat, [0.0]) == pytest.approx(np.sqrt(2.0))


def test_holder_and_minkowski_random():
    rng = rng_from_seed(13)
    for man in (euclidean(2), sphere(3)):
        for level in (1, 2, 3):
            for _ in range(15):
                mu = random_measure(rng, man, level, 3)
                a = rng.standard_normal(man.ambient_dim)
                b = rng.standard_normal(man.ambient_dim)
                f = lambda x: float(np.dot(a, x)) + 0.3
                g = lambda x: float(np.dot(b, x)) - 0.1
                ef2 = n_expectancy(mu, lambda x: f(x) ** 2)
                eg2 = n_expectancy(mu, lambda x: g(x) ** 2)
                assert (n_expectancy(mu, lambda x: abs(f(x) * g(x)))
                        <= np.sqrt(ef2) * np.sqrt(eg2) + 1e-9)
                esum = n_expectancy(mu, lambda x: (f(x) + g(x)) ** 2)
                assert np.sqrt(esum) <= np.sqrt(ef2) + np.sqrt(eg2) + 1e-9


def test_canonicalize_merges_and_sorts():
    mu = mixture((0.25, 0.25, 0.5), [pt(2), pt(2), pt(0)])
    canon = canonicalize(mu)
    assert len(canon.atoms) == 2
    assert canon.atoms[0].point[0] == 0.0
    assert canon.weights[1] == pytest.approx(0.5)


def test_mixture_rejects_mixed_levels():
    with pytest.raises(LevelMismatch):
        mixture((0.5, 0.5), [pt(0), mixture((1.0,), [pt(1)])])
