"""Fuzzed JSON ingestion: any value at any position of a measure or plan
document is either accepted or rejected with a ``HierotError``; no other
exception may escape."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierot import euclidean, sphere
from hierot.errors import HierotError, SchemaError
from hierot.sampling import random_measure, random_plan, rng_from_seed
from hierot.serialization import (measure_from_obj, measure_to_obj,
                                  plan_from_obj, plan_to_obj)

KEYS = ("manifold", "kind", "ambient_dim", "level", "measure", "weights",
        "atoms", "point", "base", "plan", "fibers", "weight", "tangent")

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([10 ** 400, -10 ** 400, 2 ** 64, -1, 0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4))

JSON_VALUES = st.recursive(
    SCALARS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3),
                                    kids, max_size=4)),
    max_leaves=8)


def _documents():
    rng = rng_from_seed(41)
    docs = []
    for man in (euclidean(2), sphere(3)):
        mu = random_measure(rng, man, 2, 2)
        docs.append((measure_from_obj, measure_to_obj(mu)))
        docs.append((plan_from_obj, plan_to_obj(random_plan(rng, mu, 0.5, 2))))
    # round-trip through JSON text so every container is a plain list/dict
    return [(parse, json.loads(json.dumps(doc))) for parse, doc in docs]


DOCUMENTS = _documents()


def _paths(node, prefix=()):
    """Every position in a document: the root, each value, each element."""
    yield prefix
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_ingestion_returns_or_raises_hierot_error(data):
    parse, doc = data.draw(st.sampled_from(DOCUMENTS))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    bad = _replaced(doc, path, data.draw(JSON_VALUES))
    try:
        parse(bad)
    except HierotError:
        pass


E1 = {"kind": "euclidean", "ambient_dim": 1}


@pytest.mark.parametrize("parse,doc", [
    (measure_from_obj, {"manifold": E1, "level": 1, "measure": {
        "weights": [1e308, 1e308], "atoms": [{"point": [0.0]}, {"point": [1.0]}]}}),
    (plan_from_obj, {"manifold": E1, "level": 1,
                     "base": {"weights": [1.0], "atoms": [{"point": [0.0]}]},
                     "plan": {"fibers": [
                         [{"weight": 1e308, "plan": {"tangent": [0.0]}}] * 2]}}),
], ids=["node", "fiber"])
def test_overflowing_weight_sum_is_off_its_mass(parse, doc):
    # finite weights whose exact sum overflows math.fsum: the weight rules
    # read the sum as infinite, so the document is refused for its mass
    with pytest.raises(SchemaError, match="sum to inf"):
        parse(doc)
