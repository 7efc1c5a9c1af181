import json

import numpy as np
import pytest

from hierot import euclidean, sphere
from hierot.errors import SchemaError
from hierot.plans import plan_norm, plans_structurally_equal, w_mu
from hierot.sampling import random_measure, random_plan, rng_from_seed
from hierot.serialization import (dumps, load_measure, load_plan,
                                  measure_from_obj, measure_to_obj,
                                  plan_from_obj, plan_to_obj, save_measure,
                                  save_plan)
from hierot.wasserstein import w2


def test_measure_roundtrip_bit_exact(tmp_path):
    rng = rng_from_seed(1)
    for man in (euclidean(2), sphere(3)):
        for level in (0, 1, 2, 3):
            mu = random_measure(rng, man, level, 3)
            path = tmp_path / f"m{man.kind}{level}.json"
            save_measure(mu, path)
            back = load_measure(path)
            assert back.structural_key() == mu.structural_key()
            if level >= 1:
                assert w2(mu, back) == 0.0


def test_roundtrip_is_byte_stable(tmp_path):
    rng = rng_from_seed(2)
    mu = random_measure(rng, euclidean(2), 2, 3)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_measure(mu, p1)
    save_measure(load_measure(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_plan_roundtrip(tmp_path):
    rng = rng_from_seed(3)
    for man in (euclidean(2), sphere(3)):
        mu = random_measure(rng, man, 2, 3)
        g = random_plan(rng, mu, 1.0)
        path = tmp_path / "plan.json"
        save_plan(g, path)
        back = load_plan(path)
        assert plans_structurally_equal(g, back, 0.0)
        assert w_mu(g, back) <= 1e-12
        assert plan_norm(back) == plan_norm(g)


def test_schema_errors():
    with pytest.raises(SchemaError):
        measure_from_obj({"level": 1})
    with pytest.raises(SchemaError):
        measure_from_obj({"manifold": {"kind": "torus", "ambient_dim": 2},
                          "level": 0, "measure": {"point": [0, 0]}})
    with pytest.raises(SchemaError):
        measure_from_obj({"manifold": {"kind": "euclidean", "ambient_dim": 1},
                          "level": 1,
                          "measure": {"weights": [0.5, 0.6],
                                      "atoms": [{"point": [0.0]},
                                                {"point": [1.0]}]}})
    with pytest.raises(SchemaError):
        measure_from_obj({"manifold": {"kind": "euclidean", "ambient_dim": 1},
                          "level": 1, "measure": {"weights": [], "atoms": []}})
    for weights in ([float("nan"), 0.5], [float("-inf"), 1.0], ["half", 0.5],
                    [[0.5], 0.5]):
        with pytest.raises(SchemaError):
            measure_from_obj({"manifold": {"kind": "euclidean", "ambient_dim": 1},
                              "level": 1,
                              "measure": {"weights": weights,
                                          "atoms": [{"point": [0.0]},
                                                    {"point": [1.0]}]}})


def test_plan_schema_fiber_alignment():
    man = euclidean(1)
    obj = {"manifold": {"kind": "euclidean", "ambient_dim": 1},
           "level": 1,
           "base": {"weights": [1.0], "atoms": [{"point": [0.0]}]},
           "plan": {"fibers": []}}
    with pytest.raises(SchemaError):
        plan_from_obj(obj)


def test_plan_json_references_base_atoms():
    man = euclidean(1)
    mu_obj = {"weights": [0.5, 0.5],
              "atoms": [{"point": [0.0]}, {"point": [2.0]}]}
    obj = {"manifold": {"kind": "euclidean", "ambient_dim": 1},
           "level": 1, "base": mu_obj,
           "plan": {"fibers": [
               [{"weight": 0.5, "plan": {"tangent": [1.0]}}],
               [{"weight": 0.25, "plan": {"tangent": [0.0]}},
                {"weight": 0.25, "plan": {"tangent": [-1.0]}}]]}}
    g = plan_from_obj(obj)
    assert g.level == 1
    assert len(g.fibers[1]) == 2
    rt = plan_from_obj(json.loads(dumps(plan_to_obj(g))))
    assert plans_structurally_equal(g, rt, 0.0)


def test_sphere_points_renormalized_on_ingestion():
    obj = {"manifold": {"kind": "sphere", "ambient_dim": 3},
           "level": 0,
           "measure": {"point": [1.0 + 1e-8, 0.0, 0.0]}}
    mu = measure_from_obj(obj)
    assert abs(np.linalg.norm(mu.point) - 1.0) <= 1e-15
    bad = {"manifold": {"kind": "sphere", "ambient_dim": 3},
           "level": 0, "measure": {"point": [2.0, 0.0, 0.0]}}
    with pytest.raises(Exception):
        measure_from_obj(bad)


def test_measure_to_obj_shape():
    mu = random_measure(rng_from_seed(4), euclidean(2), 2, 2)
    obj = measure_to_obj(mu)
    assert set(obj) == {"manifold", "level", "measure"}
    node = obj["measure"]
    assert "weights" in node and "atoms" in node


def deep_document(depth):
    # json.dumps cannot encode this deep a document, so it is built as text
    return ('{"manifold": {"kind": "euclidean", "ambient_dim": 1}, "level": %d, '
            '"measure": ' % depth + '{"weights": [1.0], "atoms": [' * depth
            + '{"point": [0.0]}' + ']}' * depth + '}')


def test_deep_document_is_a_schema_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(deep_document(1500))
    with pytest.raises(SchemaError, match="nested too deeply"):
        load_measure(path)
    with pytest.raises(SchemaError, match="nested too deeply"):
        load_plan(path)


@pytest.mark.parametrize("level", [5, 400, -1])
def test_level_out_of_range_rejected_before_any_node(level):
    # the node is garbage: only the level check can name the error
    doc = {"manifold": {"kind": "euclidean", "ambient_dim": 1}, "level": level,
           "measure": {"weights": [1.0], "atoms": [5]}}
    with pytest.raises(SchemaError, match=f"level {level} outside"):
        measure_from_obj(doc)
    plan_doc = {"manifold": doc["manifold"], "level": level,
                "base": doc["measure"], "plan": {}}
    with pytest.raises(SchemaError, match=f"level {level} outside"):
        plan_from_obj(plan_doc)


def test_parsable_deep_document_stopped_by_its_level():
    doc = json.loads(deep_document(400))
    with pytest.raises(SchemaError, match="level 400 outside"):
        measure_from_obj(doc)


@pytest.mark.parametrize("plan,message", [
    ({"fibers": [5]}, "a fiber must be a list"),
    ({"fibers": [[{"weight": 1.0, "plan": {"tangent": "abc"}}]]},
     "tangent is not numeric"),
    ({"fibers": [[{"weight": float("nan"), "plan": {"tangent": [0.0]}}]]},
     "fiber weights must be finite"),
    ({"fibers": [[{"weight": 1.0}]]}, "must be an object with a plan"),
    ({"fibers": [[{"weight": 2.0, "plan": {"tangent": [1.0]}},
                  {"weight": -1.0, "plan": {"tangent": [5.0]}}]]},
     "must be positive"),
    ({"fibers": [[{"weight": 0.5, "plan": {"tangent": [1.0]}}]]},
     "fiber weights at atom 0 sum to 0.5, expected 1.0"),
])
def test_load_plan_malformed_fibers_and_tangents(tmp_path, plan, message):
    doc = {"manifold": {"kind": "euclidean", "ambient_dim": 1}, "level": 1,
           "base": {"weights": [1.0], "atoms": [{"point": [0.0]}]},
           "plan": plan}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=message):
        load_plan(path)


def one_atom_documents():
    """A level-1 measure document and a plan document on the same base."""
    base = {"weights": [1.0], "atoms": [{"point": [0.5]}]}
    man = {"kind": "euclidean", "ambient_dim": 1}
    return ({"manifold": man, "level": 1, "measure": base},
            {"manifold": man, "level": 1, "base": base,
             "plan": {"fibers": [[{"weight": 1.0, "plan": {"tangent": [0.25]}}]]}})


@pytest.mark.parametrize("value", [1.7, 1.0, "1", True, None])
def test_level_must_be_a_json_integer(value):
    for parse, doc in zip((measure_from_obj, plan_from_obj), one_atom_documents()):
        assert parse(doc).level == 1
        doc["level"] = value
        with pytest.raises(SchemaError, match="level must be an integer"):
            parse(doc)


@pytest.mark.parametrize("value", [1.7, "1", True])
def test_ambient_dim_must_be_a_json_integer(value):
    for parse, doc in zip((measure_from_obj, plan_from_obj), one_atom_documents()):
        doc["manifold"] = {"kind": "euclidean", "ambient_dim": value}
        with pytest.raises(SchemaError, match="ambient_dim must be an integer"):
            parse(doc)


@pytest.mark.parametrize("where,message", [
    ("point", "point coordinates must be numbers"),
    ("tangent", "tangent coordinates must be numbers"),
    ("weight", "node weights must be numbers"),
    ("fiber", "fiber weights must be numbers"),
])
def test_bool_numbers_rejected(where, message):
    # numpy and float() read true as 1.0, so each of these would load
    measure, plan = one_atom_documents()
    if where == "point":
        measure["measure"]["atoms"][0]["point"] = [True]
    elif where == "weight":
        measure["measure"]["weights"] = [True]
    else:
        entry = plan["plan"]["fibers"][0][0]
        if where == "tangent":
            entry["plan"]["tangent"] = [False]
        else:
            entry["weight"] = True
    doc = measure if where in ("point", "weight") else plan
    parse = measure_from_obj if doc is measure else plan_from_obj
    with pytest.raises(SchemaError, match=message):
        parse(doc)


def test_dumps_names_non_finite_floats():
    obj = {"b": [float("nan"), float("inf"), -float("inf"), 0.5], "a": (1e308,)}
    assert dumps(obj) == '{"a":[1e+308],"b":["NaN","Infinity","-Infinity",0.5]}\n'
    assert dumps({"x": 0.1}) == json.dumps({"x": 0.1}, separators=(",", ":")) + "\n"
