"""JSON wire formats for measures, velocity plans, and functional specs.

Measure documents look like::

    {"manifold": {"kind": "euclidean", "ambient_dim": 2},
     "level": 2,
     "measure": {"weights": [0.5, 0.5],
                 "atoms": [{"weights": [1.0], "atoms": [{"point": [0.0, 0.0]}]},
                           {"weights": [1.0], "atoms": [{"point": [2.0, 0.0]}]}]}}

Velocity-plan documents extend the scheme with ``"tangent"`` at the leaves
and ``"fibers"`` at internal nodes; ``fibers[i]`` lists the weighted
sub-plans attached to base atom ``i``.  Floats are emitted with ``repr``
(shortest round-trip), so write-then-read is bit-exact.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import DeskScaleError, InvalidInput, NonUnitMass, SchemaError
from .functionals import (DistanceTerm, FunctionalSpec, Potential,
                          PotentialTerm, make_linear_ambient, make_quadratic)
from .manifolds import Manifold, euclidean, sphere
from .measures import HierMeasure, check_weights
from .plans import FiberEntry, VelocityPlan, check_fiber

# the scale a document may have; the library limits nothing it builds
MAX_LEVEL = 4
MAX_ATOMS = 32  # atoms in one node


def _manifold_to_obj(man: Manifold) -> dict:
    return {"kind": man.kind, "ambient_dim": man.ambient_dim}


def _json_int(value, what: str) -> int:
    # int() would read 1.7, "2" and true as integers
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def _no_bools(values, what: str):
    """``values`` as given, unless it is a list holding a JSON true/false,
    which ``float`` and numpy would read as 1.0/0.0."""
    if isinstance(values, list) and any(isinstance(v, bool) for v in values):
        raise SchemaError(f"{what} must be numbers, got {values!r}")
    return values


def _manifold_from_obj(obj) -> Manifold:
    try:
        kind = obj["kind"]
        dim = _json_int(obj["ambient_dim"], "ambient_dim")
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad manifold object: {exc}") from exc
    if kind == "euclidean":
        return euclidean(dim)
    if kind == "sphere":
        return sphere(dim)
    raise SchemaError(f"unknown manifold kind {kind!r}")


def _node_to_obj(mu: HierMeasure) -> dict:
    if mu.level == 0:
        return {"point": [float(c) for c in mu.point]}
    return {"weights": [float(w) for w in mu.weights],
            "atoms": [_node_to_obj(a) for a in mu.atoms]}


def measure_to_obj(mu: HierMeasure) -> dict:
    return {"manifold": _manifold_to_obj(mu.manifold),
            "level": mu.level,
            "measure": _node_to_obj(mu)}


def _finite_numbers(values, what: str) -> list:
    if not isinstance(values, list):
        raise SchemaError(f"{what} must be a list, got {type(values).__name__}")
    try:
        out = [float(v) for v in _no_bools(values, what)]
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{what} must be numbers: {exc}") from exc
    if not all(math.isfinite(v) for v in out):
        raise SchemaError(f"{what} must be finite, got {out}")
    return out


def _node_from_obj(obj, man: Manifold, level: int) -> HierMeasure:
    # the top call rejects a level out of range before recursing once per level
    if not 0 <= level <= MAX_LEVEL:
        raise SchemaError(f"level {level} outside the supported 0..{MAX_LEVEL}")
    if not isinstance(obj, dict):
        raise SchemaError("measure node must be an object")
    if level == 0:
        if "point" not in obj:
            raise SchemaError("level-0 node must carry a point")
        point = _no_bools(obj["point"], "point coordinates")
        return HierMeasure(man, 0, point=man.check_point(point))
    if "weights" not in obj or "atoms" not in obj:
        raise SchemaError("interior node must carry weights and atoms")
    weights = _finite_numbers(obj["weights"], "node weights")
    atoms = obj["atoms"]
    if not isinstance(atoms, list):
        raise SchemaError(f"node atoms must be a list, got {type(atoms).__name__}")
    if len(atoms) > MAX_ATOMS:
        raise DeskScaleError(
            f"{len(atoms)} atoms in a node exceeds the supported {MAX_ATOMS}")
    if len(weights) != len(atoms) or not atoms:
        raise SchemaError("weights and atoms must be non-empty and aligned")
    try:
        check_weights(weights)
    except (InvalidInput, NonUnitMass) as exc:
        raise SchemaError(f"node {exc}") from exc
    return HierMeasure(man, level, weights=tuple(weights),
                       atoms=tuple(_node_from_obj(a, man, level - 1) for a in atoms))


def load_json(path):
    """A JSON document from a file; unreadable or malformed is a SchemaError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"cannot read {path}: nested too deeply") from None


def measure_from_obj(obj) -> HierMeasure:
    if not isinstance(obj, dict):
        raise SchemaError("document must be a JSON object")
    try:
        man = _manifold_from_obj(obj["manifold"])
        level = _json_int(obj["level"], "level")
        node = obj["measure"]
    except KeyError as exc:
        raise SchemaError(f"bad measure document: {exc}") from exc
    return _node_from_obj(node, man, level)


def dumps(obj) -> str:
    """Strict JSON text of ``obj``, sorted keys, no spaces, one line.

    A non-finite float is written as the string ``"NaN"``, ``"Infinity"``
    or ``"-Infinity"``; JSON has no token for it.
    """
    try:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError:  # a non-finite float: spell it out and write again
        text = json.dumps(_finite_or_named(obj), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)
    return text + "\n"


def _finite_or_named(obj):
    """``obj`` with every non-finite float replaced by its name."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {key: _finite_or_named(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_named(value) for value in obj]
    return obj


def save_measure(mu: HierMeasure, path) -> None:
    Path(path).write_text(dumps(measure_to_obj(mu)))


def load_measure(path) -> HierMeasure:
    return measure_from_obj(load_json(path))


# ---------------------------------------------------------------------------
# velocity plans


def _plan_node_to_obj(gamma: VelocityPlan):
    if gamma.level == 0:
        return {"tangent": [float(c) for c in gamma.tangent]}
    return {"fibers": [[{"weight": float(e.weight),
                         "plan": _plan_node_to_obj(e.plan)} for e in fiber]
                       for fiber in gamma.fibers]}


def plan_to_obj(gamma: VelocityPlan) -> dict:
    return {"manifold": _manifold_to_obj(gamma.manifold),
            "level": gamma.level,
            "base": _node_to_obj(gamma.base),
            "plan": _plan_node_to_obj(gamma)}


def _plan_node_from_obj(obj, base: HierMeasure) -> VelocityPlan:
    if not isinstance(obj, dict):
        raise SchemaError("plan node must be an object")
    if base.level == 0:
        if "tangent" not in obj:
            raise SchemaError("leaf plan node must carry a tangent")
        try:
            vec = base.manifold.check_tangent(
                base.point, _no_bools(obj["tangent"], "tangent coordinates"))
        except InvalidInput as exc:
            raise SchemaError(f"bad leaf tangent: {exc}") from exc
        return VelocityPlan(base=base, tangent=vec)
    fibers_obj = obj.get("fibers")
    if not isinstance(fibers_obj, list) or len(fibers_obj) != len(base.atoms):
        raise SchemaError("fibers must align with the base atoms")
    fibers = []
    for i, (mass, atom, fiber_obj) in enumerate(zip(base.weights, base.atoms,
                                                     fibers_obj)):
        if not isinstance(fiber_obj, list):
            raise SchemaError(f"a fiber must be a list, got {type(fiber_obj).__name__}")
        entries = []
        for e in fiber_obj:
            if not isinstance(e, dict) or "plan" not in e:
                raise SchemaError("a fiber entry must be an object with a plan")
            w, = _finite_numbers([e.get("weight")], "fiber weights")
            entries.append(FiberEntry(w, _plan_node_from_obj(e["plan"], atom)))
        try:
            check_fiber([e.weight for e in entries], mass, i)
        except InvalidInput as exc:
            raise SchemaError(str(exc)) from exc
        fibers.append(tuple(entries))
    return VelocityPlan(base=base, fibers=tuple(fibers))


def plan_from_obj(obj) -> VelocityPlan:
    if not isinstance(obj, dict):
        raise SchemaError("document must be a JSON object")
    try:
        man = _manifold_from_obj(obj["manifold"])
        level = _json_int(obj["level"], "level")
        base = _node_from_obj(obj["base"], man, level)
        node = obj["plan"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad plan document: {exc}") from exc
    return _plan_node_from_obj(node, base)


def save_plan(gamma: VelocityPlan, path) -> None:
    Path(path).write_text(dumps(plan_to_obj(gamma)))


def load_plan(path) -> VelocityPlan:
    return plan_from_obj(load_json(path))


# ---------------------------------------------------------------------------
# functional specs


# name -> (constructor, the key of its vector parameter in a spec's params)
POTENTIALS = {
    "quadratic": (make_quadratic, "center"),
    "linear_ambient": (make_linear_ambient, "direction"),
}


def make_potential(name: str, manifold: Manifold, params) -> Potential:
    """The potential ``name`` built from a spec's JSON ``params`` (or None)."""
    if name not in POTENTIALS:
        raise InvalidInput(f"unknown potential {name!r}")
    make, key = POTENTIALS[name]
    if not isinstance(params, dict) or key not in params:
        raise SchemaError(
            f"potential {name!r} needs params with the key {key!r}, got {params!r}")
    return make(manifold, _finite_numbers(params[key], f"potential parameter {key!r}"))


def functional_spec_from_obj(obj, manifold: Manifold, level: int):
    """Build a FunctionalSpec from its JSON form.

    Terms: ``{"type": "potential", "name": ..., "params": {...}, "weight": w}``
    or ``{"type": "half_w2_sq", "target": <measure doc or path>, "weight": w}``.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise SchemaError("functional spec must carry a terms list")
    terms = []
    for t in obj["terms"]:
        if not isinstance(t, dict):
            raise SchemaError(f"spec term must be an object, got {t!r}")
        kind = t.get("type")
        weight, = _finite_numbers([t.get("weight", 1.0)], "term weights")
        if kind == "potential":
            name = t.get("name")
            if not isinstance(name, str):
                raise SchemaError(f"potential term must carry a name, got {name!r}")
            pot = make_potential(name, manifold, t.get("params"))
            terms.append(PotentialTerm(pot, weight))
        elif kind == "half_w2_sq":
            target = t.get("target")
            if isinstance(target, str):
                mu = load_measure(target)
            else:
                mu = measure_from_obj(target)
            if mu.level != level or mu.manifold != manifold:
                raise SchemaError("distance target has a different level/manifold")
            terms.append(DistanceTerm(mu, weight))
        else:
            raise SchemaError(f"unknown term type {kind!r}")
    return FunctionalSpec(tuple(terms))


def format_float(x: float) -> str:
    """17 significant digits (always round-trips for printing CSVs)."""
    return f"{float(x):.17g}"
