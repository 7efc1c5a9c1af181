"""Independent checks of every benchmark operation's outputs.

Nothing here calls ``hierot``.  Distances are recomputed by recursive
optimal transport solved with scipy's HiGHS ``linprog``; a uniform square
problem is solved a second time with ``linear_sum_assignment``.  The sphere
distance is ``arctan2(|x cross y|, x . y)``, not the program's chord formula.
Measures and plans are the JSON-ready node trees of ``workloads``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

# |program - oracle| on squared distances and functional values, relative to
# 1 + |value|: HiGHS stops at a vertex whose objective is exact to rounding,
# far inside this
VALUE_TOL = 1e-8
# exp of a leaf tangent must land on a target point to this distance
POINT_TOL = 1e-9
# weights re-added along a plan or a marginal
WEIGHT_TOL = 1e-12


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# geometry


def pairwise_sq(manifold: str, xs, ys) -> np.ndarray:
    """Squared ground distances between two stacks of points (rows)."""
    xs = np.asarray(xs, dtype=float)[:, None, :]
    ys = np.asarray(ys, dtype=float)[None, :, :]
    if manifold == "euclidean":
        return ((xs - ys) ** 2).sum(axis=2)
    ang = np.arctan2(np.linalg.norm(np.cross(xs, ys), axis=2), (xs * ys).sum(axis=2))
    return ang * ang


def ground_sq(manifold: str, x, y) -> float:
    return float(pairwise_sq(manifold, [x], [y])[0, 0])


def exp_map(manifold: str, x, v) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if manifold == "euclidean":
        return x + v
    n = float(np.linalg.norm(v))
    if n == 0.0:
        return x
    return math.cos(n) * x + math.sin(n) * (v / n)


# ---------------------------------------------------------------------------
# optimal transport


def ot_values(problems) -> list:
    """Optimal costs of independent transport problems ``(c, a, b)``.

    All of them are solved as one HiGHS LP: the problems share no variable,
    so each block of an optimal solution is optimal for its own problem.
    A uniform square problem is solved again as an assignment, and both
    answers must agree.
    """
    rows, cols, rhs, costs = [], [], [], []
    n_rows = n_vars = 0
    for c, a, b in problems:
        m, k = c.shape
        i, j = np.divmod(np.arange(m * k), k)
        var = n_vars + np.arange(m * k)
        rows += [n_rows + i, n_rows + m + j]
        cols += [var, var]
        rhs += [a, b]
        costs.append(c.ravel())
        n_rows += m + k
        n_vars += m * k
    a_eq = sparse.csr_matrix((np.ones(2 * n_vars), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(n_rows, n_vars))
    res = linprog(np.concatenate(costs), A_eq=a_eq, b_eq=np.concatenate(rhs),
                  bounds=(0, None), method="highs")
    require(res.status == 0, f"HiGHS failed: {res.message}")
    values = []
    start = 0
    for c, a, b in problems:
        value = float(c.ravel() @ res.x[start:start + c.size])
        start += c.size
        if c.shape[0] == c.shape[1] and np.all(a == a[0]) and np.all(b == a[0]):
            r, q = linear_sum_assignment(c)
            assigned = float(c[r, q].mean())
            require(abs(assigned - value) <= VALUE_TOL * (1.0 + abs(value)),
                    f"HiGHS {value!r} and assignment {assigned!r} disagree")
        values.append(value)
    return values


def cost_matrix(manifold: str, level: int, p: dict, q: dict) -> np.ndarray:
    """Squared level ``level - 1`` distances between the atoms of two nodes."""
    if level == 1:
        return pairwise_sq(manifold, [x["point"] for x in p["atoms"]],
                           [y["point"] for y in q["atoms"]])
    problems = [(cost_matrix(manifold, level - 1, x, y),
                 np.asarray(x["weights"]), np.asarray(y["weights"]))
                for x in p["atoms"] for y in q["atoms"]]
    return np.array(ot_values(problems)).reshape(len(p["atoms"]), len(q["atoms"]))


def w2_sq(manifold: str, level: int, p: dict, q: dict) -> float:
    """Nested squared W2 between two measure nodes of the same level."""
    if level == 0:
        return ground_sq(manifold, p["point"], q["point"])
    c = cost_matrix(manifold, level, p, q)
    return ot_values([(c, np.asarray(p["weights"]), np.asarray(q["weights"]))])[0]


def close(value: float, reference: float, what: str) -> None:
    require(abs(value - reference) <= VALUE_TOL * (1.0 + abs(reference)),
            f"{what}: program {value!r}, oracle {reference!r}")


# ---------------------------------------------------------------------------
# plans


def plan_norm_sq(level: int, plan: dict) -> float:
    if level == 0:
        v = np.asarray(plan["tangent"], dtype=float)
        return float(v @ v)
    return sum(e["weight"] * plan_norm_sq(level - 1, e["plan"])
               for fiber in plan["fibers"] for e in fiber)


def check_fibers(level: int, base: dict, plan: dict) -> None:
    """Every fiber is non-empty and its weights add up to its base weight."""
    if level == 0:
        require(len(plan["tangent"]) == len(base["point"]), "tangent dimension")
        return
    require(len(plan["fibers"]) == len(base["atoms"]), "one fiber per base atom")
    for w, atom, fiber in zip(base["weights"], base["atoms"], plan["fibers"]):
        require(len(fiber) > 0, "empty fiber")
        total = math.fsum(e["weight"] for e in fiber)
        require(abs(total - w) <= WEIGHT_TOL, f"fiber weights {total!r} != {w!r}")
        for e in fiber:
            check_fibers(level - 1, atom, e["plan"])


def push(manifold: str, level: int, base: dict, plan: dict) -> dict:
    """Shoot every leaf of ``plan`` along its tangent: the measure it reaches."""
    if level == 0:
        return {"point": exp_map(manifold, base["point"], plan["tangent"])}
    weights, atoms = [], []
    for atom, fiber in zip(base["atoms"], plan["fibers"]):
        for e in fiber:
            weights.append(e["weight"])
            atoms.append(push(manifold, level - 1, atom, e["plan"]))
    return {"weights": weights, "atoms": atoms}


def _match_points(pushed: dict, target: dict) -> np.ndarray:
    """Weights ``pushed`` puts on each point of the level-1 ``target``."""
    pts = np.array([a["point"] for a in target["atoms"]], dtype=float)
    mass = np.zeros(len(pts))
    for w, atom in zip(pushed["weights"], pushed["atoms"]):
        d = np.linalg.norm(pts - atom["point"], axis=1)
        j = int(np.argmin(d))
        require(d[j] <= POINT_TOL, f"a pushed leaf lands {d[j]:.3g} from the target")
        mass[j] += w
    return mass


def lands_on(level: int, pushed: dict, target: dict) -> None:
    """``pushed`` is ``target`` as a measure: every pushed atom is one of the
    target's atoms, and each target atom receives exactly its weight."""
    if level == 1:
        mass = _match_points(pushed, target)
    elif level == 2:
        # the target's leaves are distinct, so one leaf names its inner measure
        mass = np.zeros(len(target["atoms"]))
        owner = [j for j, t in enumerate(target["atoms"]) for _ in t["atoms"]]
        all_pts = np.array([a["point"] for t in target["atoms"] for a in t["atoms"]],
                           dtype=float)
        for w, atom in zip(pushed["weights"], pushed["atoms"]):
            d = np.linalg.norm(all_pts - atom["atoms"][0]["point"], axis=1)
            j = owner[int(np.argmin(d))]
            inner = _match_points(atom, target["atoms"][j])
            require(np.abs(inner - np.asarray(target["atoms"][j]["weights"])).max()
                    <= WEIGHT_TOL, "a pushed inner measure misses its target's weights")
            mass[j] += w
    else:
        raise ValueError("lands_on handles levels 1 and 2")
    require(np.abs(mass - np.asarray(target["weights"])).max() <= WEIGHT_TOL,
            "the pushed plan misses the target's weights")


# ---------------------------------------------------------------------------
# per-command checks


def check_distance(op, rc: int, stdout: str) -> None:
    require(rc == 0, f"exit code {rc}")
    out = json.loads(stdout)
    man, level = op.manifold, op.data["level"]
    a, b = op.data["a"], op.data["b"]
    w2 = float(out["w2"])
    ref_sq = w2_sq(man, level, a, b)
    close(w2 * w2, ref_sq, "w2^2")

    summary = out["plan_summary"]
    require(summary["level"] == level, "plan_summary level")
    close(summary["value_sq"], ref_sq, "plan_summary value_sq")
    require(summary["value"] == w2, "plan_summary value differs from w2")
    x = np.zeros((len(a["atoms"]), len(b["atoms"])))
    for i, j, w in summary["top_support"]:
        require(w > 0.0, "non-positive support weight")
        x[i, j] += w
    require(np.abs(x.sum(axis=1) - a["weights"]).max() <= 1e-9, "top plan row sums")
    require(np.abs(x.sum(axis=0) - b["weights"]).max() <= 1e-9, "top plan column sums")

    doc = json.loads(Path(op.outputs["plan"]).read_text())
    require(doc["level"] == level and doc["manifold"]["kind"] == man, "plan header")
    require(doc["base"] == a, "plan base differs from the first input")
    plan = doc["plan"]
    check_fibers(level, a, plan)
    close(plan_norm_sq(level, plan), ref_sq, "plan norm^2")
    lands_on(level, push(man, level, a, plan), b)


def functional_value(op, measure: dict) -> float:
    """Quadratic potential plus half the squared distance to the target."""
    center = np.asarray(op.data["center"])

    def expect(level, nd, weight):
        if level == 0:
            d = np.asarray(nd["point"]) - center
            return weight * 0.5 * float(d @ d)
        return math.fsum(expect(level - 1, a, weight * w)
                         for w, a in zip(nd["weights"], nd["atoms"]))

    return expect(2, measure, 1.0) + 0.5 * w2_sq(op.manifold, 2, measure, op.data["target"])


def check_flow(op, rc: int, stdout: str) -> None:
    require(rc == 0, f"exit code {rc}")
    out = json.loads(stdout)
    require(out["iters"] == int(op.argv[op.argv.index("--iters") + 1]), "iters")
    init_value = functional_value(op, op.data["init"])
    close(out["initial_value"], init_value, "initial_value")
    final = json.loads(Path(op.outputs["final"]).read_text())
    require(final["level"] == 2 and final["manifold"]["kind"] == op.manifold,
            "final measure header")
    close(out["final_value"], functional_value(op, final["measure"]), "final_value")
    require(out["final_value"] <= out["initial_value"], "the flow went uphill")

    rows = Path(op.outputs["trace"]).read_text().splitlines()
    require(rows[0] == "step,value,step_norm", "trace header")
    require(len(rows) == out["iters"] + 2, "one trace row per step")
    first, last = rows[1].split(","), rows[-1].split(",")
    require(float(first[1]) == out["initial_value"], "trace starts at initial_value")
    require(float(last[1]) == out["final_value"], "trace ends at final_value")
    require(all(float(r.split(",")[2]) >= 0.0 for r in rows[1:]), "negative step norm")


def check_check(op, rc: int, stdout: str) -> None:
    require(rc == 0, f"exit code {rc}")
    report = json.loads(stdout)
    require(report["passed"] is True, "report not passed")
    require(report["seed"] == op.data["seed"], "report seed")
    suites = report["suites"]
    require(op.data["suite"] in ("all", *suites) and len(suites) > 0,
            "the report lacks the suite asked for")
    for name, suite in suites.items():
        require(len(suite["properties"]) > 0, f"suite {name} is empty")
        for prop in suite["properties"]:
            require(prop["passed"] is True, f"{prop['name']} failed")


CHECKS = {"distance": check_distance, "flow": check_flow, "check": check_check}


def check(op, rc: int, stdout: str) -> None:
    CHECKS[op.kind](op, rc, stdout)
