"""Quick self-tests of the benchmark's own code (about ten seconds).

    python3 perfbench/selftest.py

Checks the oracle against closed forms, the tracer's span accounting, and
the input generator.  Exits 1 if any test fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import PER_LAYER, Tracer, per_layer_metrics  # noqa: E402


def lift(point, levels: int) -> dict:
    nd = {"point": list(point)}
    for _ in range(levels):
        nd = {"weights": [1.0], "atoms": [nd]}
    return nd


# ---------------------------------------------------------------------------
# oracle


def test_dirac_lift_isometry():
    rng = np.random.default_rng(0)
    for manifold in wl.MANIFOLDS:
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        if manifold == "sphere":
            x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        d2 = oracle.ground_sq(manifold, x, y)
        for level in (1, 2, 3):
            got = oracle.w2_sq(manifold, level, lift(x, level), lift(y, level))
            assert abs(got - d2) <= 1e-12 * (1 + d2), (manifold, level, got, d2)


def test_readme_sqrt2_example():
    pt = lambda v: {"point": [float(v)]}  # noqa: E731
    p = {"weights": [0.5, 0.5], "atoms": [{"weights": [1.0], "atoms": [pt(0)]},
                                          {"weights": [1.0], "atoms": [pt(2)]}]}
    q = {"weights": [1.0], "atoms": [{"weights": [0.5, 0.5], "atoms": [pt(0), pt(2)]}]}
    assert abs(math.sqrt(oracle.w2_sq("euclidean", 2, p, q)) - math.sqrt(2.0)) <= 1e-12


def test_sorted_matching_1d():
    rng = np.random.default_rng(1)
    n = 9
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    cloud = lambda v: {"weights": [1.0 / n] * n,  # noqa: E731
                       "atoms": [{"point": [float(t)]} for t in v]}
    expected = float(np.mean((np.sort(x) - np.sort(y)) ** 2))
    assert abs(oracle.w2_sq("euclidean", 1, cloud(x), cloud(y)) - expected) <= 1e-12


def test_sphere_distance_is_the_angle():
    assert abs(oracle.ground_sq("sphere", [1, 0, 0], [0, 1, 0]) - (math.pi / 2) ** 2) <= 1e-15
    assert abs(oracle.ground_sq("sphere", [1, 0, 0], [-1, 0, 0]) - math.pi ** 2) <= 1e-15


# ---------------------------------------------------------------------------
# inputs


def test_inputs_repeat_per_seed_and_differ_per_op():
    with tempfile.TemporaryDirectory() as tmp:
        a = wl.make_op("distance-nested", 3, 5, Path(tmp) / "x")
        b = wl.make_op("distance-nested", 3, 5, Path(tmp) / "y")
        c = wl.make_op("distance-nested", 3, 6, Path(tmp) / "x")
        assert a.data == b.data
        assert a.data["a"] != c.data["a"] and a.manifold != c.manifold
        for op in (a, c):
            doc = json.loads(Path(op.argv[1]).read_text())
            assert doc["level"] == 2
            assert len(doc["measure"]["atoms"]) == wl.NESTED_ATOMS
            assert all(len(t["atoms"]) == wl.NESTED_ATOMS for t in doc["measure"]["atoms"])
    seeds = [op.data["seed"] for op in wl.check_ops(15)]
    assert len(set(seeds)) == len(seeds) and wl.CHECK_WARMUP[1] not in seeds


# ---------------------------------------------------------------------------
# tracer and oracle on real commands


def _nested_op(tmp: Path, index: int):
    # a fresh index per test: the program's memo outlives a command
    return wl.make_op("distance-nested", 11, index, tmp)


def _run(main, argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(argv)
    return rc, out.getvalue()


def test_oracle_accepts_and_rejects():
    import hierot.cli
    with tempfile.TemporaryDirectory() as tmp:
        op = _nested_op(Path(tmp), 0)
        rc, out = _run(hierot.cli.main, op.argv)
        oracle.check(op, rc, out)
        wrong = json.loads(out)
        wrong["w2"] *= 1.0 + 1e-6
        try:
            oracle.check(op, rc, json.dumps(wrong))
        except oracle.CheckFailed:
            pass
        else:
            raise AssertionError("a wrong distance passed the oracle")
        doc = json.loads(Path(op.outputs["plan"]).read_text())
        leaf = doc["plan"]["fibers"][0][0]["plan"]["fibers"][0][0]["plan"]
        leaf["tangent"][0] += 1e-6
        Path(op.outputs["plan"]).write_text(json.dumps(doc))
        try:
            oracle.check(op, rc, out)
        except oracle.CheckFailed:
            pass
        else:
            raise AssertionError("a plan that misses its target passed the oracle")


def test_spans_nest_and_self_times_add_up():
    import hierot.cli
    import hierot.wasserstein
    original = hierot.wasserstein.w2
    tracer = Tracer(keep_spans=True).install()
    try:
        assert hierot.cli.w2 is not original
        with tempfile.TemporaryDirectory() as tmp:
            op = _nested_op(Path(tmp), 1)
            start = time.perf_counter()
            rc, _ = _run(lambda argv: tracer.op_span(lambda: hierot.cli.main(argv)), op.argv)
            outside = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert rc == 0
    assert hierot.cli.w2 is original and hierot.wasserstein.w2 is original

    spans = {sid: (name, start, end, parent) for sid, name, _, start, end, parent in tracer.spans}
    roots = [s for s in spans.values() if s[3] is None]
    assert len(roots) == 1 and roots[0][0] == "command"
    for name, start, end, parent in spans.values():
        assert start <= end
        if parent is not None:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
    root_time = roots[0][2] - roots[0][1]
    # layers only: keys with a dot are size classes inside exact_ot
    total_self = sum(t for layer, t in tracer.self_s.items() if "." not in layer)
    assert abs(total_self - root_time) <= 1e-9 * max(1.0, len(spans)), (total_self, root_time)
    assert root_time <= outside

    metrics = per_layer_metrics(tracer, 1, 0)
    assert list(metrics) == list(PER_LAYER)
    assert metrics["exact_ot.calls"]["value"] > 64
    assert metrics["wasserstein.cost_entries"]["value"] == 3 * wl.NESTED_ATOMS ** 2
    assert metrics["geodesics.ovp_calls"]["value"] == 1


def test_missing_function_is_skipped():
    import hierot.cli
    import hierot.exact_ot
    saved = hierot.exact_ot.verify_optimality
    del hierot.exact_ot.verify_optimality
    try:
        tracer = Tracer().install()
        tracer.uninstall()
    finally:
        hierot.exact_ot.verify_optimality = saved
    assert "hierot.exact_ot.verify_optimality" in tracer.skipped
    assert "hierot.exact_ot.solve_ot" not in tracer.skipped


def main() -> int:
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
