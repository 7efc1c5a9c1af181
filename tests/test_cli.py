import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hierot import euclidean, sphere
from hierot.cli import main
from hierot.measures import dirac, dirac_lift, mixture
from hierot.sampling import random_measure, rng_from_seed
from hierot.serialization import (load_measure, load_plan, measure_to_obj,
                                  save_measure)
from test_checks import negate_transport
from test_wasserstein import EDGE_WEIGHTS

E1 = euclidean(1)
S3 = sphere(3)


def write_level2_pair(tmp_path):
    pt = lambda x: dirac(E1, [float(x)])
    p = mixture((0.5, 0.5), [mixture((1.0,), [pt(0)]),
                             mixture((1.0,), [pt(2)])])
    q = mixture((1.0,), [mixture((0.5, 0.5), [pt(0), pt(2)])])
    pa = tmp_path / "p.json"
    qa = tmp_path / "q.json"
    save_measure(p, pa)
    save_measure(q, qa)
    return pa, qa


def test_distance_level2(tmp_path, capsys):
    pa, qa = write_level2_pair(tmp_path)
    plan_file = tmp_path / "plan.json"
    code = main(["distance", str(pa), str(qa), "--plan", str(plan_file)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["w2"] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert out["plan_summary"]["top_support_size"] == 2
    g = load_plan(plan_file)
    assert g.level == 2


def test_distance_plan_round_trip_with_weight_below_weight_drop(tmp_path, capsys):
    # the 1e-15 atom's fiber, one entry of its whole weight, must reach the
    # plan file, which the reader then accepts
    E2 = euclidean(2)
    a = mixture((0.999999999999999, 1e-15),
                [dirac(E2, [0.0, 0.0]), dirac(E2, [1.0, 0.0])])
    b = mixture((0.5, 0.5), [dirac(E2, [0.0, 1.0]), dirac(E2, [2.0, 2.0])])
    pa, pb, plan_file = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "p.json"
    save_measure(a, pa)
    save_measure(b, pb)
    assert main(["distance", str(pa), str(pb), "--plan", str(plan_file)]) == 0
    capsys.readouterr()
    gamma = load_plan(plan_file)
    assert [len(fiber) for fiber in gamma.fibers] == [2, 1]
    assert gamma.fibers[1][0].weight == 1e-15


@pytest.mark.parametrize("stem,solves", [("wide", 1), ("nested", 64 + 1)])
def test_distance_solves_each_problem_once(tmp_path, capsys, monkeypatch,
                                           stem, solves):
    # level 1, 16 x 16: the top problem alone; level 2, 8 x 8 with distinct
    # inner clouds: one solve per cost entry, then the top problem, with
    # the plan's children taken from the cost entries' solves
    import hierot.wasserstein as wasserstein
    calls = []
    solve = wasserstein._solve_lists

    def counted(*args, **kwargs):
        calls.append((len(args[0]), len(args[0][0])))
        return solve(*args, **kwargs)

    monkeypatch.setattr(wasserstein, "_solve_lists", counted)
    inputs = Path(__file__).with_name("golden") / "inputs"
    assert main(["distance", str(inputs / f"{stem}_euclidean_a.json"),
                 str(inputs / f"{stem}_euclidean_b.json"),
                 "--plan", str(tmp_path / "plan.json")]) == 0
    capsys.readouterr()
    assert len(calls) == solves


def test_distance_identical_files(tmp_path, capsys):
    pa, _ = write_level2_pair(tmp_path)
    code = main(["distance", str(pa), str(pa)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["w2"] == 0.0


def test_distance_dirac_poles(tmp_path, capsys):
    a = tmp_path / "n.json"
    b = tmp_path / "s.json"
    save_measure(dirac_lift(S3, [0.0, 0.0, 1.0], 1), a)
    save_measure(dirac_lift(S3, [0.0, 0.0, -1.0], 1), b)
    code = main(["distance", str(a), str(b)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["w2"] == pytest.approx(np.pi, abs=1e-10)


def test_distance_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    good, _ = write_level2_pair(tmp_path)
    assert main(["distance", str(bad), str(good)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("w", [float("nan"), float("inf")])
def test_distance_non_finite_weight_exit_code(tmp_path, capsys, w):
    doc = {"manifold": {"kind": "euclidean", "ambient_dim": 1}, "level": 1,
           "measure": {"weights": [w, 0.5],
                       "atoms": [{"point": [0.0]}, {"point": [1.0]}]}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good = tmp_path / "good.json"
    save_measure(mixture((1.0,), [dirac(E1, [0.0])]), good)
    assert main(["distance", str(bad), str(good)]) == 2
    assert "finite" in capsys.readouterr().err


def test_distance_overflowing_weight_sum_exit_code(tmp_path, capsys):
    # finite weights whose exact sum overflows are off the unit mass
    doc = {"manifold": {"kind": "euclidean", "ambient_dim": 1}, "level": 1,
           "measure": {"weights": [1e308, 1e308],
                       "atoms": [{"point": [0.0]}, {"point": [1.0]}]}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good = tmp_path / "good.json"
    save_measure(mixture((1.0,), [dirac(E1, [0.0])]), good)
    assert main(["distance", str(bad), str(good)]) == 2
    assert capsys.readouterr().err == "error: node weights sum to inf\n"


def test_distance_accepts_the_mass_the_node_rule_accepts(tmp_path, capsys):
    # weights whose exact sum is within 1e-9 of one, but not their sum in
    # numpy's order: the reader accepts them, so the solve must too
    edge, one = tmp_path / "edge.json", tmp_path / "one.json"
    save_measure(mixture(EDGE_WEIGHTS, [dirac(E1, [float(i)])
                                        for i in range(12)]), edge)
    save_measure(mixture((1.0,), [dirac(E1, [2.5])]), one)
    assert main(["distance", str(edge), str(one)]) == 0
    assert main(["distance", str(one), str(edge)]) == 0
    assert capsys.readouterr().err == ""


def test_malformed_max_atoms_exit_code(tmp_path, capsys, monkeypatch):
    pa, qa = write_level2_pair(tmp_path)
    monkeypatch.setenv("HIEROT_MAX_ATOMS", "abc")
    assert main(["distance", str(pa), str(qa)]) == 2
    assert "HIEROT_MAX_ATOMS" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_non_positive_max_atoms_exit_code(tmp_path, capsys, monkeypatch, raw):
    # a budget below one atom would reject every measure with a confusing
    # "exceeds the budget" message instead of naming the variable
    pa, qa = write_level2_pair(tmp_path)
    monkeypatch.setenv("HIEROT_MAX_ATOMS", raw)
    assert main(["distance", str(pa), str(qa)]) == 2
    err = capsys.readouterr().err
    assert "HIEROT_MAX_ATOMS" in err and "positive" in err


def test_uncertified_plan_exit_code(tmp_path, capsys, monkeypatch):
    # a solver failure is a check failure (exit 4), not a validation error
    import hierot.exact_ot as exact_ot
    monkeypatch.setattr(exact_ot, "_certified", lambda *args: False)
    pa, qa = write_level2_pair(tmp_path)
    assert main(["distance", str(pa), str(qa)]) == 4
    assert "solver returned an uncertified plan" in capsys.readouterr().err


def test_distance_of_a_measure_to_itself_at_small_scale(tmp_path, capsys):
    # one measure with its atoms listed in both orders: the costs are 0 and
    # 9e-14, below what an absolute tolerance floor would resolve
    atoms = [dirac(euclidean(2), [0.0, 0.0]), dirac(euclidean(2), [3e-7, 0.0])]
    paths = [tmp_path / "s1.json", tmp_path / "s2.json"]
    save_measure(mixture((0.5, 0.5), atoms), paths[0])
    save_measure(mixture((0.5, 0.5), atoms[::-1]), paths[1])
    assert main(["distance", *map(str, paths)]) == 0
    assert json.loads(capsys.readouterr().out)["w2"] == 0.0


def test_check_suites_imported_only_by_check():
    code = "import sys, hierot.cli; print('hierot.checks' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert res.returncode == 0 and res.stdout.strip() == "False"


def test_distance_level_mismatch_exit_code(tmp_path, capsys):
    pa, _ = write_level2_pair(tmp_path)
    flat = tmp_path / "flat.json"
    save_measure(mixture((1.0,), [dirac(E1, [0.0])]), flat)
    assert main(["distance", str(pa), str(flat)]) == 3
    capsys.readouterr()


def test_geodesic_outputs(tmp_path, capsys):
    pa, qa = write_level2_pair(tmp_path)
    outdir = tmp_path / "geo"
    code = main(["geodesic", str(pa), str(qa), "--steps", "4",
                 "--out", str(outdir)])
    capsys.readouterr()
    assert code == 0
    files = sorted(outdir.glob("geodesic_*.json"))
    assert len(files) == 5
    csv = (outdir / "geodesic.csv").read_text().strip().splitlines()
    assert csv[0] == "t,w2_to_start,w2_to_end,speed_deviation"
    assert len(csv) == 6
    for line in csv[1:]:
        dev = float(line.split(",")[3])
        assert dev <= 1e-8
    # interpolants are valid measures
    mid = load_measure(files[2])
    assert mid.level == 2


def test_geodesic_default_tolerance_sits_above_sqrt_ulp_floor(tmp_path, capsys):
    # this pair's interpolants are w2-compared against independently built
    # endpoints and land about 5.6e-9 off, near the sqrt(ulp) floor
    rng = rng_from_seed(134)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_measure(random_measure(rng, S3, 1), pa)
    save_measure(random_measure(rng, S3, 1), pb)
    args = ["geodesic", str(pa), str(pb), "--out", str(tmp_path / "geo")]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--tolerance", "1e-12"]) == 4
    capsys.readouterr()


def test_geodesic_single_step(tmp_path, capsys):
    pa, qa = write_level2_pair(tmp_path)
    outdir = tmp_path / "geo1"
    code = main(["geodesic", str(pa), str(qa), "--steps", "1",
                 "--out", str(outdir)])
    capsys.readouterr()
    assert code == 0
    assert len(list(outdir.glob("geodesic_*.json"))) == 2


@pytest.mark.parametrize("flag,value", [
    ("--steps", "0"), ("--steps", "-1"), ("--steps", "-3"),
    ("--tolerance", "nan"), ("--tolerance", "-1e-9")])
def test_geodesic_bad_option_exit_code(tmp_path, capsys, flag, value):
    pa, qa = write_level2_pair(tmp_path)
    outdir = tmp_path / "geo"
    code = main(["geodesic", str(pa), str(qa), "--out", str(outdir),
                 f"{flag}={value}"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ") and flag in err and out == ""
    assert not outdir.exists()


def test_geodesic_dirac_endpoints_are_dirac_lifts(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_measure(dirac_lift(E1, [0.0], 2), a)
    save_measure(dirac_lift(E1, [1.0], 2), b)
    outdir = tmp_path / "geo2"
    code = main(["geodesic", str(a), str(b), "--steps", "2",
                 "--out", str(outdir)])
    capsys.readouterr()
    assert code == 0
    mid = load_measure(outdir / "geodesic_0001.json")
    assert mid.weights == (1.0,)
    assert mid.atoms[0].atoms[0].point[0] == pytest.approx(0.5)


def test_flow_command(tmp_path, capsys):
    init = tmp_path / "init.json"
    save_measure(mixture((0.5, 0.5), [dirac(E1, [0.0]), dirac(E1, [2.0])]),
                 init)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "terms": [{"type": "potential", "name": "quadratic",
                   "params": {"center": [1.0]}, "weight": 1.0}]}))
    trace = tmp_path / "trace.csv"
    final = tmp_path / "final.json"
    code = main(["flow", "--spec", str(spec), "--init", str(init),
                 "--tau", "0.5", "--iters", "8", "--trace", str(trace),
                 "--final", str(final)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "step,value,step_norm"
    assert len(lines) == 10
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(values, values[1:]))
    assert out["final_value"] <= out["initial_value"]
    end = load_measure(final)
    assert end.level == 1


def test_flow_with_distance_term(tmp_path, capsys):
    rng = rng_from_seed(8)
    init = tmp_path / "init.json"
    target_mu = random_measure(rng, E1, 1, 3)
    save_measure(random_measure(rng, E1, 1, 3), init)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "terms": [{"type": "half_w2_sq",
                   "target": measure_to_obj(target_mu),
                   "weight": 1.0}]}))
    trace = tmp_path / "trace.csv"
    code = main(["flow", "--spec", str(spec), "--init", str(init),
                 "--tau", "1.0", "--iters", "1", "--trace", str(trace)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["final_value"] <= 1e-14


@pytest.mark.parametrize("term", [
    5,
    {"type": "potential", "name": "quadratic", "params": {"center": [1.0]},
     "weight": "heavy"},
    {"type": "potential", "name": "quadratic", "params": {"center": [1.0]},
     "weight": float("nan")},
])
def test_flow_malformed_spec_exit_code(tmp_path, capsys, term):
    init = tmp_path / "init.json"
    save_measure(mixture((1.0,), [dirac(E1, [0.0])]), init)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"terms": [term]}))
    code = main(["flow", "--spec", str(spec), "--init", str(init),
                 "--iters", "1", "--trace", str(tmp_path / "t.csv")])
    assert code == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("value", ["true", "false", "NaN", "Infinity"])
@pytest.mark.parametrize("name,key", [("quadratic", "center"),
                                      ("linear_ambient", "direction")])
def test_flow_potential_parameter_exit_code(tmp_path, capsys, name, key, value):
    # a JSON true is not read as 1.0, and NaN or Infinity is refused at ingest,
    # not later as a non-finite tangent
    init = tmp_path / "init.json"
    save_measure(mixture((1.0,), [dirac(E1, [0.0])]), init)
    spec = tmp_path / "spec.json"
    spec.write_text('{"terms": [{"type": "potential", "name": "%s", '
                    '"params": {"%s": [%s]}}]}' % (name, key, value))
    code = main(["flow", "--spec", str(spec), "--init", str(init),
                 "--iters", "1", "--trace", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and f"potential parameter '{key}'" in err


@pytest.mark.parametrize("term,message", [
    ({"params": {"center": [1.0]}},
     "potential term must carry a name, got None"),
    ({"name": "quadratic"},
     "potential 'quadratic' needs params with the key 'center', got None"),
    ({"name": "quadratic", "params": [1.0]},
     "potential 'quadratic' needs params with the key 'center', got [1.0]"),
    ({"name": "quadratic", "params": {"centre": [1.0]}},
     "potential 'quadratic' needs params with the key 'center', "
     "got {'centre': [1.0]}"),
])
def test_flow_potential_term_message_names_its_fault(tmp_path, capsys, term,
                                                     message):
    init = tmp_path / "init.json"
    save_measure(mixture((1.0,), [dirac(E1, [0.0])]), init)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"terms": [dict(type="potential", **term)]}))
    code = main(["flow", "--spec", str(spec), "--init", str(init),
                 "--iters", "1", "--trace", str(tmp_path / "t.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf", "-0.5"])
def test_flow_bad_tau_exit_code(tmp_path, capsys, tau):
    # a NaN or infinite step is refused up front, naming the option
    init = tmp_path / "init.json"
    save_measure(mixture((1.0,), [dirac(E1, [0.0])]), init)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "terms": [{"type": "potential", "name": "quadratic",
                   "params": {"center": [1.0]}, "weight": 1.0}]}))
    trace = tmp_path / "t.csv"
    code = main(["flow", "--spec", str(spec), "--init", str(init),
                 f"--tau={tau}", "--iters", "1", "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: --tau ") and out == ""
    assert not trace.exists()


def test_deep_measure_document_exit_code(tmp_path, capsys):
    from test_serialization import deep_document
    deep = tmp_path / "deep.json"
    deep.write_text(deep_document(1500))
    assert main(["distance", str(deep), str(deep)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("node,message", [
    ({"weights": [1.0], "atoms": 5}, "atoms must be a list"),
    ({"weights": [1.0], "atoms": [{"point": "abc"}]}, "point is not numeric"),
    ({"weights": [1.0], "atoms": [{"point": [True]}]},
     "point coordinates must be numbers"),
])
def test_malformed_node_contents_exit_code(tmp_path, capsys, node, message):
    doc = {"manifold": {"kind": "euclidean", "ambient_dim": 1}, "level": 1,
           "measure": node}
    bad = tmp_path / "a.json"
    bad.write_text(json.dumps(doc))
    good = tmp_path / "ok.json"
    save_measure(mixture((1.0,), [dirac(E1, [0.0])]), good)
    assert main(["distance", str(bad), str(good)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("weights", [[1.0, 0.0], [1.5, -0.5]])
def test_non_positive_node_weight_message(tmp_path, capsys, weights):
    # the weights sum to 1.0: the message names their sign, not their sum
    doc = {"manifold": {"kind": "euclidean", "ambient_dim": 1}, "level": 1,
           "measure": {"weights": weights,
                       "atoms": [{"point": [0.0]}, {"point": [1.0]}]}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["distance", str(bad), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: node weights must be strictly positive, got {weights}\n"


def unwritable_outputs(tmp_path):
    pa, qa = write_level2_pair(tmp_path)
    missing = tmp_path / "no-such-dir"
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    init = tmp_path / "init.json"
    save_measure(mixture((1.0,), [dirac(E1, [0.0])]), init)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"terms": [
        {"type": "potential", "name": "quadratic", "params": {"center": [1.0]}}]}))
    flow = ["flow", "--spec", str(spec), "--init", str(init), "--iters", "1"]
    return {
        "distance --plan": (
            ["distance", str(pa), str(qa), "--plan", str(missing / "p.json")],
            missing / "p.json"),
        "geodesic --out": (
            ["geodesic", str(pa), str(qa), "--steps", "1", "--out", str(a_file / "g")],
            a_file / "g"),
        "flow --trace": (flow + ["--trace", str(missing / "t.csv")], missing / "t.csv"),
        "flow --final": (
            flow + ["--trace", str(tmp_path / "t.csv"), "--final", str(missing / "f.json")],
            missing / "f.json"),
        "check --report": (
            ["check", "--suite", "metric", "--samples", "1",
             "--report", str(missing / "r.json")], missing / "r.json"),
    }


@pytest.mark.parametrize("case", ["distance --plan", "geodesic --out",
                                  "flow --trace", "flow --final", "check --report"])
def test_unwritable_output_exit_code(tmp_path, capsys, case):
    argv, path = unwritable_outputs(tmp_path)[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output") and str(path) in err


def test_check_command_and_determinism(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    code = main(["check", "--suite", "metric", "--seed", "11",
                 "--samples", "2", "--report", str(r1)])
    capsys.readouterr()
    assert code == 0
    code = main(["check", "--suite", "metric", "--seed", "11",
                 "--samples", "2", "--report", str(r2)])
    capsys.readouterr()
    assert code == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert report["passed"] is True
    assert set(report["suites"]) == {"metric"}


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_check_without_samples_exit_code(capsys, samples):
    # a suite of no samples would report a vacuous pass
    code = main(["check", "--suite", "metric", f"--samples={samples}"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ") and "--samples" in err and out == ""


@pytest.mark.parametrize("seed", ["-1", "-1000"])
def test_check_negative_seed_exit_code(capsys, seed):
    # the generators take nonnegative seeds only
    code = main(["check", "--suite", "metric", f"--seed={seed}", "--samples", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ") and "--seed" in err and out == ""


def test_check_fault_injection_fails_geodesic_suite(monkeypatch, capsys):
    negate_transport(monkeypatch)
    code = main(["check", "--suite", "geodesic", "--seed", "1",
                 "--samples", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 4
    assert out["passed"] is False


def test_cli_entrypoint_subprocess(tmp_path):
    pa, qa = write_level2_pair(tmp_path)
    res = subprocess.run(
        [sys.executable, "-m", "hierot.cli", "distance", str(pa), str(qa)],
        capture_output=True, text=True)
    assert res.returncode == 0
    assert json.loads(res.stdout)["w2"] == pytest.approx(np.sqrt(2.0))
