import argparse
import json

import pytest

from hierot import checks, wasserstein
from hierot.checks import SUITES, run_suite
from hierot.cli import EXIT_CHECK, build_parser, main
from hierot.errors import InvalidInput
from hierot.manifolds import Manifold
from hierot.serialization import dumps


def negate_transport(monkeypatch):
    """Inject the negative control's fault: every vector that
    ``Manifold.parallel_transport`` returns comes back negated."""
    transport = Manifold.parallel_transport

    def faulty(self, x, v, w, t):
        y, w_t = transport(self, x, v, w, t)
        return y, -w_t

    monkeypatch.setattr(Manifold, "parallel_transport", faulty)


def test_all_suites_pass_with_default_seed():
    report = run_suite("all", 0, 3)
    assert report["passed"] is True
    assert set(report["suites"]) == set(SUITES)
    for suite in report["suites"].values():
        for prop in suite["properties"]:
            assert prop["passed"], prop


def test_single_suite_subset():
    report = run_suite("metric", 5, 2)
    assert set(report["suites"]) == {"metric"}
    assert report["passed"] is True


def test_cli_suite_choices_are_the_declared_suites():
    # the CLI keeps its own list, so that only `check` imports the suites
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["check"]._actions if a.dest == "suite")
    assert suite.choices == ["all", *SUITES]


def test_every_check_is_in_exactly_one_suite():
    members = [check for suite in SUITES.values() for check in suite]
    defined = [f for name, f in vars(checks).items()
               if name.startswith("check_") and callable(f)]
    assert len(set(members)) == len(members)
    assert set(members) == set(defined)


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nonsense", 0, 1)


def test_reports_are_deterministic():
    a = dumps(run_suite("coupling", 3, 2))
    b = dumps(run_suite("coupling", 3, 2))
    assert a == b
    # different seeds change residuals but stay valid JSON
    c = json.loads(dumps(run_suite("coupling", 4, 2)))
    assert c["seed"] == 4


def test_fault_injection_negative_control(monkeypatch):
    negate_transport(monkeypatch)
    report = run_suite("geodesic", 0, 2)
    assert report["passed"] is False
    names = [p["name"] for s in report["suites"].values()
             for p in s["properties"] if not p["passed"]]
    assert any("parallel_transport" in n or "pt_" in n for n in names)
    # the suite recovers once the fault is undone
    monkeypatch.undo()
    clean = run_suite("geodesic", 0, 2)
    assert clean["passed"] is True


def test_nan_residual_fails_its_property(monkeypatch, capsys):
    # max(worst, nan) keeps worst; the fold must keep the NaN instead
    monkeypatch.setattr(checks, "w2", lambda a, b: float("nan"))
    for check in (checks.check_w2_metric, checks.check_dirac_isometry):
        result = check(0, 1)
        assert not result.passed and result.worst_residual != result.worst_residual
    assert main(["check", "--suite", "metric", "--samples", "1"]) == EXIT_CHECK
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False


def _bare_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_nan_report_is_strict_json(monkeypatch, capsys):
    # the report that exit code 4 asks to be read must parse everywhere
    monkeypatch.setattr(checks, "w2", lambda a, b: float("nan"))
    assert main(["check", "--suite", "metric", "--samples", "1"]) == EXIT_CHECK
    report = json.loads(capsys.readouterr().out, parse_constant=_bare_constant)
    assert report["passed"] is False
    properties = report["suites"]["metric"]["properties"]
    assert "NaN" in [p["worst_residual"] for p in properties]


def test_nan_residual_fails_a_plain_check(monkeypatch):
    monkeypatch.setattr(checks.fn, "check_potential_gradient",
                        lambda pot, man, pts: float("nan"))
    result = checks.check_potential_gradients(0, 1)
    assert not result.passed and result.samples == 4


@pytest.mark.parametrize("samples", [0, -2])
def test_sample_count_below_one_rejected(samples):
    # no samples would pass most properties vacuously
    with pytest.raises(InvalidInput, match="samples"):
        run_suite("metric", 0, samples)


@pytest.mark.parametrize("seed", [-1, -(1 << 40)])
def test_negative_seed_rejected(seed):
    with pytest.raises(InvalidInput, match="--seed"):
        run_suite("metric", seed, 1)


def test_w2_symmetry_term_solves_each_pair_both_ways(monkeypatch):
    # the symmetry term solves both orientations: w2(b, a) is not w2(a, b) read back
    drawn, solved = [], []
    measure, solve = checks._measure, wasserstein._solve

    def draw(*args):
        drawn.append(measure(*args))
        return drawn[-1]

    def record(mu, nu, *args):
        solved.append((mu, nu))
        return solve(mu, nu, *args)

    monkeypatch.setattr(checks, "_measure", draw)
    monkeypatch.setattr(wasserstein, "_solve", record)
    assert checks.check_w2_metric(0, 1).passed
    assert len(drawn) == 18  # two manifolds, three levels, three measures
    for a, b in zip(drawn[0::3], drawn[1::3]):
        assert any(mu is a and nu is b for mu, nu in solved)
        assert any(mu is b and nu is a for mu, nu in solved)
