"""Command-line front end.

Commands: ``distance``, ``geodesic``, ``flow``, ``check``.  Exit codes:
0 success, 2 schema/validation error or an output file that cannot be
written, 3 level mismatch, 4 check or tolerance failure (an uncertified
solver plan among them).
Outputs are byte-deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .errors import HierotError, InvalidInput, LevelMismatch, NumericalFailure
from .functionals import gradient_descent
from .geodesics import interpolate
from .serialization import (dumps, format_float, functional_spec_from_obj,
                            load_json, load_measure, plan_to_obj, save_measure)
from .wasserstein import TOL_NEAR_ZERO, plan_summary, transport, w2

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_LEVEL = 3
EXIT_CHECK = 4


def cmd_distance(args) -> int:
    a = load_measure(args.a)
    b = load_measure(args.b)
    result = transport(a, b)
    out = {"w2": float(np.sqrt(result.value_sq))}
    if a.level >= 1:
        out["plan_summary"] = plan_summary(result)
    if args.plan:
        Path(args.plan).write_text(dumps(plan_to_obj(result.velocity)))
    sys.stdout.write(dumps(out))
    return EXIT_OK


def cmd_geodesic(args) -> int:
    if args.steps < 1:
        raise InvalidInput(f"--steps must be at least 1, got {args.steps}")
    if not args.tolerance >= 0.0:  # NaN fails too
        raise InvalidInput(
            f"--tolerance must be a number >= 0, got {args.tolerance}")
    a = load_measure(args.a)
    b = load_measure(args.b)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    result = transport(a, b)
    gamma = result.velocity
    dist = float(np.sqrt(result.value_sq))
    steps = args.steps
    rows = ["t,w2_to_start,w2_to_end,speed_deviation"]
    worst = 0.0
    for i in range(steps + 1):
        t = i / steps
        mu_t = interpolate(gamma, t)
        save_measure(mu_t, outdir / f"geodesic_{i:04d}.json")
        d0 = w2(mu_t, a)
        d1 = w2(mu_t, b)
        dev = max(abs(d0 - t * dist), abs(d1 - (1.0 - t) * dist))
        worst = max(worst, dev)
        rows.append(",".join(format_float(x) for x in (t, d0, d1, dev)))
    (outdir / "geodesic.csv").write_text("\n".join(rows) + "\n")
    sys.stdout.write(dumps({"w2": dist, "max_deviation": worst,
                            "files": steps + 1}))
    return EXIT_OK if worst <= args.tolerance else EXIT_CHECK


def cmd_flow(args) -> int:
    if not 0.0 <= args.tau < math.inf:  # NaN fails too
        raise InvalidInput(f"--tau must be a finite number >= 0, got {args.tau}")
    mu0 = load_measure(args.init)
    spec = functional_spec_from_obj(load_json(args.spec), mu0.manifold, mu0.level)
    trace = gradient_descent(spec, mu0, args.tau, args.iters)
    rows = ["step,value,step_norm"]
    for s in trace.steps:
        rows.append(",".join([str(s.index), format_float(s.value),
                              format_float(s.step_norm)]))
    Path(args.trace).write_text("\n".join(rows) + "\n")
    if args.final:
        save_measure(trace.steps[-1].measure, args.final)
    sys.stdout.write(dumps({"iters": args.iters,
                            "initial_value": trace.steps[0].value,
                            "final_value": trace.steps[-1].value}))
    return EXIT_OK


def cmd_check(args) -> int:
    from . import checks  # the suites are large; only `check` compiles them
    report = checks.run_suite(args.suite, args.seed, args.samples)
    text = dumps(report)
    if args.report:
        Path(args.report).write_text(text)
    sys.stdout.write(text)
    return EXIT_OK if report["passed"] else EXIT_CHECK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hierot",
        description="hierarchical optimal transport over euclidean space "
                    "and the sphere")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("distance", help="w2 distance between two measure files")
    d.add_argument("a")
    d.add_argument("b")
    d.add_argument("--plan", default=None,
                   help="write the optimal velocity plan to this JSON file")
    d.set_defaults(fn=cmd_distance)

    g = sub.add_parser("geodesic", help="sample the geodesic between two measures")
    g.add_argument("a")
    g.add_argument("b")
    g.add_argument("--steps", type=int, default=10)
    g.add_argument("--out", required=True)
    g.add_argument("--tolerance", type=float, default=TOL_NEAR_ZERO)
    g.set_defaults(fn=cmd_geodesic)

    f = sub.add_parser("flow", help="explicit gradient descent of a functional")
    f.add_argument("--spec", required=True)
    f.add_argument("--init", required=True)
    f.add_argument("--tau", type=float, default=0.1)
    f.add_argument("--iters", type=int, default=100)
    f.add_argument("--trace", required=True)
    f.add_argument("--final", default=None,
                   help="write the final measure to this JSON file")
    f.set_defaults(fn=cmd_flow)

    c = sub.add_parser("check", help="run the invariant suites")
    c.add_argument("--suite", default="all",
                   choices=["all", "metric", "coupling", "geodesic", "calculus"])
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--samples", type=int, default=6)
    c.add_argument("--report", default=None)
    c.set_defaults(fn=cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LevelMismatch as exc:
        sys.stderr.write(f"level mismatch: {exc}\n")
        return EXIT_LEVEL
    except NumericalFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHECK
    except HierotError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA
    except OSError as exc:  # inputs are read by load_json: this is an output
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
