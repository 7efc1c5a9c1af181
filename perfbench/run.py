"""Benchmark of the hierot command line: one process, one closed-loop client.

    python3 perfbench/run.py --workload distance-wide --seed 1 --seconds 15 --trace 0

Each operation calls ``hierot.cli.main`` in-process on input files this
benchmark writes itself, one command at a time, with numpy pinned to one
thread.  Outputs are checked by ``oracle.py`` after the timed loop.
``--trace 0`` times the commands and prints the end-to-end metrics;
``--trace 1`` runs a fixed number of commands under ``tracer.py`` and prints
the per-layer metrics.  The last line of standard output is the result:

    {"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import clock
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# commands per traced run: fixed, so that its counts repeat exactly
TRACE_OPS = {"distance-wide": 20, "distance-nested": 12, "flow": 12, "check": 1}


def import_program():
    """``hierot.cli`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "hierot" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program at {SRC / 'hierot'}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hierot.cli
    if Path(hierot.cli.__file__).resolve().parent != (SRC / "hierot").resolve():
        sys.stderr.write(f"perfbench: imported hierot from {hierot.cli.__file__}\n")
        sys.exit(2)
    return hierot.cli


def run_command(main, argv, timer=None):
    """One command in-process: ``(exit code, stdout, CPU seconds)``, timed
    by ``timer`` (a ``clock.ScaledClock``) when given.

    The exit code is ``None`` when the command raised instead of returning.
    """
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=err)
            return None

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if timer is None:
            start = time.process_time()
            rc = call()
            elapsed = time.process_time() - start
        else:
            rc, elapsed = timer.run(call)
    if rc != 0:
        sys.stderr.write(f"perfbench: {' '.join(argv[:2])} exited {rc}\n"
                         f"{err.getvalue()}")
    return rc, out.getvalue(), elapsed


def memo_size() -> int:
    wasserstein = sys.modules.get("hierot.wasserstein")
    cache = getattr(wasserstein, "_w2_cache", None)
    return len(cache) if isinstance(cache, dict) else 0


def setup_probe(workload: str, seed: int) -> int:
    """Set-up as a user pays it: interpreter, imports, inputs, one command.

    Prints the probe's scaled CPU seconds: what the interpreter used before
    this function, at the first kernel sample's speed, plus the rest under
    the scaled clock.
    """
    startup = time.process_time()
    timer = clock.ScaledClock()
    workdir = WORK / f"probe-{os.getpid()}"

    def body():
        cli = import_program()
        op = wl.warmup_op(workload, seed, workdir)
        return run_command(cli.main, op.argv)[0]

    try:
        rc, _ = timer.run(body)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(startup * clock.REFERENCE_S / timer.samples[0] + timer.scaled[-1])
    return 0 if rc == 0 else 1


def measure_setup(workload: str, seed: int) -> float:
    """Median scaled set-up time of ``SETUP_PROBES`` fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run(args) -> dict:
    cli = import_program()
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _run(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, cli, workdir: Path) -> dict:
    trace = bool(args.trace)
    phase = [time.perf_counter()]
    warm = wl.warmup_op(args.workload, args.seed, workdir)
    rc, _, _ = run_command(cli.main, warm.argv)
    if rc != 0:
        raise RuntimeError(f"warm-up command exited {rc}")
    setup_s = None if trace else measure_setup(args.workload, args.seed)
    phase.append(time.perf_counter())

    tracer = None
    main = cli.main
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()

        def main(argv):
            return tracer.op_span(lambda: cli.main(argv))

    # check runs its fixed list whole; the others write each command's
    # inputs just before it and stop after the pair of commands (one per
    # manifold) in which the traced count or the scaled time is reached
    if args.workload == "check":
        ops = wl.check_ops(args.seconds)[:TRACE_OPS["check"] if trace else None]
    else:
        ops = (wl.make_op(args.workload, args.seed, i, workdir) for i in itertools.count())
    done = []               # (op, exit code, stdout)
    memo = []
    busy = 0.0
    # no kernel samples inside traced commands: they would land in spans
    scaled = clock.ScaledClock(every=None if trace else clock.SAMPLE_EVERY_S)
    for op in ops:
        before = tracer.times() if trace else None
        rc, out, elapsed = run_command(main, op.argv, scaled)
        if trace and elapsed > 0:
            # span times in the same scaled units as the end-to-end metrics
            tracer.rescale(before, scaled.scaled[-1] / elapsed)
        done.append((op, rc, out))
        memo.append(memo_size())
        busy += elapsed
        if args.workload == "check" or len(done) % len(wl.MANIFOLDS):
            continue
        if len(done) >= TRACE_OPS[args.workload] if trace else scaled.total() >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rerun = {}
    if trace:
        tracer.uninstall()
        if args.workload == "check":
            # tracing must not change a byte of the report
            for op, _, _ in done:
                rerun[op.index] = run_command(cli.main, op.argv)[1]

    phase.append(time.perf_counter())
    import oracle
    failed = 0
    for op, rc, out in done:
        try:
            oracle.check(op, rc, out)
            if op.index in rerun:
                oracle.require(rerun[op.index] == out,
                               "the traced report differs from the untraced one")
        except Exception:
            failed += 1
            sys.stderr.write(f"perfbench: operation {op.index} ({' '.join(op.argv[:2])}) "
                             f"failed its check\n{traceback.format_exc()}")

    phase.append(time.perf_counter())
    times = scaled.scaled
    sys.stderr.write(
        f"perfbench: {args.workload} seed {args.seed} trace {int(trace)}: "
        f"{len(done)} ops, {busy:.3f} CPU s, {sum(times):.3f} scaled s, "
        f"scaled median {1000 * statistics.median(times):.1f} ms, "
        f"cv {statistics.pstdev(times) / statistics.fmean(times):.3f}, "
        f"max {1000 * max(times):.1f} ms, calibration median "
        f"{1000 * statistics.median(scaled.samples):.2f} ms; wall s: set-up "
        f"{phase[1] - phase[0]:.1f}, commands {phase[2] - phase[1]:.1f}, "
        f"checks {phase[3] - phase[2]:.1f}\n")
    if trace:
        from tracer import per_layer_metrics
        metrics = per_layer_metrics(tracer, len(done), statistics.fmean(memo))
    else:
        metrics = {
            "ops_per_s": {"value": len(done) / sum(times), "unit": "1/s"},
            "op_p50_ms": {"value": 1000.0 * statistics.median(times), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": len(done), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
