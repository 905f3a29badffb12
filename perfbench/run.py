"""fhsmooth benchmark: one workload, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's operations until their timed wall
time reaches S seconds, checks every output after its round (untimed),
and prints one JSON line: `correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are the end-to-end ones (medians over rounds);
with --trace 1 they are per-layer counts and self times from a traced run,
which alternates untraced and traced rounds to report the tracing overhead
and writes its spans to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sample-gaussian", "sample-product", "design-check")
SETUP_REPEATS = 3
# one BLAS/OpenMP thread, so no figure depends on a library default
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(workload: str, seed: int, tmpdir):
    """Imports, model construction, input generation and warm-up.

    The import is here, not at the top, so that a timed set-up process
    pays for importing numpy, scipy and fhsmooth.
    """
    import workloads

    session = workloads.Session(workload, seed, tmpdir)
    session.warm_up()
    return session


def time_setups(args):
    """Wall time of SETUP_REPEATS fresh processes that only set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_ops(session, round_index, tracer=None):
    """Run one round's operations; return each one's (kind, seconds, work) and the outputs."""
    timings, outputs = [], []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for op in session.round_ops(round_index):
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a raising operation is counted as failed
                out, error = None, exc
            timings.append((op.kind, time.perf_counter() - t0, op.work))
            outputs.append((op, out, error))
    return timings, outputs


def verify(round_index, outputs):
    """Check every output of a round; return the number of failed operations."""
    failed = 0
    for op, out, error in outputs:
        if error is None:
            try:
                op.verify(out)
            except Exception as exc:  # a wrong output is counted as failed
                error = exc
        if error is not None:
            failed += 1
            print(f"round {round_index}: {op.kind} failed: {type(error).__name__}: {error}", file=sys.stderr)
    return failed


def wall(timings):
    return sum(seconds for _, seconds, _ in timings)


def work(timings, kind):
    return sum(n for k, _, n in timings if k == kind)


def end_to_end(rounds):
    """Each operation's median time over the rounds, summed by kind.

    Every round runs the same operations in the same order, so position i
    of each round's timings is one operation repeated across rounds.
    """
    medians = [statistics.median(r[i][1] for r in rounds) for i in range(len(rounds[0]))]

    def total(kind):
        return sum(m for m, (k, _, _) in zip(medians, rounds[0]) if k == kind)

    def rate(kind):
        return work(rounds[0], kind) / total(kind)

    return {
        "sample_pairs_per_s": (rate("sample"), "pairs/s"),
        "check_s": (total("check"), "s"),
        "validate_s": (total("validate"), "s"),
        "grid_points_per_s": (rate("grid"), "points/s"),
        "eval_calls_per_s": (rate("eval"), "calls/s"),
    }


def measure(session, seconds, trace=False):
    """Whole rounds until their timed wall time reaches `seconds`.

    A traced run alternates untraced and traced rounds and ends on a pair.
    Peak RSS is read after the first round's operations, before any check.
    """
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    untraced, traced = [], []
    attempted = failed = 0
    elapsed = 0.0
    peak_rss_mb = None
    k = 0
    while k == 0 or elapsed < seconds or (trace and k % 2 == 1):
        use = tracer if trace and k % 2 == 1 else None
        timings, outputs = run_ops(session, k, use)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if use:
            traced.append((k, timings, tracer.take()))
        else:
            untraced.append(timings)
        attempted += len(outputs)
        failed += verify(k, outputs)
        elapsed += wall(timings)
        k += 1
    return untraced, traced, attempted, failed, peak_rss_mb


def per_layer(untraced, traced):
    """Medians over traced rounds of the per-layer figures, plus the tracing overhead."""
    from tracing import layer_metrics

    per_round = [layer_metrics(spans, work(t, "sample"), work(t, "check")) for _, t, spans in traced]
    metrics = {
        name: (statistics.median(r[name][0] for r in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }
    overhead = statistics.median(wall(t) for _, t, _ in traced) / statistics.median(wall(t) for t in untraced)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main(argv=None):
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "fhsmooth" / "__init__.py").is_file():
        print(f"error: no fhsmooth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, tmpdir)
            return 0
        setup_times = [] if args.trace else time_setups(args)
        session = set_up(args.workload, args.seed, tmpdir)
        untraced, traced, attempted, failed, peak_rss_mb = measure(
            session, args.seconds, bool(args.trace)
        )
        if args.trace:
            from tracing import write_spans

            metrics = per_layer(untraced, traced)
            write_spans(
                HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl",
                [(k, spans) for k, _, spans in traced],
            )
        else:
            metrics = end_to_end(untraced)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        print(
            f"{args.workload}: {len(untraced) + len(traced)} rounds, {attempted} operations, {failed} failed",
            file=sys.stderr,
        )
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
