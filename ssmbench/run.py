"""diagssm benchmark: one workload, one process, a closed loop of ops.

    python3 ssmbench/run.py --workload conv_long --seed 0 --seconds 20 --trace 0

Run from the repository root.  One client runs ops back to back, each on a
fresh input drawn from --seed, until --seconds have passed (a traced run
also waits for at least one traced and one untraced op).  Every op's output
is checked outside the timed region; an op that raises or fails a check
counts in "failed".

--trace 0 reports the end-to-end metrics, with set-up and op times scaled
to a fixed reference CPU speed (see speed.py).  --trace 1 alternates untraced
and traced ops, reports the per-layer metrics from the traced ones and
writes every span to .ssmbench_out/.  The last line of standard output is
the result as one JSON object; the lines before it are the full report.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".ssmbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT_SLACK_S = 1e-3


def _limit_blas_threads():
    # Must run before numpy is imported.  One client, one BLAS thread: a
    # second OpenBLAS thread only spins beside the Python main thread here
    # (2 cores), which makes ops slower and noisier, not faster.
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "diagssm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def tail(values):
    """The op-time tail: a nearest-rank percentile never below p90.

    With 100 or more samples it is the highest rank with ten samples above
    it.  With fewer, no percentile from p90 up has ten samples above it,
    so the nearest-rank p90 is used (the maximum for nine or fewer).
    Returns (value, rank, count).
    """
    ordered = sorted(values)
    count = len(ordered)
    rank = max(math.ceil(0.9 * count), count - 10)
    return ordered[rank - 1], rank, count


def _called(profile):
    """A phase profile with the boundaries that saw no call left out."""
    called = [name for name, calls in profile["calls"].items() if calls]
    return {**profile, **{key: {name: profile[key][name] for name in called}
                          for key in ("calls", "work", "self_s")}}


def run(workload, seconds, trace):
    from speed import SpeedProbe
    from tracer import SPAN_NAMES, Tracer, computed_counts, phase_profile, resolve_boundaries

    resolve_boundaries()    # a missing boundary is an error, traced or not
    tracer = Tracer() if trace else None
    root_wall_s = []        # wall time of each traced root, taken outside the tracer
    probe = None if trace else SpeedProbe()

    def timed(kind, fn, *args, traced):
        """(result, wall_s, ref_s): ref_s is at reference speed when probed."""
        times = []
        start = time.perf_counter()
        try:
            if traced:
                with tracer.root(kind):
                    result = fn(*args)
            elif probe is not None:
                with probe.measure(times):
                    result = fn(*args)
            else:
                result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                root_wall_s.append(elapsed)
        return (result, *times[0]) if times else (result, elapsed, elapsed)

    setup_s = []        # (wall, at reference speed)
    for _ in range(workload.setup_reps):
        state, wall, ref = timed("setup", workload.setup, traced=trace)
        setup_s.append((wall, ref))

    ops = []            # (wall, at reference speed, traced)
    failed = 0
    worst = {}          # check name -> (max error, tolerance)
    start = time.perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 1
        inp = workload.draw()
        op_start = time.perf_counter()
        try:
            result, wall, ref = timed("op", workload.op, state, inp, traced=traced)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - op_start
            ops.append((wall, wall, traced))
            failed += 1
        else:
            ops.append((wall, ref, traced))
            try:
                errs = workload.check(state, inp, result)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += 1
            else:
                failed += not all(err <= tol for err, tol in errs.values())
                for name, (err, tol) in errs.items():
                    worst[name] = (max(err, worst.get(name, (err,))[0]), tol)
        done = time.perf_counter() - start >= seconds
        if done and (not trace or len(ops) >= 2):
            break

    untraced = [ref for _, ref, t in ops if not t]
    op_tail, tail_rank, tail_count = tail(untraced)
    report = {
        "attempted": len(ops),
        "failed": failed,
        "fail_frac": failed / len(ops),
        "setup_wall_s_samples": [wall for wall, _ in setup_s],
        "setup_s_samples": [ref for _, ref in setup_s],
        "op_wall_s_samples": [wall for wall, _, t in ops if not t],
        "op_s_samples": untraced,
        "op_tail": {"value_s": op_tail, "rank": tail_rank, "count": tail_count},
        workload.work_unit + "_per_s": workload.work_per_op * len(untraced) / sum(untraced),
        "checks": {name: {"max_err": err, "tolerance": tol, "passed": err <= tol}
                   for name, (err, tol) in worst.items()},
    }
    correct = failed == 0
    if not trace:
        metrics = {
            "setup_s": (statistics.median(ref for _, ref in setup_s), "s"),
            "op_p50_s": (statistics.median(untraced), "s"),
            "op_tail_s": (op_tail, "s"),
            "throughput_per_s": (report[workload.work_unit + "_per_s"], "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        return correct, report, metrics, None

    summaries = tracer.per_root()
    setup_prof, setup_repeat = phase_profile([s for s in summaries if s["kind"] == "setup"])
    op_prof, op_repeat = phase_profile([s for s in summaries if s["kind"] == "op"])
    nested = all(s["nested"] for s in summaries)
    # The traced time a root's self times add up to must be the wall time
    # measured around it, less the few microseconds of swapping wrappers in.
    accounted = all(0 <= wall - s["duration_s"] <= ROOT_SLACK_S
                    for s, wall in zip(summaries, root_wall_s, strict=True))
    correct = correct and setup_repeat and op_repeat and nested and accounted
    traced_p50 = statistics.median(wall for wall, _, t in ops if t)
    untraced_p50 = statistics.median(untraced)
    report["trace"] = {
        "counts_repeat": setup_repeat and op_repeat,
        "spans_nested": nested,
        "roots_match_wall_time": accounted,
        "zero_call_boundaries": [name for name in SPAN_NAMES
                                 if not setup_prof["calls"][name] and not op_prof["calls"][name]],
        "setup": _called(setup_prof),
        "op": _called(op_prof),
        "op_p50_s": traced_p50,
        "untraced_op_p50_s": untraced_p50,
        "overhead_ratio": traced_p50 / untraced_p50,
    }
    # Per-layer metrics cover one set-up plus one op, so boundaries that
    # only run in set-up (init_layer, the eigensolve) are measured too.
    metrics = {}
    for name in SPAN_NAMES:
        metrics[name + ".calls"] = (setup_prof["calls"][name] + op_prof["calls"][name], "count")
        metrics[name + ".self_s"] = (setup_prof["self_s"][name] + op_prof["self_s"][name], "s")
    work = {name: setup_prof["work"][name] + op_prof["work"][name] for name in SPAN_NAMES}
    for name, value in computed_counts(work).items():
        metrics[name] = (value, "B" if name.endswith("_bytes") else "count")
    metrics["trace.unattributed_s"] = (
        setup_prof["unattributed_s"] + op_prof["unattributed_s"], "s")
    metrics["trace.setup_s"] = (setup_prof["duration_s"], "s")
    metrics["trace.op_p50_s"] = (traced_p50, "s")
    metrics["trace.overhead_ratio"] = (report["trace"]["overhead_ratio"], "ratio")
    for name in ("recurrence_oracle", "naive_prefix", "conv_mode", "lag_recovered"):
        metrics[f"check.{name}.max_abs_err"] = (worst.get(name, (0.0,))[0], "abs")
    return correct, report, metrics, tracer.spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        import diagssm
    except ImportError as exc:
        print(f"ssmbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(diagssm.__file__).resolve().parent != SRC / "diagssm":
        print(f"ssmbench: diagssm imported from {diagssm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import BoundaryMissing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"ssmbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shapes": workload.describe(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "closed_loop_clients": 1,
    }
    try:
        correct, report, metrics, spans = run(workload, args.seconds, args.trace)
    except BoundaryMissing as exc:
        print(f"ssmbench: {exc}", file=sys.stderr)
        return 2
    report = {"env": env, **report,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if spans is not None:
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace.json"
        out.write_text(json.dumps({"report": report, "span_fields": [
            "name", "start_s", "end_s", "parent", "root", "work"], "spans": spans}))
        report["spans_file"] = str(out.relative_to(ROOT))
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
