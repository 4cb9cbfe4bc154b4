import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("name", ["conv_long", "recurrent_short", "train_toy"])
def test_benchmark_workload_runs_and_checks(monkeypatch, name):
    # One op of each benchmark workload at seed 0, then its own output
    # check: the workloads call into the package directly, so an API or
    # numerics change they depend on must fail here first.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "ssmbench"))
    workload = importlib.import_module("workloads").WORKLOADS[name](0)
    state = workload.setup()
    inp = workload.draw()
    errs = workload.check(state, inp, workload.op(state, inp))
    assert errs
    for check, (err, tol) in errs.items():
        assert err <= tol, f"{check}: {err} > {tol}"


# One traced run in a fresh interpreter, as the benchmark runs it: state one
# set-up leaves behind for the next (a cache, a warmed table) changes what
# the first set-up calls, and only a new process sees that first set-up.
_TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
run._limit_blas_threads()
sys.path.insert(0, str(run.SRC))
from workloads import WORKLOADS
_, report, _, _ = run.run(WORKLOADS[sys.argv[2]](0), float(sys.argv[3]), 1)
print(json.dumps({"failed": report["failed"],
                  "traced": report["attempted"] - len(report["op_s_samples"]),
                  **{key: report["trace"][key] for key in ("counts_repeat", "spans_nested")}}))
"""


@pytest.mark.parametrize("name, seconds", [
    ("conv_long", 3.5), ("recurrent_short", 1.0), ("train_toy", 1.0)])
def test_benchmark_traced_run_keeps_its_invariants(name, seconds):
    # A short traced run of each workload (run() writes no files): every op
    # checked, and the traced counts and spans as the benchmark's own
    # correctness verdict requires.  Its wall-time bound
    # (roots_match_wall_time) is left to the benchmark: 1 ms is too tight
    # for a shared test machine.  run() alternates untraced and traced ops
    # and stops at the first op after `seconds`; a run too short for two
    # traced ops, on a slow machine, is run again for twice as long.
    bench = Path(__file__).resolve().parents[1] / "ssmbench"
    for _ in range(3):
        done = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(bench), name, str(seconds)],
                              capture_output=True, text=True, timeout=120 + 4 * seconds)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["failed"] == 0, done.stderr
        assert report["counts_repeat"]
        assert report["spans_nested"]
        if report["traced"] >= 2:
            return
        seconds *= 2
    pytest.fail(f"no run of up to {seconds / 2} s held two traced ops")
