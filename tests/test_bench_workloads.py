import importlib
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


@pytest.mark.parametrize("name, seconds", [
    ("conv_long", 3.5), ("recurrent_short", 1.0), ("train_toy", 1.0)])
def test_benchmark_traced_run_keeps_its_invariants(monkeypatch, name, seconds):
    # A short traced run of each workload, in-process (run() writes no
    # files): every op checked, and the traced counts and spans as the
    # benchmark's own correctness verdict requires.  Its wall-time bound
    # (roots_match_wall_time) is left to the benchmark: 1 ms is too tight
    # for a shared test machine.  run() alternates untraced and traced ops
    # and stops at the first op after `seconds`; a run too short for two
    # traced ops, on a slow machine, is run again for twice as long.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "ssmbench"))
    run = importlib.import_module("run")
    workload = importlib.import_module("workloads").WORKLOADS[name](0)
    for _ in range(3):
        _, report, _, _ = run.run(workload, seconds, 1)
        assert report["failed"] == 0
        assert report["trace"]["counts_repeat"]
        assert report["trace"]["spans_nested"]
        if report["attempted"] - len(report["op_s_samples"]) >= 2:    # traced ops
            return
        seconds *= 2
    pytest.fail(f"no run of up to {seconds / 2} s held two traced ops")
