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
