import importlib
import threading
from pathlib import Path

import pytest

from diagssm.hippo import _skew_hippo_mu


@pytest.fixture
def bench_module(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "ssmbench"))
    return importlib.import_module


def test_benchmark_boundaries_resolve(bench_module):
    # The benchmark's tracer wraps these names at start-up and exits when
    # one is gone; renaming or deleting one must fail here first.
    tracer = bench_module("tracer")
    sites = tracer.resolve_boundaries()
    assert {name for name, *_ in sites} == set(tracer.SPAN_NAMES)


def test_traced_setups_repeat_their_calls_from_a_cold_spectrum(bench_module):
    # A traced run fails unless every set-up root makes the same calls.  The
    # first conv_long set-up solves the spectrum and the later ones read it
    # from the cache, so the solve itself must call no traced boundary.
    tracer, workloads = bench_module("tracer"), bench_module("workloads")
    workload = workloads.WORKLOADS["conv_long"](0)
    traced = tracer.Tracer()
    _skew_hippo_mu.cache_clear()
    for _ in range(3):
        with traced.root("setup"):
            workload.setup()
    profile, counts_repeat = tracer.phase_profile(traced.per_root())
    assert counts_repeat
    assert profile["roots"] == 3
    assert profile["calls"]["hippo.skew_hippo_lambda"] == 2
    assert profile["calls"]["hippo.symmetric_eigenvalues"] == 0


def test_no_boundary_runs_off_the_calling_thread(bench_module, monkeypatch):
    # The tracer assumes one thread.  With every batch split, a conv_long
    # op at a short length runs shares on the pool's threads, and every
    # traced boundary still runs on the caller's.
    from diagssm import fftconv, shares
    tracer, workloads = bench_module("tracer"), bench_module("workloads")
    monkeypatch.setattr(shares, "_MIN_SHARE", 1)
    threads = {}

    def record(name, fn):
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for name, module, attr, fn, _ in tracer.resolve_boundaries():
        monkeypatch.setattr(module, attr, record(name, fn))
    monkeypatch.setattr(fftconv, "_conv_blocks", record("conv_blocks", fftconv._conv_blocks))
    workload = workloads.Stack2(0, "conv", 4, 256)
    state = workload.setup()
    workload.op(state, workload.draw())
    assert len(threads.pop("conv_blocks")) > 1                  # the op did split
    assert threads and all(seen == {threading.get_ident()} for seen in threads.values())
