import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from diagssm import (VARIANTS, causal_conv_fft, init_layer, layer_forward, layer_kernels,
                     shares, ssm_outputs)
from diagssm import layer as layer_module


@pytest.fixture
def split_everything(monkeypatch):
    """Lower the floor so that every batch of two or more rows splits."""
    monkeypatch.setattr(shares, "_MIN_SHARE", 1)


def one_thread(monkeypatch, fn, *args):
    """fn(*args) with the floor above every batch, so it runs on one thread."""
    with monkeypatch.context() as m:
        m.setattr(shares, "_MIN_SHARE", 1 << 62)
        return fn(*args)


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_property_split_keeps_the_one_thread_bits(monkeypatch, split_everything, variant,
                                                  cores):
    # conv ssm_outputs, layer_forward and causal_conv_fft, split into as
    # many shares as there are cores, give the one-thread bits: rows at
    # scales 2^+-1000 and all-zero rows, with and without a kernel_limit,
    # a projection block small enough that groups of rows and column
    # blocks both occur, and kernels with leading axes of their own.
    monkeypatch.setattr(shares, "_cores", lambda: cores)
    rng = np.random.default_rng([VARIANTS.index(variant), cores, 46])
    params = init_layer(16, 4, variant, cores)
    params.w_out = rng.standard_normal((16, 16))
    params.b_out = rng.standard_normal(16)
    for l in (1, 2, 33, 1000, 1024, 1025):
        for b in (0, 1, 2, 3, 5):
            u = np.ldexp(rng.standard_normal((b, 16, l)), rng.integers(-1000, 1001, (b, 16, 1)))
            u[rng.uniform(size=(b, 16)) < 0.2] = 0
            for limit in (None, int(rng.integers(1, l + 1))):
                want = one_thread(monkeypatch, ssm_outputs, params, u, "conv", limit)
                assert np.array_equal(ssm_outputs(params, u, "conv", limit), want), (l, b, limit)
            for block in (layer_module._PROJECTION_BLOCK, 48):
                monkeypatch.setattr(layer_module, "_PROJECTION_BLOCK", block)
                want = one_thread(monkeypatch, layer_forward, params, u)
                assert np.array_equal(layer_forward(params, u), want), (l, b, block)
            kernels = layer_kernels(params, l)
            own = kernels * rng.uniform(0.5, 2.0, (b, 16, 1))      # a kernel per row
            for kernel in (kernels, kernels[None], own):
                want = one_thread(monkeypatch, causal_conv_fft, kernel, u)
                assert np.array_equal(causal_conv_fft(kernel, u), want), (l, b, kernel.shape)


def test_split_covers_a_batch_with_extra_leading_axes(split_everything):
    # causal_conv_fft splits on the first axis, and its kernels broadcast
    # along that axis or carry it themselves.
    rng = np.random.default_rng(4601)
    u = rng.standard_normal((3, 2, 5, 40))
    for kernel in (rng.standard_normal((5, 40)), rng.standard_normal((3, 1, 5, 40)),
                   rng.standard_normal((3, 2, 5, 40))):
        got = causal_conv_fft(kernel, u)
        want = [causal_conv_fft(kernel[i] if kernel.ndim == 4 else kernel, u[i])
                for i in range(3)]
        assert np.array_equal(got, np.stack(want))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", VARIANTS)
def test_overflow_in_a_worker_share_reruns_scaled(monkeypatch, split_everything, variant):
    # Row 1 runs on the pool's thread; its transform overflows near 1e306,
    # so it runs again scaled by a power of two, as it does on one thread
    # and alone, with no RuntimeWarning: numpy's error state reaches the
    # worker with the caller's context.
    monkeypatch.setattr(shares, "_cores", lambda: 2)
    params = init_layer(4, 8, variant, 0)
    u = np.random.default_rng(46).standard_normal((2, 4, 64))
    u[1] = 1e306
    got = ssm_outputs(params, u, "conv")
    assert np.isfinite(got).all()
    assert np.array_equal(got, one_thread(monkeypatch, ssm_outputs, params, u, "conv"))
    assert np.array_equal(got[1], ssm_outputs(params, u[1:], "conv")[0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", VARIANTS)
def test_ssm_output_past_float_range_in_a_worker_share_is_refused(monkeypatch,
                                                                  split_everything, variant):
    monkeypatch.setattr(shares, "_cores", lambda: 2)
    u = np.ones((2, 4, 64))
    u[1] = 1.7e308
    with pytest.raises(ValueError, match="^state-space output leaves float range$"):
        ssm_outputs(init_layer(4, 8, variant, 0), u, "conv")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["conv", "recurrent"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("field, u_value", [("w_out", 4.0), ("b_out", 1e307), ("u", 1.5e308)])
def test_layer_output_past_float_range_in_a_worker_share_is_refused(
        monkeypatch, split_everything, variant, mode, field, u_value):
    # test_layer_output_past_float_range_is_refused at a split shape: batch
    # row 0 (the caller's share) is zero and stays in range; row 1 (the
    # worker's) leaves it through the projection, the bias add or the
    # residual.  A projection block of one column makes each row a share.
    monkeypatch.setattr(shares, "_cores", lambda: 2)
    monkeypatch.setattr(layer_module, "_PROJECTION_BLOCK", 2)
    params = init_layer(2, 4, variant, 0)
    params.w = params.w * (0.5 / layer_kernels(params, 1)[:, 0])[:, None]
    u = np.zeros((2, 2, 1))
    u[1] = u_value
    if field == "w_out":
        params.w_out = np.full((2, 2), 1e308)
    elif field == "b_out":
        params.b_out = np.full(2, 1.7e308)
    with pytest.raises(ValueError, match="layer output leaves float range"):
        layer_forward(params, u, mode)


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_every_share_finishes_before_an_exception_reaches_the_caller(monkeypatch,
                                                                     split_everything, failing):
    monkeypatch.setattr(shares, "_cores", lambda: 3)
    finished = []

    def run(lo, hi):
        if lo == failing:
            raise KeyError(lo)
        time.sleep(0.05)
        finished.append(lo)

    with pytest.raises(KeyError) as caught:
        shares._split_rows(3, run, 1)
    assert caught.value.args == (failing,)
    assert sorted(finished) == [lo for lo in range(3) if lo != failing]
    # The pool takes the next split as usual.
    seen = []
    shares._split_rows(3, lambda lo, hi: seen.append((lo, hi)), 1)
    assert sorted(seen) == [(0, 1), (1, 2), (2, 3)]


def test_shares_align_to_step_and_cover_the_batch(monkeypatch, split_everything):
    monkeypatch.setattr(shares, "_cores", lambda: 3)
    for count, step, want in [(5, 2, [(0, 2), (2, 5)]), (7, 2, [(0, 2), (2, 4), (4, 7)]),
                              (3, 2, [(0, 3)]), (4, 1, [(0, 1), (1, 2), (2, 4)])]:
        seen = []
        shares._split_rows(count, lambda lo, hi: seen.append((lo, hi)), 1, step)
        assert sorted(seen) == want, (count, step)


def test_small_batches_stay_on_the_calling_thread():
    # Below _MIN_SHARE floats per share, as at recurrent_short's (4, 16, 1024).
    seen = []
    shares._split_rows(4, lambda lo, hi: seen.append((lo, hi, threading.get_ident())),
                       16 * 1024)
    assert seen == [(0, 4, threading.get_ident())]


def test_a_nested_split_runs_on_one_thread(monkeypatch, split_everything):
    # With a one-worker pool, a split asked for inside a share must not
    # wait for the worker that is running the other share.
    monkeypatch.setattr(shares, "_cores", lambda: 2)
    inner = []

    def run(lo, hi):
        shares._split_rows(4, lambda a, b: inner.append((lo, a, b, threading.get_ident())), 1)

    outer = threading.Thread(target=shares._split_rows, args=(2, run, 1), daemon=True)
    outer.start()
    outer.join(10)
    assert not outer.is_alive(), "nested split deadlocked"
    assert sorted(lo for lo, *_ in inner) == [0, 1]
    assert all((a, b) == (0, 4) for _, a, b, _ in inner)
    assert len({ident for *_, ident in inner}) == 2       # each share ran its own whole


def test_cores_fall_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert shares._cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert shares._cores() == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_gets_the_same_bits(monkeypatch, split_everything):
    # The child has none of the parent's pool threads; the pool is made
    # again there on first use, and the split gives the parent's bits.
    monkeypatch.setattr(shares, "_cores", lambda: 2)
    params = init_layer(4, 8, "exp", 0)
    u = np.random.default_rng(47).standard_normal((4, 4, 300))
    want = layer_forward(params, u)
    assert shares._pool
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)   # fork with threads running
        pid = os.fork()
    if pid == 0:
        code = 3
        try:
            signal.alarm(60)
            code = 2 if shares._pool else int(not np.array_equal(layer_forward(params, u), want))
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_workers_let_go_of_the_shares(monkeypatch, split_everything):
    # After a split no worker still holds the share's job, and with it the
    # share's arrays.
    monkeypatch.setattr(shares, "_cores", lambda: 2)
    shares._split_rows(2, lambda lo, hi: None, 1)
    assert shares._pool and all(worker.job is None for worker in shares._pool)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_conv_block_budgets_add_up_to_the_one_thread_budget(monkeypatch, cores):
    # Each share's blocks take its rows' part of _BLOCK_BYTES, so the
    # buffers of all shares stay within it, and a call that does not split
    # keeps the whole budget.
    from diagssm import fftconv
    monkeypatch.setattr(shares, "_cores", lambda: cores)
    budgets, real = [], fftconv._conv_blocks

    def conv_blocks(spec_k, u, out, budget):
        budgets.append((len(u), budget))
        return real(spec_k, u, out, budget)

    monkeypatch.setattr(fftconv, "_conv_blocks", conv_blocks)
    monkeypatch.setattr(shares, "_MIN_SHARE", 1 << 62)
    rng = np.random.default_rng(48)
    kernel, u = rng.standard_normal((4, 16)), rng.standard_normal((5, 4, 16))
    want = causal_conv_fft(kernel, u)
    assert budgets == [(5, fftconv._BLOCK_BYTES)]
    budgets.clear()
    monkeypatch.setattr(shares, "_MIN_SHARE", 1)
    assert np.array_equal(causal_conv_fft(kernel, u), want)
    assert len(budgets) == cores and sum(rows for rows, _ in budgets) == 5
    assert sum(budget for _, budget in budgets) <= fftconv._BLOCK_BYTES
    assert all(budget == fftconv._BLOCK_BYTES * rows // 5 for rows, budget in budgets)
