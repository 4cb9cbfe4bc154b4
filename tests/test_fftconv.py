import math
import re
import tracemalloc

import numpy as np
import pytest

from diagssm import (
    VARIANTS,
    causal_conv_fft,
    causal_conv_naive,
    fft,
    fftconv,
    init_layer,
    layer_kernels,
    softmax_eps,
    softmax_via_fft,
    ssm_outputs,
)


def test_fft_impulse():
    got = fft(np.array([1, 0, 0, 0], dtype=complex))
    assert np.abs(got - 1.0).max() < 1e-15


def test_fft_constant():
    got = fft(np.ones(4, dtype=complex))
    assert np.abs(got - np.array([4, 0, 0, 0])).max() < 1e-15


def test_fft_roundtrip_long():
    rng = np.random.RandomState(0)
    x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    assert np.abs(fft(fft(x), inverse=True) - x).max() < 1e-12


def test_fft_parseval():
    rng = np.random.RandomState(1)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    spectrum = fft(x)
    lhs = np.sum(np.abs(x) ** 2)
    rhs = np.sum(np.abs(spectrum) ** 2) / x.size
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_fft_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        fft(np.zeros(6, dtype=complex))


def test_fft_length_one_is_identity():
    got = fft(np.array([2.5 - 1j]))
    assert got.shape == (1,)
    assert got[0] == 2.5 - 1j
    assert fft(got, inverse=True)[0] == 2.5 - 1j


def test_fft_rejects_matrix_input():
    with pytest.raises(ValueError, match="one-dimensional"):
        fft(np.zeros((2, 4), dtype=complex))


def test_conv_rejects_scalar_input():
    with pytest.raises(ValueError, match="at least one dimension"):
        causal_conv_fft(np.zeros(4), np.float64(1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_conv_refuses_non_finite_kernel_or_input(bad):
    # The transform would spread one NaN to every output, not only to later ones.
    spoiled = np.array([0.0, 0.0, 0.0, bad])
    with pytest.raises(ValueError, match="kernel must be finite"):
        causal_conv_fft(spoiled, np.ones(4))
    with pytest.raises(ValueError, match="input u must be finite"):
        causal_conv_fft(np.ones((2, 4)), np.stack([np.ones(4), spoiled]))


def test_conv_length_one():
    got = causal_conv_fft(np.array([3.0]), np.array([-2.0]))
    assert got.shape == (1,)
    assert got[0] == pytest.approx(-6.0, abs=1e-12)


def test_conv_identity_kernel():
    rng = np.random.RandomState(2)
    u = rng.standard_normal(16)
    k = np.zeros(16)
    k[0] = 1.0
    assert np.abs(causal_conv_naive(k, u) - u).max() < 1e-15
    assert np.abs(causal_conv_fft(k, u) - u).max() < 1e-12


def test_conv_all_ones_is_cumulative_sum():
    got = causal_conv_naive(np.ones(4), np.ones(4))
    assert np.array_equal(got, np.array([1.0, 2.0, 3.0, 4.0]))


@pytest.mark.parametrize("l", [3, 64, 128, 1000, 4096])
def test_conv_fft_matches_naive(l):
    rng = np.random.RandomState(l)
    k = rng.standard_normal(l)
    u = rng.standard_normal(l)
    assert np.abs(causal_conv_fft(k, u) - causal_conv_naive(k, u)).max() < 1e-10


@pytest.mark.parametrize("l", [1, 3, 1000])
def test_conv_fft_batched_rows_match_naive(l):
    rng = np.random.RandomState(l + 7)
    k = rng.standard_normal((3, l))
    u = rng.standard_normal((2, 3, l))
    got = causal_conv_fft(k, u)
    assert got.shape == (2, 3, l)
    assert got.flags.owndata
    for b in range(2):
        for h in range(3):
            assert np.abs(got[b, h] - causal_conv_naive(k[h], u[b, h])).max() < 1e-10


def test_conv_linearity():
    rng = np.random.RandomState(3)
    k = rng.standard_normal(200)
    u = rng.standard_normal(200)
    v = rng.standard_normal(200)
    lhs = causal_conv_fft(k, 2.5 * u - 1.25 * v)
    rhs = 2.5 * causal_conv_fft(k, u) - 1.25 * causal_conv_fft(k, v)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_conv_impulse_response_recovers_kernel():
    rng = np.random.RandomState(4)
    k = rng.standard_normal(100)
    impulse = np.zeros(100)
    impulse[0] = 1.0
    assert np.abs(causal_conv_naive(k, impulse) - k).max() < 1e-15
    assert np.abs(causal_conv_fft(k, impulse) - k).max() < 1e-12


def test_conv_length_mismatch():
    with pytest.raises(ValueError, match="lengths must match"):
        causal_conv_fft(np.ones(4), np.ones(5))
    with pytest.raises(ValueError, match="lengths must match"):
        causal_conv_fft(np.ones((3, 4)), np.ones((2, 3, 5)))
    with pytest.raises(ValueError, match="lengths must match"):
        causal_conv_naive(np.ones(4), np.ones(5))
    # a kernel that does not broadcast to the input's shape
    for kernel_shape, input_shape in (((3, 5), (5,)), ((2, 5), (3, 5)), ((2, 3, 5), (3, 5))):
        message = re.escape(f"kernel of shape {kernel_shape} does not broadcast "
                            f"to the input's shape {input_shape}")
        with pytest.raises(ValueError, match=message):
            causal_conv_fft(np.ones(kernel_shape), np.ones(input_shape))


def one_shot_conv(kernel, u):
    """The whole-array formula the blocked convolution must reproduce bit for bit.

    With m = max(4, next_pow2(L)), h = m/2 and tau_j = e^{-i*pi*j/m}, every
    row takes the cyclic half irfft(rfft(u, m) * X_e, m) and the negacyclic
    half conj(tau) * ifft(fft(fold(u) * tau) * X_o), fold(x) = x[:h] -
    i*x[h:] zero-padded to h points, where X_e = rfft(K, m)/2 and X_o =
    fft(fold(K) * tau)/2; the output is the first L of c[:h] + Re(w), then
    c[h:] - Im(w).
    Every product runs over whole rows, as the blocked path's do.
    """
    l = u.shape[-1]
    m = max(4, fftconv._next_pow2(l))
    h = m // 2
    tau = np.exp(-1j * np.pi * np.arange(h) / m)

    def fold(x):
        z = np.zeros(x.shape[:-1] + (h,), complex)
        z.real[..., :min(l, h)] = x[..., :h]
        z.imag[..., :max(l - h, 0)] = -x[..., h:]
        return z

    x_e = np.fft.rfft(kernel, m) * 0.5
    x_o = np.fft.fft(fold(kernel) * tau) * 0.5
    c = np.fft.irfft(np.fft.rfft(u, m) * x_e, m)
    w = np.fft.ifft(np.fft.fft(fold(u) * tau) * x_o) * tau.conj()
    return np.concatenate([c[..., :h] + w.real, c[..., h:] - w.imag], axis=-1)[..., :l]


@pytest.mark.parametrize("rows", [1, 2, 3, 8])
@pytest.mark.parametrize("l", [1, 2, 33, 1000])
def test_conv_blocks_are_bitwise_the_one_shot_formula(monkeypatch, rows, l):
    # A budget of exactly `rows` rows (16*m bytes each); a block is a run of
    # at most `rows` rows inside one (..., H, L) slice, so blocks split H
    # unevenly (H = 5), cover a whole slice (H = 1, 2) or walk the extra
    # leading axes (2 x 3), under kernels with and without leading axes of
    # their own.  Rows scaled by up to 2^+-1000, and all-zero rows, take
    # the same path as any other.
    m = max(4, fftconv._next_pow2(l))
    monkeypatch.setattr(fftconv, "_BLOCK_BYTES", rows * 16 * m)
    rng = np.random.default_rng(100 * rows + l)
    cases = [((5, l), (3, 5, l)), ((2, l), (4, 2, l)), ((1, l), (3, 1, l)),
             ((l,), (3, 5, l)), ((l,), (l,)), ((l,), (4, l)), ((3, 1, l), (2, 3, 2, l)),
             ((5, l), (5, 5, l)), ((1, 5, l), (2, 3, 5, l)), ((4, 5, l), (4, 5, l))]
    for scaled in (False, True):
        for kernel_shape, input_shape in cases:
            kernel = rng.standard_normal(kernel_shape)
            u = rng.standard_normal(input_shape)
            if scaled:
                u = np.ldexp(u, rng.integers(-1000, 1000, input_shape[:-1] + (1,)))
                u.reshape(-1, l)[::3] = 0
            got = causal_conv_fft(kernel, u)
            assert got.shape == u.shape
            assert np.array_equal(got, one_shot_conv(kernel, u)), (kernel_shape, input_shape, scaled)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("l", [1, 2, 3, 5, 33, 100, 1024, 1025])
def test_property_paired_rows_match_the_direct_sum(variant, l):
    # Conv-mode rows against the direct O(L^2) sum over the layer's own
    # kernels, with and without a kernel_limit: neighbouring batch rows
    # 2^1000 apart either way round, all-zero rows (whose outputs are exact
    # zeros) and batches of even and odd size; each row is transformed on
    # its own, at its own scale.
    rng = np.random.default_rng(l)
    params = init_layer(3, 8, variant, seed=l)
    for b in (2, 3, 4, 5):
        for limit in (None, int(rng.integers(1, l + 1))):
            kernels = layer_kernels(params, l, limit)
            u = rng.standard_normal((b, 3, l))
            u[0:b // 2 * 2:2, 0] *= 2.0 ** 1000
            u[1:b // 2 * 2:2, 1] *= 2.0 ** 1000
            u[b - 1, 2] = 0
            got = ssm_outputs(params, u, "conv", limit)
            for i, j in np.ndindex(b, 3):
                want = causal_conv_naive(kernels[j], u[i, j])
                assert np.abs(got[i, j] - want).max() <= 1e-13 * np.abs(want).max(), (b, limit, i, j)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("one_row_blocks", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("l", [1, 2, 3, 33, 1000, 1024, 1025])
def test_property_conv_row_bits_depend_on_neither_batch_nor_block(monkeypatch, variant, l,
                                                                  one_row_blocks):
    # Row i of a batch of 1 to 5 rows, each scaled by 2^k (|k| <= 1000) and
    # some all zero, is bit for bit the row convolved alone at the default
    # block size, whether the batch runs at that size or one row per block.
    rng = np.random.default_rng([VARIANTS.index(variant), l, one_row_blocks])
    params = init_layer(3, 8, variant, seed=l)
    batches = []
    for b in range(1, 6):
        u = np.ldexp(rng.standard_normal((b, 3, l)), rng.integers(-1000, 1001, (b, 3, 1)))
        u[rng.uniform(size=(b, 3)) < 0.2] = 0
        batches.append((u, [ssm_outputs(params, u[i:i + 1], "conv")[0] for i in range(b)]))
    if one_row_blocks:
        monkeypatch.setattr(fftconv, "_BLOCK_BYTES", 1)
    for u, alone in batches:
        got = ssm_outputs(params, u, "conv")
        for i, want in enumerate(alone):
            assert np.array_equal(got[i], want), (len(u), i)


@pytest.mark.parametrize("shape", [(0, 3, 5), (2, 0, 5), (2, 3, 0), (3, 0), (0,)])
def test_conv_of_empty_input_is_empty(shape):
    got = causal_conv_fft(np.ones(shape[-2:]), np.ones(shape))
    assert got.shape == shape


def test_conv_traced_peak_is_bounded():
    # The result and the kernel's spectrum (1 and 0.5 x the output's bytes
    # at B = 4) plus the blocks, 1 MB over all shares; the whole-array
    # transform held 5 x.
    rng = np.random.default_rng(6)
    kernel = rng.standard_normal((16, 16384))
    u = rng.standard_normal((4, 16, 16384))
    tracemalloc.start()
    try:
        out = causal_conv_fft(kernel, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * out.nbytes


def test_conv_plan_build_holds_about_the_plan():
    # Both halves of the plan are formed in place in it, so building it
    # holds the plan's own (H, m + 1) complex bytes, as many as a real
    # transform at 2m points would, plus numpy's small per-call buffers.
    # A first call at this length also makes numpy's FFT plans and the two
    # twist tables, once per process; it runs before the trace.
    kernel = np.random.default_rng(7).standard_normal((16, 16384))
    fftconv._kernel_spectrum(kernel[:1])
    tracemalloc.start()
    try:
        plan = fftconv._kernel_spectrum(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.shape == (16, 16385) and plan.dtype == np.complex128
    assert peak <= plan.nbytes + 64 * 1024


def test_softmax_via_fft_two_point_hand_value():
    got = softmax_via_fft(-1.0 + 0j, 2)
    want = np.array([0.7310585786300049, 0.2689414213699951])
    assert np.abs(got - want).max() < 1e-12


def test_softmax_via_fft_positive_branch():
    c = 2.0 + 0.31j
    got = softmax_via_fft(c, 8)
    want = softmax_eps(c * np.arange(8), eps=1e-14)
    assert np.abs(got - want).max() < 1e-8


def test_softmax_via_fft_sums_to_one():
    for c in (-0.7 + 2.2j, 1.3 - 5.0j, -2.0 + 0j):
        assert abs(softmax_via_fft(c, 64).sum() - 1.0) < 1e-9


def test_softmax_via_fft_grid_matches_direct():
    # both sign branches, imaginary parts up to 4*pi
    rng = np.random.RandomState(5)
    worst = 0.0
    for _ in range(60):
        sign = -1.0 if rng.uniform() < 0.5 else 1.0
        c = sign * rng.uniform(0.05, 2.0) + 1j * rng.uniform(-4 * np.pi, 4 * np.pi)
        for l in (8, 64, 1024):
            got = softmax_via_fft(c, l)
            want = softmax_eps(c * np.arange(l), eps=1e-12)
            worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-8


def test_softmax_via_fft_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        softmax_via_fft(0j, 8)
    with pytest.raises(ValueError, match="singular"):
        softmax_via_fft(-2j * np.pi * 3 / 8, 8)


@pytest.mark.parametrize("l", [1, 2, 3, 12, 1000, 1023, 1024, 4097, 65521])
def test_property_softmax_via_fft_one_formula_at_every_length_and_sign(l):
    # |Re c| log-uniform in [1e-3, 50] of both signs, and Re c = 0, with
    # |Im c| <= 4*pi.  c lies on a 2^-30 grid, so every c*k (|c| < 64,
    # k < 2^17) is exact in float64 and the direct softmax rounds only in
    # its exp and its sum; off the grid, rounding c*k alone moves it by up
    # to 1e-8 of its largest entry near a singular point at L = 65521.
    rng = np.random.RandomState(l)
    sign = np.where(rng.uniform(size=12) < 0.5, -1.0, 1.0)
    real = np.concatenate([sign * 10.0 ** rng.uniform(-3.0, math.log10(50.0), 12), np.zeros(4)])
    c = real + 1j * rng.uniform(-4 * np.pi, 4 * np.pi, real.size)
    c = np.round(c * 2.0 ** 30) / 2.0 ** 30
    for z in c:
        got = softmax_via_fft(z, l)
        want = softmax_eps(z * np.arange(l), eps=1e-300)
        assert got.shape == (l,)
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max(), z
    for r in (800.0, -800.0, 1e300, -1e300):
        got = softmax_via_fft(complex(r, rng.uniform(-4 * np.pi, 4 * np.pi)), l)
        assert np.all(np.isfinite(got))
        assert got[l - 1 if r > 0 else 0] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="singular"):
        softmax_via_fft(-2j * np.pi * (l // 2 + 1) / l, l)
