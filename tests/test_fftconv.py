import re
import tracemalloc

import numpy as np
import pytest

from diagssm import (
    causal_conv_fft,
    causal_conv_naive,
    fft,
    fftconv,
    softmax_eps,
    softmax_via_fft,
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
    """The whole-array formula the blocked convolution must reproduce bit for bit."""
    l = u.shape[-1]
    n = fftconv._next_pow2(2 * l)
    return np.fft.irfft(np.fft.rfft(u, n) * np.fft.rfft(kernel, n), n)[..., :l]


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("l", [1, 2, 33])
def test_conv_blocks_are_bitwise_the_one_shot_formula(monkeypatch, rows, l):
    # A budget of exactly `rows` row spectra; each block is a run of at most
    # `rows` rows inside one (..., H, L) slice, so blocks split H unevenly
    # (H = 5), cover a whole slice (H = 1, 2) or walk the extra leading axes.
    n = fftconv._next_pow2(2 * l)
    monkeypatch.setattr(fftconv, "_BLOCK_BYTES", rows * 16 * (n // 2 + 1))
    rng = np.random.default_rng(100 * rows + l)
    cases = [((5, l), (3, 5, l)), ((2, l), (4, 2, l)), ((1, l), (3, 1, l)),
             ((l,), (3, 5, l)), ((l,), (l,)), ((l,), (4, l)), ((3, 1, l), (2, 3, 2, l))]
    for kernel_shape, input_shape in cases:
        kernel = rng.standard_normal(kernel_shape)
        u = rng.standard_normal(input_shape)
        got = causal_conv_fft(kernel, u)
        assert got.shape == u.shape
        assert np.array_equal(got, one_shot_conv(kernel, u)), (kernel_shape, input_shape)


def test_conv_traced_peak_is_bounded():
    # The result and the kernel's spectrum (1 and 0.5 x the output's bytes
    # at B = 4) plus two 2 MB blocks; the whole-array transform held 5 x.
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
    with pytest.raises(ValueError, match="singular"):
        softmax_via_fft(1.5j, 8)  # purely imaginary: degenerate branch choice


def test_softmax_via_fft_general_length_falls_back():
    c = -0.8 + 1.1j
    got = softmax_via_fft(c, 12)
    want = softmax_eps(c * np.arange(12))
    assert np.abs(got - want).max() < 1e-12
