import dataclasses
import json
import math
import pickle
import random
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from diagssm import (
    SplitMix64,
    build_kernel,
    causal_conv_fft,
    chunked_scan,
    diagonal_kernels,
    dss_exp_kernel,
    dss_exp_noscale_kernel,
    dss_softmax_kernel,
    effective_lambda,
    gelu,
    init_layer,
    kernel_grad_exp,
    kernel_stats,
    layer_forward,
    layer_kernels,
    load_layer_params,
    params_from_json,
    params_to_json,
    run_exp,
    run_softmax_stable,
    save_layer_params,
    ssm_outputs,
    train_toy_delay,
    write_report_json,
)
from diagssm.cli import main as cli_main
from diagssm.fftconv import _BLOCK_BYTES
from diagssm.hippo import skew_hippo_lambda
from diagssm.kernel import VARIANTS, DiagonalParams, KernelParams, _diagonal_rates, _exp_blocks
from diagssm.layer import (
    _GELU_BLOCK,
    _MASK64,
    _PROJECTION_BLOCK,
    DELTA_INIT_HIGH,
    DELTA_INIT_LOW,
    TOY_DECAY_OVER_WINDOW,
    TOY_INIT_ENERGY,
    TOY_SLOW_MODE_RATE,
    LayerParams,
    _gelu_into,
    _layer_plan,
    _toy_kernel,
    _toy_system,
)
from diagssm.recurrence import _CHUNK, _GROUP
from test_kernel import _exact_exp


def small_layer(variant="softmax", h=4, n=6, seed=11):
    return init_layer(h, n, variant, seed)


def test_splitmix64_reference_stream():
    # reference values of the splitmix64 output function for seed 0; any
    # port must reproduce these before anything else
    rng = SplitMix64(0)
    got = [rng.next_u64() for _ in range(3)]
    assert got == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_splitmix64_uniform_range():
    rng = SplitMix64(123)
    draws = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in draws)


def test_splitmix64_normal_moments():
    rng = SplitMix64(7)
    draws = np.array([rng.normal() for _ in range(20000)])
    assert abs(draws.mean()) < 0.03
    assert abs(draws.std() - 1.0) < 0.03


# The vectorized draws against the scalar stream, which is the spec.

_GAMMA = 0x9E3779B97F4A7C15


def _replay(seed, ops):
    """Run ops on two generators of one seed: ("normal", 3) as one normals(3)
    call on the first and three normal() calls on the second, ("normal", None)
    as one scalar call on both.  Every draw, the state and the cached normal
    must agree bitwise after each op; returns the drawn values."""
    vec, sca = SplitMix64(seed), SplitMix64(seed)
    drawn = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, count in ops:
            if count is None:
                got, want = np.array([getattr(vec, kind)()]), np.array([getattr(sca, kind)()])
            else:
                got = getattr(vec, kind + "s")(count)
                want = np.array([getattr(sca, kind)() for _ in range(count)], dtype=float)
                assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (count,)
            assert got.tobytes() == want.tobytes(), (kind, count)
            assert vec._state == sca._state
            assert repr(vec._cached_normal) == repr(sca._cached_normal)     # -0.0 too
            drawn.extend(got.tolist())
    return drawn


@pytest.mark.parametrize("seed", [0, -1, 2 ** 63, 2 ** 64 - 1])
@pytest.mark.parametrize("count", [0, 1, 2, 7, 64, 1001])
def test_vectorized_draws_are_the_scalar_stream(seed, count):
    for kind in ("uniform", "normal"):
        _replay(seed, [(kind, count), (kind, count)])
        _replay(seed, [("normal", None), (kind, count), ("normal", None)])   # z1 pending first


def test_mixed_draws_are_the_scalar_stream():
    # normal(); normals(3); uniform(); normals(4), and so on.
    _replay(5, [("normal", None), ("normal", 3), ("uniform", None), ("normal", 4)])
    _replay(5, [("normal", 1), ("uniform", 2), ("normal", 0), ("normal", None),
                ("normal", 1), ("next_u64", None), ("normal", 2), ("uniform", None)])


def test_property_vectorized_draws_are_the_scalar_stream():
    rs = random.Random(2028)
    for _ in range(150):
        ops = []
        for _ in range(rs.randrange(1, 9)):
            kind = rs.choice(["uniform", "normal", "next_u64"])
            ops.append((kind, None if kind == "next_u64" else
                        rs.choice([None, 0, 1, 2, 3, rs.randrange(200)])))
        _replay(rs.randrange(-2 ** 63, 2 ** 64), ops)


def _unshift(y, shift):
    """The x with x ^ (x >> shift) == y."""
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix(z):
    """The counter whose splitmix64 mix is z: the finalizer's xor-shifts and
    odd multiplies inverted mod 2^64, last step first."""
    x = _unshift(z, 31)
    x = _unshift(x * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64, 27)
    return _unshift(x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64, 30)


def _seed_drawing(z, k):
    """A seed whose k-th raw output (1-based) is z: raw output k mixes seed + k*gamma."""
    return (_unmix(z) - k * _GAMMA) & _MASK64


@pytest.mark.parametrize("z", [0, 1, (1 << 11) - 1])
@pytest.mark.parametrize("k", [1, 2, 3, 10, 19])
def test_zero_uniform_is_the_scalar_stream(z, k):
    # Raw outputs below 2^11 map to the uniform 0.0; at an odd position of a
    # normal draw it is u1, which is replaced by 2^-53, at an even one u2.
    seed = _seed_drawing(z, k)
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(k)][-1] == z
    assert _replay(seed, [("uniform", 20)])[k - 1] == 0.0
    normals = _replay(seed, [("normal", 20)])
    _replay(seed, [("normal", 9), ("normal", 11)])
    pair = normals[(k - 1) // 2 * 2:][:2]
    radius = math.sqrt(-2.0 * math.log(2.0 ** -53))
    if k % 2:
        assert math.hypot(*pair) == pytest.approx(radius, rel=1e-15)
    else:
        assert pair[1] == 0.0 and pair[0] > 0.0


def _scalar_init_draws(h, n, seed):
    """init_layer's delta_log and w drawn one scalar call at a time, in the documented order."""
    rng = SplitMix64(seed)
    lo, hi = math.log(DELTA_INIT_LOW), math.log(DELTA_INIT_HIGH)
    delta_log = np.array([lo + rng.uniform() * (hi - lo) for _ in range(h)])
    w = np.empty((h, n), dtype=np.complex128)
    for row in range(h):
        for col in range(n):
            w[row, col] = complex(rng.normal(), rng.normal())
    return delta_log, w


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", [0, 3, -7, 2 ** 63 + 5, 123456789])
def test_init_layer_draws_are_the_scalar_stream(variant, seed):
    for h, n in ((16, 64), (1, 1), (3, 5)):
        params = init_layer(h, n, variant, seed)
        delta_log, w = _scalar_init_draws(h, n, seed)
        for got, want in ((params.delta_log, delta_log), (params.w, w)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def test_init_deterministic_and_shaped():
    a = init_layer(3, 5, "softmax", seed=9)
    b = init_layer(3, 5, "softmax", seed=9)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.delta_log, b.delta_log)
    assert a.w.shape == (3, 5)
    assert np.array_equal(a.w_out, np.eye(3))
    assert np.array_equal(a.b_out, np.zeros(3))


def test_init_delta_range():
    params = init_layer(64, 4, "exp", seed=2)
    deltas = np.exp(params.delta_log)
    assert np.all(deltas >= DELTA_INIT_LOW)
    assert np.all(deltas <= DELTA_INIT_HIGH)


def test_init_effective_real_part_is_minus_half():
    soft = init_layer(2, 8, "softmax", seed=0)
    assert np.all(soft.lambda_re == -0.5)
    expv = init_layer(2, 8, "exp", seed=0)
    assert np.abs(-np.exp(expv.lambda_re) + 0.5).max() < 1e-15


def test_init_parameter_count_identity():
    h, n = 5, 7
    params = init_layer(h, n, "softmax", seed=1)
    count = (params.lambda_re.size + params.lambda_im.size
             + params.delta_log.size + 2 * params.w.size)
    assert count == 2 * n + h + 2 * h * n


def test_gelu_zero():
    assert gelu(0.0) == 0.0


def test_gelu_left_tail():
    assert abs(gelu(-20.0)) < 1e-8


def test_gelu_at_minus_inf_is_minus_zero_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gelu(np.array([-np.inf, np.inf]))
    assert_bitwise(got, np.array([-0.0, np.inf]))


@pytest.mark.parametrize("x", [1e200, -1e200, 1.7e308, -1.7e308])
def test_gelu_of_huge_finite_input_does_not_warn(x):
    # Past |x| ~ 1.34e154 the square of x/sqrt(2) overflows to inf, erfc's
    # exp gives 0 and GELU is x or -0, so no warning is due.  Beside x, a
    # seeded sweep of both signs at every magnitude from 1e-300 up to |x|,
    # with zeros, subnormals, infinities and NaN, many of them where erfc
    # underflows.
    rng = np.random.default_rng(int(abs(x) > 1e300) + 2 * (x < 0))
    top = math.log10(abs(x))
    sweep = np.sign(rng.standard_normal(1 << 16)) * 10.0 ** rng.uniform(-300.0, top, 1 << 16)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, np.inf, -np.inf, np.nan]
    xs = np.concatenate(([x], sweep, specials))
    with np.errstate(over="ignore", invalid="ignore"):
        want = oracle_gelu(xs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gelu(xs)
    assert_bitwise(got, want)


@pytest.mark.parametrize("mode", ["conv", "recurrent"])
def test_layer_forward_of_huge_finite_input_does_not_warn(mode):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = layer_forward(init_layer(4, 8, "exp", 0), np.full((1, 4, 64), 1e300), mode)
    assert np.isfinite(out).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["conv", "recurrent"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("field, u_value", [("w_out", 4.0), ("b_out", 1e307), ("u", 1.5e308)])
def test_layer_output_past_float_range_is_refused(variant, mode, field, u_value):
    # At L = 1 with W scaled so each kernel opens at 0.5, the SSM output is
    # u/2 and finite in both modes; then the projection (w_out), the bias
    # add (b_out) or the residual y + u (u) alone leaves float range.
    params = init_layer(2, 4, variant, 0)
    params.w = params.w * (0.5 / layer_kernels(params, 1)[:, 0])[:, None]
    u = np.full((1, 2, 1), u_value)
    assert np.isfinite(ssm_outputs(params, u, mode)).all()
    if field == "w_out":
        params.w_out = np.full((2, 2), 1e308)
    elif field == "b_out":
        params.b_out = np.full(2, 1.7e308)
    with pytest.raises(ValueError, match="layer output leaves float range"):
        layer_forward(params, u, mode)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", VARIANTS)
def test_property_both_views_agree_on_inputs_from_1e_305_to_1e306(variant):
    # Conv mode's transform overflowed on rows near 1e306, and the scan's
    # products near 1e307, where the outputs are finite.  A row that
    # overflows runs again scaled by a power of two, so every row at any
    # scale, in a batch of mixed scales, gives the same answer in both views
    # (1e-14 of the row's largest output measured), and no warning.  Conv
    # mode convolves batch rows two per complex FFT, the smaller lifted to
    # the larger's binary exponent, so partners 2^2000 apart, an impulse
    # beside a dense row, and a kernel near 1e300 over a 1e-300 input each
    # round at their own scale.
    rng = np.random.default_rng([VARIANTS.index(variant), 22])
    params = init_layer(4, 8, variant, 0)
    loud = dataclasses.replace(params, w=params.w * (1e300 / np.abs(layer_kernels(params, 64)).max()))
    full = np.full((1, 4, 64), 1e306)
    cases = [full] + [rng.uniform(-1.0, 1.0, (3, 4, 64)) * 10.0 ** rng.uniform(-305, 306, (3, 4, 1))
                      for _ in range(12)]
    cases[1][0, :2, :] = [[1e306], [1e-305]]
    for b in (2, 4):
        dense = rng.uniform(-1.0, 1.0, (b, 4, 64))
        cases.append(dense * 2.0 ** np.where(np.arange(b) % 2, -1000, 1000)[:, None, None])
        cases.append(dense * 2.0 ** np.where(np.arange(b) % 2, 1000, -1000)[:, None, None])
        impulse = dense.copy()
        impulse[::2] = 0
        impulse[::2, :, 0] = 1
        cases.append(impulse)
    cases = [(params, u) for u in cases] + [(loud, 1e-300 * rng.uniform(-1.0, 1.0, (b, 4, 64)))
                                           for b in (1, 2, 3)]
    for p, u in cases:
        conv, rec = ssm_outputs(p, u, "conv"), ssm_outputs(p, u, "recurrent")
        top = np.abs(rec).max(axis=2)
        assert (top > 0).all() and np.isfinite(top).all()
        assert (np.abs(conv - rec).max(axis=2) <= 1e-12 * top).all()
    assert np.abs(ssm_outputs(params, full, "conv")).max() > 1e306


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["conv", "recurrent"])
@pytest.mark.parametrize("variant, value", [("exp", 1.7e308), ("softmax", 1.7e308),
                                            ("exp_no_scale", 1e307)])
def test_both_views_refuse_an_ssm_output_past_float_range(variant, mode, value):
    # The true output is about 3.6 (exp), 3.9 (softmax) and 103
    # (exp_no_scale) times the constant input, past float range here.
    params = init_layer(4, 8, variant, 0)
    with pytest.raises(ValueError, match="^state-space output leaves float range$"):
        ssm_outputs(params, np.full((1, 4, 64), value), mode)


def test_gelu_at_one_matches_normal_cdf():
    assert abs(gelu(1.0) - 0.8413447460685429) < 1e-7


def test_gelu_erf_accuracy():
    xs = np.linspace(-6, 6, 4001)
    want = np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2))) for v in xs])
    assert np.abs(gelu(xs) - want).max() < 1e-7


_ORACLE_ERF_COEFFS = (
    -1.26551223, 1.00002368, 0.37409196, 0.09678418, -0.18628806,
    0.27886807, -1.13520398, 1.48851587, -0.82215223, 0.17087277,
)


def oracle_gelu(x):
    # The unblocked one-line GELU the blocked one must reproduce bit for bit.
    x = np.asarray(x, dtype=float)
    s = x / math.sqrt(2.0)
    z = np.abs(s)
    t = 1.0 / (1.0 + 0.5 * z)
    poly = np.zeros_like(t)
    for coeff in reversed(_ORACLE_ERF_COEFFS[1:]):
        poly = t * (poly + coeff)
    erfc = t * np.exp(-z * z + _ORACLE_ERF_COEFFS[0] + poly)
    erf = np.where(s >= 0.0, 1.0 - erfc, erfc - 1.0)
    return np.where(x == -np.inf, -0.0, 0.5 * x * (1.0 + erf))   # GELU's limit at -inf


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("size", [0, 1, _GELU_BLOCK - 1, _GELU_BLOCK, _GELU_BLOCK + 1,
                                  3 * _GELU_BLOCK + 7])
def test_gelu_matches_unblocked_formula_bitwise(size):
    x = 4.0 * np.random.default_rng(size).standard_normal(size)
    kept = x.copy()
    assert_bitwise(gelu(x), oracle_gelu(x))
    assert_bitwise(x, kept)


def test_gelu_bitwise_on_any_layout_and_non_finite_entries():
    rng = np.random.default_rng(7)
    block = 3.0 * rng.standard_normal((5, 2 * _GELU_BLOCK // 5 + 3))
    specials = block.copy()
    specials.flat[rng.choice(specials.size, 30, replace=False)] = [np.nan, np.inf, -np.inf] * 10
    cases = [
        block.T,                    # transposed view
        block[::2, 1::3],           # strided view
        specials,
        np.array([-0.0, 0.0, 5e-324, -5e-324, 40.0, -40.0, 1e300, -1e300]),
        np.array([np.copysign(np.nan, -1.0), np.nan, -1.0, 1.0]),  # NaN of each sign
        np.arange(-20, 21),         # int array
        np.abs(block),              # blocks of one sign only
        -np.abs(block),
        np.abs(block.ravel()) * np.resize([1.0, -1.0], block.size),  # alternating signs
    ]
    edges = 3.0 * rng.standard_normal(3 * _GELU_BLOCK + 5)
    edges[rng.choice(edges.size, 60, replace=False)] = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf] * 10
    cases.append(edges)
    for x in cases:
        kept = x.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            assert_bitwise(gelu(x), oracle_gelu(x))
            # In place, as layer_forward runs it: the same bits as a fresh output.
            inplace = np.array(x, dtype=float, order="C")
            assert _gelu_into(inplace, inplace) is inplace
            assert_bitwise(inplace, gelu(x))
        assert_bitwise(x, kept)
    for scalar in (0.0, -1.5, 2, np.float64(0.3)):
        got = gelu(scalar)
        assert np.ndim(got) == 0 and isinstance(got, np.float64)
        assert_bitwise(got, oracle_gelu(scalar))


def test_gelu_scratch_memory_is_cache_sized():
    # Blocked evaluation: besides its output gelu holds only block-sized
    # buffers, where the unblocked formula held ~9 input-sized temporaries.
    x = np.random.default_rng(0).standard_normal((4, 16, 16384))
    tracemalloc.start()
    try:
        out = gelu(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * out.nbytes


def test_gelu_in_place_holds_four_block_buffers():
    # The in-place GELU of layer_forward allocates its four float scratch
    # blocks and nothing else: no mask or sign buffer, no input-sized array.
    y = np.random.default_rng(1).standard_normal((4, 16, 16384))
    tracemalloc.start()
    try:
        _gelu_into(y, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * _GELU_BLOCK + 4096


def test_conv_layer_forward_holds_one_output_sized_array():
    # With its plan kept, a conv layer_forward allocates its output and,
    # beside it, two FFT blocks, the GELU's four block buffers and the
    # projection scratch.  A projection into a fresh array, w_out @ y, put
    # the traced peak at 2.0x the output, over this bound.
    params = init_layer(16, 64, "exp", 0)
    u = np.random.default_rng(4).standard_normal((4, 16, 16384))
    layer_forward(params, u)
    tracemalloc.start()
    try:
        out = layer_forward(params, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2 * _BLOCK_BYTES + 4 * 8 * _GELU_BLOCK + 8 * _PROJECTION_BLOCK


@pytest.mark.parametrize("l", [1024, 16384])
@pytest.mark.parametrize("variant", ["exp", "softmax"])
def test_recurrent_ssm_outputs_holds_output_and_one_group(variant, l):
    # With its plan kept, a recurrent call allocates its output and one
    # group's scratch: the chunk-major states (one slot more than a group),
    # the read-out block, the broadcast decay and one state-sized product,
    # the offset modes' row, and numpy's two iterator buffers for the add
    # into y's strided group view.  None of it grows with L.  The softmax
    # layer's far modes (Re(lam) dt up to 0.025) all run in the read-out
    # frame at L = 1024, with no offset row; at L = 16384 most are past its
    # span, on the offsets.
    b, h, n = 4, 16, 64
    params = init_layer(h, n, variant, 0)
    if variant == "softmax":
        params.lambda_re[::2] = 0.25
    u = np.random.default_rng(5).standard_normal((b, h, l))
    ssm_outputs(params, u, "recurrent")
    if variant == "softmax":
        plan = _layer_plan(params, "recurrent", l, None)
        assert plan.lift and (plan.far_hi is None) == (l == 1024)
    tracemalloc.start()
    try:
        out = ssm_outputs(params, u, "recurrent")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    group = 8 * b * h * ((_GROUP + 1) * 2 * n + _GROUP * _CHUNK) + 16 * (2 * b * h * n + h * n)
    assert peak <= out.nbytes + group + 2 * 8 * np.getbufsize() + 16384


def test_gelu_erf_within_1e7_of_math_erf():
    # erf recovered from gelu as 2*gelu(x)/x - 1 at x = sqrt(2)*s, which
    # adds ~1e-15 of rounding to the erfcc approximation's own error.
    s = np.random.default_rng(2024).uniform(-10.0, 10.0, 200_000)
    s = s[s != 0.0]
    x = s * math.sqrt(2.0)
    erf = 2.0 * gelu(x) / x - 1.0
    want = np.array([math.erf(v) for v in x / math.sqrt(2.0)])
    assert np.abs(erf - want).max() < 1e-7


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mode", ["conv", "recurrent"])
def test_layer_forward_matches_einsum_projection(variant, mode):
    params = small_layer(variant, h=5, n=6, seed=3)
    rng = np.random.default_rng(VARIANTS.index(variant))
    params.w_out = rng.standard_normal((5, 5))
    params.b_out = rng.standard_normal(5)
    u = rng.standard_normal((3, 5, 100))
    kept = u.copy()
    out = layer_forward(params, u, mode=mode)
    want = (np.einsum("ij,bjl->bil", params.w_out, oracle_gelu(ssm_outputs(params, u, mode) + u))
            + params.b_out[None, :, None])
    assert np.abs(out - want).max() <= 1e-12 * max(1.0, np.abs(out).max())
    assert_bitwise(u, kept)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mode", ["conv", "recurrent"])
def test_property_blocked_projection_is_the_whole_array_product(variant, mode):
    # The projection runs in place, one block of columns (of one or more
    # batch rows) at a time; lengths fall inside one block and at and
    # across block edges.
    # A row of one block is the whole-array product's own BLAS call, so the
    # bits match.  Across blocks BLAS may sum in another order (a one-column
    # block goes through gemv; OpenBLAS's column-tail kernels round
    # differently), so both sides are within an H-term dot product's
    # rounding of the exact sum, the bias counted as one more term.
    rng = np.random.default_rng([VARIANTS.index(variant), mode == "conv", 31])
    eps = np.finfo(float).eps
    for h in (1, 5, 16):
        params = init_layer(h, 4, variant, h)
        params.w_out = rng.standard_normal((h, h))
        params.b_out = rng.standard_normal(h)
        cols = _PROJECTION_BLOCK // h
        for b in (1, 3):
            for l in (1, 7, cols - 1, cols, cols + 1, 2 * cols + 1):
                u = rng.standard_normal((b, h, l))
                kept = u.copy()
                g = gelu(ssm_outputs(params, u, mode) + u)
                want = params.w_out @ g + params.b_out[:, None]
                got = layer_forward(params, u, mode)
                if l <= cols:
                    assert_bitwise(got, want)
                else:
                    mass = np.abs(params.w_out) @ np.abs(g) + np.abs(params.b_out)[:, None]
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert np.all(np.abs(got - want) <= 2 * (h + 1) * eps * mass)
                assert_bitwise(u, kept)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mode", ["conv", "recurrent"])
def test_non_finite_input_is_refused(variant, mode):
    # Unrefused, one NaN turns earlier positions NaN in both modes.
    params = small_layer(variant)
    rng = np.random.default_rng([VARIANTS.index(variant), mode == "conv"])
    for bad in (np.nan, np.inf, -np.inf):
        u = rng.standard_normal((2, 4, 64))
        u[tuple(rng.integers(dim) for dim in u.shape)] = bad
        with pytest.raises(ValueError, match="input u must be finite"):
            ssm_outputs(params, u, mode=mode)
        with pytest.raises(ValueError, match="input u must be finite"):
            layer_forward(params, u, mode=mode)


@pytest.mark.parametrize("mode", ["conv", "recurrent"])
def test_input_is_scanned_for_non_finite_values_once(monkeypatch, mode):
    params = small_layer("softmax")
    u = np.random.default_rng(3).standard_normal((2, 4, 40))
    scans = []
    real = np.isfinite

    def counting_isfinite(x, *args, **kwargs):
        scans.append(np.shape(x) == u.shape)
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    ssm_outputs(params, u, mode=mode)
    assert sum(scans) == 1


def test_layer_forward_zero_input_zero_output():
    params = small_layer()
    out = layer_forward(params, np.zeros((2, 4, 32)))
    assert np.abs(out).max() == 0.0


def test_layer_forward_shape_contract():
    params = small_layer()
    out = layer_forward(params, np.random.RandomState(0).standard_normal((2, 4, 64)))
    assert out.shape == (2, 4, 64)


def test_layer_forward_shape_mismatch():
    params = small_layer()
    with pytest.raises(ValueError, match="coordinate count"):
        layer_forward(params, np.zeros((1, 3, 16)))
    with pytest.raises(ValueError, match="shape"):
        layer_forward(params, np.zeros((3, 16)))


@pytest.mark.parametrize("field", ["w_out", "b_out"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "shape"])
def test_layer_forward_refuses_bad_projection(field, bad):
    params = small_layer()
    if bad == "shape":
        setattr(params, field, getattr(params, field)[:-1])
        message = f"{field} must have shape"
    else:
        getattr(params, field).flat[-1] = bad
        message = f"{field} must be finite"
    with pytest.raises(ValueError, match=message):
        layer_forward(params, np.ones((1, 4, 16)))


@pytest.mark.parametrize("variant", ["exp", "softmax", "exp_no_scale"])
def test_layer_modes_agree(variant):
    params = small_layer(variant)
    u = np.random.RandomState(1).standard_normal((2, 4, 128))
    out_conv = layer_forward(params, u, mode="conv")
    out_rec = layer_forward(params, u, mode="recurrent")
    assert np.abs(out_conv - out_rec).max() < 1e-6


def test_modes_agree_where_softmax_row_sum_vanishes():
    # e^{lam dt L} = 1 (Re lam = 0, Im lam = 2 pi / (dt L)): the row sum of
    # that mode is zero up to rounding, and both modes give the same
    # eps-regularized output instead of the recurrence raising
    l = 64
    params = init_layer(1, 2, "softmax", 0)
    params.lambda_re[1] = 0.0
    params.lambda_im[1] = 2.0 * math.pi / (math.exp(params.delta_log[0]) * l)
    u = np.random.RandomState(0).standard_normal((2, 1, l))
    out_conv = ssm_outputs(params, u, mode="conv")
    out_rec = ssm_outputs(params, u, mode="recurrent")
    assert np.isfinite(out_rec).all()
    assert np.abs(out_conv - out_rec).max() < 1e-6


@pytest.mark.parametrize("field", ["lambda_re", "delta_log", "w"])
def test_recurrent_mode_refuses_non_finite(field):
    params = small_layer("softmax")
    getattr(params, field).flat[0] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        ssm_outputs(params, np.ones((1, 4, 16)), mode="recurrent")


# Seeded property test: ssm_outputs keeps each layer's plan for each mode
# (the scan's tables, the kernels' spectrum), and reuses it only while the
# parameters, L and kernel_limit are unchanged.

def fresh_scan(params, u):
    delta = np.exp(params.delta_log)
    return chunked_scan(params.variant, effective_lambda(params), delta, params.w, u)


def refusal(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


_SCAN_ARRAYS = ("lambda_re", "lambda_im", "delta_log", "w")


@pytest.mark.parametrize("variant", ["exp", "softmax", "exp_no_scale"])
def test_property_kept_scan_plan_is_a_fresh_scan(variant):
    rng = np.random.default_rng([2026, VARIANTS.index(variant)])
    layers = [init_layer(int(rng.integers(1, 5)), int(rng.integers(1, 9)), variant,
                         int(rng.integers(2 ** 31))) for _ in range(2)]
    if variant == "softmax":
        for params in layers:       # far modes, Re(lam) > 0
            params.lambda_re[rng.random(params.n) < 0.5] = 0.25
    lengths = [33] * 2
    for call in range(48):
        which = int(rng.integers(2))
        params, l = layers[which], lengths[which]
        change = rng.integers(3)    # 0: none, 1: an array in place, 2: L
        if change == 1:
            name = _SCAN_ARRAYS[call % 4]
            value = getattr(params, name)
            value.flat[rng.integers(value.size)] += 0.01j if name == "w" else 0.01
        elif change == 2:
            l = int(rng.choice([n for n in (1, 31, 33, 1000) if n != l]))
        lengths[which] = l
        kept = params._plans.get("recurrent")
        u = rng.standard_normal((int(rng.integers(1, 4)), params.h, l))
        got = ssm_outputs(params, u, "recurrent")
        assert got.tobytes() == fresh_scan(params, u).tobytes()
        # A call with nothing changed keeps the plan; any change builds a new one.
        assert (params._plans.get("recurrent") is kept) == (kept is not None and change == 0)

    # Both modes on the same layers, alternating as the benchmark's recurrent
    # workload does when it checks each op in conv mode.  seen[which][mode]
    # is (L, kernel_limit) at that mode's last call, dropped by an array edit;
    # the recurrent plans of the calls above are kept.
    seen = [{"recurrent": (l, None)} if params._plans else {} for params, l in zip(layers, lengths)]
    limits = [None, None]
    for call in range(96):
        which = int(rng.integers(2))
        params, l, limit = layers[which], lengths[which], limits[which]
        mode = ("conv", "recurrent")[int(rng.integers(2))]
        other = "recurrent" if mode == "conv" else "conv"
        change = rng.integers(4)    # 0: none, 1: an array in place, 2: L, 3: kernel_limit
        if change == 1:
            name = _SCAN_ARRAYS[call % 4]
            value = getattr(params, name)
            value.flat[rng.integers(value.size)] += 0.01j if name == "w" else 0.01
            seen[which] = {}
        elif change == 2:
            l = int(rng.choice([n for n in (1, 31, 33, 1000) if n != l]))
        elif change == 3:
            limit = rng.choice([v for v in (None, 1, 7, 40) if v != limit])
        lengths[which], limits[which] = l, limit
        arg = limit if mode == "conv" else None
        kept, kept_other = params._plans.get(mode), params._plans.get(other)
        u = rng.standard_normal((int(rng.integers(1, 4)), params.h, l))
        got = ssm_outputs(params, u, mode, arg)
        if mode == "conv":
            want = causal_conv_fft(layer_kernels(params, l, arg), u)
        else:
            want = fresh_scan(params, u)
        assert got.tobytes() == want.tobytes()
        assert (params._plans.get(mode) is kept) == (seen[which].get(mode) == (l, arg))
        assert params._plans.get(other) is kept_other
        seen[which][mode] = (l, arg)

    params = layers[0]
    u = rng.standard_normal((1, params.h, 40))     # one row: BLAS takes its matrix-vector path
    ssm_outputs(params, u, "recurrent")
    ssm_outputs(params, u, "conv", 7)
    clone = pickle.loads(pickle.dumps(params))
    assert clone._plans.get("recurrent") is None
    assert clone._plans.get("conv") is None
    assert ssm_outputs(clone, u, "recurrent").tobytes() == fresh_scan(params, u).tobytes()
    want = causal_conv_fft(layer_kernels(params, 40, 7), u)
    assert ssm_outputs(clone, u, "conv", 7).tobytes() == want.tobytes()
    kept = params._plans["conv"]
    params.delta_log[-1], old = 800.0, params.delta_log[-1]
    want = refusal(lambda: ssm_outputs(dataclasses.replace(params), u, "recurrent"))
    assert refusal(lambda: ssm_outputs(params, u, "recurrent")) == want
    want = refusal(lambda: ssm_outputs(dataclasses.replace(params), u, "conv", 7))
    assert refusal(lambda: ssm_outputs(params, u, "conv", 7)) == want
    params.delta_log[-1] = old      # the plan kept from before the edit applies again
    u[-1, -1, -1] = np.nan
    with pytest.raises(ValueError, match="input u must be finite"):
        ssm_outputs(params, u, "recurrent")
    with pytest.raises(ValueError, match="input u must be finite"):
        ssm_outputs(params, u, "conv", 7)
    assert params._plans["conv"] is kept


@pytest.mark.parametrize("variant", ["exp", "softmax", "exp_no_scale"])
@pytest.mark.parametrize("mode", ["conv", "recurrent"])
def test_ssm_outputs_rejects_empty_input(variant, mode):
    with pytest.raises(ValueError, match="input length"):
        ssm_outputs(small_layer(variant), np.zeros((2, 4, 0)), mode=mode)


def test_layer_truncation_locality():
    params = small_layer("softmax", h=3, n=4, seed=5)
    rng = np.random.RandomState(6)
    u = rng.standard_normal((1, 3, 256))
    limit = 32
    probe = 200
    pert = u.copy()
    pert[0, :, probe - limit - 5] += 2.5
    base = ssm_outputs(params, u, kernel_limit=limit)
    moved = ssm_outputs(params, pert, kernel_limit=limit)
    assert np.abs(base[0, :, probe] - moved[0, :, probe]).max() < 1e-12
    # without truncation the same perturbation is visible at the probe
    assert np.abs(
        ssm_outputs(params, u)[0, :, probe]
        - ssm_outputs(params, pert)[0, :, probe]
    ).max() > 1e-9


def test_layer_truncation_requires_conv():
    params = small_layer("softmax")
    with pytest.raises(ValueError, match="conv"):
        ssm_outputs(params, np.zeros((1, 4, 16)), mode="recurrent", kernel_limit=4)


def test_kernel_stats_normalization():
    params = small_layer("exp", h=2, n=3, seed=3)
    stats = kernel_stats(params, 64)
    assert stats.profiles.shape == (2, 64)
    assert np.abs(stats.profiles.max(axis=1) - 1.0).max() < 1e-15
    kernels = layer_kernels(params, 64)
    for row in range(2):
        assert stats.argmax_pos[row] == int(np.argmax(np.abs(kernels[row])))


def test_kernel_stats_known_profile():
    params = LayerParams(
        variant="exp", h=1, n=1,
        lambda_re=np.array([0.0]), lambda_im=np.array([0.0]),
        delta_log=np.array([math.log(math.log(2.0))]),
        w=np.array([[1.0 + 0j]]), w_out=np.eye(1), b_out=np.zeros(1),
    )
    stats = kernel_stats(params, 4)
    assert stats.argmax_pos[0] == 0
    assert np.abs(stats.profiles[0] - np.array([1.0, 0.5, 0.25, 0.125])).max() < 1e-12


def test_kernel_stats_zero_kernel_row():
    params = LayerParams(
        variant="exp", h=1, n=1,
        lambda_re=np.array([0.0]), lambda_im=np.array([0.0]),
        delta_log=np.array([0.0]),
        w=np.array([[0j]]), w_out=np.eye(1), b_out=np.zeros(1),
    )
    stats = kernel_stats(params, 8)
    assert stats.argmax_pos[0] == 0
    assert np.array_equal(stats.profiles[0], np.zeros(8))


@pytest.mark.parametrize("args", [(4, 16, 1.5, 2), (4.0, 16, 1, 2), (4, 16.0, 1, 2),
                                  (4, 16, 1, 2.0)])
def test_train_toy_refuses_non_integer_sizes(args):
    # A fractional lag used to reach the target array as an index (IndexError).
    with pytest.raises(ValueError, match="must be an integer"):
        train_toy_delay(*args)


def _toy_sizes(count, seed, n_max, l_max):
    """Seeded (n, l, lag) draws, after (1, 1, 0) and a lag at each end of the window."""
    rng = np.random.default_rng(seed)
    sizes = [(1, 1, 0), (3, 40, 0), (4, 64, 63)]
    while len(sizes) < count:
        n, l = int(rng.integers(1, n_max + 1)), int(rng.integers(1, l_max + 1))
        size = (n, l, int(rng.integers(0, l)))
        if size not in sizes:
            sizes.append(size)
    return sizes


@pytest.mark.parametrize("n, l, lag", _toy_sizes(12, 22, 32, 1024))
def test_train_toy_gram_mse_is_the_kernel_mse(n, l, lag):
    # At lr = 1e-300 one Adam step moves no weight by an ulp, so history[0]
    # (step 0, from the Gram matrix) and history[-1] (the final MSE, from
    # the kernel itself) are the same loss at the same weights.
    report = train_toy_delay(n, l, lag, 1, lr=1e-300, seed=n * l + lag)
    first, last = report["history"][0]["mse"], report["history"][-1]["mse"]
    assert report["initial_mse"] == first
    assert abs(first - last) <= 1e-12 * last


@pytest.mark.parametrize("n, l, lag, seed", [(32, 1024, 1000, 1), (32, 1024, 1000, 2),
                                             (16, 333, 17, 3), (8, 64, 63, 4)])
def test_toy_losses_are_exact_along_a_trained_path(n, l, lag, seed):
    # Along an Adam path to the fit, the bordered Gram matrix's loss
    # theta_a . (M theta_a) / L (the logged one) and the final kernel's
    # (the final MSE) stay within a few ulps of (1 + |K|^2) / L of the loss
    # of the kernel from exact exponents: 6.2 and 18.4 ulps measured.  The
    # rates are reduced modulo 2 pi first; the lift from unreduced rates,
    # whose phases round at ulps of |Im z| k, was off by up to 1234.
    z, coef, theta_a, bordered = _toy_system(n, l, lag, seed)
    g = coef[:, None] * _exact_exp(z, np.arange(l, dtype=float))
    exact = np.concatenate([g.real, -g.imag])
    k = 2 * n
    m = v = np.zeros(k)
    for step in range(5001):
        back = bordered @ theta_a
        theta = theta_a[:k]
        if step % 250 == 0:
            kernel = theta @ exact
            ulp = np.finfo(float).eps * (1.0 + float(kernel @ kernel)) / l
            kernel[lag] -= 1.0
            want = math.fsum(kernel * kernel) / l
            assert abs(float(theta_a @ back) / l - want) <= 32 * ulp
            resid = _toy_kernel(z, coef, theta, l)
            resid[lag] -= 1.0
            assert abs(float(np.mean(resid * resid)) - want) <= 64 * ulp
        grad = back[:k] * (2.0 / l)
        m, v = 0.9 * m + 0.1 * grad, 0.999 * v + 0.001 * grad * grad
        theta_a[:k] -= 2e-3 * m / (1 - 0.9 ** (step + 1)) / (np.sqrt(v / (1 - 0.999 ** (step + 1))) + 1e-8)


def _toy_lift(n, l):
    """The toy's frozen real 2N x L lift: K = [Re w, Im w] @ lift is the exp
    kernel of weights w on the spectrum and sample time of train_toy_delay's
    set-up, which forms only its Gram matrix and one column.

    Row i is Re g_i and row N + i is -Im g_i, for the N x L complex
    g_ik = (e^{lam_i dt}-1)/lam_i e^{lam_i dt k}, formed from the kernels'
    discretization and blocked exponentials.
    """
    spectrum = skew_hippo_lambda(n)
    delta = TOY_SLOW_MODE_RATE / float(spectrum.lambda_im[-1])
    lambda_re = np.full(n, math.log(TOY_DECAY_OVER_WINDOW / (delta * l)))
    lam = -np.exp(lambda_re) + 1j * spectrum.lambda_im
    # delta goes through its log and back, as a stored delta_log would.
    _, scale, z, _ = _diagonal_rates("exp", lam, np.exp([math.log(delta)]), np.ones((1, n)), 1, l)
    outer, inner = _exp_blocks(z[0], l)
    g = ((scale[0, :, None] * outer)[:, :, None] * inner[:, None, :]).reshape(n, -1)[:, :l]
    return np.concatenate([g.real, -g.imag])


def _toy_setup(n, l, lag):
    """train_toy_delay's frozen 2N x L lift (K = [Re w, Im w] @ lift) and target."""
    target = np.zeros(l)
    target[lag] = 1.0
    return _toy_lift(n, l), target


@pytest.mark.parametrize("n, l", [(1, 1), (3, 40), (8, 64), (16, 333), (32, 1024)])
def test_toy_lift_is_the_direct_exp_form(n, l):
    # Rows [Re; -Im] of g_ik = expm1(z_i)/lam_i e^{z_i k}, z = lam*dt, from one
    # plain np.exp per entry.  That exp's own phase rounding grows with
    # |Im z|*L (3.4e-12 of max|lift| at N, L = 64, 16384), so larger sizes
    # are left out.  The lift is also the 2N unit-weight kernels K(e_i),
    # K(i e_i) of the exp builder, to rounding.
    lambda_im = skew_hippo_lambda(n).lambda_im
    delta = TOY_SLOW_MODE_RATE / float(lambda_im[-1])
    lam = -TOY_DECAY_OVER_WINDOW / (delta * l) + 1j * lambda_im
    z = lam * delta
    g = (np.expm1(z) / lam)[:, None] * np.exp(np.outer(z, np.arange(l)))
    lift = _toy_lift(n, l)
    assert lift.shape == (2 * n, l)
    assert np.abs(lift - np.concatenate([g.real, -g.imag])).max() <= 1e-12 * np.abs(lift).max()
    unit = diagonal_kernels("exp", lam, np.full(2 * n, delta),
                            np.concatenate([np.eye(n), 1j * np.eye(n)]), l)
    assert np.abs(lift - unit).max() <= 1e-12 * np.abs(lift).max()


@pytest.mark.parametrize("n, l, lag", [(1, 1, 0), (3, 40, 0), (4, 64, 63), (16, 333, 17),
                                       (32, 1024, 1000)])
def test_toy_system_is_the_bordered_gram_of_the_lift(n, l, lag):
    # train_toy_delay forms no lift: its Gram matrix is closed-form, its lag
    # column one exp per mode, its start scaled by theta^T G theta / L and
    # its final kernel one blocked row.  Each is the lift's, to rounding.
    # As for the lift itself, the phase rounding of z*lag grows with
    # |Im z|*lag (2e-12 of max|lift| at N, L, lag = 64, 16384, 9999), so
    # larger sizes are left to the Gram's own property test.
    z, coef, theta_a, bordered = _toy_system(n, l, lag, 7)
    lift, k = _toy_lift(n, l), 2 * n
    gram = lift @ lift.T
    assert np.abs(bordered[:k, :k] - gram).max() <= 1e-12 * np.abs(gram).max()
    assert np.abs(bordered[:k, k] + lift[:, lag]).max() <= 1e-12 * np.abs(lift).max()
    assert np.array_equal(bordered[k, :k], bordered[:k, k]) and bordered[k, k] == theta_a[k] == 1.0
    kernel = theta_a[:k] @ lift
    assert float(np.mean(kernel * kernel)) == pytest.approx(TOY_INIT_ENERGY, rel=1e-12)
    got = _toy_kernel(z, coef, theta_a[:k], l)
    assert np.abs(got - kernel).max() <= 1e-12 * np.abs(kernel).max()


def _toy_least_squares_mse(n, l, lag):
    """The smallest MSE any weights reach on train_toy_delay's frozen setup."""
    lift, target = _toy_setup(n, l, lag)
    theta = np.linalg.lstsq(lift.T, target, rcond=None)[0]
    resid = theta @ lift - target
    return float(np.mean(resid * resid))


def _toy_reference_history(n, l, lag, steps, lr, seed):
    """train_toy_delay's logged losses from a plain loop that forms the
    kernel, its residual and the gradient from the lift at every step, and
    the first step whose loss is not finite (None if every loss is)."""
    lift, target = _toy_setup(n, l, lag)
    rng = SplitMix64(seed)
    w = np.array([complex(rng.normal(), rng.normal()) for _ in range(n)])
    theta = np.concatenate([w.real, w.imag])
    k0 = theta @ lift
    theta = theta * math.sqrt(TOY_INIT_ENERGY / float(np.mean(k0 * k0)))
    m = v = np.zeros(2 * n)
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            resid = theta @ lift - target
            mse = float(np.mean(resid * resid))
            if not math.isfinite(mse):
                return history, step
            if step % 100 == 0 or step == steps:
                history.append(mse)
            grad = lift @ (2.0 * resid / l)
            m = 0.9 * m + (1.0 - 0.9) * grad
            v = 0.999 * v + (1.0 - 0.999) * grad * grad
            m_hat = m / (1.0 - 0.9 ** (step + 1))
            v_hat = v / (1.0 - 0.999 ** (step + 1))
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return history, None


@pytest.mark.parametrize("n, l, lag, steps, lr", [
    (1, 1, 0, 50, 1e-3), (2, 30, 29, 250, 1e-2), (5, 77, 0, 301, 3e-3),
    (8, 128, 100, 1000, 1e-3), (16, 256, 200, 1000, 1e-3)])
def test_train_toy_follows_the_direct_loop(n, l, lag, steps, lr):
    # Same Adam, same start; only the summation order of the loss and the
    # gradient differs, so the logged losses agree to rounding.
    report = train_toy_delay(n, l, lag, steps, lr=lr, seed=steps + lag)
    got = [entry["mse"] for entry in report["history"]]
    want, diverged_at = _toy_reference_history(n, l, lag, steps, lr, steps + lag)
    assert diverged_at is None
    assert len(got) == len(want)
    assert np.allclose(got, want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("lr", [1e300, 1e200, 1e160])
@pytest.mark.parametrize("n, l, lag", [(1, 1, 0), (3, 40, 0), (4, 64, 63), (8, 128, 100)])
def test_train_toy_diverges_at_the_direct_loops_step(n, l, lag, lr):
    # Adam's bias corrections, step size and gradient scale are folded into
    # per-step scalars; a huge lr must still overflow the loss at the step
    # where the plain loop's does, not in those scalars or a step later.
    _, diverged_at = _toy_reference_history(n, l, lag, 20, lr, n + lag)
    assert diverged_at is not None
    with pytest.raises(RuntimeError, match=f"^training diverged at step {diverged_at}$"):
        train_toy_delay(n, l, lag, 20, lr=lr, seed=n + lag)


def test_train_toy_divergence_in_its_last_step_is_caught_by_the_final_check():
    # One step: the loop checks only the initial loss, and the final
    # kernel's loss overflows, at the step where the plain loop's does.
    assert _toy_reference_history(2, 8, 3, 1, 1e300, 0)[1] == 1
    with pytest.raises(RuntimeError, match="^training diverged at step 1$"):
        train_toy_delay(2, 8, 3, 1, lr=1e300, seed=0)


def _toy_per_step_report(n, l, lag, steps, lr, seed):
    """train_toy_delay's report from its per-step loop: the same set-up, then
    ten numpy calls a step with the loss taken and checked at every step."""
    z, coef, theta_a, bordered = _toy_system(n, l, lag, seed)
    target = np.zeros(l)
    target[lag] = 1.0
    k = 2 * n
    beta1, beta2, eps_opt = 0.9, 0.999, 1e-8
    betas = np.empty((2, k + 1))
    betas[0], betas[1] = beta1, beta2
    terms, ema = np.zeros((2, 2, k + 1))
    back, theta, a, b = terms[0], theta_a[:k], ema[0, :k], ema[1, :k]
    upd = np.empty(k)
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            bordered.dot(theta_a, back)
            mse = float(theta_a.dot(back)) / l
            if not math.isfinite(mse):
                raise RuntimeError(f"training diverged at step {step}")
            if step % 100 == 0:
                history.append({"step": step, "mse": mse})
            np.multiply(back, back, terms[1])
            ema *= betas
            ema += terms
            r = math.sqrt((1.0 - beta2) / (1.0 - beta2 ** (step + 1)))
            c = lr * (1.0 - beta1) / ((1.0 - beta1 ** (step + 1)) * r)
            np.sqrt(b, upd)
            upd += eps_opt / ((2.0 / l) * r)
            np.divide(a, upd, upd)
            upd *= c
            theta -= upd
        final_kernel = _toy_kernel(z, coef, theta, l)
        final_resid = final_kernel - target
        final_mse = float(np.mean(final_resid * final_resid))
    if not np.isfinite(final_mse):
        raise RuntimeError(f"training diverged at step {steps}")
    history.append({"step": steps, "mse": final_mse})
    return {"n": n, "l": l, "lag": lag, "steps": steps, "lr": lr, "seed": seed,
            "initial_mse": history[0]["mse"], "final_mse": final_mse,
            "final_argmax": int(np.argmax(np.abs(final_kernel))), "history": history}


def _toy_outcome(train, *args):
    """repr of train(*args)'s report, or of the RuntimeError it raises."""
    try:
        return repr(train(*args))
    except RuntimeError as exc:
        return repr(exc)


def _toy_cases(count, seed):
    """Seeded (n, l, lag, steps, lr, seed) draws; lr from 1e-3 (converges) to
    1e300 (overflows in the first steps)."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        n, l = int(rng.integers(1, 17)), int(rng.integers(1, 201))
        steps = int(rng.choice([1, 2, 99, 100, 101, 250, int(rng.integers(1, 601))]))
        cases.append((n, l, int(rng.integers(0, l)), steps, float(10.0 ** rng.uniform(-3.0, 300.0)),
                      int(rng.integers(2 ** 31))))
    return cases


# The trainer takes the loss once per 100-step segment and replays a segment
# step by step only when its end state leaves room for an overflowed loss;
# reports and divergence steps must be bitwise the per-step loop's.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", _toy_cases(100, 29))
def test_property_train_toy_is_the_per_step_loop_bitwise(case):
    assert _toy_outcome(train_toy_delay, *case) == _toy_outcome(_toy_per_step_report, *case)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("checked", ["theta", "ema"])
@pytest.mark.parametrize("case", _toy_cases(12, 30) + [(3, 40, 7, 250, 2e-3, 1)])
def test_train_toy_replayed_segments_are_the_per_step_loop_bitwise(case, checked, monkeypatch):
    # No real draw leaves a segment's end non-finite while its start was
    # small enough to skip the per-step checks.  An isfinite that calls
    # every end-of-segment theta (2N,) or EMA state (2, 2N + 1) non-finite
    # forces each such segment through the restore-and-replay path.
    n = case[0]
    shape = {"theta": (2 * n,), "ema": (2, 2 * n + 1)}[checked]
    real_isfinite = np.isfinite
    refused = [0]

    def never_finite(x, *args, **kwargs):
        got = real_isfinite(x, *args, **kwargs)
        if np.shape(x) != shape:
            return got
        refused[0] += 1
        return np.zeros_like(got)

    want = _toy_outcome(_toy_per_step_report, *case)
    monkeypatch.setattr(np, "isfinite", never_finite)
    assert _toy_outcome(train_toy_delay, *case) == want
    if case[4] < 1e140:         # here every segment starts inside the bound
        assert refused[0] == -(-case[3] // 100)


@pytest.mark.parametrize("lr", [np.float16(2e-3), np.float32(2e-3), np.float64(2e-3), 2, np.int64(1),
                                np.float32(1e30), 10 ** 200],
                         ids=["float16", "float32", "float64", "int", "int64", "float32-huge",
                              "int-diverging"])
def test_train_toy_report_is_that_of_the_float_lr(lr):
    # The trainer takes lr as a Python float, so a numpy lr sets the precision
    # of neither the step scalars nor the overflow guard.  At lr 1e30 the
    # loss grows past 1e50 but stays finite; at 1e200 it overflows.
    args = (4, 32, 5, 250)
    got = _toy_outcome(train_toy_delay, *args, lr, 1)
    assert got == _toy_outcome(train_toy_delay, *args, float(lr), 1)
    assert ("diverged" in got) == (float(lr) > 1e100)


@pytest.mark.parametrize("seed", [960769185, 161173238])
def test_train_toy_recovers_the_lag_on_seeds_that_failed_at_lr_1e_3(seed):
    # At lr = 1e-3 Adam stopped about 3% above the least-squares optimum on
    # these two seeds, with the kernel's peak at 14 instead of the lag.
    report = train_toy_delay(32, 1024, 1000, 5000, seed=seed)
    assert report["final_argmax"] == 1000


def test_train_toy_recovers_the_lag_on_benchmark_op_seeds():
    # The benchmark's train_toy op is this run, and an op whose peak is not
    # at the lag fails; each benchmark seed s draws its ops from
    # default_rng(s).  A change to the toy's bits (its Gram matrix, its
    # start) must keep the first op of seeds 0..49.
    missed = {}
    for s in range(50):
        seed = int(np.random.default_rng(s).integers(0, 2 ** 31))
        argmax = train_toy_delay(32, 1024, 1000, 5000, seed=seed)["final_argmax"]
        if argmax != 1000:
            missed[seed] = argmax
    assert not missed


# Seeded property test (ROADMAP item 5): with the spectrum frozen the toy is
# a least-squares fit, so no loss the trainer reports may fall below its
# optimum.  Sizes include exact fits (l <= 2n, optimum ~0); learning rates
# and step counts reach the optimum on some draws and stop short on others.
@pytest.mark.parametrize("n, l, lag", _toy_sizes(40, 5, 8, 128))
def test_property_train_toy_never_beats_least_squares(n, l, lag):
    rng = np.random.default_rng([n, l, lag])
    lr, steps = float(10.0 ** rng.uniform(-3.0, -1.0)), int(rng.integers(1, 1500))
    report = train_toy_delay(n, l, lag, steps, lr=lr, seed=int(rng.integers(2 ** 31)))
    best = _toy_least_squares_mse(n, l, lag)
    # Rounding: the final MSE is taken from the kernel; the history's from
    # the Gram matrix, exact to a few ulps of (1 + |K|^2) / l.
    assert report["final_mse"] >= best * (1.0 - 1e-12) - 1e-24
    for entry in report["history"]:
        assert entry["mse"] >= best * (1.0 - 1e-12) - 1e-14 / l


def test_report_refuses_a_value_json_cannot_hold(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(TypeError, match="^cannot write object as JSON$"):
        write_report_json(path, object())
    assert not path.exists()


def test_nearest_rank_percentile_definition():
    # kernel_stats' p95 is the ceil(0.95*H)-th smallest peak position: the
    # 19th of 20, the 2nd of 2.
    for h in (1, 2, 19, 20, 21):
        stats = kernel_stats(small_layer("softmax", h=h, n=6, seed=h), 256)
        assert stats.argmax_p95 == sorted(stats.argmax_pos)[math.ceil(0.95 * h) - 1]


def test_params_json_roundtrip_bit_exact(tmp_path):
    params = small_layer("softmax", h=3, n=4, seed=21)
    path = tmp_path / "params.json"
    save_layer_params(path, params)
    text1 = path.read_text()
    loaded = load_layer_params(path)
    assert params_to_json(loaded) + "\n" == text1
    assert np.array_equal(loaded.w, params.w)
    assert np.array_equal(loaded.delta_log, params.delta_log)
    assert loaded.variant == params.variant


def test_params_json_is_plain_json():
    params = small_layer("exp", h=2, n=2, seed=4)
    raw = json.loads(params_to_json(params))
    assert raw["version"] == 1
    assert raw["h"] == 2 and raw["n"] == 2
    assert len(raw["w_re"]) == 2 and len(raw["w_re"][0]) == 2


def test_params_json_rejects_bad_version():
    params = small_layer()
    bad = params_to_json(params).replace('"version":1', '"version":99')
    with pytest.raises(ValueError, match="version"):
        params_from_json(bad)


@pytest.mark.parametrize("field", ["lambda_im", "delta_log", "w", "w_out"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_params_json_refuses_non_finite(tmp_path, field, bad):
    params = small_layer()
    getattr(params, field).flat[0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        params_to_json(params)
    path = tmp_path / "params.json"
    path.write_text("kept")
    with pytest.raises(ValueError, match="non-finite"):
        save_layer_params(path, params)
    assert path.read_text() == "kept"


_PARAM_ARRAYS = ("lambda_re", "lambda_im", "delta_log", "w", "w_out", "b_out")


def assert_params_bitwise_equal(got, want):
    assert (got.variant, got.h, got.n) == (want.variant, want.h, want.n)
    for name in _PARAM_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_version_1_file_loads_bitwise():
    # Written by save_layer_params(path, init_layer(3, 4, "softmax", 21))
    # when floats were written at %.17g.
    path = Path(__file__).parent / "data" / "params_v1.json"
    assert_params_bitwise_equal(load_layer_params(path), init_layer(3, 4, "softmax", 21))


@pytest.mark.parametrize("seed", range(5))
def test_params_with_extreme_entries_round_trip_bitwise(tmp_path, seed):
    rng = np.random.default_rng(seed)
    params = init_layer(3, 4, VARIANTS[seed % 3], seed)
    extremes = np.array([-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.1, 1 / 3])
    for name in ("lambda_re", "lambda_im", "delta_log", "w_out", "b_out"):
        value = getattr(params, name)
        value.flat[rng.choice(value.size, 2, replace=False)] = rng.choice(extremes, 2)
    params.w.real.flat[rng.choice(params.w.size, 3, replace=False)] = rng.choice(extremes, 3)
    params.w.imag.flat[rng.choice(params.w.size, 3, replace=False)] = rng.choice(extremes, 3)
    path = tmp_path / "params.json"
    save_layer_params(path, params)
    text = path.read_text()
    loaded = load_layer_params(path)
    assert_params_bitwise_equal(loaded, params)
    save_layer_params(path, loaded)
    assert path.read_text() == text


def test_numpy_integer_sizes_and_seeds_are_written(tmp_path):
    params = init_layer(np.int64(3), np.int64(4), "exp", np.int64(5))
    path = tmp_path / "params.json"
    save_layer_params(path, params)
    assert_params_bitwise_equal(load_layer_params(path), init_layer(3, 4, "exp", 5))
    report = train_toy_delay(np.int64(4), np.int64(16), np.int64(3), 2, seed=np.int64(7))
    out = tmp_path / "report.json"
    write_report_json(out, report)
    back = json.loads(out.read_text())
    assert list(back) == list(report)
    assert (back["n"], back["l"], back["lag"], back["seed"]) == (4, 16, 3, 7)
    assert back["final_mse"] == report["final_mse"]
    assert back["history"] == report["history"]


def test_params_json_refuses_w_im_of_another_shape():
    raw = json.loads(params_to_json(small_layer()))
    raw["w_im"] = raw["w_im"][0]        # one row, which would broadcast over all of them
    with pytest.raises(ValueError, match="w_re and w_im shapes differ"):
        params_from_json(json.dumps(raw))


@pytest.mark.parametrize("key", ["variant", "n", "w_im", "b_out"])
def test_params_json_names_missing_key(key):
    raw = json.loads(params_to_json(small_layer()))
    del raw[key]
    with pytest.raises(ValueError, match=key):
        params_from_json(json.dumps(raw))


# Seeded property test: one layout decides what the writer writes, the
# reader loads and the layer runs.  Each draw takes a random size, variant
# and seed; the valid layers also get random entries, signed zeros included.

def random_layer(rng):
    params = init_layer(int(rng.integers(1, 5)), int(rng.integers(1, 6)),
                        VARIANTS[int(rng.integers(3))], int(rng.integers(2 ** 31)))
    for name in _PARAM_ARRAYS:
        value = getattr(params, name)
        picks = rng.random(value.shape) < 0.3
        if name == "w":
            value[picks] = rng.standard_normal(picks.sum()) + 1j * rng.choice([0.0, -0.0, 1e-300])
        else:
            value[picks] = rng.choice([0.0, -0.0, 5e-324, 1.7e308, 1 / 3], picks.sum())
    return params


def test_property_valid_layers_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(2024)
    path = tmp_path / "params.json"
    for _ in range(60):
        params = random_layer(rng)
        save_layer_params(path, params)
        text = path.read_text()
        loaded = load_layer_params(path)
        assert_params_bitwise_equal(loaded, params)
        save_layer_params(path, loaded)
        assert path.read_text() == text


def spoil_one_number(rows, rng, value):
    """Replace one number of a nested list with value."""
    while isinstance(rows[0], list):
        rows = rows[rng.integers(len(rows))]
    rows[rng.integers(len(rows))] = value


def with_one_coordinate(raw, h):
    """raw cut to its first coordinate, with h written as the given value."""
    for key in ("delta_log", "w_re", "w_im", "b_out"):
        raw[key] = raw[key][:1]
    raw.update(h=h, w_out=[[1.0]])


_ARRAY_KEYS = ("lambda_re", "lambda_im", "delta_log", "w_re", "w_im", "w_out", "b_out")
_FILE_MUTATIONS = {
    "nan token": lambda raw, key, rng: spoil_one_number(raw[key], rng, math.nan),
    "infinity token": lambda raw, key, rng: spoil_one_number(raw[key], rng, -math.inf),
    "null entry": lambda raw, key, rng: spoil_one_number(raw[key], rng, None),
    "string entry": lambda raw, key, rng: spoil_one_number(raw[key], rng, "0.5"),
    "ragged array": lambda raw, key, rng: spoil_one_number(raw[key], rng, [1.0]),
    "short array": lambda raw, key, rng: raw.update({key: raw[key][:-1]}),
    "null size": lambda raw, key, rng: raw.update({"hn"[rng.integers(2)]: None}),
    "bool size": lambda raw, key, rng: with_one_coordinate(raw, True),
    "float size": lambda raw, key, rng: with_one_coordinate(raw, 1.0),
    "bool entry": lambda raw, key, rng: spoil_one_number(raw[key], rng, True),
    "bool version": lambda raw, key, rng: raw.update(version=True),
    "float version": lambda raw, key, rng: raw.update(version=1.0),
}


@pytest.mark.parametrize("mutation", _FILE_MUTATIONS)
def test_property_malformed_files_are_refused(tmp_path, capsys, mutation):
    rng = np.random.default_rng([2024, list(_FILE_MUTATIONS).index(mutation)])
    path = tmp_path / "params.json"
    for _ in range(8):
        raw = json.loads(params_to_json(random_layer(rng)))
        _FILE_MUTATIONS[mutation](raw, _ARRAY_KEYS[rng.integers(len(_ARRAY_KEYS))], rng)
        path.write_text(json.dumps(raw))         # json writes NaN and -Infinity tokens
        with pytest.raises(ValueError):
            params_from_json(path.read_text())
        code = cli_main(["heatmap", "--params", str(path), "--l", "8",
                         "--out", str(tmp_path / "heat.csv")])
        err = capsys.readouterr().err
        assert code == 2 and "cannot load" in err, err


_LAYER_MUTATIONS = {      # (mutation, the refusal's message)
    "short lambda_re": (lambda p: setattr(p, "lambda_re", p.lambda_re[:1].copy()), "must have shape"),
    "stale h": (lambda p: setattr(p, "h", p.h + 1), "must have shape"),
    "stale n": (lambda p: setattr(p, "n", p.n + 1), "must have shape"),
    "row b_out": (lambda p: setattr(p, "b_out", p.b_out[None, :]), "must have shape"),
    "complex lambda_re": (lambda p: setattr(p, "lambda_re", p.lambda_re + 0.5j),
                          "lambda_re must have a real floating dtype"),
    "integer b_out": (lambda p: setattr(p, "b_out", np.arange(p.h)),
                      "b_out must have a real floating dtype"),
    "one row of w": (lambda p: setattr(p, "w", p.w[0].copy()), "w must have shape"),
    "scalar delta_log": (lambda p: setattr(p, "delta_log", float(p.delta_log[0])),
                         "delta_log must have shape"),
}


@pytest.mark.parametrize("mutation", _LAYER_MUTATIONS)
def test_property_malformed_layers_are_refused_everywhere(tmp_path, mutation):
    rng = np.random.default_rng([2025, list(_LAYER_MUTATIONS).index(mutation)])
    path = tmp_path / "params.json"
    for _ in range(8):
        params = random_layer(rng)
        if mutation == "short lambda_re" and params.n == 1:
            params = init_layer(params.h, 3, params.variant, 0)    # one entry would be valid
        u = rng.standard_normal((2, params.h, 16))
        mutate, message = _LAYER_MUTATIONS[mutation]
        mutate(params)
        path.write_text("kept")
        with pytest.raises(ValueError, match=message):
            save_layer_params(path, params)
        assert path.read_text() == "kept"
        for mode in ("conv", "recurrent"):
            with pytest.raises(ValueError, match=message):
                layer_forward(params, u, mode)
        for kernels_or_stats in (layer_kernels, kernel_stats):
            with pytest.raises(ValueError, match=message):
                kernels_or_stats(params, 16)


def coordinate_entry_points(variant, l=8):
    """Every one-coordinate entry point of a variant, as calls on H = 1 parameters."""
    u = np.linspace(-1.0, 1.0, l)
    common = [lambda p: build_kernel(p, l), lambda p: p.pack(), lambda p: p.unpack(np.zeros(1))]
    return common + {
        "exp": [lambda p: dss_exp_kernel(p, l), lambda p: kernel_grad_exp(p, l, u),
                lambda p: run_exp(p, u)],
        "softmax": [lambda p: dss_softmax_kernel(p, l), lambda p: run_softmax_stable(p, u)],
        "exp_no_scale": [lambda p: dss_exp_noscale_kernel(p, l), lambda p: run_exp(p, u)],
    }[variant]


@pytest.mark.parametrize("mutation", [m for m in _LAYER_MUTATIONS if "b_out" not in m])
def test_property_malformed_coordinates_are_refused_by_every_path(mutation):
    # A coordinate's row slice and the same coordinate built by KernelParams,
    # each mutated after it is built, through every one-coordinate path.
    rng = np.random.default_rng([2026, list(_LAYER_MUTATIONS).index(mutation)])
    mutate, message = _LAYER_MUTATIONS[mutation]
    for _ in range(8):
        layer = random_layer(rng)
        if mutation == "short lambda_re" and layer.n == 1:
            layer = init_layer(layer.h, 3, layer.variant, 0)    # one entry would be valid
        h_idx = int(rng.integers(layer.h))
        built = KernelParams(layer.variant, layer.lambda_re, layer.lambda_im, layer.w[h_idx],
                             layer.delta_log[h_idx])
        for params in (layer.coordinate_kernel_params(h_idx), built):
            mutate(params)
            for call in coordinate_entry_points(layer.variant):
                with pytest.raises(ValueError, match=message) as refused:
                    call(params)
                assert str(refused.value).split()[0] in DiagonalParams._LAYOUT


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("l", [1, 63, 64, 65, 1000])
def test_coordinate_kernels_are_the_layer_kernel_rows_bitwise(variant, l):
    # The benchmark's naive_prefix check builds each row this way.  The
    # softmax layer has Re(lam) of both signs: 8 of its 16 modes at +0.25.
    params = init_layer(5, 16, variant, 3)
    if variant == "softmax":
        params.lambda_re[np.random.default_rng(l).choice(16, 8, replace=False)] = 0.25
    rows = layer_kernels(params, l)
    for h_idx in range(params.h):
        got = build_kernel(params.coordinate_kernel_params(h_idx), l)
        assert got.tobytes() == rows[h_idx].tobytes()


def test_property_pack_unpack_round_trip_bitwise():
    # Layers with -0.0, subnormal and huge entries, and their coordinates.
    rng = np.random.default_rng(2026)
    for _ in range(40):
        params = random_layer(rng)
        vector = params.pack()
        want = np.concatenate([params.lambda_re, params.lambda_im, params.delta_log,
                               params.w.real.ravel(), params.w.imag.ravel(),
                               params.w_out.ravel(), params.b_out])
        assert vector.dtype == np.float64 and vector.tobytes() == want.tobytes()
        back = params.unpack(vector)
        assert type(back) is LayerParams
        assert_params_bitwise_equal(back, params)
        vector[:] = 0.0             # the unpacked arrays do not view the vector
        assert_params_bitwise_equal(back, params)
        coordinate = params.coordinate_kernel_params(int(rng.integers(params.h)))
        again = coordinate.unpack(coordinate.pack())
        assert type(again) is DiagonalParams and (again.variant, again.h, again.n) == (
            params.variant, 1, params.n)
        for name in DiagonalParams._LAYOUT:
            a, b = getattr(again, name), getattr(coordinate, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_kernel_params_rebuilds_a_coordinate_bitwise():
    # KernelParams takes a coordinate's own (1,) delta_log as well as a scalar.
    rng = np.random.default_rng(2028)
    for _ in range(20):
        params = random_layer(rng)
        p = params.coordinate_kernel_params(int(rng.integers(params.h)))
        for delta_log in (p.delta_log, p.delta_log[0], float(p.delta_log[0])):
            again = KernelParams(p.variant, p.lambda_re, p.lambda_im, p.w[0], delta_log)
            assert (again.variant, again.h, again.n) == (p.variant, 1, p.n)
            for name in DiagonalParams._LAYOUT:
                a, b = getattr(again, name), getattr(p, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert not np.shares_memory(again.delta_log, p.delta_log)


def test_modes_agree_where_lam_delta_underflows():
    # Coordinates with lam*dt subnormal or 0: every kernel entry is n*dt.
    params = LayerParams(
        variant="exp", h=3, n=2,
        lambda_re=np.array([-700.0, -744.0]), lambda_im=np.zeros(2),
        delta_log=np.array([-60.0, -40.0, 0.0]), w=np.ones((3, 2), dtype=complex),
        w_out=np.eye(3), b_out=np.zeros(3))
    u = np.random.default_rng(0).standard_normal((2, 3, 40))
    want = 2 * np.exp(params.delta_log)[:, None] * np.cumsum(u, axis=-1)
    for mode in ("conv", "recurrent"):
        y = ssm_outputs(params, u, mode)
        assert np.allclose(y, want, rtol=0.0, atol=1e-13 * np.abs(want).max(axis=-1, keepdims=True))
    assert np.allclose(layer_forward(params, u, "conv"), layer_forward(params, u, "recurrent"),
                       rtol=0.0, atol=1e-13)
