import json
import math
import tracemalloc

import numpy as np
import pytest

from diagssm import (
    SplitMix64,
    gelu,
    init_layer,
    kernel_stats,
    layer_forward,
    layer_kernels,
    load_layer_params,
    nearest_rank_percentile,
    params_from_json,
    params_to_json,
    save_layer_params,
    ssm_outputs,
    train_toy_delay,
)
from diagssm.kernel import VARIANTS
from diagssm.layer import _GELU_BLOCK, DELTA_INIT_HIGH, DELTA_INIT_LOW, LayerParams


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
    return 0.5 * x * (1.0 + erf)


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
        np.arange(-20, 21),         # int array
    ]
    for x in cases:
        kept = x.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            assert_bitwise(gelu(x), oracle_gelu(x))
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
    with pytest.raises(ValueError, match="must be integers"):
        train_toy_delay(*args)


def test_nearest_rank_percentile_definition():
    # ceil(0.95 * 20) = 19th smallest of 0..19 is 18
    assert nearest_rank_percentile(np.arange(20), 0.95) == 18
    assert nearest_rank_percentile([5], 0.95) == 5
    assert nearest_rank_percentile([3, 1], 0.5) == 1


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


@pytest.mark.parametrize("key", ["variant", "n", "w_im", "b_out"])
def test_params_json_names_missing_key(key):
    raw = json.loads(params_to_json(small_layer()))
    del raw[key]
    with pytest.raises(ValueError, match=key):
        params_from_json(json.dumps(raw))
