import json
import math
import tracemalloc
from pathlib import Path

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
    write_report_json,
)
from diagssm.cli import main as cli_main
from diagssm.kernel import VARIANTS
from diagssm.layer import (
    _GELU_BLOCK,
    DELTA_INIT_HIGH,
    DELTA_INIT_LOW,
    LayerParams,
    _cache_aligned_empty,
)


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


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (64, 1024)])
def test_cache_aligned_empty(shape):
    # Every offset of numpy's 16-byte-aligned allocations, by interleaving small ones.
    keep = [np.empty(k) for k in range(1, 9)]
    for _ in range(8):
        a = _cache_aligned_empty(shape)
        assert a.shape == shape and a.dtype == np.float64 and a.flags.writeable
        assert a.ctypes.data % 64 == 0
        keep.append(a)
        keep.append(np.empty(3))


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


_LAYER_MUTATIONS = {
    "short lambda_re": lambda p: setattr(p, "lambda_re", p.lambda_re[:1].copy()),
    "stale h": lambda p: setattr(p, "h", p.h + 1),
    "stale n": lambda p: setattr(p, "n", p.n + 1),
    "row b_out": lambda p: setattr(p, "b_out", p.b_out[None, :]),
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
        _LAYER_MUTATIONS[mutation](params)
        path.write_text("kept")
        with pytest.raises(ValueError, match="must have shape"):
            save_layer_params(path, params)
        assert path.read_text() == "kept"
        for mode in ("conv", "recurrent"):
            with pytest.raises(ValueError, match="must have shape"):
                layer_forward(params, u, mode)


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
