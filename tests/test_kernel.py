import gc
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from diagssm import (
    GeneralSSM,
    KernelParams,
    chunked_scan,
    dense_to_diagonal_weights,
    diagonal_kernels,
    diagonal_kernels_vjp,
    dss_exp_kernel,
    dss_exp_noscale_kernel,
    dss_softmax_kernel,
    effective_lambda,
    finite_diff_grad,
    general_ssm_kernel,
    init_layer,
    kernel_grad_exp,
    layer_kernels,
    run_exp,
    run_softmax_stable,
    ssm_outputs,
    write_kernel_csv,
)
from diagssm.checks import check_grad, check_prop1, sample_exp_params
from diagssm.cnum import reciprocal_eps
from diagssm.kernel import (DiagonalParams, _diagonal_form, _diagonal_rates, _exp_factors,
                            _exp_gram, _exp_range, _factor_sum, _scale_slope)
from diagssm.recurrence import _scan_plan

LN2 = math.log(2.0)


def exp_params(lambda_re, lambda_im, w, delta_log):
    return KernelParams("exp", lambda_re, lambda_im, w, delta_log)


def test_effective_lambda_exp():
    p = exp_params([0.0], [0.0], [1.0], 0.0)
    assert effective_lambda(p)[0] == -1.0 + 0j


@pytest.mark.parametrize("field", ["lambda_re", "lambda_im", "w", "delta_log"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernel_params_refuse_non_finite(field, bad):
    values = {"lambda_re": [0.0, 0.0], "lambda_im": [1.0, 2.0],
              "w": [1.0 + 0j, 1.0 - 1j], "delta_log": 0.0}
    values[field] = bad if field == "delta_log" else [1.0, bad]
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        KernelParams("exp", **values)


def test_effective_lambda_softmax_identity():
    p = KernelParams("softmax", [0.3], [-2.0], [1.0], 0.0)
    assert effective_lambda(p)[0] == 0.3 - 2.0j


def test_effective_lambda_exp_always_left_half_plane():
    rng = np.random.RandomState(0)
    for _ in range(20):
        p = exp_params(rng.uniform(-50, 50, 4), rng.standard_normal(4),
                       rng.standard_normal(4), 0.0)
        assert np.all(effective_lambda(p).real < 0)


def test_exp_kernel_halving_sequence():
    # lam = -1, delta = ln 2: K_k = (1/2)^{k+1}
    p = exp_params([0.0], [0.0], [1.0], math.log(LN2))
    got = dss_exp_kernel(p, 4)
    assert np.abs(got - np.array([0.5, 0.25, 0.125, 0.0625])).max() < 1e-12


def test_exp_kernel_zero_weights():
    p = exp_params([0.1, -0.3], [1.0, 2.0], [0.0, 0.0], -1.0)
    assert np.array_equal(dss_exp_kernel(p, 8), np.zeros(8))


def test_exp_kernel_matches_dense_oracle_on_diagonal_system():
    rng = np.random.RandomState(1)
    for _ in range(10):
        n = rng.randint(1, 9)
        l = rng.randint(1, 65)
        lam = rng.uniform(-2, -0.05, n) + 1j * rng.uniform(-3, 3, n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        delta = rng.uniform(0.01, 0.5)
        got = dss_exp_kernel(
            exp_params(np.log(-lam.real), lam.imag, w, math.log(delta)), l)
        want = general_ssm_kernel(GeneralSSM(np.diag(lam), np.ones(n), w), delta, l)
        assert np.abs(got - want).max() < 1e-10


def test_softmax_kernel_two_point_hand_value():
    # w/lam = 1 and softmax(0, -1)
    p = KernelParams("softmax", [-1.0], [0.0], [-1.0], 0.0)
    want = np.array([0.7310585786300049, 0.2689414213699951])
    assert np.abs(dss_softmax_kernel(p, 2) - want).max() < 1e-6
    assert np.abs(dss_softmax_kernel(p, 2, eps=1e-14) - want).max() < 1e-12


def test_softmax_kernel_matches_dense_oracle():
    rng = np.random.RandomState(2)
    for _ in range(10):
        n = rng.randint(1, 9)
        l = rng.randint(2, 65)
        lam = rng.uniform(-2, -0.05, n) + 1j * rng.uniform(-3, 3, n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        delta = rng.uniform(0.01, 0.5)
        binit = 1.0 / (np.exp(l * lam * delta) - 1.0)
        want = general_ssm_kernel(GeneralSSM(np.diag(lam), binit, w), delta, l)
        got = dss_softmax_kernel(
            KernelParams("softmax", lam.real, lam.imag, w, math.log(delta)),
            l, eps=1e-14)
        assert np.abs(got - want).max() < 1e-8


def test_softmax_kernel_bounded_for_unstable_lambda():
    # naive evaluation would overflow: exp(5*1*1023) is far beyond float range
    p = KernelParams("softmax", [5.0], [0.7], [1.0 + 1.0j], 0.0)
    got = dss_softmax_kernel(p, 1024)
    assert np.all(np.isfinite(got))
    assert np.abs(got).max() < 1.0 / np.sqrt(1e-7)


def test_noscale_kernel_geometric():
    p = KernelParams("exp_no_scale", [0.0], [0.0], [1.0], math.log(LN2))
    got = dss_exp_noscale_kernel(p, 3)
    assert np.abs(got - np.array([1.0, 0.5, 0.25])).max() < 1e-12


def test_noscale_kernel_position_zero_sums_weights():
    rng = np.random.RandomState(3)
    w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    p = KernelParams("exp_no_scale", rng.standard_normal(6), rng.standard_normal(6), w, -0.5)
    assert dss_exp_noscale_kernel(p, 5)[0] == pytest.approx(w.sum().real, abs=1e-12)


def test_noscale_relates_to_exp_for_single_mode():
    # for N=1 the omitted factor is one constant, so the two kernels are
    # proportional with ratio (e^{lam dt} - 1)/lam
    p_exp = exp_params([0.2], [1.3], [0.7 - 0.4j], -0.8)
    p_ns = KernelParams("exp_no_scale", [0.2], [1.3], [0.7 - 0.4j], -0.8)
    lam, delta = effective_lambda(p_exp)[0], math.exp(-0.8)
    ratio = (np.exp(lam * delta) - 1.0) / lam
    k_exp = dss_exp_kernel(p_exp, 16)
    k_ns_scaled = (np.asarray([0.7 - 0.4j]) * ratio @
                   np.exp(np.outer([lam * delta], np.arange(16)))).real
    assert np.abs(k_exp - k_ns_scaled).max() < 1e-12
    # sanity: plain no-scale differs unless the ratio is 1
    assert np.abs(k_exp - dss_exp_noscale_kernel(p_ns, 16)).max() > 1e-3


def direct_kernel(params, l):
    """Each kernel from one N x L np.exp, the form the blocked builds factor."""
    lam = effective_lambda(params)
    z = lam * np.exp(params.delta_log)
    pos = np.arange(l, dtype=float)
    if params.variant == "softmax":
        shift = z * ((lam.real > 0) * (l - 1))
        e = np.exp(np.outer(z, pos) - shift[:, None])
        coef = params.w / lam * reciprocal_eps(e.sum(axis=1))
    else:
        e = np.exp(np.outer(z, pos))
        coef = params.w * ((np.exp(z) - 1.0) / lam if params.variant == "exp" else 1.0)
    return (coef @ e).real


def benchmark_layer(variant):
    """The 16 x 64 benchmark layer; softmax has 32 modes at Re(lam) = +0.25."""
    layer = init_layer(16, 64, variant, 1)
    if variant == "softmax":
        layer.lambda_re[np.random.default_rng(0).choice(64, 32, replace=False)] = 0.25
    return layer


def random_kernel_params(rng, variant, n):
    delta_log = rng.uniform(math.log(1e-3), 0.0)
    if variant == "softmax":
        # |Re(lam)*dt| from 1e-4 up to 50, either sign: a far-end row's
        # naive exp overflows at 63 steps, a slow row sums past one block
        re_dt = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-4.0, math.log10(50.0), n)
        lambda_re = re_dt / math.exp(delta_log)
    else:
        lambda_re = rng.uniform(-5.0, 3.0, n)
    return KernelParams(variant, lambda_re, rng.uniform(-100.0, 100.0, n),
                        rng.standard_normal(n) + 1j * rng.standard_normal(n), delta_log)


@pytest.mark.parametrize("variant", ["exp", "softmax", "exp_no_scale"])
@pytest.mark.parametrize("l", [1, 63, 64, 65, 1000, 16384])
def test_blocked_kernels_match_direct_exp(variant, l):
    rng = np.random.default_rng(l)
    for _ in range(4):
        params = random_kernel_params(rng, variant, int(rng.integers(1, 9)))
        got = {"exp": dss_exp_kernel, "softmax": dss_softmax_kernel,
               "exp_no_scale": dss_exp_noscale_kernel}[variant](params, l)
        want = direct_kernel(params, l)
        assert got.shape == (l,) and np.isfinite(got).all()
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())
    # H > 1 in one diagonal_kernels call, each row against its own oracle:
    # three coordinates on a random spectrum and, for softmax, the 16 x 64
    # benchmark layer with 32 modes at Re(lam) = +0.25.
    base = random_kernel_params(rng, variant, int(rng.integers(1, 9)))
    w = rng.standard_normal((3, base.n)) + 1j * rng.standard_normal((3, base.n))
    layers = [(base.lambda_re, base.lambda_im, base.delta_log + rng.uniform(-1.0, 1.0, 3), w)]
    if variant == "softmax":
        layer = benchmark_layer("softmax")
        layers.append((layer.lambda_re, layer.lambda_im, layer.delta_log, layer.w))
    for lambda_re, lambda_im, delta_log, w in layers:
        rows = [KernelParams(variant, lambda_re, lambda_im, w_h, d) for w_h, d in zip(w, delta_log)]
        got = diagonal_kernels(variant, effective_lambda(rows[0]), np.exp(delta_log), w, l)
        assert got.shape == (len(rows), l) and np.isfinite(got).all()
        for row, params in zip(got, rows):
            want = direct_kernel(params, l)
            assert np.abs(row - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("step", [1, 32, 64])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 63, 64, 65, 255, 256, 257, 1024])
def test_exp_range_matches_direct_exp(count, step):
    rng = np.random.default_rng(count * step)
    re = -np.concatenate([[0.0, 0.0, 50.0], 10.0 ** rng.uniform(-6.0, math.log10(50.0), 61)])
    im = np.concatenate([[0.0, 10.0, -10.0], rng.uniform(-10.0, 10.0, 61)])
    z = (re + 1j * im).reshape(8, 8)
    got = _exp_range(z, count, step)
    want = np.exp(np.outer(z, step * np.arange(count))).reshape(8, 8, count)
    assert got.shape == (8, 8, count)
    eps = np.finfo(float).eps
    # The rounding of the exponent z*step*k itself, which either route carries.
    assert np.abs(got - want).max() <= eps * (1.0 + np.abs(z).max() * step * count)
    assert np.abs(got).max() <= 1.0 + 4.0 * eps


@pytest.mark.parametrize("count", [1, 2, 5, 31, 32, 33, 128])
def test_factor_sum_is_the_sum_over_the_range(count):
    rng = np.random.default_rng(count)
    z = -rng.uniform(0.0, 2.0, 16) + 1j * rng.uniform(-10.0, 10.0, 16)
    hi, lo = _exp_factors(z, count, 32)
    want = np.exp(np.outer(z, 32 * np.arange(count)))
    for upto in sorted({0, 1, count // 2, count - 1, count}):
        got = _factor_sum(hi, lo, upto)
        assert np.abs(got - want[:, :upto].sum(axis=1)).max() <= 1e-12 * count


def _split(x):
    """x = head + tail, each with at most 26 significant bits (Veltkamp)."""
    c = x * 134217729.0
    head = c - (c - x)
    return head, x - head


def _exact_exp(z, k):
    """e^{z k}, (N,) z by (K,) positions k < 2^26, from exact exponents:
    each part of z is split in two, each piece times k is exact, and the
    four factors are each within an ulp or so."""
    out = np.ones((len(z), len(k)), complex)
    for part, unit in ((z.real, 1.0), (z.imag, 1j)):
        for piece in _split(part):
            out *= np.exp(unit * np.multiply.outer(piece, k))
    return out


def _gram_rates(rng, n, l, alias):
    """n rates with Re(z) <= 0, a fifth of them 0; alias "sum" or
    "difference" puts one pair's Im(z_i + z_j) or Im(z_i - z_j) within
    1e-9 of 2*pi*m, m = +-1 (i = j when n = 1)."""
    re = -rng.uniform(0.0, 1.0, n) ** 2 * 3.0 / l
    re[rng.random(n) < 0.2] = 0.0
    im = rng.uniform(-4.0, 4.0, n)
    if alias is not None:
        turn = 2.0 * math.pi * rng.choice([-1.0, 1.0])
        i, j = rng.choice(n, 2, replace=False) if n > 1 else (0, 0)
        if i == j:
            im[i] = turn / 2 + rng.uniform(-5e-10, 5e-10)
        else:
            im[i] = math.copysign(rng.uniform(2.3, 4.0), turn)
            im[j] = (turn - im[i] if alias == "sum" else im[i] - turn) + rng.uniform(-9e-10, 9e-10)
        assert abs((im[i] + im[j] if alias == "sum" else im[i] - im[j]) - turn) <= 1e-9
    return re + 1j * im


def _gram_cases():
    """Seeded (n, l, alias, seed): N = 1, L = 1, both aliases, L up to 2^20."""
    rng = np.random.default_rng(41)
    cases = [(1, 1, None), (1, 1, "sum"), (4, 1, "difference"), (1, 2 ** 20, "sum"),
             (2, 2 ** 20, "sum"), (2, 2 ** 20, "difference"), (3, 2 ** 16 + 3, None),
             (3, 4095, "difference"), (8, 4096, "sum")]
    while len(cases) < 30:
        n = int(rng.integers(1, 9))
        l = int(rng.choice([2, 3, 63, 64, 65, 1024, int(rng.integers(1, 5000))]))
        alias = [None, "sum", "difference"][int(rng.integers(3))]
        if not (n == 1 and alias == "difference"):
            cases.append((n, l, alias))
    return [case + (seed,) for seed, case in enumerate(cases)]


def _blocked_gram(rows_of, l, block=1 << 14):
    """sum over blocks of positions of rows @ rows.T, rows_of(start, stop) the 2N rows there."""
    total = 0.0
    for start in range(0, l, block):
        rows = rows_of(start, min(start + block, l))
        total = total + rows @ rows.T
    return total


@pytest.mark.parametrize("n, l, alias, seed", _gram_cases())
def test_property_exp_gram_is_the_sum_over_positions(n, l, alias, seed):
    # Two oracles for sum_k r_i(k) r_j(k) over the rows r = [Re g; -Im g],
    # g_ik = c_i e^{z_i k}: the lift from exact exponents, and up to
    # L = 2^16 the 2N unit-weight exp_no_scale kernels K(c_i e_i),
    # K(i c_i e_i).  Past that, the kernels' own rounded exponents z*64*j
    # drift by more than the budget near an alias (4.5e-12 at L = 2^20).
    rng = np.random.default_rng([n, l, seed])
    z = _gram_rates(rng, n, l, alias)
    coef = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = _exp_gram(z, coef, l)
    assert got.shape == (2 * n, 2 * n)

    def lift(start, stop):
        g = coef[:, None] * _exact_exp(z, np.arange(start, stop, dtype=float))
        return np.concatenate([g.real, -g.imag])

    wants = [_blocked_gram(lift, l)]
    if l <= 2 ** 16:
        kernels = diagonal_kernels("exp_no_scale", z, np.ones(2 * n),
                                   np.concatenate([np.diag(coef), 1j * np.diag(coef)]), l)
        wants.append(_blocked_gram(lambda a, b: kernels[:, a:b], l))
    for want in wants:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def count_exps(monkeypatch, fn):
    """The number of elements np.exp evaluates during fn()."""
    count = [0]
    real_exp = np.exp

    def counting_exp(x, *args, **kwargs):
        count[0] += np.size(x)
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    try:
        fn()
    finally:
        monkeypatch.undo()
    return count[0]


@pytest.mark.parametrize("variant", ["exp", "softmax", "exp_no_scale"])
def test_kernel_exps_grow_with_sqrt_of_length(variant, monkeypatch):
    layer = benchmark_layer(variant)
    lam, delta = effective_lambda(layer), np.exp(layer.delta_log)
    exps = count_exps(monkeypatch, lambda: diagonal_kernels(variant, lam, delta, layer.w, 16384))
    # About 2 sqrt(256) + 2 sqrt(64) = 48 per mode; an N x L/64 table would be 256.
    assert exps <= 16 * 64 * 100


def test_scan_exps_do_not_scale_with_chunks(monkeypatch):
    layer = benchmark_layer("softmax")
    lam, delta = effective_lambda(layer), np.exp(layer.delta_log)
    rng = np.random.default_rng(3)
    exps = {l: count_exps(monkeypatch, lambda: chunked_scan(
                "softmax", lam, delta, layer.w, rng.standard_normal((1, 16, l))))
            for l in (1024, 4096)}
    assert exps[4096] < 2 * exps[1024]


def test_read_frame_mode_costs_the_exps_of_a_near_mode(monkeypatch):
    # At L = 1024 all 32 far modes of the benchmark softmax layer run in the
    # read-out frame, as near modes of their own rate: their plan takes their
    # powers as reciprocals of the table's and evaluates no more exponentials
    # than the same layer with those modes at Re(lam) = -0.25.
    far, near = benchmark_layer("softmax"), benchmark_layer("softmax")
    near.lambda_re[near.lambda_re > 0] = -0.25
    plans, exps = [], []
    for layer in (far, near):
        lam, delta = effective_lambda(layer), np.exp(layer.delta_log)
        exps.append(count_exps(monkeypatch, lambda: plans.append(
            _scan_plan("softmax", lam, delta, layer.w, 16, 1024))))
    assert plans[0].lift and plans[0].far_hi is None and not plans[1].lift
    assert exps[0] == exps[1]


def kept_plan_bytes(variant, b, l):
    """Bytes a fresh benchmark layer still holds after one recurrent call."""
    layer, u = benchmark_layer(variant), np.random.default_rng(6).standard_normal((b, 16, l))
    tracemalloc.start()
    try:
        ssm_outputs(layer, u, "recurrent")      # the output is dropped; the plan stays
        # tracemalloc counts the tuples CPython parks on its free lists as
        # live, so the raw figure follows what ran before; a full
        # collection empties those lists.
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant", ["exp", "softmax", "exp_no_scale"])
def test_kept_scan_plan_evaluates_no_exp_and_is_bounded(variant, monkeypatch):
    layer = benchmark_layer(variant)
    rng = np.random.default_rng(5)
    ssm_outputs(layer, rng.standard_normal((4, 16, 1024)), "recurrent")
    u = rng.standard_normal((4, 16, 1024))
    assert count_exps(monkeypatch, lambda: ssm_outputs(layer, u, "recurrent")) == 0
    kept_plan_bytes(variant, 1, 1024)           # first-call allocations are not the plan's
    kept = {(b, l): kept_plan_bytes(variant, b, l) for b, l in ((1, 1024), (4, 1024), (1, 16384))}
    assert kept[4, 1024] == kept[1, 1024]
    # Only the softmax far-mode tables grow with L, as sqrt(L/32) rows.
    assert kept[1, 16384] < 2 * kept[1, 1024]


@pytest.mark.parametrize("l", [1, 65, 1024])
def test_exp_basis_is_the_kernel_linear_map(l):
    # K is linear in w~, with K(e_i) and K(i e_i) as the basis of its real
    # and imaginary parts: the 2N unit-weight kernels of one layer-sized
    # build.  So the gradient of u . K in w~ (the w block of its pack()
    # vector) is u @ K(e_i) for Re w~_i and u @ K(i e_i) for Im w~_i.
    rng = np.random.default_rng(7)
    for _ in range(4):
        params = random_kernel_params(rng, "exp", int(rng.integers(1, 33)))
        n = params.n
        lam, delta, w = _diagonal_form(params)
        unit = diagonal_kernels("exp", lam, np.repeat(delta, 2 * n),
                                np.concatenate([np.eye(n), 1j * np.eye(n)]), l)
        kernel = dss_exp_kernel(params, l)
        theta = np.concatenate([w[0].real, w[0].imag])
        assert np.abs(theta @ unit - kernel).max() <= 1e-12 * np.abs(kernel).max()
        u = rng.standard_normal(l)
        got = params.unpack(kernel_grad_exp(params, l, u)).w[0]
        want = unit @ u
        scale = np.abs(want).max()
        assert np.abs(got.real - want[:n]).max() <= 1e-12 * scale
        assert np.abs(got.imag - want[n:]).max() <= 1e-12 * scale


def test_general_ssm_kernel_scalar_case():
    got = general_ssm_kernel(GeneralSSM([[-1.0]], [[1.0]], [[1.0]]), LN2, 3)
    assert np.abs(got - np.array([0.5, 0.25, 0.125])).max() < 1e-12


def test_general_ssm_kernel_zero_readout():
    got = general_ssm_kernel(GeneralSSM(np.diag([-1.0, -2.0]), np.ones(2), np.zeros(2)), 0.3, 6)
    assert np.array_equal(got, np.zeros(6))


def test_general_ssm_kernel_rejects_singular():
    with pytest.raises(ValueError, match="not invertible"):
        general_ssm_kernel(GeneralSSM(np.zeros((2, 2)), np.ones(2), np.ones(2)), 0.5, 4)


@pytest.mark.parametrize("a, b, c, delta, message", [
    # An infinite norm never halves below 1/2: without their checks the
    # first three loop forever, and a NaN delta ends the series in a RuntimeError.
    ([[-1.0]], [1.0], [1.0], math.inf, "delta must be finite and positive"),
    ([[math.inf]], [1.0], [1.0], 0.1, "A must be finite"),
    ([[-1e200]], [1.0], [1.0], 1e200, r"A\*delta must be finite"),
    ([[-1.0]], [1.0], [1.0], math.nan, "delta must be finite and positive"),
    ([[-1.0]], [math.nan], [1.0], 0.1, "B must be finite"),
    ([[-1.0]], [1.0], [math.inf], 0.1, "C must be finite"),
    (np.ones((2, 3)), np.ones(2), np.ones(2), 0.1, "A must be square"),
    (-np.eye(2), np.ones(3), np.ones(2), 0.1, "B and C must match"),
    (-np.eye(2), np.ones(2), np.ones(3), 0.1, "B and C must match"),
    (-np.eye(17), np.ones(17), np.ones(17), 0.1, "N <= 16"),
    # Unstable systems: exp(A*delta) overflows in the squarings, or e^700
    # is finite and the read-out's e^1400 is not.
    ([[1.0]], [1.0], [1.0], 1e3, "ssm leaves float range"),
    ([[700.0]], [1.0], [1.0], 1.0, "ssm leaves float range"),
])
def test_general_ssm_kernel_refuses_malformed_systems(a, b, c, delta, message):
    with pytest.raises(ValueError, match=message):
        general_ssm_kernel(GeneralSSM(a, b, c), delta, 3)


def test_dense_to_diagonal_weights_single_mode():
    w_tilde, w = dense_to_diagonal_weights([1.0], [1.0], [-1.0 + 0j], 1.0, 2)
    assert w_tilde[0] == 1.0
    assert w[0] == pytest.approx(math.exp(-2.0) - 1.0, abs=1e-12)


def test_dense_to_diagonal_weights_zero_readout():
    w_tilde, w = dense_to_diagonal_weights(np.zeros(3), np.ones(3),
                                           np.full(3, -1.0 + 0j), 0.5, 8)
    assert np.array_equal(w_tilde, np.zeros(3))
    assert np.array_equal(w, np.zeros(3))


def test_dense_to_diagonal_weights_guards():
    with pytest.raises(ValueError, match="weight overflow"):
        dense_to_diagonal_weights([1.0], [1.0], [2.0 + 0j], 1.0, 400)
    with pytest.raises(ValueError, match="softmax weight undefined"):
        dense_to_diagonal_weights([1.0], [1.0], [1e-13 + 0j], 1.0, 2)


def test_exp_and_softmax_kernels_agree_through_weight_conversion():
    rng = np.random.RandomState(4)
    for _ in range(10):
        n = rng.randint(1, 9)
        l = rng.randint(2, 65)
        lam = rng.uniform(-2, -0.05, n) + 1j * rng.uniform(-3, 3, n)
        w_tilde = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        delta = rng.uniform(0.01, 0.5)
        _, w = dense_to_diagonal_weights(w_tilde, np.ones(n), lam, delta, l)
        k_exp = dss_exp_kernel(
            exp_params(np.log(-lam.real), lam.imag, w_tilde, math.log(delta)), l)
        k_soft = dss_softmax_kernel(
            KernelParams("softmax", lam.real, lam.imag, w, math.log(delta)),
            l, eps=1e-14)
        assert np.abs(k_exp - k_soft).max() < 1e-8


def test_prop_equivalences_from_dense_instances():
    for trial in check_prop1(trials=10, seed=5):
        assert trial.errors["exp"] < 1e-8
        assert trial.errors["softmax"] < 1e-8


def test_truncate_kernel_basic():
    # layer_kernels zeroes each kernel from kernel_limit on and keeps the rest.
    params = init_layer(3, 4, "exp", 0)
    full, got = layer_kernels(params, 8), layer_kernels(params, 8, kernel_limit=2)
    assert np.array_equal(got[:, :2], full[:, :2])
    assert np.array_equal(got[:, 2:], np.zeros((3, 6))) and np.all(full[:, 2:] != 0.0)


def test_truncate_kernel_beyond_length_is_identity():
    params = init_layer(3, 4, "exp", 0)
    assert np.array_equal(layer_kernels(params, 3, kernel_limit=7), layer_kernels(params, 3))


def test_singular_lambda_rejected():
    p = KernelParams("softmax", [0.0], [0.0], [1.0], 0.0)
    with pytest.raises(ValueError, match="singular lambda"):
        dss_softmax_kernel(p, 4)


def test_kernel_grad_zero_upstream():
    p = exp_params([0.1, -0.2], [0.5, 1.5], [1.0, 2.0], -0.3)
    g = kernel_grad_exp(p, 8, np.zeros(8))
    assert g.dtype == np.float64 and np.array_equal(g, np.zeros(4 * p.n + 1))


def test_kernel_grad_weight_entry_hand_value():
    # L=1: K_0 = Re(w~) * (e^{lam dt} - 1)/lam evaluated at lam=-1, dt=ln 2
    p = exp_params([0.0], [0.0], [1.0], math.log(LN2))
    g = p.unpack(kernel_grad_exp(p, 1, np.array([1.0])))
    assert g.w[0, 0].real == pytest.approx(0.5, abs=1e-12)


def grad_and_differences(params, l, u):
    """kernel_grad_exp of (params, l, u) and its central differences, as
    vectors over params.pack(): [lambda_re, lambda_im, delta_log, Re w, Im w]."""

    def loss(theta):
        return float(dss_exp_kernel(params.unpack(theta), l) @ u)

    return kernel_grad_exp(params, l, u), finite_diff_grad(loss, params.pack())


def assert_real_system_grad(params, l, u):
    """A real system's gradient: finite, d_lambda_im exactly 0 (f is even in
    lambda_im), every other component within 1e-6 of central differences,
    relative to the largest of them."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = grad_and_differences(params, l, u)
    n = params.n
    assert np.isfinite(got).all()
    assert np.all(got[n:2 * n] == 0.0)
    others = np.r_[0:n, 2 * n:4 * n + 1]
    err = np.abs(got[others] - want[others]).max() / np.abs(want[others]).max()
    assert err <= 1e-6, err


def test_kernel_grad_is_finite_where_delta_squared_overflows():
    # dt = e^400 and lam = -e^-400: z = -1, and dt^2 = e^800 is past float range.
    assert_real_system_grad(exp_params([-400.0], [0.0], [1.0], 400.0), 8,
                            np.random.default_rng(3).standard_normal(8))


def test_property_kernel_grad_of_real_systems_with_huge_delta():
    rng = np.random.default_rng(25)
    for _ in range(40):
        n, l = int(rng.integers(1, 5)), int(rng.integers(2, 33))
        delta_log = rng.uniform(360.0, 700.0)
        re_z = -np.exp(rng.uniform(-3.0, 3.0, n))       # |Re z| within e^{+-3}
        params = exp_params(np.log(-re_z) - delta_log, np.zeros(n), rng.uniform(-1.0, 1.0, n),
                            delta_log)
        assert_real_system_grad(params, l, rng.standard_normal(l))


def test_kernel_grad_refuses_a_component_past_float_range():
    # Im z = 0.52 at dt = e^400: d/dlambda_im = -dt Im(df/dz) ~ e^800.
    params = exp_params([-400.0], [1e-174], [1.0], 400.0)
    assert np.isfinite(dss_exp_kernel(params, 8)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^gradient leaves float range$"):
            kernel_grad_exp(params, 8, np.ones(8))


def test_kernel_grad_refuses_what_the_kernel_builder_refuses():
    # lam = -e^{709} ~ -8.2e307: lam*dt*L overflows at L = 65.
    p = KernelParams("exp", [709.0], [0.0], [1.0], 0.0)
    with pytest.raises(ValueError, match=r"lam\*delta\*L must be finite") as built:
        dss_exp_kernel(p, 65)
    with pytest.raises(ValueError, match=r"lam\*delta\*L must be finite") as grad:
        kernel_grad_exp(p, 65, np.ones(65))
    assert str(grad.value) == str(built.value)


@pytest.mark.parametrize("lambda_re, delta_log", [(-700.0, -60.0), (-700.0, -40.0),
                                                  (-744.0, 0.0)])
def test_exp_scale_is_delta_when_lam_delta_underflows(lambda_re, delta_log):
    # lam*dt is subnormal or rounds to 0, where expm1(lam dt)/lam loses its
    # digits (or overflows); kernel, the gradient's w block at each impulse
    # and impulse response are dt throughout.
    p = KernelParams("exp", [lambda_re], [0.0], [1.0], delta_log)
    delta = math.exp(delta_log)
    assert np.allclose(dss_exp_kernel(p, 3), delta, rtol=1e-15, atol=0.0)
    w_block = [p.unpack(kernel_grad_exp(p, 3, e)).w[0, 0] for e in np.eye(3)]
    assert np.allclose(w_block, delta, rtol=1e-15, atol=0.0)
    assert np.allclose(run_exp(p, [1.0, 0.0, 0.0])[0], delta, rtol=1e-15, atol=0.0)


def exact_series(z, coef, terms=24):
    """sum_{k<terms} coef(k) z^k in exact rationals, rounded once to a complex."""
    z_re, z_im = Fraction(z.real), Fraction(z.imag)
    p_re, p_im, s_re, s_im = Fraction(1), Fraction(0), Fraction(0), Fraction(0)
    for k in range(terms):
        s_re, s_im = s_re + coef(k) * p_re, s_im + coef(k) * p_im
        p_re, p_im = p_re * z_re - p_im * z_im, p_re * z_im + p_im * z_re
    return complex(float(s_re), float(s_im))


def test_exp_scale_and_its_slope_match_exact_series():
    # The subtraction forms (e^z-1)/lam and (dt e^z - scale)/lam lose about
    # 1e-16/|z| relative as z -> 0; expm1 and the series do not.
    rng = np.random.default_rng(11)
    worst_scale = worst_slope = 0.0
    for _ in range(300):
        z0 = 10.0 ** rng.uniform(-14.0, 0.0) * np.exp(1j * rng.uniform(0.5, 1.5) * math.pi)
        delta = 10.0 ** rng.uniform(-3.0, 1.0)
        _, scale, z, _ = _diagonal_rates("exp", [z0 / delta], [delta], [[1.0]], 1, 1)
        scale, z = scale[0, 0], z[0, 0]
        assert z.real <= 0.0
        slope = delta * (delta * _scale_slope(z, np.exp(z)))
        d = Fraction(delta)
        want_scale = exact_series(z, lambda k: d / math.factorial(k + 1))
        want_slope = exact_series(z, lambda k: d * d * (k + 1) / math.factorial(k + 2))
        worst_scale = max(worst_scale, abs(scale - want_scale) / abs(want_scale))
        worst_slope = max(worst_slope, abs(slope - want_slope) / abs(want_slope))
    assert worst_scale <= 1e-15 and worst_slope <= 2e-15, (worst_scale, worst_slope)


def test_exp_scale_keeps_delta_for_tiny_rates():
    # lam*dt = -1e-14: the subtraction form gave 0.009992.
    p = exp_params([math.log(1e-12)], [0.0], [1.0], math.log(0.01))
    assert dss_exp_kernel(p, 1)[0] == pytest.approx(0.01, rel=1e-14)


@pytest.mark.parametrize("entry", ["kernel_grad_exp", "run_exp", "run_softmax_stable"])
def test_overflowing_delta_is_refused_by_every_path(entry):
    variant = "softmax" if entry == "run_softmax_stable" else "exp"
    p = KernelParams(variant, [0.0], [1.0], [1.0], 710.0)
    call = {"kernel_grad_exp": lambda: kernel_grad_exp(p, 4, np.ones(4)),
            "run_exp": lambda: run_exp(p, np.ones(4)),
            "run_softmax_stable": lambda: run_softmax_stable(p, np.ones(4))}[entry]
    assert _diagonal_form(p)[1][0] == math.inf
    with pytest.raises(ValueError, match="^delta must be finite$"):
        call()


def test_kernel_grad_matches_finite_differences():
    for trial in check_grad(trials=10, seed=6):
        assert trial.errors["grad"] < 1e-4


def table_grad_exp(params, l, u):
    """kernel_grad_exp by its former formula, kept as an oracle: both sums
    over the upstream from one N x L table of powers e^{z_i k}."""
    lam, delta, w = _diagonal_form(params)
    _, scale, z, _ = _diagonal_rates("exp", lam, delta, np.ones_like(w), 1, l)
    dt, scale, z, w = delta[0], scale[0], z[0], w[0]
    powers = _exp_range(z, l)
    g_u, gk_u = powers @ u, powers @ (np.arange(l) * u)
    e_z = np.exp(z)
    sens = w * (dt * _scale_slope(z, e_z) * g_u + scale * gk_u)
    d_delta_log = (w * (dt * e_z * g_u + scale * z * gk_u)).sum(keepdims=True).real
    return DiagonalParams("exp", 1, params.n, z.real * sens.real, -dt * sens.imag,
                          d_delta_log, np.conj(scale * g_u)[None]).pack()


def test_kernel_grad_matches_the_table_formula_on_the_gate_instances():
    # check_grad(trials=20, seed=14)'s instances, drawn in its order.
    rng = np.random.RandomState(14)
    for _ in range(20):
        params = sample_exp_params(rng, n_max=4)
        l = int(rng.randint(2, 33))
        u = rng.standard_normal(l)
        got, want = kernel_grad_exp(params, l, u), table_grad_exp(params, l, u)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def diagonal_params(variant, h, n, seed):
    """An H-row container: init_layer's spectrum and sample times, Re(lam) spread."""
    layer = init_layer(h, n, variant, seed)
    rng = np.random.default_rng(seed)
    return DiagonalParams(variant, h, n, layer.lambda_re + rng.uniform(-1.0, 1.0, n),
                          layer.lambda_im, layer.delta_log, layer.w)


def vjp(params, l, dk):
    """diagonal_kernels_vjp of a container's own parameters."""
    return diagonal_kernels_vjp(params.variant, *_diagonal_form(params), l, dk)


def kernels_dot(params, l, dk):
    """f = sum(dk * K) of the function of params.pack() that the VJP differentiates."""
    return lambda theta: float((diagonal_kernels(params.variant, *_diagonal_form(params.unpack(theta)),
                                                 l) * dk).sum())


@pytest.mark.parametrize("variant", ["exp", "exp_no_scale"])
def test_kernels_vjp_rows_are_the_one_row_calls(variant):
    # Row h's delta_log and w parts are its own H = 1 call's; the spectrum
    # is shared, so the H-row lambda parts are the sum of the rows'.
    rng = np.random.default_rng(31)
    for h, n, l in ((3, 4, 37), (5, 8, 1000), (16, 64, 4096)):
        params = diagonal_params(variant, h, n, int(rng.integers(2 ** 31)))
        dk = rng.standard_normal((h, l))
        got = params.unpack(vjp(params, l, dk))
        lam_sum = np.zeros(2 * n)
        for row in range(h):
            one = params.coordinate_kernel_params(row)
            part = one.unpack(vjp(one, l, dk[row:row + 1]))
            lam_sum += np.concatenate([part.lambda_re, part.lambda_im])
            for name in ("delta_log", "w"):
                want = getattr(part, name)[0]
                assert np.abs(getattr(got, name)[row] - want).max() <= 1e-12 * np.abs(want).max()
        lam_got = np.concatenate([got.lambda_re, got.lambda_im])
        assert np.abs(lam_got - lam_sum).max() <= 1e-12 * np.abs(lam_sum).max()


@pytest.mark.parametrize("variant", ["exp", "exp_no_scale"])
@pytest.mark.parametrize("h, n, l", [(3, 4, 37), (2, 5, 200), (1, 3, 65)])
def test_kernels_vjp_matches_central_differences(variant, h, n, l):
    rng = np.random.default_rng(h * n * l)
    params = diagonal_params(variant, h, n, int(rng.integers(2 ** 31)))
    dk = rng.standard_normal((h, l))
    got = vjp(params, l, dk)
    want = finite_diff_grad(kernels_dot(params, l, dk), params.pack())
    assert got.shape == want.shape == params.pack().shape
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


@pytest.mark.parametrize("variant", ["exp", "exp_no_scale"])
def test_kernels_vjp_matches_fourth_order_differences_at_layer_scale(variant):
    # At (16, 64, 16384) a mode's phase moves by delta*k with k up to L, and
    # plain central differences miss the bound (by up to 2e-5 relative on
    # these directions): the derivative along each direction is taken by
    # the fourth-order stencil instead, which agrees within about 1e-8.
    rng = np.random.default_rng(len(variant))
    params, l, step = diagonal_params(variant, 16, 64, 3), 16384, 1e-7
    dk = rng.standard_normal((16, l))
    grad, theta, f = vjp(params, l, dk), params.pack(), kernels_dot(params, l, dk)
    for _ in range(3):
        v = rng.standard_normal(theta.size)
        at = [f(theta + j * step * v) for j in (2, 1, -1, -2)]
        want = (8.0 * (at[1] - at[2]) - (at[0] - at[3])) / (12.0 * step)
        assert abs(grad @ v - want) <= 1e-6 * abs(want)


def test_kernel_grad_forms_no_table_of_n_by_l_powers():
    # At N = 64, L = 16384 an N x L complex table alone is 16 MiB.
    params, l = init_layer(1, 64, "exp", 1).coordinate_kernel_params(0), 16384
    u = np.random.default_rng(2).standard_normal(l)
    kernel_grad_exp(params, l, u)                   # first-call allocations are not the gradient's
    tracemalloc.start()
    try:
        kernel_grad_exp(params, l, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20, peak / 2 ** 20


def test_finite_diff_grad_quadratic():
    got = finite_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]), h=1e-6)
    assert got[0] == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_grad_constant():
    got = finite_diff_grad(lambda t: 5.0, np.arange(4.0), h=1e-6)
    assert np.array_equal(got, np.zeros(4))


def test_write_kernel_csv_roundtrip(tmp_path):
    path = tmp_path / "k.csv"
    kernels = np.array([[0.5, 0.25, 1.0 / 3.0], [1e-17, -2.0, 0.0]])
    write_kernel_csv(path, kernels)
    text = path.read_text().strip().split("\n")
    assert len(text) == 2
    back = np.array([[float(v) for v in line.split(",")] for line in text])
    assert np.array_equal(back, kernels)  # %.17g round-trips doubles
