import math

import numpy as np
import pytest

from diagssm import (
    GeneralSSM,
    KernelParams,
    dense_to_diagonal_weights,
    diagonal_kernels,
    dss_exp_kernel,
    dss_exp_noscale_kernel,
    dss_softmax_kernel,
    effective_lambda,
    exp_basis,
    finite_diff_grad,
    general_ssm_kernel,
    init_layer,
    kernel_grad_exp,
    truncate_kernel,
    write_kernel_csv,
)
from diagssm.checks import check_grad, check_prop1
from diagssm.cnum import reciprocal_eps

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
    lam = effective_lambda(p_exp)[0]
    ratio = (np.exp(lam * p_exp.delta) - 1.0) / lam
    k_exp = dss_exp_kernel(p_exp, 16)
    k_ns_scaled = (np.asarray([0.7 - 0.4j]) * ratio @
                   np.exp(np.outer([lam * p_exp.delta], np.arange(16)))).real
    assert np.abs(k_exp - k_ns_scaled).max() < 1e-12
    # sanity: plain no-scale differs unless the ratio is 1
    assert np.abs(k_exp - dss_exp_noscale_kernel(p_ns, 16)).max() > 1e-3


def direct_kernel(params, l):
    """Each kernel from one N x L np.exp, the form the blocked builds factor."""
    lam = effective_lambda(params)
    z = lam * params.delta
    pos = np.arange(l, dtype=float)
    if params.variant == "softmax":
        shift = z * ((lam.real > 0) * (l - 1))
        e = np.exp(np.outer(z, pos) - shift[:, None])
        coef = params.w / lam * reciprocal_eps(e.sum(axis=1))
    else:
        e = np.exp(np.outer(z, pos))
        coef = params.w * ((np.exp(z) - 1.0) / lam if params.variant == "exp" else 1.0)
    return (coef @ e).real


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
        layer = init_layer(16, 64, "softmax", 1)
        layer.lambda_re[np.random.default_rng(0).choice(64, 32, replace=False)] = 0.25
        layers.append((layer.lambda_re, layer.lambda_im, layer.delta_log, layer.w))
    for lambda_re, lambda_im, delta_log, w in layers:
        rows = [KernelParams(variant, lambda_re, lambda_im, w_h, d) for w_h, d in zip(w, delta_log)]
        got = diagonal_kernels(variant, effective_lambda(rows[0]), np.exp(delta_log), w, l)
        assert got.shape == (len(rows), l) and np.isfinite(got).all()
        for row, params in zip(got, rows):
            want = direct_kernel(params, l)
            assert np.abs(row - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("l", [1, 65, 1024])
def test_exp_basis_is_the_kernel_linear_map(l):
    rng = np.random.default_rng(7)
    for _ in range(4):
        params = random_kernel_params(rng, "exp", int(rng.integers(1, 33)))
        basis = exp_basis(params, l)
        kernel = dss_exp_kernel(params, l)
        assert basis.shape == (params.n, l)
        assert np.abs((params.w @ basis).real - kernel).max() <= 1e-12 * np.abs(kernel).max()
        u = rng.standard_normal(l)
        g = kernel_grad_exp(params, l, u)
        proj = basis @ u
        scale = max(np.abs(g.d_w_re).max(), np.abs(g.d_w_im).max())
        assert np.abs(proj.real - g.d_w_re).max() <= 1e-12 * scale
        assert np.abs(-proj.imag - g.d_w_im).max() <= 1e-12 * scale


def test_general_ssm_kernel_scalar_case():
    got = general_ssm_kernel(GeneralSSM([[-1.0]], [[1.0]], [[1.0]]), LN2, 3)
    assert np.abs(got - np.array([0.5, 0.25, 0.125])).max() < 1e-12


def test_general_ssm_kernel_zero_readout():
    got = general_ssm_kernel(GeneralSSM(np.diag([-1.0, -2.0]), np.ones(2), np.zeros(2)), 0.3, 6)
    assert np.array_equal(got, np.zeros(6))


def test_general_ssm_kernel_rejects_singular():
    with pytest.raises(ValueError, match="not invertible"):
        general_ssm_kernel(GeneralSSM(np.zeros((2, 2)), np.ones(2), np.ones(2)), 0.5, 4)


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
    with pytest.raises(OverflowError, match="weight overflow"):
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
    got = truncate_kernel(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert np.array_equal(got, np.array([1.0, 2.0, 0.0, 0.0]))


def test_truncate_kernel_beyond_length_is_identity():
    k = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(truncate_kernel(k, 7), k)


def test_singular_lambda_rejected():
    p = KernelParams("softmax", [0.0], [0.0], [1.0], 0.0)
    with pytest.raises(ValueError, match="singular lambda"):
        dss_softmax_kernel(p, 4)


def grad_as_vector(g):
    return np.concatenate([g.d_lambda_re, g.d_lambda_im, g.d_w_re, g.d_w_im,
                           [g.d_delta_log]])


def test_kernel_grad_zero_upstream():
    p = exp_params([0.1, -0.2], [0.5, 1.5], [1.0, 2.0], -0.3)
    g = grad_as_vector(kernel_grad_exp(p, 8, np.zeros(8)))
    assert np.array_equal(g, np.zeros_like(g))


def test_kernel_grad_weight_entry_hand_value():
    # L=1: K_0 = Re(w~) * (e^{lam dt} - 1)/lam evaluated at lam=-1, dt=ln 2
    p = exp_params([0.0], [0.0], [1.0], math.log(LN2))
    g = kernel_grad_exp(p, 1, np.array([1.0]))
    assert g.d_w_re[0] == pytest.approx(0.5, abs=1e-12)


def test_kernel_grad_matches_finite_differences():
    for trial in check_grad(trials=10, seed=6):
        assert trial.errors["grad"] < 1e-4


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
