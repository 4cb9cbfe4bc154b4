import dataclasses
import math

import numpy as np
import pytest

from diagssm import (
    KernelParams,
    LayerParams,
    build_kernel,
    DEFAULT_EPS,
    causal_conv_fft,
    chunked_scan,
    diagonal_kernels,
    dss_exp_kernel,
    dss_exp_noscale_kernel,
    dss_softmax_kernel,
    effective_lambda,
    run_exp,
    run_softmax_stable,
    ssm_outputs,
)
from diagssm.checks import sample_exp_params, sample_softmax_params
from diagssm.recurrence import _CHUNK, _scan_plan

LN2 = math.log(2.0)


def test_run_exp_halving_mode():
    # lam = -1, dt = ln 2: a_bar = 1/2 and input map (e^{lam dt} - 1)/lam = 1/2.
    p = KernelParams("exp", [0.0], [0.0], [1.0], math.log(LN2))
    y, _ = run_exp(p, np.eye(1, 8).ravel())
    assert np.allclose(y, 0.5 * 0.5 ** np.arange(8), rtol=1e-15, atol=0.0)


def test_run_exp_state_contracts_for_stable_modes():
    rng = np.random.RandomState(0)
    p = KernelParams("exp", rng.standard_normal(8), rng.standard_normal(8), np.ones(8),
                     math.log(0.3))
    _, x = run_exp(p, [0.0], x_init=np.ones(8))      # one step: x = a_bar
    assert np.all(np.abs(x) < 1.0)


def test_run_exp_rejects_zero_lambda():
    p = KernelParams("exp", [-746.0], [0.0], [1.0], 0.0)   # -e^{-746} underflows to 0
    with pytest.raises(ValueError, match="singular lambda"):
        run_exp(p, np.ones(4))


def test_run_exp_refuses_nan_lambda():
    # An infinite delta is refused in tests/test_kernel.py, on every path.
    p = KernelParams("exp", [0.0], [0.0], [1.0], 0.0)
    p.lambda_re = np.array([math.nan])      # past the constructor's own check
    with pytest.raises(ValueError, match="lam must be finite"):
        run_exp(p, np.ones(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_exp_refuses_non_finite_state(bad):
    p = KernelParams("exp", [0.1], [0.4], [1.0], -0.5)
    with pytest.raises(ValueError, match="x_init must be finite"):
        run_exp(p, np.ones(8), x_init=[bad])


def test_run_exp_zero_input():
    p = KernelParams("exp", [0.1], [0.4], [1.0], -0.5)
    y, x = run_exp(p, np.zeros(16))
    assert np.array_equal(y, np.zeros(16))
    assert np.array_equal(x, np.zeros(1))


def test_run_exp_impulse_response_is_kernel():
    rng = np.random.RandomState(1)
    p = sample_exp_params(rng)
    impulse = np.zeros(64)
    impulse[0] = 1.0
    y, _ = run_exp(p, impulse)
    assert np.abs(y - dss_exp_kernel(p, 64)).max() < 1e-12


def test_run_exp_matches_convolution():
    rng = np.random.RandomState(2)
    for _ in range(5):
        p = sample_exp_params(rng)
        u = rng.standard_normal(512)
        y, _ = run_exp(p, u)
        y_conv = causal_conv_fft(dss_exp_kernel(p, 512), u)
        assert np.abs(y - y_conv).max() < 1e-9


def test_run_exp_state_continuation():
    rng = np.random.RandomState(3)
    p = sample_exp_params(rng)
    u = rng.standard_normal(200)
    y_full, x_full = run_exp(p, u)
    y_a, x_a = run_exp(p, u[:77])
    y_b, x_b = run_exp(p, u[77:], x_init=x_a)
    assert np.abs(np.concatenate([y_a, y_b]) - y_full).max() < 1e-12
    assert np.abs(x_b - x_full).max() < 1e-12


def test_run_exp_steps_exp_no_scale():
    # Input map 1: the impulse response is dss_exp_noscale_kernel, and a
    # split run resumed from its state is bitwise the whole run.
    rng = np.random.RandomState(25)
    for _ in range(5):
        e = sample_exp_params(rng)
        p = dataclasses.replace(e, variant="exp_no_scale")
        u = rng.standard_normal(512)
        y, x = run_exp(p, u)
        want = causal_conv_fft(dss_exp_noscale_kernel(p, 512), u)
        assert np.abs(y - want).max() <= 1e-10 * np.abs(want).max()
        cut = int(rng.randint(1, 512))
        y_a, x_a = run_exp(p, u[:cut])
        y_b, x_b = run_exp(p, u[cut:], x_init=x_a)
        assert np.concatenate([y_a, y_b]).tobytes() == y.tobytes()
        assert x_b.tobytes() == x.tobytes()


def test_run_exp_forget_limit():
    # strongly damped mode: the state tracks -u_k / lam within each step
    p = KernelParams("exp", [math.log(30.0)], [0.0], [1.0], 0.0)  # lam = -30, dt = 1
    lam = -30.0
    u = np.random.RandomState(4).standard_normal(32)
    _, x = run_exp(p, u)
    assert abs(x[0] + u[-1] / lam) < 1e-6 * (abs(u[-1]) + 1.0)


def test_run_softmax_zero_input():
    p = KernelParams("softmax", [-0.5], [1.0], [1.0], -1.0)
    y, x = run_softmax_stable(p, np.zeros(32))
    assert np.array_equal(y, np.zeros(32))
    assert np.abs(x).max() == 0.0


def test_run_softmax_positive_re_copies_to_horizon():
    # one unstable mode: an impulse is carried across the whole window and
    # reappears near 1/lam at the last position, with earlier outputs
    # geometrically small; closed form x_{L-1} = (1 - e^{-lam dt}) / lam
    l = 64
    lam = 5.0
    p = KernelParams("softmax", [lam], [0.0], [1.0], 0.0)
    u = np.zeros(l)
    u[0] = 1.0
    y, x = run_softmax_stable(p, u, eps=1e-14)
    exact_last = (1.0 - math.exp(-lam)) / lam
    assert abs(x[0] - exact_last) < 1e-10
    assert abs(x[0] - 1.0 / lam) < 2e-3        # the headline approximation
    assert np.abs(y[:-1]).max() < math.exp(-lam) * exact_last * 1.01
    assert y[-1] == pytest.approx(exact_last, abs=1e-10)
    y_conv = causal_conv_fft(dss_softmax_kernel(p, l, eps=1e-14), u)
    assert np.abs(y - y_conv).max() < 1e-8


def test_run_softmax_matches_convolution_mixed_signs():
    rng = np.random.RandomState(5)
    for trial in range(6):
        p = sample_softmax_params(rng, l=256, force_positive=trial % 2 == 1)
        u = rng.standard_normal(256)
        y, _ = run_softmax_stable(p, u)
        y_conv = causal_conv_fft(build_kernel(p, 256), u)
        assert np.abs(y - y_conv).max() < 1e-8


def test_run_softmax_long_horizon_equivalence():
    rng = np.random.RandomState(6)
    for trial in range(2):
        p = sample_softmax_params(rng, l=4096, force_positive=trial == 1)
        u = rng.standard_normal(4096)
        y, _ = run_softmax_stable(p, u)
        y_conv = causal_conv_fft(build_kernel(p, 4096), u)
        assert np.abs(y - y_conv).max() < 1e-8


def test_run_softmax_guard_near_singular():
    # exp(L*lam*dt) == 1 exactly: purely imaginary lam completing full turns
    l = 8
    lam_im = 2.0 * math.pi / l
    p = KernelParams("softmax", [0.0], [lam_im], [1.0], 0.0)
    with pytest.raises(ValueError, match="softmax weight undefined"):
        run_softmax_stable(p, np.ones(l))


def test_run_softmax_rejects_zero_lambda():
    p = KernelParams("softmax", [0.0], [0.0], [1.0], 0.0)
    with pytest.raises(ValueError, match="singular lambda"):
        run_softmax_stable(p, np.ones(4))


def _step_oracle(kp, u, eps):
    """One coordinate's output stepped position by position."""
    if kp.variant == "softmax":
        return run_softmax_stable(kp, u, eps)[0]
    return run_exp(kp, u)[0]


def _scan_instance(rng, variant, h=2, n=6):
    """Layer parameters with |Re(lam)*dt| spread log-uniformly over
    [1e-4, 50] on the first coordinate; softmax modes take both signs."""
    delta = 10.0 ** rng.uniform(-3.0, -1.0, h)
    re_dt = 10.0 ** rng.uniform(-4.0, math.log10(50.0), n)
    re_dt[:2] = (1e-4, 50.0)
    if variant == "softmax":
        lambda_re = re_dt * rng.permutation(np.resize([1.0, -1.0], n)) / delta[0]
    else:
        lambda_re = np.log(re_dt / delta[0])      # Re(lam) = -exp(lambda_re)
    return LayerParams(
        variant=variant, h=h, n=n,
        lambda_re=lambda_re,
        lambda_im=rng.uniform(-3.0, 3.0, n) / delta[0],
        delta_log=np.log(delta),
        w=rng.standard_normal((h, n)) + 1j * rng.standard_normal((h, n)),
        w_out=np.eye(h), b_out=np.zeros(h),
    )


SCAN_CASES = [(variant, eps) for variant in ("exp", "exp_no_scale", "softmax")
              for eps in ((1e-7,) if variant != "softmax" else (1e-7, 1e-14))]


@pytest.mark.parametrize("l", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 1000, 4096])
@pytest.mark.parametrize("variant, eps", SCAN_CASES)
def test_chunked_scan_matches_step_oracle_and_conv(variant, eps, l):
    rng = np.random.RandomState(l + 7 * len(variant) + int(eps < 1e-10))
    params = _scan_instance(rng, variant)
    u = rng.standard_normal((2, params.h, l))
    lam, delta = effective_lambda(params), np.exp(params.delta_log)
    y = chunked_scan(variant, lam, delta, params.w, u, eps)
    assert np.isfinite(y).all()
    scale = max(1.0, float(np.abs(y).max()))
    if variant == "softmax" and l >= 1000:
        # e^{Re(lam) dt L} is past the float range for some unstable modes
        z_l = params.lambda_re.max() * math.exp(params.delta_log.max()) * l
        assert z_l > 709.0
    worst = 0.0
    for bi in range(u.shape[0]):
        for hi in range(params.h):
            want = _step_oracle(params.coordinate_kernel_params(hi), u[bi, hi], eps)
            worst = max(worst, float(np.abs(y[bi, hi] - want).max()))
    assert worst <= 1e-10 * scale
    conv = causal_conv_fft(diagonal_kernels(variant, lam, delta, params.w, l, eps), u)
    assert float(np.abs(y - conv).max()) <= 1e-8 * scale
    # The layer runs the same two views at DEFAULT_EPS, bit for bit.
    views = {"recurrent": chunked_scan(variant, lam, delta, params.w, u, DEFAULT_EPS),
             "conv": causal_conv_fft(
                 diagonal_kernels(variant, lam, delta, params.w, l, DEFAULT_EPS), u)}
    for mode, want in views.items():
        assert ssm_outputs(params, u, mode).tobytes() == want.tobytes()


@pytest.mark.parametrize("l", [_CHUNK + 1, 1000])
@pytest.mark.parametrize("variant", ["exp", "exp_no_scale", "softmax"])
def test_scan_plan_matrices_are_c_contiguous(variant, l):
    # numpy's matmul hands a product to BLAS only when each operand has a
    # unit-stride axis; the scan's products must not fall back to its own loop.
    params = _scan_instance(np.random.RandomState(l), variant)
    plan = _scan_plan(variant, effective_lambda(params), np.exp(params.delta_log),
                      params.w, params.h, l)
    for name in ("toeplitz", "read", "read_tail", "inject"):
        assert getattr(plan, name).flags.c_contiguous, name


@pytest.mark.parametrize("change, message", [
    ({"variant": "bogus"}, "unknown variant"),
    ({"u": np.zeros((2, 3))}, "input must have shape"),
    ({"u": np.zeros((1, 2, 0))}, "input must have shape"),
    ({"delta": np.ones(3)}, "delta must have shape"),
    ({"w": np.ones((2, 5))}, "delta must have shape"),
    ({"delta": np.array([1.0, np.nan])}, "delta must be finite"),
    ({"w": np.full((2, 4), np.inf)}, "w must be finite"),
    ({"delta": np.array([1.0, 0.0])}, "delta must be positive"),
    ({"lam": np.array([-1.0, 0.0, -1.0, -1.0])}, "singular lambda"),
    ({"u": np.full((1, 2, 8), np.nan)}, "input u must be finite"),
    ({"delta": np.array([1.0, 1e308])}, r"lam\*delta\*L must be finite"),
])
def test_chunked_scan_rejects_bad_input(change, message):
    args = {"variant": "exp", "lam": np.full(4, -1.0 + 1j), "delta": np.ones(2),
            "w": np.ones((2, 4)), "u": np.zeros((1, 2, 8))}
    args.update(change)
    with pytest.raises(ValueError, match=message):
        chunked_scan(**args)
