"""Seeded property test: the public entry points on extreme inputs.

Every draw must give finite output or a ValueError, never NaN, inf or a
numpy RuntimeWarning (the suite turns those into errors), and the
convolution and recurrent views must refuse exactly the same draws, with
the same message.  The one-coordinate paths (the per-step oracles and the
exp gradient) must give finite output or a ValueError on the same draws;
they may refuse more than the layer does.  Malformed arguments (a float or
bool count, a non-positive or non-numeric scalar, complex input to a real
argument) are refused with a ValueError naming the argument.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from diagssm import (
    VARIANTS,
    GeneralSSM,
    KernelParams,
    SplitMix64,
    build_kernel,
    causal_conv_fft,
    causal_conv_naive,
    chunked_scan,
    dense_to_diagonal_weights,
    diagonal_kernels,
    diagonal_kernels_vjp,
    dss_exp_kernel,
    effective_lambda,
    finite_diff_grad,
    gelu,
    general_ssm_kernel,
    init_layer,
    kernel_grad_exp,
    kernel_stats,
    layer_forward,
    layer_kernels,
    params_from_json,
    reciprocal_eps,
    run_exp,
    run_softmax_stable,
    skew_hippo_lambda,
    skew_hippo_matrix,
    softmax_eps,
    softmax_via_fft,
    ssm_outputs,
    symmetric_eigenvalues,
    train_toy_delay,
)

H, N = 2, 4
DELTA_LOGS = (-800.0, -60.0, math.log(0.01), 30.0, 700.0, 710.0)
EXP_LAMBDA_RE = (-5.0, math.log(0.5), 50.0, 700.0, 709.0, 710.0)


def draw_case(rng, variant):
    """Layer parameters, input and a kernel_limit > L for one draw.

    About half the deltas and a third of the real parts take an extreme
    value; the rest keep their initial ones.
    """
    params = init_layer(H, N, variant, int(rng.integers(2 ** 31)))
    params.delta_log = np.where(rng.random(H) < 0.5, rng.choice(DELTA_LOGS, H), params.delta_log)
    if variant == "softmax":
        # Re(lam)*delta of either sign up to 50 against the first coordinate
        # (its delta clipped to a finite, positive value).
        delta0 = math.exp(min(max(params.delta_log[0], -60.0), 700.0))
        re_dt = rng.choice([-1.0, 1.0], N) * rng.uniform(0.0, 50.0, N)
        params.lambda_re = np.where(rng.random(N) < 0.5, re_dt / delta0, params.lambda_re)
    else:
        params.lambda_re = np.where(rng.random(N) < 0.3, rng.choice(EXP_LAMBDA_RE, N),
                                    params.lambda_re)
    l = int(rng.choice([1, 2, 65]))
    u = rng.standard_normal((2, H, l))
    if rng.random() < 0.2:
        u[tuple(rng.integers(dim) for dim in u.shape)] = rng.choice([np.nan, np.inf, -np.inf])
    return params, u, l + int(rng.integers(1, 4))


def outcome(fn):
    """The ValueError message of fn(), or None after checking its output is finite."""
    try:
        out = fn()
    except ValueError as exc:
        return str(exc)
    assert np.isfinite(out).all()
    return None


def coordinate_paths(variant, params, u):
    """The one-coordinate entry points on coordinate 0 and u[0, 0], as thunks."""
    u0, l = u[0, 0], u.shape[-1]
    paths = {"exp": [lambda kp: np.concatenate(run_exp(kp, u0)),
                     lambda kp: kernel_grad_exp(kp, l, u0)],
             "softmax": [lambda kp: np.concatenate(run_softmax_stable(kp, u0))],
             "exp_no_scale": [lambda kp: np.concatenate(run_exp(kp, u0))]}[variant]
    return [lambda fn=fn: fn(params.coordinate_kernel_params(0)) for fn in paths]


@pytest.mark.parametrize("variant", VARIANTS)
def test_entry_points_give_finite_output_or_value_error(variant):
    rng = np.random.default_rng(VARIANTS.index(variant))
    refused = finite = path_runs = path_refused = 0
    for _ in range(300):
        params, u, limit = draw_case(rng, variant)
        l = u.shape[-1]
        conv = outcome(lambda: ssm_outputs(params, u, "conv"))
        assert outcome(lambda: ssm_outputs(params, u, "recurrent")) == conv
        assert outcome(lambda: ssm_outputs(params, u, "conv", kernel_limit=limit)) == conv
        for mode in ("conv", "recurrent"):
            assert outcome(lambda: layer_forward(params, u, mode)) == conv

        with np.errstate(over="ignore"):   # the layer's own form of its parameters
            lam, delta = effective_lambda(params), np.exp(params.delta_log)
        kernels = outcome(lambda: diagonal_kernels(variant, lam, delta, params.w, l))
        if variant != "softmax":
            # u[0] as H upstream kernels: the VJP refuses what the kernels
            # refuse, by the same message, and then only a non-finite dk or
            # a gradient past float range.
            vjp = outcome(lambda: diagonal_kernels_vjp(variant, lam, delta, params.w, l, u[0]))
            assert vjp == kernels if kernels is not None else vjp in VJP_REFUSALS
        assert outcome(lambda: chunked_scan(variant, lam, delta, params.w, u)) == conv
        if np.isfinite(u).all():
            assert kernels == conv
        # The layer's kernels build exactly when every coordinate's does.
        rows = [outcome(lambda: build_kernel(params.coordinate_kernel_params(h_idx), l))
                for h_idx in range(H)]
        assert (kernels is None) == all(row is None for row in rows)
        for path in coordinate_paths(variant, params, u):
            path_runs += 1
            path_refused += outcome(path) is not None
        refused += conv is not None
        finite += conv is None
    # Both outcomes occur, so neither half of the property holds vacuously.
    assert refused > 30 and finite > 30
    assert path_runs == 0 or 30 < path_refused < path_runs - 30


@pytest.mark.parametrize("mode", ["conv", "recurrent"])
def test_softmax_layer_refuses_nan_eps(mode):
    # The layer always runs at DEFAULT_EPS; each view's own builder takes eps.
    params = init_layer(2, 4, "softmax", 0)
    lam, delta = effective_lambda(params), np.exp(params.delta_log)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        if mode == "conv":
            diagonal_kernels("softmax", lam, delta, params.w, 8, eps=math.nan)
        else:
            chunked_scan("softmax", lam, delta, params.w, np.ones((1, 2, 8)), eps=math.nan)


@pytest.mark.parametrize("mode", ["conv", "recurrent"])
def test_subnormal_softmax_lambda_is_refused(mode):
    # A nonzero but subnormal lam passes the singular check; w/lam overflows.
    params = init_layer(1, 2, "softmax", 0)
    params.lambda_re = np.full(2, 1e-320)
    params.lambda_im = np.zeros(2)
    with pytest.raises(ValueError, match="lam gives a non-finite input map"):
        ssm_outputs(params, np.ones((1, 1, 8)), mode)


@pytest.mark.parametrize("fn, args", [
    (init_layer, (2.5, 4, "exp", 0)),
    (init_layer, (2, 2.5, "exp", 0)),
    (init_layer, (2, 4.0, "softmax", 0)),
    (skew_hippo_lambda, (2.5,)),
    *((fn, args) for seed in (2.7, True, math.nan, "3") for fn, args in (
        (init_layer, (2, 4, "exp", seed)),
        (train_toy_delay, (4, 16, 3, 2, 1e-3, seed)),
        (SplitMix64, (seed,)))),
])
def test_non_integer_sizes_are_refused(fn, args):
    with pytest.raises(ValueError, match="integer"):
        fn(*args)


P_EXP = KernelParams("exp", [0.1], [0.4], [1.0], -0.5)
VJP_REFUSALS = (None, "dk must be finite (no NaN or inf)", "gradient leaves float range")
P_SOFTMAX = KernelParams("softmax", [-0.5], [0.4], [1.0], -0.5)
LAYER = init_layer(2, 4, "exp", 0)
U = np.ones((1, 2, 8))

# Each call is malformed in one argument; the refusal's message starts as given.
MALFORMED = {
    "kernel length None": (lambda: dss_exp_kernel(P_EXP, None), "l must be an integer >= 1"),
    "kernel length inf": (lambda: dss_exp_kernel(P_EXP, math.inf), "l must be an integer >= 1"),
    "kernel length nan": (lambda: dss_exp_kernel(P_EXP, math.nan), "l must be an integer >= 1"),
    "kernel length 4.0": (lambda: dss_exp_kernel(P_EXP, 4.0), "l must be an integer >= 1"),
    "fft softmax length None": (lambda: softmax_via_fft(-1 + 1j, None), "l must be an integer >= 1"),
    "fft softmax scalar None": (lambda: softmax_via_fft(None, 4), "c must hold numbers"),
    "fft softmax scalar nan": (lambda: softmax_via_fft(complex(math.nan, 1.0), 4), "c must be finite"),
    "dense weights length 2.0": (lambda: dense_to_diagonal_weights([1.0], [1.0], [-1 + 0j], 1.0, 2.0),
                                 "l must be an integer >= 1"),
    "dense weights lam nan": (lambda: dense_to_diagonal_weights([1.0], [1.0], [math.nan], 1.0, 4),
                              "lam must be finite"),
    "dense weights vinvb nan": (lambda: dense_to_diagonal_weights([1.0], [math.nan], [-1 + 0j], 1.0, 4),
                                "vinvb must be finite"),
    "dense weights cv inf": (lambda: dense_to_diagonal_weights([math.inf], [1.0], [-1 + 0j], 1.0, 4),
                             "cv must be finite"),
    "dense weights exp overflow": (lambda: dense_to_diagonal_weights([1e200], [1e200], [-1], 1.0, 4),
                                   "weight overflow: exp weights w~ = cv*vinvb must be finite"),
    "dense weights softmax overflow": (
        lambda: dense_to_diagonal_weights([1e10], [1.0], [0.5], 1.0, 1400),
        "weight overflow: softmax weights w = w~*(exp(L*lam*delta) - 1) must be finite"),
    "unstable dense system, long l": (
        lambda: general_ssm_kernel(GeneralSSM([[1.0]], [1.0], [1.0]), 1.0, 2000),
        "ssm leaves float range within l = 2000 steps"),
    "kernel_limit 2.0": (lambda: ssm_outputs(LAYER, U, kernel_limit=2.0),
                         "kernel_limit must be an integer >= 1"),
    "kernel_limit True": (lambda: ssm_outputs(LAYER, U, kernel_limit=True),
                          "kernel_limit must be an integer >= 1"),
    "layer kernel length True": (lambda: layer_kernels(LAYER, True), "l must be an integer >= 1"),
    "stats length 4.5": (lambda: kernel_stats(LAYER, 4.5), "l must be an integer >= 1"),
    "hippo size True": (lambda: skew_hippo_matrix(True), "n must be an integer >= 1"),
    "toy n True": (lambda: train_toy_delay(True, 4, 1, 2), "n must be an integer >= 1"),
    "toy steps True": (lambda: train_toy_delay(4, 4, 1, True), "steps must be an integer >= 1"),
    "toy lr negative": (lambda: train_toy_delay(4, 8, 1, 2, lr=-1.0), "lr must be finite and positive"),
    "toy lr nan": (lambda: train_toy_delay(4, 8, 1, 2, lr=math.nan), "lr must be finite and positive"),
    "eps None": (lambda: reciprocal_eps(1 + 0j, None), "eps must be finite and positive"),
    "eps True": (lambda: reciprocal_eps(1 + 0j, True), "eps must be finite and positive"),
    "eps string": (lambda: softmax_eps(np.zeros(2), "1e-7"), "eps must be finite and positive"),
    "reciprocal x nan": (lambda: reciprocal_eps(complex(math.nan, 1.0)), "x must be finite"),
    "softmax x inf": (lambda: softmax_eps([0.0, math.inf]), "x must be finite"),
    "step nan": (lambda: finite_diff_grad(lambda t: float(t[0]), [1.0], h=math.nan),
                 "h must be finite and positive"),
    "complex layer input": (lambda: layer_forward(LAYER, U + 1j), "input u must hold real numbers"),
    "complex ssm input": (lambda: ssm_outputs(LAYER, U + 1j, "recurrent"), "input u must hold real numbers"),
    "complex conv input": (lambda: causal_conv_fft(np.ones(8), np.ones(8) + 1j),
                           "input u must hold real numbers"),
    "complex oracle input": (lambda: run_exp(P_EXP, np.ones(8) + 1j), "input u must hold real numbers"),
    "complex upstream": (lambda: kernel_grad_exp(P_EXP, 8, np.ones(8) + 1j),
                         "upstream must hold real numbers"),
    "upstream of another length": (lambda: kernel_grad_exp(P_EXP, 8, np.ones(7)),
                                   "upstream must have shape (8,), got (7,)"),
    "complex upstream kernels": (lambda: diagonal_kernels_vjp("exp", [-1.0], [0.5], [[1.0]], 8,
                                                              np.ones((1, 8)) + 1j),
                                 "dk must hold real numbers"),
    "upstream kernels with a NaN": (lambda: diagonal_kernels_vjp("exp", [-1.0], [0.5], [[1.0]], 2,
                                                                 [[1.0, math.nan]]),
                                    "dk must be finite (no NaN or inf)"),
    "upstream kernels with an inf": (lambda: diagonal_kernels_vjp("exp_no_scale", [-1.0], [0.5], [[1.0]],
                                                                  2, [[-math.inf, 1.0]]),
                                     "dk must be finite (no NaN or inf)"),
    "upstream kernels of another shape": (lambda: diagonal_kernels_vjp("exp", [-1.0], [0.5, 1.0],
                                                                       [[1.0], [2.0]], 8, np.ones(8)),
                                          "dk must have shape (2, 8), got (8,)"),
    "softmax kernels' gradient": (lambda: diagonal_kernels_vjp("softmax", [-1.0], [0.5], [[1.0]], 8,
                                                               np.ones((1, 8))),
                                  "diagonal_kernels_vjp has no softmax variant yet, got 'softmax'"),
    # Im z = 0.52 at delta = e^400: d/dlambda_im = -delta Im(df/dz) ~ e^800.
    "kernels' gradient past float range": (
        lambda: diagonal_kernels_vjp("exp", [-math.exp(-400.0) + 1e-174j], [math.exp(400.0)], [[1.0]], 8,
                                     np.ones((1, 8))),
        "gradient leaves float range"),
    "upstream kernels past float range": (
        lambda: diagonal_kernels_vjp("exp_no_scale", [-1.0], [0.5], [[1.0]], 8, np.full((1, 8), 1e308)),
        "gradient leaves float range"),
    "2-D oracle input": (lambda: run_exp(P_EXP, np.ones((2, 4))), "input u must be one-dimensional"),
    "oracle state of another size": (lambda: run_exp(P_EXP, np.ones(4), x_init=np.ones(2)),
                                     "x_init must hold 1 entries, one per mode"),
    "2-D direct convolution input": (lambda: causal_conv_naive(np.ones((2, 4)), np.ones((2, 4))),
                                     "kernel and input u must be one-dimensional"),
    "non-square eigenproblem": (lambda: symmetric_eigenvalues(np.ones((2, 3))), "matrix not symmetric"),
    "empty eigenproblem": (lambda: symmetric_eigenvalues(np.zeros((0, 0))), "matrix must be nonempty"),
    "complex gelu input": (lambda: gelu(np.ones(8) + 1j), "x must hold real numbers"),
    "object input": (lambda: layer_forward(LAYER, np.full((1, 2, 8), None)), "input u must hold real numbers"),
    "complex lambda_re": (lambda: KernelParams("exp", [1j], [0.0], [1.0], 0.0),
                          "lambda_re must hold real numbers"),
    "delta_log None": (lambda: KernelParams("exp", [0.0], [0.0], [1.0], None),
                       "delta_log must hold real numbers"),
    "delta_log of shape (2,)": (lambda: KernelParams("exp", [0.0], [0.0], [1.0], np.zeros(2)),
                                "delta_log must be a scalar or have shape (1,), got (2,)"),
    "delta_log of shape (1, 1)": (lambda: KernelParams("exp", [0.0], [0.0], [1.0], np.zeros((1, 1))),
                                  "delta_log must be a scalar or have shape (1,), got (1, 1)"),
    "uniform count -1": (lambda: SplitMix64(0).uniforms(-1), "count must be an integer >= 0, got -1"),
    "normal count 2.0": (lambda: SplitMix64(0).normals(2.0), "count must be an integer >= 0, got 2.0"),
    "normal count True": (lambda: SplitMix64(0).normals(True), "count must be an integer >= 0, got True"),
    # Refusals no other test reaches.
    "unknown mode": (lambda: ssm_outputs(LAYER, U, "bogus"), "unknown mode 'bogus'"),
    "unknown layer variant": (lambda: init_layer(2, 4, "bogus", 0), "unknown variant 'bogus'"),
    "unknown kernel variant": (lambda: KernelParams("bogus", [0.0], [0.0], [1.0], 0.0),
                               "unknown variant 'bogus'"),
    "unequal lengths": (lambda: KernelParams("exp", [0.0, 1.0], [0.0], [1.0], 0.0),
                        "lambda_re, lambda_im and w must have equal length"),
    "no modes": (lambda: KernelParams("exp", np.zeros(0), np.zeros(0), np.zeros(0), 0.0),
                 "state size must be >= 1"),
    "dense system with no modes": (lambda: general_ssm_kernel(GeneralSSM(np.zeros((0, 0)), [], []), 0.1, 4),
                                   "state size must be >= 1"),
    "kernels of no modes": (lambda: diagonal_kernels("exp", np.zeros(0), np.ones(1), np.zeros((1, 0)), 4),
                            "state size must be >= 1"),
    "scan of no modes": (lambda: chunked_scan("exp", np.zeros(0), np.ones(1), np.zeros((1, 0)),
                                              np.ones((1, 1, 4))),
                         "state size must be >= 1"),
    "kernel of another variant": (lambda: dss_exp_kernel(P_SOFTMAX, 4), "expected variant in ('exp',)"),
    "parameter file not an object": (lambda: params_from_json("[1]"), "parameter file is not a JSON object"),
    "empty softmax oracle input": (lambda: run_softmax_stable(P_SOFTMAX, []),
                                   "input u must be one-dimensional and nonempty"),
    "coordinate index past h": (lambda: init_layer(2, 3, "exp", 0).coordinate_kernel_params(5),
                                "h_idx must be below h = 2, got 5"),
    "coordinate index 1.0": (lambda: init_layer(2, 3, "exp", 0).coordinate_kernel_params(1.0),
                             "h_idx must be an integer >= 0, got 1.0"),
    "coordinate index True": (lambda: init_layer(2, 3, "exp", 0).coordinate_kernel_params(True),
                              "h_idx must be an integer >= 0, got True"),
    "coordinate index -1": (lambda: init_layer(2, 3, "exp", 0).coordinate_kernel_params(-1),
                            "h_idx must be an integer >= 0, got -1"),
    "oracle weights of another length": (
        lambda: run_exp(dataclasses.replace(P_EXP, w=np.array([1.0, 2.0])), np.ones(3)),
        "w must have shape (1, 1), got (2,)"),
    "layer on a one-coordinate path": (lambda: build_kernel(LAYER, 8),
                                       "h must be 1 on a one-coordinate path, got 2"),
    "pack vector of another length": (lambda: P_EXP.unpack(np.ones(4)),
                                      "vector must have shape (5,), got (4,)"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_arguments_are_refused_by_name(case):
    call, message = MALFORMED[case]
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()
