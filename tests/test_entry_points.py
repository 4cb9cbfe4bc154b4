"""Seeded property test: the public entry points on extreme inputs.

Every draw must give finite output or a ValueError, never NaN, inf or a
numpy RuntimeWarning (the suite turns those into errors), and the
convolution and recurrent views must refuse exactly the same draws, with
the same message.
"""

import math

import numpy as np
import pytest

from diagssm import (
    VARIANTS,
    build_kernel,
    chunked_scan,
    diagonal_kernels,
    effective_lambda,
    init_layer,
    layer_forward,
    ssm_outputs,
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


@pytest.mark.parametrize("variant", VARIANTS)
def test_entry_points_give_finite_output_or_value_error(variant):
    rng = np.random.default_rng(VARIANTS.index(variant))
    refused = finite = 0
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
        assert outcome(lambda: chunked_scan(variant, lam, delta, params.w, u)) == conv
        if np.isfinite(u).all():
            assert kernels == conv
        # The layer's kernels build exactly when every coordinate's does.
        rows = [outcome(lambda: build_kernel(params.coordinate_kernel_params(h_idx), l))
                for h_idx in range(H)]
        assert (kernels is None) == all(row is None for row in rows)
        refused += conv is not None
        finite += conv is None
    # Both outcomes occur, so neither half of the property holds vacuously.
    assert refused > 30 and finite > 30


@pytest.mark.parametrize("mode", ["conv", "recurrent"])
def test_softmax_layer_refuses_nan_eps(mode):
    params = init_layer(2, 4, "softmax", 0)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        layer_forward(params, np.ones((1, 2, 8)), mode, eps=math.nan)
