"""Diagonal state space sequence kernels.

Closed-form convolution kernels of linear systems with diagonal state
matrices, together with everything needed to use and verify them: an
eps-stabilized softmax over complex vectors, causal convolution by numpy's
FFT, zero-order-hold recurrences (a chunked scan over a whole layer for
every variant, and per-step oracles, the softmax one in a stabilized form
that never exponentiates a positive real part), a spectral
initialization with long-range memory, a single sequence-mixing layer with
a toy trainer, and an independent dense-matrix reference path for
cross-checking every identity.
"""

from .cnum import DEFAULT_EPS, reciprocal_eps, softmax_eps
from .fftconv import causal_conv_fft, causal_conv_naive, fft, softmax_via_fft
from .hippo import DiagSpectrum, skew_hippo_lambda, skew_hippo_matrix, symmetric_eigenvalues
from .kernel import (
    DiagonalParams,
    GeneralSSM,
    KernelParams,
    VARIANTS,
    build_kernel,
    dense_to_diagonal_weights,
    diagonal_kernels,
    dss_exp_kernel,
    dss_exp_noscale_kernel,
    dss_softmax_kernel,
    effective_lambda,
    finite_diff_grad,
    general_ssm_kernel,
    kernel_grad_exp,
    write_kernel_csv,
)
from .layer import (
    KernelStats,
    LayerParams,
    SplitMix64,
    gelu,
    init_layer,
    kernel_stats,
    layer_forward,
    layer_kernels,
    load_layer_params,
    params_from_json,
    params_to_json,
    save_layer_params,
    ssm_outputs,
    train_toy_delay,
    write_report_json,
)
from .recurrence import chunked_scan, run_exp, run_softmax_stable

__version__ = "0.1.0"
