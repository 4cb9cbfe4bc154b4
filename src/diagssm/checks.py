"""Cross-oracle verification suites, shared by ``diagssm check`` and the
acceptance gate.

Each suite draws its instances from ``numpy.random.RandomState(seed)`` and
returns one :class:`Trial` per instance, so a suite run with the gate's
seed and trial count checks exactly the gate's instances.  The suites
report errors; the tolerances they are held to live with the caller
(``TOLERANCES`` for the CLI, the gate's own asserts for the tests).
"""

import math
from dataclasses import dataclass

import numpy as np

from .cnum import softmax_eps
from .fftconv import causal_conv_fft, softmax_via_fft
from .kernel import (
    GeneralSSM,
    KernelParams,
    build_kernel,
    dense_to_diagonal_weights,
    dss_exp_kernel,
    dss_softmax_kernel,
    finite_diff_grad,
    general_ssm_kernel,
    kernel_grad_exp,
)
from .recurrence import run_exp, run_softmax_stable

# Identity checks compare eps-regularized paths against exact references,
# so they run the regularized side at a negligible eps.
CHECK_EPS = 1e-12


@dataclass
class Trial:
    """One checked instance.

    ``errors`` maps each compared path to its largest error on the
    instance (NaN or inf if either side was not finite); ``detail``
    describes the instance for failure reports.
    """

    errors: dict
    detail: str
    unstable: bool = False   # the instance has a mode with Re(lambda) > 0


# ---------------------------------------------------------------------------
# instance samplers

def sample_dense_instance(rng, n_max=8, l_max=64, cond_limit=100.0):
    """A diagonalizable dense system with a stable, well-separated spectrum.

    Eigenvalue real parts lie in [-2, -0.05], delta in [0.01, 0.5], and the
    eigenvector basis is redrawn until its condition number is below
    ``cond_limit``.
    """
    n = int(rng.randint(1, n_max + 1))
    l = int(rng.randint(2, l_max + 1))
    lam = rng.uniform(-2.0, -0.05, n) + 1j * rng.uniform(-3.0, 3.0, n)
    delta = float(rng.uniform(0.01, 0.5))
    while True:
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(v) <= cond_limit:
            break
    a = v @ np.diag(lam) @ np.linalg.inv(v)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return {"a": a, "v": v, "lam": lam, "b": b, "c": c, "delta": delta, "l": l, "n": n}


def sample_exp_params(rng, n_max=8):
    n = int(rng.randint(1, n_max + 1))
    return KernelParams(
        variant="exp",
        lambda_re=rng.uniform(-2.0, 0.5, n),
        lambda_im=rng.uniform(-5.0, 5.0, n),
        w=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        delta_log=float(rng.uniform(math.log(1e-3), math.log(0.1))),
    )


def sample_softmax_params(rng, n_max=8, l=4096, force_positive=False):
    """Softmax-variant parameters whose growth guard is comfortably away
    from singular (|exp(L*lam*delta)| bounded away from 1)."""
    n = int(rng.randint(1, n_max + 1))
    delta_log = float(rng.uniform(math.log(1e-3), math.log(0.1)))
    delta = math.exp(delta_log)
    while True:
        if force_positive:
            lambda_re = rng.uniform(0.05, 1.0, n)
        else:
            lambda_re = rng.uniform(-1.0, 1.0, n)
        if np.all(np.abs(lambda_re) * delta * l > 1e-6):
            break
    return KernelParams(
        variant="softmax",
        lambda_re=lambda_re,
        lambda_im=rng.uniform(-5.0, 5.0, n),
        w=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        delta_log=delta_log,
    )


def sample_fftsoftmax_points(rng, count):
    """Scalars c covering both signs of Re(c), |Im| <= 4*pi, with the real
    part bounded away from the singular (imaginary) axis."""
    sign = np.where(rng.uniform(size=count) < 0.5, -1.0, 1.0)
    re = sign * rng.uniform(0.05, 2.0, count)
    im = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, count)
    return re + 1j * im


# ---------------------------------------------------------------------------
# check suites

def check_prop1(trials, seed):
    """Dense (A, B, C) kernels against the exp- and softmax-form diagonal
    kernels; errors ``exp`` and ``softmax`` are absolute."""
    rng = np.random.RandomState(seed)
    results = []
    for _ in range(trials):
        inst = sample_dense_instance(rng)
        reference = general_ssm_kernel(
            GeneralSSM(inst["a"], inst["b"], inst["c"]), inst["delta"], inst["l"])
        cv = inst["c"] @ inst["v"]
        vinvb = np.linalg.solve(inst["v"], inst["b"])
        w_tilde, w = dense_to_diagonal_weights(
            cv, vinvb, inst["lam"], inst["delta"], inst["l"])
        k_exp = dss_exp_kernel(
            KernelParams("exp", np.log(-inst["lam"].real), inst["lam"].imag,
                         w_tilde, math.log(inst["delta"])),
            inst["l"])
        k_soft = dss_softmax_kernel(
            KernelParams("softmax", inst["lam"].real, inst["lam"].imag,
                         w, math.log(inst["delta"])),
            inst["l"], eps=CHECK_EPS)
        detail = "n=%d l=%d delta=%.6g lam=%s" % (
            inst["n"], inst["l"], inst["delta"], np.array2string(inst["lam"], precision=4))
        results.append(Trial({"exp": float(np.abs(reference - k_exp).max()),
                              "softmax": float(np.abs(reference - k_soft).max())},
                             detail))
    return results


def check_recurrence(trials, seed, l=4096):
    """Sequential recurrences against FFT convolution with the kernel, one
    exp and one softmax instance per trial; odd trials force every softmax
    mode to Re(lambda) > 0."""
    rng = np.random.RandomState(seed)
    results = []
    for trial in range(trials):
        u = rng.standard_normal(l)
        exp_params = sample_exp_params(rng)
        y_seq, _ = run_exp(exp_params, u)
        y_conv = causal_conv_fft(build_kernel(exp_params, l), u)
        err_exp = float(np.abs(y_seq - y_conv).max())

        force_positive = trial % 2 == 1
        soft_params = sample_softmax_params(rng, l=l, force_positive=force_positive)
        y_seq, _ = run_softmax_stable(soft_params, u)
        y_conv = causal_conv_fft(build_kernel(soft_params, l), u)
        detail = "exp n=%d delta_log=%.4f | softmax n=%d re_sign=%s" % (
            exp_params.n, exp_params.delta_log[0], soft_params.n,
            "+" if force_positive else "mixed")
        results.append(Trial(
            {"exp": err_exp, "softmax": float(np.abs(y_seq - y_conv).max())},
            detail, unstable=bool(np.any(soft_params.lambda_re > 0))))
    return results


def check_fftsoftmax(trials, seed, lengths=(8, 64, 1024)):
    """Transform-domain softmax of c*k against the direct eps-softmax, at
    ``trials`` points drawn in one call, each at every length."""
    rng = np.random.RandomState(seed)
    results = []
    for c in sample_fftsoftmax_points(rng, trials):
        err = np.max([np.abs(softmax_via_fft(complex(c), l)
                             - softmax_eps(c * np.arange(l), eps=CHECK_EPS)).max()
                      for l in lengths])
        results.append(Trial({"softmax": float(err)}, "c=%.6g%+.6gj" % (c.real, c.imag)))
    return results


def check_grad(trials, seed):
    """Analytic exp-kernel gradients against central finite differences
    over the parameters' :meth:`~diagssm.kernel.DiagonalParams.pack`
    vector; error ``grad`` is relative (floored at 1e-8 in the
    denominator)."""
    rng = np.random.RandomState(seed)
    results = []
    for _ in range(trials):
        params = sample_exp_params(rng, n_max=4)
        l = int(rng.randint(2, 33))
        upstream = rng.standard_normal(l)
        g = kernel_grad_exp(params, l, upstream)
        analytic = np.r_[g.d_lambda_re, g.d_lambda_im, g.d_delta_log, g.d_w_re, g.d_w_im]
        numeric = finite_diff_grad(lambda t: float(dss_exp_kernel(params.unpack(t), l) @ upstream),
                                   params.pack(), h=1e-6)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        results.append(Trial({"grad": float(rel.max())}, "n=%d l=%d" % (params.n, l)))
    return results


SUITES = {
    "prop1": check_prop1,
    "recurrence": check_recurrence,
    "fftsoftmax": check_fftsoftmax,
    "grad": check_grad,
}

TOLERANCES = {"prop1": 1e-8, "recurrence": 1e-8, "fftsoftmax": 1e-8, "grad": 1e-4}
