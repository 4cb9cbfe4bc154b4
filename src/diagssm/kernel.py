"""Closed-form convolution kernels of diagonal state spaces.

A discretized linear state space with state matrix A, input map B and
readout C has the length-L impulse response

    K_k = Re( C exp(A*k*delta) (exp(A*delta) - I) A^{-1} B ),   0 <= k < L.

When A is diagonal with entries lambda_i this collapses to a weighted sum
of sampled exponentials, so the kernel is computable in O(N*L) without any
matrix powers.  Three parameterizations are provided:

* ``exp``           -- weights w~ against (exp(lam*dt)-1)/lam * exp(lam*dt*k),
                       with lam forced into the left half plane;
* ``softmax``       -- weights w against a row-softmax of the position
                       matrix P_{i,k} = lam_i*k*dt, bounded for any lam;
* ``exp_no_scale``  -- the ``exp`` form with the (exp(lam*dt)-1)/lam scale
                       term omitted.

``general_ssm_kernel`` evaluates the dense formula directly (Taylor matrix
exponential plus Gaussian elimination) and serves as the independent
reference the closed forms are checked against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cnum import DEFAULT_EPS, reciprocal_eps

VARIANTS = ("exp", "softmax", "exp_no_scale")


@dataclass
class KernelParams:
    """Parameters of one diagonal-state kernel.

    ``w`` holds the exp-form weights w~ for the ``exp``/``exp_no_scale``
    variants and the softmax-form weights w for the ``softmax`` variant.
    The sample time is stored as its logarithm, so delta = exp(delta_log)
    is positive by construction.
    """

    variant: str
    lambda_re: np.ndarray
    lambda_im: np.ndarray
    w: np.ndarray
    delta_log: float

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        self.lambda_re = np.atleast_1d(np.asarray(self.lambda_re, dtype=float))
        self.lambda_im = np.atleast_1d(np.asarray(self.lambda_im, dtype=float))
        self.w = np.atleast_1d(np.asarray(self.w, dtype=np.complex128))
        self.delta_log = float(self.delta_log)
        if not (self.lambda_re.shape == self.lambda_im.shape == self.w.shape):
            raise ValueError("lambda_re, lambda_im and w must have equal length")
        if self.lambda_re.size < 1:
            raise ValueError("state size must be >= 1")
        for name in ("lambda_re", "lambda_im", "w", "delta_log"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")

    @property
    def n(self):
        return self.lambda_re.size

    @property
    def delta(self):
        return math.exp(self.delta_log)


@dataclass
class GeneralSSM:
    """Dense (A, B, C) triple for the reference kernel path only."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.complex128)
        self.b = np.asarray(self.b, dtype=np.complex128).reshape(-1)
        self.c = np.asarray(self.c, dtype=np.complex128).reshape(-1)
        n = self.a.shape[0]
        if self.a.ndim != 2 or self.a.shape != (n, n):
            raise ValueError("A must be square")
        if self.b.size != n or self.c.size != n:
            raise ValueError("B and C must match the state size")
        if n > 16:
            raise ValueError("reference path is restricted to N <= 16")


def _require_variant(params, *variants):
    if params.variant not in variants:
        raise ValueError(f"expected variant in {variants}, got {params.variant!r}")


def _check_length(l):
    if int(l) != l or l < 1:
        raise ValueError("kernel length must be a positive integer")
    return int(l)


def effective_lambda(params):
    """Diagonal entries actually used by the kernel.

    The ``exp`` family maps lambda_re through -exp(.) so the real parts are
    negative for any finite parameter; the ``softmax`` variant uses the
    stored real parts unchanged.
    """
    if params.variant == "softmax":
        return params.lambda_re + 1j * params.lambda_im
    return -np.exp(params.lambda_re) + 1j * params.lambda_im


def dss_exp_kernel(params, l):
    """Kernel K_k = Re( sum_i w~_i (e^{lam_i dt}-1)/lam_i e^{lam_i dt k} )."""
    _require_variant(params, "exp")
    l = _check_length(l)
    lam = effective_lambda(params)
    if np.any(lam == 0):
        raise ValueError("singular lambda")
    dt = params.delta
    scale = (np.exp(lam * dt) - 1.0) / lam
    pos = np.arange(l, dtype=float)
    decay = np.exp(np.outer(lam * dt, pos))
    return ((params.w * scale) @ decay).real


def dss_softmax_kernel(params, l, eps=DEFAULT_EPS):
    """Kernel K_k = Re( (w / lam) . row_softmax(P) ), P_{i,k} = lam_i*dt*k.

    Each row of P is passed through the eps-stabilized softmax: the entry
    with the largest real part is subtracted first (for row i that is
    lam_i*dt*(L-1) when Re(lam_i) > 0, else 0), so nothing is ever
    exponentiated with a positive real part and the output stays finite
    for any finite parameters.
    """
    _require_variant(params, "softmax")
    l = _check_length(l)
    lam = effective_lambda(params)
    if np.any(lam == 0):
        raise ValueError("singular lambda")
    dt_lam = lam * params.delta
    shift = dt_lam * ((lam.real > 0) * (l - 1))
    pos = np.arange(l, dtype=float)
    e = np.exp(dt_lam[:, None] * pos[None, :] - shift[:, None])
    srow = e * reciprocal_eps(e.sum(axis=1), eps)[:, None]
    return ((params.w / lam) @ srow).real


def dss_exp_noscale_kernel(params, l):
    """Kernel K_k = Re( sum_i w~_i e^{lam_i dt k} ), scale term omitted."""
    _require_variant(params, "exp_no_scale")
    l = _check_length(l)
    lam = effective_lambda(params)
    pos = np.arange(l, dtype=float)
    decay = np.exp(np.outer(lam * params.delta, pos))
    return (params.w @ decay).real


def build_kernel(params, l, eps=DEFAULT_EPS):
    """Dispatch to the variant's kernel construction."""
    if params.variant == "exp":
        return dss_exp_kernel(params, l)
    if params.variant == "softmax":
        return dss_softmax_kernel(params, l, eps)
    return dss_exp_noscale_kernel(params, l)


def _matexp_taylor(m, max_terms=200):
    """exp(m) by scaling-and-squaring around a plain Taylor series.

    The matrix is halved until its 1-norm is <= 0.5, the series is summed
    until the next term's 1-norm falls below 1e-18, and the result is
    squared back up.
    """
    m = np.asarray(m, dtype=np.complex128)
    dim = m.shape[0]
    norm1 = float(np.abs(m).sum(axis=0).max()) if dim else 0.0
    squarings = 0
    while norm1 > 0.5:
        norm1 /= 2.0
        squarings += 1
    scaled = m / (2.0 ** squarings)
    total = np.eye(dim, dtype=np.complex128)
    term = np.eye(dim, dtype=np.complex128)
    for k in range(1, max_terms + 1):
        term = term @ scaled / k
        total = total + term
        if np.abs(term).sum(axis=0).max() < 1e-18:
            break
    else:
        raise RuntimeError("matrix exponential series did not converge")
    for _ in range(squarings):
        total = total @ total
    return total


def _solve_gauss(a, b):
    """Solve a @ x = b by Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=np.complex128)
    x = np.array(b, dtype=np.complex128).reshape(-1)
    dim = a.shape[0]
    tiny = dim * np.finfo(float).eps * max(1.0, float(np.abs(a).max()))
    for col in range(dim):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if np.abs(a[piv, col]) <= tiny:
            raise ValueError("A not invertible")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            x[[col, piv]] = x[[piv, col]]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= factors[:, None] * a[col, col:]
        x[col + 1 :] -= factors * x[col]
    for col in range(dim - 1, -1, -1):
        x[col] = (x[col] - a[col, col + 1 :] @ x[col + 1 :]) / a[col, col]
    return x


def general_ssm_kernel(ssm, delta, l):
    """Reference kernel of a dense state space, via the definition.

    Discretizes with a zero-order hold (Abar = exp(A*delta),
    Bbar = (Abar - I) A^{-1} B) and reads the kernel off repeated
    matrix-vector products.  Deliberately shares no code with the
    closed-form diagonal paths.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    l = _check_length(l)
    abar = _matexp_taylor(ssm.a * delta)
    ainv_b = _solve_gauss(ssm.a, ssm.b)
    bbar = (abar - np.eye(ssm.a.shape[0])) @ ainv_b
    out = np.empty(l)
    v = bbar
    for k in range(l):
        out[k] = (ssm.c @ v).real
        v = abar @ v
    return out


def dense_to_diagonal_weights(cv, vinvb, lam, delta, l):
    """Weights making a diagonal system reproduce a dense system's kernel.

    Given the row C*V and column V^{-1}*B of a diagonalization
    A = V diag(lam) V^{-1}, returns

        w~_i = (C V)_i * (V^{-1} B)_i
        w_i  = w~_i * (exp(L*lam_i*delta) - 1)

    ``w~`` feeds the exp-form kernel, ``w`` the softmax form.  Errors out
    rather than overflowing when L*Re(lam_i)*delta is large positive, and
    rejects near-singular growth factors |exp(L*lam_i*delta) - 1| <= 1e-12.
    """
    cv = np.asarray(cv, dtype=np.complex128).reshape(-1)
    vinvb = np.asarray(vinvb, dtype=np.complex128).reshape(-1)
    lam = np.asarray(lam, dtype=np.complex128).reshape(-1)
    l = _check_length(l)
    w_tilde = cv * vinvb
    z = l * delta * lam
    if np.any(z.real > 700.0):
        raise OverflowError("weight overflow")
    grow = np.exp(z) - 1.0
    if np.any(np.abs(grow) <= 1e-12):
        raise ValueError("softmax weight undefined")
    return w_tilde, w_tilde * grow


def truncate_kernel(kernel, c):
    """Zero every kernel position at index >= c; length unchanged."""
    if int(c) != c or c < 1:
        raise ValueError("context size must be a positive integer")
    out = np.array(kernel, dtype=float)
    out[..., int(c):] = 0.0
    return out


@dataclass
class KernelGradients:
    """Partial derivatives of upstream . K for an exp-variant kernel."""

    d_lambda_re: np.ndarray
    d_lambda_im: np.ndarray
    d_w_re: np.ndarray
    d_w_im: np.ndarray
    d_delta_log: float


def kernel_grad_exp(params, l, upstream):
    """Analytic gradient of f = sum_k upstream_k * K_k, exp variant.

    Hand-differentiated through K_k = Re(sum_i w~_i g_ik) with
    g_ik = (e^{lam dt} - 1)/lam * e^{lam dt k}, then through the
    parameterizations lam = -e^{lambda_re} + i*lambda_im and
    dt = e^{delta_log}.
    """
    _require_variant(params, "exp")
    l = _check_length(l)
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != (l,):
        raise ValueError("upstream must be a real vector of the kernel length")
    lam = effective_lambda(params)
    dt = params.delta
    pos = np.arange(l, dtype=float)
    e_dt = np.exp(lam * dt)
    scale = (e_dt - 1.0) / lam
    decay = np.exp(np.outer(lam * dt, pos))

    # G_i = sum_k u_k g_ik and its derivatives w.r.t. lam_i and dt.
    g_u = decay @ upstream
    gk_u = (decay * pos[None, :]) @ upstream
    dscale = (dt * e_dt - scale) / lam
    dg_dlam = dscale * g_u + scale * dt * gk_u
    dg_ddt = e_dt * g_u + scale * lam * gk_u

    w = params.w
    sens = w * dg_dlam
    return KernelGradients(
        d_lambda_re=(sens * (-np.exp(params.lambda_re))).real,
        d_lambda_im=(sens * 1j).real,
        d_w_re=(scale * g_u).real,
        d_w_im=(1j * scale * g_u).real,
        d_delta_log=float((w * dg_ddt).sum().real * dt),
    )


def finite_diff_grad(f, theta, h=1e-6):
    """Central-difference gradient of a scalar function of a real vector."""
    if h <= 0:
        raise ValueError("step must be positive")
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(theta.size)
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = h
        grad[j] = (f(theta + step) - f(theta - step)) / (2.0 * h)
    return grad


def write_kernel_csv(path, kernels, header=False):
    """Write kernels as CSV, one kernel per row, full %.17g precision."""
    rows = np.atleast_2d(np.asarray(kernels, dtype=float))
    with open(path, "w") as fh:
        if header:
            fh.write(",".join(f"k{i}" for i in range(rows.shape[1])) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
