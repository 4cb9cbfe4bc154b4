"""Closed-form convolution kernels of diagonal state spaces.

A discretized linear state space with state matrix A, input map B and
readout C has the length-L impulse response

    K_k = Re( C exp(A*k*delta) (exp(A*delta) - I) A^{-1} B ),   0 <= k < L.

When A is diagonal with entries lambda_i this collapses to a weighted sum
of sampled exponentials, a Vandermonde product, so the kernel is
computable in O(N*L) without any matrix powers.  :func:`diagonal_kernels`
builds the kernels of a layer's H coordinates, which share the spectrum;
the one-coordinate functions are its H = 1 case.  Exponentials are built
in blocks of 64 positions, e^{z k} = e^{64 z j} * e^{z r} for k = 64 j + r,
then each kernel is one ceil(L/64) x N by N x 64 matrix product (two for
softmax modes on both sides of the imaginary axis): about N*(L/64 + 64)
exponentials per kernel, no N x L array.  Three parameterizations:

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


def _diagonal_form(params):
    """(lam, delta (H,), w (H, N)) of a KernelParams or LayerParams; exp overflow gives inf."""
    with np.errstate(over="ignore"):
        lam, delta = effective_lambda(params), np.exp(np.atleast_1d(params.delta_log))
    return lam, delta, np.atleast_2d(params.w)


def _diagonal_rates(variant, lam, delta, w, h, l):
    """Both layer views' parameter check: lam (N,), w (H, N), rates, far modes.

    Rates delta_h*lam_i, negated for far modes (softmax, Re(lam) > 0), must
    not overflow times L.  Each ValueError names the field.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    lam = np.asarray(lam, dtype=np.complex128).reshape(-1)
    delta = np.asarray(delta, dtype=float).reshape(-1)
    w = np.asarray(w, dtype=np.complex128)
    if delta.shape != (h,) or w.shape != (h, lam.size):
        raise ValueError("delta must have shape (H,) and w (H, N) for H coordinates, N modes")
    with np.errstate(over="ignore", invalid="ignore"):
        z = delta[:, None] * lam
        for name, value in (("lam", lam), ("delta", delta), ("w", w), ("lam*delta*L", z * l)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
    if np.any(delta <= 0):
        raise ValueError("delta must be positive")
    if variant != "exp_no_scale" and np.any(lam == 0):
        raise ValueError("singular lambda")
    far = (lam.real > 0) & (variant == "softmax")
    return lam, w, np.where(far, -z, z), far


_BLOCK = 64


def _exp_blocks(z, l):
    """Blocked factors of e^{z_i k}, 0 <= k < L, for a vector of rates z.

    With B = min(L, 64) and k = B*j + r, returns (outer, inner) where
    outer[i, j] = e^{z_i B j} for the ceil(L/B) block starts and
    inner[i, r] = e^{z_i r} for the B offsets inside a block, so
    e^{z_i k} = outer[i, k // B] * inner[i, k % B].  Positions past L-1 in
    the last block are padding.  When Re(z) <= 0 no factor exceeds one in
    magnitude.
    """
    block = min(l, _BLOCK)
    starts = block * np.arange(-(-l // block), dtype=float)
    return np.exp(np.outer(z, starts)), np.exp(np.outer(z, np.arange(block, dtype=float)))


def _blocked_row_sums(outer, inner, l):
    """sum_{k<L} e^{z_i k} per row: full blocks, then the partial last one."""
    tail = l - inner.shape[1] * (outer.shape[1] - 1)
    return (outer[:, :-1].sum(axis=1) * inner.sum(axis=1)
            + outer[:, -1] * inner[:, :tail].sum(axis=1))


def diagonal_kernels(variant, lam, delta, w, l, eps=DEFAULT_EPS):
    """The (H, L) kernels of H coordinates sharing one diagonal spectrum.

    ``lam`` (N,) is the effective spectrum, ``delta`` (H,) the sample times
    and ``w`` (H, N) the weights in the variant's form; row h is the
    ``dss_*`` kernel of (lam, delta_h, w_h).  Softmax rows are taken
    relative to their largest entry, e^{lam_i dt k} if Re(lam_i) <= 0 and
    e^{-lam_i dt (L-1-k)} from the far end if not: no exponent is positive.
    """
    l = _check_length(l)
    lam, w, rate, far = _diagonal_rates(variant, lam, delta, w, np.size(delta), l)
    if variant == "exp":
        w = w * ((np.exp(rate) - 1.0) / lam)
    out = np.zeros((len(w), l))
    for flip in np.unique(far):             # near modes, then far ones, where present
        sel = far == flip
        # One row's exponentials at a time: an (H, N, L/64) block leaves the cache.
        for row, dst in enumerate(out):
            outer, inner = _exp_blocks(rate[row, sel], l)
            coef = w[row, sel]
            if variant == "softmax":
                coef = coef / lam[sel] * reciprocal_eps(_blocked_row_sums(outer, inner, l), eps)
            kernel = ((coef[:, None] * outer).T @ inner).reshape(-1)[:l].real
            dst += kernel[::-1] if flip else kernel
    return out


def dss_exp_kernel(params, l):
    """Kernel K_k = Re( sum_i w~_i (e^{lam_i dt}-1)/lam_i e^{lam_i dt k} )."""
    _require_variant(params, "exp")
    return build_kernel(params, l)


def exp_basis(params, l):
    """The N x L complex basis g_ik = (e^{lam_i dt}-1)/lam_i e^{lam_i dt k}.

    It is the exp kernel's linear map from its weights: the kernel is
    Re(w~ @ basis), which :func:`dss_exp_kernel` builds without the basis,
    and the gradient of sum_k u_k K_k is basis @ u with respect to Re(w~)
    and -(basis @ u).imag with respect to Im(w~), the ``d_w_re`` and
    ``d_w_im`` of :func:`kernel_grad_exp`.  For callers that hold lambda
    and delta fixed while the weights change.
    """
    _require_variant(params, "exp")
    l = _check_length(l)
    lam, _, z, _ = _diagonal_rates("exp", *_diagonal_form(params), 1, l)
    outer, inner = _exp_blocks(z[0], l)
    scale = (np.exp(z[0]) - 1.0) / lam
    full = (scale[:, None, None] * outer[:, :, None] * inner[:, None, :]).reshape(params.n, -1)
    return np.ascontiguousarray(full[:, :l])


def dss_softmax_kernel(params, l, eps=DEFAULT_EPS):
    """Kernel K_k = Re( (w / lam) . row_softmax_eps(P) ), P_{i,k} = lam_i*dt*k."""
    _require_variant(params, "softmax")
    return build_kernel(params, l, eps)


def dss_exp_noscale_kernel(params, l):
    """Kernel K_k = Re( sum_i w~_i e^{lam_i dt k} ), scale term omitted."""
    _require_variant(params, "exp_no_scale")
    return build_kernel(params, l)


def build_kernel(params, l, eps=DEFAULT_EPS):
    """One coordinate's kernel: the H = 1 case of :func:`diagonal_kernels`."""
    return diagonal_kernels(params.variant, *_diagonal_form(params), l, eps)[0]


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


def _blocked_project(outer, inner, seqs):
    """sum_{k<L} e^{z_i k} seqs[m, k] for each row m of an M x L array.

    Returns M rows of length N: the transpose of a blocked kernel product,
    with the sequences zero-padded to whole blocks.
    """
    n, nblocks = outer.shape
    block = inner.shape[1]
    m, l = seqs.shape
    padded = np.zeros((m, nblocks * block))
    padded[:, :l] = seqs
    per_block = inner @ padded.reshape(m * nblocks, block).T
    return (per_block.reshape(n, m, nblocks) * outer[:, None, :]).sum(axis=2).T


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
    outer, inner = _exp_blocks(lam * dt, l)

    # G_i = sum_k u_k g_ik and its derivatives w.r.t. lam_i and dt.
    g_u, gk_u = _blocked_project(outer, inner, np.stack([upstream, pos * upstream]))
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
