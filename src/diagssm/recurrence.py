"""Sequential (state-stepping) views of the diagonal kernels.

A diagonal state space steps each coordinate independently:

    x_{i,k} = exp(lam_i*dt) * x_{i,k-1} + bbar_i * u_k ,   y_k = Re(c_i . x_k).

For the exp variant bbar_i = (exp(lam_i*dt)-1)/lam_i and Re(lam_i) < 0, so
the step factors have magnitude below one and the recurrence is run as
written; ``exp_no_scale`` is the same with bbar_i = 1.  The softmax
variant's input map divides by its row sum and, with Re(lam) > 0, the
plain recurrence would exponentiate a positive real part; those modes are
instead accumulated as sum_j exp(-lam*dt*j) u_j and scaled at read-out by
exp(lam*dt*(k-(L-1))), so every exponentiated scalar has non-positive real
part.

:func:`chunked_scan` is the production view: one call runs a whole layer,
H coordinates over a batch, with a (B,H,N) state.  It cuts the sequence
into chunks of T = 32 steps.  Inside a chunk the output is a T x T
Toeplitz product with the first T kernel values; the state enters through
a (N x T) read-out and leaves through a (T x N) injection, each one
matrix product per chunk, so the Python loop runs ceil(L/T) times.  Every
factor is e^{rho t} with Re(rho) <= 0 and 0 <= t, where rho is lam*dt, or
-lam*dt for the softmax modes with Re(lam) > 0; for those modes the
chunk's offset from the start (injection) and from the horizon (read-out)
are applied to the carried state as two more such factors.  The softmax
row sums are formed from the same factors as sums of e^{rho k}, never as
(e^{rho L}-1)/(e^{rho}-1), so a spectrum with e^{rho L} = 1 gives the
eps-regularized output of the convolution view instead of an error.

:func:`run_exp` and :func:`run_softmax_stable` step one coordinate's
recurrence position by position.  They are the reference oracles the
scan and the convolution view are checked against.

With zero initial state every recurrence reproduces the convolution of the
input with the corresponding kernel.
"""

from dataclasses import dataclass

import numpy as np

from .cnum import DEFAULT_EPS, reciprocal_eps
from .kernel import _diagonal_rates, _require_variant, effective_lambda


@dataclass
class DiagDiscretization:
    """Zero-order-hold step factors of a diagonal system."""

    a_bar: np.ndarray
    b_bar: np.ndarray


def zoh_discretize_diag(lam, b, delta):
    """a_bar_i = exp(lam_i*delta), b_bar_i = (a_bar_i - 1)/lam_i * b_i."""
    lam = np.asarray(lam, dtype=np.complex128).reshape(-1)
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if np.any(lam == 0):
        raise ValueError("singular lambda")
    a_bar = np.exp(lam * delta)
    return DiagDiscretization(a_bar=a_bar, b_bar=(a_bar - 1.0) / lam * b)


def run_exp(params, u, x_init=None):
    """Step the exp-variant recurrence over u; returns (y, final_state).

    ``x_init`` defaults to zero, in which case y equals the causal
    convolution of u with the exp-variant kernel.  Passing the returned
    state back in continues a split sequence exactly.  This is the
    per-step reference oracle for one coordinate; layers run
    :func:`chunked_scan`.
    """
    _require_variant(params, "exp")
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("input must be one-dimensional")
    lam = effective_lambda(params)
    d = zoh_discretize_diag(lam, np.ones(params.n), params.delta)
    if x_init is None:
        x = np.zeros(params.n, dtype=np.complex128)
    else:
        x = np.asarray(x_init, dtype=np.complex128).reshape(-1).copy()
        if x.size != params.n:
            raise ValueError("x_init must match the state size")
    y = np.empty(u.size)
    for k, uk in enumerate(u):
        x = d.a_bar * x + d.b_bar * uk
        y[k] = (params.w @ x).real
    return y, x


def run_softmax_stable(params, u, eps=DEFAULT_EPS):
    """Step the softmax-variant recurrence over u; returns (y, final_state).

    Two cases per coordinate, selected by p = [Re(lam) > 0]:

        x~_k = exp(lam*dt*(1-p)) * x~_{k-1} + exp(-k*lam*dt*p) * u_k
        x_k  = x~_k * exp(lam*dt*p*(k-(L-1))) / (lam * s)

    where s = (exp(z*L)-1)/(exp(z)-1) with z = lam*dt*(1-2p) is the
    softmax row sum after the same max-real-part shift the kernel path
    applies.  The division by s goes through the eps-regularized
    reciprocal so this view matches the kernel-convolution view for any
    eps, not just in exact arithmetic.  The horizon L is the input length;
    it enters the input map, so the recurrence cannot be resumed or
    extended past it.  This is the per-step reference oracle for one
    coordinate; layers run :func:`chunked_scan`.  Unlike the scan it
    refuses a spectrum with |exp(z*L) - 1| <= 1e-12, where its quotient
    form of the row sum is undefined.
    """
    _require_variant(params, "softmax")
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("input must be one-dimensional")
    l = u.size
    if l < 1:
        raise ValueError("input must be nonempty")
    lam = effective_lambda(params)
    if np.any(lam == 0):
        raise ValueError("singular lambda")
    dt = params.delta
    p = (lam.real > 0).astype(float)
    z = lam * dt * (1.0 - 2.0 * p)
    den = np.exp(z * l) - 1.0
    if np.any(np.abs(den) <= 1e-12):
        raise ValueError("softmax weight undefined")
    row_sum = den / (np.exp(z) - 1.0)
    recip = reciprocal_eps(row_sum, eps) / lam

    step = np.exp(lam * dt * (1.0 - p))
    assert np.all((lam * dt * (1.0 - p)).real <= 0.0)
    assert np.all((z * l).real <= 0.0)

    xt = np.zeros(params.n, dtype=np.complex128)
    x = xt
    y = np.empty(l)
    inj_rate = -lam * dt * p      # exp(inj_rate * k) has |.| <= 1 for k >= 0
    out_rate = lam * dt * p       # exp(out_rate * (k - (L-1))) has |.| <= 1 for k < L
    assert np.all(inj_rate.real <= 0.0) and np.all(out_rate.real >= 0.0)
    for k, uk in enumerate(u):
        xt = step * xt + np.exp(inj_rate * k) * uk
        x = xt * np.exp(out_rate * (k - (l - 1))) * recip
        y[k] = (params.w @ x).real
    return y, x


_CHUNK = 32


def chunked_scan(variant, lam, delta, w, u, eps=DEFAULT_EPS):
    """Every coordinate's recurrence over a (B, H, L) input, in chunks.

    ``lam`` (N,) is the effective spectrum the H coordinates share,
    ``delta`` (H,) their sample times and ``w`` (H, N) their weights, in
    the form the variant's kernel takes them.  Returns y of u's shape:
    y[b, h] is what :func:`run_exp` (``exp``) or :func:`run_softmax_stable`
    (``softmax``, horizon L) gives for coordinate h on u[b, h], and for
    ``exp_no_scale`` the recurrence with input map 1, whose impulse
    response is that variant's kernel.  The (B, H, N) state is held as
    (H, B, N), so each product batches over H, and the loop runs once per
    chunk of 32 steps; see the module docstring.  NaN or inf in u is refused.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 3 or u.shape[2] < 1:
        raise ValueError("input must have shape (batch, coordinates, length >= 1)")
    if not np.isfinite(u).all():
        raise ValueError("input u must be finite (no NaN or inf)")
    b, h, l = u.shape
    # Re(rate) <= 0: the far modes accumulate, then are scaled at read-out.
    lam, w, rate, far = _diagonal_rates(variant, lam, delta, w, h, l)
    n = lam.size
    block = min(l, _CHUNK)
    powers = np.exp(rate[..., None] * np.arange(block + 1))    # e^{rate t}, t <= T
    fwd = powers[..., :block]
    gain, coef = np.ones_like(rate), w       # input map and read-out weights
    if variant == "exp":
        gain = (powers[..., 1] - 1.0) / lam
    elif variant == "softmax":
        # Row sums sum_{k<L} e^{rate k}: chunk starts times in-chunk sums.
        starts = np.arange(0, l, block)
        in_chunk = np.cumsum(fwd, axis=-1)[..., np.minimum(block, l - starts) - 1]
        row_sum = (np.exp(rate[..., None] * starts) * in_chunk).sum(axis=-1)
        coef = w / lam * reciprocal_eps(row_sum, eps)

    # The first T kernel values as a Toeplitz block: e^{rate m} for the
    # near modes, e^{rate (L-1-m)} = e^{rate (L-T)} e^{rate (T-1-m)} for the far.
    impulse = np.where(far[:, None], np.exp(rate * (l - block))[..., None] * fwd[..., ::-1],
                       gain[..., None] * fwd)
    head = np.einsum("hn,hnm->hm", coef, impulse).real
    lag = np.arange(block)[None, :] - np.arange(block)[:, None]
    toeplitz = np.where(lag >= 0, head[:, np.maximum(lag, 0)], 0.0)    # (H, s, t)

    def read_map(tc):
        # Re(state . R) for the chunk's tc outputs, as a real (H, 2N, tc)
        # matrix against the state's interleaved (re, im) view.
        r = coef[..., None] * np.where(far[:, None], powers[..., tc - 1::-1],
                                       powers[..., 1:tc + 1])
        return np.stack([r.real, -r.imag], axis=2).reshape(h, 2 * n, tc)

    read = read_map(block)
    inject = np.where(far[:, None], fwd, gain[..., None] * fwd[..., ::-1])
    inject = np.ascontiguousarray(inject.transpose(0, 2, 1)).view(np.float64)  # (H, T, 2N)
    decay = np.where(far, 1.0, powers[..., block])[:, None, :]
    # Chunk offsets of the far modes, folded into the state: e^{rate c0}
    # on what a chunk injects, e^{rate (L - c0 - tc)} on what it reads.
    shift = np.where(far, rate, 0.0)[:, None, :] if far.any() else None

    y = np.empty_like(u)
    state = np.zeros((h, b, n), dtype=np.complex128)
    for c0 in range(0, l, block):
        tc = min(block, l - c0)
        uc = u[:, :, c0:c0 + tc].transpose(1, 0, 2)
        yc = uc @ toeplitz[:, :tc, :tc]
        if c0:
            carried = state if shift is None else state * np.exp(shift * (l - c0 - tc))
            yc += carried.view(np.float64) @ (read if tc == block else read_map(tc))
        y[:, :, c0:c0 + tc] = yc.transpose(1, 0, 2)
        if c0 + tc < l:
            fresh = (uc @ inject).view(np.complex128)
            if shift is not None:
                fresh *= np.exp(shift * c0)
            state = decay * state + fresh
    return y
