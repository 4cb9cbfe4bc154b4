"""Sequential (state-stepping) views of the diagonal kernels.

A diagonal state space steps each coordinate independently:

    x_{i,k} = exp(lam_i*dt) * x_{i,k-1} + bbar_i * u_k ,   y_k = Re(c_i . x_k).

For the exp variant bbar_i = expm1(lam_i*dt)/lam_i and Re(lam_i) < 0, so
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
are applied to the carried state as two more such factors.  All of them
come from tables built before the loop: the in-chunk powers e^{rho t},
t <= T, from ``kernel._exp_range``, and, for softmax, the chunk starts
e^{rho T j} as ``kernel._exp_factors``' two tables of about sqrt(L/T)
rows, whose product the loop takes one row pair at a time: about 12
exponentials per mode and coordinate, plus 2*sqrt(L/T) for softmax, none
inside the loop, and no table of L/T rows.  The softmax row sums
are formed from the same tables as sums of e^{rho k}, never as
(e^{rho L}-1)/(e^{rho}-1), so a spectrum with e^{rho L} = 1 gives the
eps-regularized output of the convolution view instead of an error.

:func:`run_exp` and :func:`run_softmax_stable` step one coordinate's
recurrence position by position.  They are the reference oracles the
scan and the convolution view are checked against.  Every view here
discretizes, and checks its parameters, in ``kernel._diagonal_rates``.

With zero initial state every recurrence reproduces the convolution of the
input with the corresponding kernel.
"""

import numpy as np

from .cnum import DEFAULT_EPS, reciprocal_eps
from .kernel import _diagonal_form, _diagonal_rates, _exp_factors, _exp_range, _factor_sum, _require_variant


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
    if u.ndim != 1 or not np.isfinite(u).all():
        raise ValueError("input must be one-dimensional and finite (no NaN or inf)")
    lam, delta, _ = _diagonal_form(params)
    _, b_bar, z, _ = _diagonal_rates("exp", lam, delta, np.ones((1, params.n)), 1, 1)
    a_bar, b_bar = np.exp(z[0]), b_bar[0]
    if x_init is None:
        x = np.zeros(params.n, dtype=np.complex128)
    else:
        x = np.asarray(x_init, dtype=np.complex128).reshape(-1).copy()
        if x.size != params.n or not np.isfinite(x).all():
            raise ValueError("x_init must be a finite state of the state size")
    y = np.empty(u.size)
    for k, uk in enumerate(u):
        x = a_bar * x + b_bar * uk
        y[k] = (params.w @ x).real
    return y, x


def run_softmax_stable(params, u, eps=DEFAULT_EPS):
    """Step the softmax-variant recurrence over u; returns (y, final_state).

    Two cases per coordinate, selected by p = [Re(lam) > 0]:

        x~_k = exp(lam*dt*(1-p)) * x~_{k-1} + exp(-k*lam*dt*p) * u_k
        x_k  = x~_k * exp(lam*dt*p*(k-(L-1))) / (lam * s)

    where s = expm1(z*L)/expm1(z) with z = lam*dt*(1-2p) is the softmax
    row sum after the same max-real-part shift the kernel path applies.
    The division by s goes through the eps-regularized reciprocal so this
    view matches the kernel-convolution view for any eps, not just in
    exact arithmetic.  The horizon L is the input length; it enters the
    input map, so the recurrence cannot be resumed or extended past it.
    This is the per-step reference oracle for one coordinate; layers run
    :func:`chunked_scan`.  It takes its parameter check and its input map
    1/lam from ``kernel._diagonal_rates``; unlike the scan it also refuses
    a spectrum with |expm1(z*L)| <= 1e-12, where its quotient form of the
    row sum is undefined.
    """
    _require_variant(params, "softmax")
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or not np.isfinite(u).all():
        raise ValueError("input must be one-dimensional and finite (no NaN or inf)")
    l = u.size
    if l < 1:
        raise ValueError("input must be nonempty")
    lam, delta, _ = _diagonal_form(params)
    _, inv_lam, z, far = _diagonal_rates("softmax", lam, delta, np.ones((1, params.n)), 1, l)
    z = z[0]                            # lam*dt, negated where Re(lam) > 0: Re(z) <= 0
    den = np.expm1(z * l)
    if np.any(np.abs(den) <= 1e-12):
        raise ValueError("softmax weight undefined")
    recip = reciprocal_eps(den / np.expm1(z), eps) * inv_lam[0]

    xt = np.zeros(params.n, dtype=np.complex128)
    x = xt
    y = np.empty(l)
    step = np.exp(np.where(far, 0.0, z))
    inj_rate = np.where(far, z, 0.0)    # exp(inj_rate * k) has |.| <= 1 for k >= 0
    out_rate = -inj_rate                # exp(out_rate * (k - (L-1))) has |.| <= 1 for k < L
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
    b, h, l = u.shape
    # Re(rate) <= 0: the far modes accumulate, then are scaled at read-out.
    # coef holds the input map, so every mode's state is fed u unscaled.
    lam, coef, rate, far = _diagonal_rates(variant, lam, delta, w, h, l)
    n = lam.size
    block = min(l, _CHUNK)
    chunks = -(-l // block)
    powers = _exp_range(rate, block + 1)           # e^{rate t}, t <= T
    fwd = powers[..., :block]
    tail = l - block * (chunks - 1)                 # the last chunk's length
    if variant == "softmax":
        # Chunk starts e^{rate T j} = hi[j // m] lo[j % m], j < chunks.
        hi, lo = _exp_factors(rate, chunks, block)
        m = lo.shape[-1]
        last = hi[..., (chunks - 1) // m] * lo[..., (chunks - 1) % m]
        row_sum = (_factor_sum(hi, lo, chunks - 1) * fwd.sum(axis=-1)
                   + last * fwd[..., :tail].sum(axis=-1))
        coef = coef * reciprocal_eps(row_sum, eps)
    # After the parameter checks, so both layer views name the same fault first.
    if not np.isfinite(u).all():
        raise ValueError("input u must be finite (no NaN or inf)")

    # The far modes' chunk offsets come from (., H, 1, N) factor tables, 1 on
    # near modes: ahead(j) = e^{rate c0} on what chunk j injects, behind(j) =
    # e^{rate (L - c0 - tc)} on what it reads, which is e^{rate T (chunks-2-j)}
    # e^{rate tail} before the last chunk, 1 in it.  Each is one product of
    # two rows, so the loop holds no (chunks, H, N) table.
    far_hi = None
    impulse, inject, decay = fwd, fwd[..., ::-1], powers[..., block]
    if far.any():
        far_hi = np.where(far, np.moveaxis(hi, -1, 0), 1.0)[:, :, None, :]
        far_lo = np.where(far, np.moveaxis(lo, -1, 0), 1.0)[:, :, None, :]
        far_lo_tail = far_lo * np.where(far, powers[..., tail], 1.0)[:, None, :]

        def ahead(j):
            return far_hi[j // m] * far_lo[j % m]

        def behind(j):
            k = chunks - 2 - j
            return far_hi[k // m] * far_lo_tail[k % m]

        # Far kernel values e^{rate (L-1-m)} = e^{rate (L-T)} e^{rate (T-1-m)},
        # and e^{rate (L-T)} is behind(0), or 1 when one chunk covers L.
        lead = behind(0) if chunks > 1 else np.ones_like(far_hi[0])
        impulse = np.where(far[:, None], lead.transpose(0, 2, 1) * inject, fwd)
        inject = np.where(far[:, None], fwd, inject)
        decay = np.where(far, 1.0, decay)

    # The first T kernel values as a Toeplitz block.
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
    inject = np.ascontiguousarray(inject.transpose(0, 2, 1)).view(np.float64)  # (H, T, 2N)
    decay = decay[:, None, :]

    y = np.empty_like(u)
    state = np.zeros((h, b, n), dtype=np.complex128)
    for j, c0 in enumerate(range(0, l, block)):
        tc = min(block, l - c0)
        uc = u[:, :, c0:c0 + tc].transpose(1, 0, 2)
        yc = uc @ toeplitz[:, :tc, :tc]
        if c0:
            carried = state if far_hi is None or j == chunks - 1 else state * behind(j)
            yc += carried.view(np.float64) @ (read if tc == block else read_map(tc))
        y[:, :, c0:c0 + tc] = yc.transpose(1, 0, 2)
        if c0 + tc < l:
            fresh = (uc @ inject).view(np.complex128)
            if far_hi is not None:
                fresh *= ahead(j)
            state = decay * state + fresh
    return y
