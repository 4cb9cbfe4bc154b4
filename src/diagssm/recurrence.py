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
part; the scan below keeps that form for the modes whose span is past a
bound, and runs the others as near modes of their own rate lam*dt.

:func:`chunked_scan` is the production view: one call runs a whole layer,
H coordinates over a batch, with a (B,H,N) state.  It cuts the sequence
into chunks of T = 32 steps.  Inside a chunk the output is a T x T
Toeplitz product with the first T kernel values; the state enters through
a (N x T) read-out and leaves through a (T x N) injection.  The chunks run
in groups of G = 32 (``_GROUP``): for each group one matrix product gives
every chunk's in-chunk output, one every chunk's injection and one every
chunk's read-out, and only the elementwise recursion
S_j = e^{rho T} S_{j-1} + fresh_j between the chunk states runs in the
Python loop, ceil(L/T) steps over (B, H, N) slices.  Every factor is
e^{rho t} with 0 <= t, where rho is lam*dt, or -lam*dt for the softmax
modes with Re(lam) > 0 (the far modes), so Re(rho) <= 0, with one
exception.  A far mode whose span |Re(rho)| T ceil(L/T) is at most 36
(``_FRAME_SPAN``) runs in a read-out frame, as a near mode of its own
rate -rho: its kernel values c e^{rho (L-1-m)} are s c e^{-rho m}, s =
e^{rho (L-1)}, which it takes on its impulse and injection.  Its state
weighs each input by at most 1, never more than the accumulated one, and
its decay e^{-rho T}, of size at most e^{36/ceil(L/T)}, grows by at most
e^36 < 2^52 over the whole sequence, which is what the span bound caps.  A
far mode past the bound keeps every exponent's real part <= 0: the
chunk's offset from the start (injection) and from the horizon (read-out)
are applied to its carried state as two more factors e^{rho t}.  All of them
come from tables built before the loop: the in-chunk powers e^{rho t},
t <= T, from ``kernel._exp_range``, and, for softmax, the chunk starts
e^{rho T j} as ``kernel._exp_factors``' two tables of about sqrt(L/T)
rows, whose product the loop takes one row pair at a time: about 12
exponentials per mode and coordinate, plus 2*sqrt(L/T) for softmax,
none inside the loop, and no table of L/T rows.  The softmax row sums
are formed from the same tables as sums of e^{rho k}, never as
(e^{rho L}-1)/(e^{rho}-1), so a spectrum with e^{rho L} = 1 gives the
eps-regularized output of the convolution view instead of an error.

:func:`run_exp` (``exp`` and ``exp_no_scale``) and
:func:`run_softmax_stable` step one coordinate's recurrence position by
position.  They are the reference oracles the scan and the convolution
view are checked against.  Every view here discretizes, and checks its
parameters, in ``kernel._diagonal_rates``.

With zero initial state every recurrence reproduces the convolution of the
input with the corresponding kernel.
"""

from typing import NamedTuple

import numpy as np

from .cnum import DEFAULT_EPS, _numbers, reciprocal_eps
from .kernel import _coordinate_form, _diagonal_rates, _exp_factors, _exp_range, _factor_sum


def run_exp(params, u, x_init=None):
    """Step the exp or exp_no_scale recurrence over u; returns (y, final_state).

    ``x_init`` defaults to zero, in which case y equals the causal
    convolution of u with the variant's kernel (input map 1 for
    ``exp_no_scale``).  Passing the returned state back in continues a
    split sequence exactly.  This is the per-step reference oracle for
    one coordinate; layers run :func:`chunked_scan`.
    """
    u = _numbers("input u", u, finite=True)
    if u.ndim != 1:
        raise ValueError("input u must be one-dimensional")
    lam, delta, w = _coordinate_form(params, "exp", "exp_no_scale")
    _, b_bar, z, _ = _diagonal_rates(params.variant, lam, delta, np.ones_like(w), 1, 1)
    a_bar, b_bar, w = np.exp(z[0]), b_bar[0], w[0]
    x = np.zeros(params.n) if x_init is None else x_init
    x = _numbers("x_init", x, np.complex128, finite=True).reshape(-1).copy()
    if x.size != params.n:
        raise ValueError(f"x_init must hold {params.n} entries, one per mode")
    y = np.empty(u.size)
    for k, uk in enumerate(u):
        x = a_bar * x + b_bar * uk
        y[k] = (w @ x).real
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
    u = _numbers("input u", u, finite=True)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("input u must be one-dimensional and nonempty")
    l = u.size
    lam, delta, w = _coordinate_form(params, "softmax")
    _, inv_lam, z, far = _diagonal_rates("softmax", lam, delta, np.ones_like(w), 1, l)
    z, w = z[0], w[0]                            # lam*dt, negated where Re(lam) > 0: Re(z) <= 0
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
        y[k] = (w @ x).real
    return y, x


_CHUNK = 32

# The widest span |Re(rate)| T chunks of a softmax far mode that the scan
# runs in its read-out frame, as a near mode of its own rate -rate (see
# _scan_plan).  The frame's s = e^{rate (L-1)} injects an input at as little
# as e^{-span} times its size, and its decay e^{-rate T} grows the state back
# by e^{|Re(rate)| T} a chunk, e^{span} over the sequence.  e^36 < 2^52
# bounds both: an input moves down at most 52 of float64's binary
# exponents, so a row that tops out at 2^-960 or more stays above the
# subnormals (and _LIFT_BELOW lifts the rest), and the state regrows by
# less than one significand's range.  Past the bound a mode keeps the
# offset path, whose factors all have Re <= 0.
_FRAME_SPAN = 36.0

# A read-frame scan scales each input row whose largest magnitude is below
# this by a power of two, to [0.5, 1), and its output back: e^{-_FRAME_SPAN}
# > 2^-52 times 2^-960 is still above 2^-1022, below which float64 loses bits.
_LIFT_BELOW = 2.0 ** -960

# Chunks per group in _scan_run: each of its three products covers a group,
# so its scratch is about _GROUP * B * H * (2N + T) floats at any L.
_GROUP = 32


def chunked_scan(variant, lam, delta, w, u, eps=DEFAULT_EPS):
    """Every coordinate's recurrence over a (B, H, L) input, in chunks.

    ``lam`` (N,) is the effective spectrum the H coordinates share,
    ``delta`` (H,) their sample times and ``w`` (H, N) their weights, in
    the form the variant's kernel takes them.  Returns y of u's shape:
    y[b, h] is what :func:`run_exp` (``exp``, ``exp_no_scale``) or
    :func:`run_softmax_stable` (``softmax``, horizon L) gives for
    coordinate h on u[b, h], with the same bits whatever the batch.  The
    sequence is cut into chunks of 32 steps and the chunks into groups of
    32; each group's three products are batched over its chunks, and the
    loop over chunks runs only the elementwise state recursion; see the
    module docstring.  NaN or inf in u is refused.  A softmax far mode in
    the read-out frame runs as a near mode of its own rate lam*dt with
    e^{-lam*dt*(L-1)} on its impulse and injection; with such modes, a row
    of u whose entries are all below 2^-960 in magnitude runs scaled by a
    power of two, exactly, keeping the relative precision of a normal scale.

    This is :func:`_scan_plan` then :func:`_scan_run`; a caller that runs
    the same parameters again at the same L and eps may keep the plan.
    """
    u = _numbers("input u", u)
    if u.ndim != 3 or u.shape[2] < 1:
        raise ValueError("input must have shape (batch, coordinates, length >= 1)")
    _, h, l = u.shape
    return _scan_run(_scan_plan(variant, lam, delta, w, h, l, eps), u)


class _ScanPlan(NamedTuple):
    """The scan's tables for H coordinates at length L; no array depends on B."""
    toeplitz: np.ndarray    # (H, T, T): the first T kernel values
    read: np.ndarray        # (H, 2N, T): a full chunk's read-out
    read_tail: np.ndarray   # (H, 2N, tail): the last chunk's read-out
    inject: np.ndarray      # (H, T, 2N)
    decay: np.ndarray       # (H, N): e^{rate T}, e^{-rate T} on read-frame modes, 1 on offset modes
    far_hi: object          # the offset modes' tables (see _scan_plan), or None
    far_lo: object
    far_lo_tail: object
    lift: bool              # whether tiny input rows are lifted: the plan has read-frame modes


def _int_power(x, k):
    """x ** k for an int k >= 0 by repeated squaring, within about k ulps of
    the exact power of x; np.power takes e^{k log x} past k = 100, which was
    3-7x further off at k = 100-510."""
    out = np.ones_like(x)
    while k:
        if k & 1:
            out = out * x
        x = x * x
        k >>= 1
    return out


def _far_offset(hi, lo, k, out=None):
    """hi[k // m] * lo[k % m], m rows in lo: row k of a table split as in ``_exp_factors``."""
    m = lo.shape[0]
    return np.multiply(hi[k // m], lo[k % m], out=out)


def _scan_plan(variant, lam, delta, w, h, l, eps=DEFAULT_EPS):
    """Everything :func:`chunked_scan` forms from the parameters, for H and L.

    Runs the parameter check (``kernel._diagonal_rates``) and builds every
    table of powers, so :func:`_scan_run` evaluates no exponential.  Each
    softmax far mode goes to the read-out frame when its span fits
    ``_FRAME_SPAN`` and to the offset tables otherwise; a plan with no
    offset mode has ``far_hi`` None, and its run is the near modes' loop.
    """
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

    # A far mode whose whole chunk grid spans |Re(rate)| T chunks <= _FRAME_SPAN
    # runs in the read-out frame: it is a near mode of its own rate -rate, as
    # its kernel values c e^{rate (L-1-m)} are s c e^{-rate m}, s = e^{rate (L-1)}.
    # It takes the near modes' impulse, injection, decay and read-out at that
    # rate, its powers e^{-rate t} the reciprocals of the table's, and s on its
    # impulse and injection.  The state chunk j reads then weighs input i by
    # |s e^{-rate (T j - 1 - i)}| = e^{Re(rate) (L - T j + i)} <= 1, so it is no
    # larger than A_j = sum_{i < T j} e^{rate i} u_i, the state chunk j reads
    # on the offset path below.
    #
    # The other far modes' chunk offsets come from (., H, N) factor tables,
    # 1 elsewhere: e^{rate c0} on what chunk j injects is row j of (far_hi,
    # far_lo), and e^{rate (L - c0 - tc)} on what it reads, which is
    # e^{rate T (chunks-2-j)} e^{rate tail} before the last chunk, 1 in it,
    # is row chunks-2-j of (far_hi, far_lo_tail).  Each is one product of two
    # rows (_far_offset), so the scan holds no (chunks, H, N) table.
    far_hi = far_lo = far_lo_tail = None
    frame = far & (-rate.real <= _FRAME_SPAN / (block * chunks))
    offset = far & ~frame
    impulse, inject, decay = fwd, fwd[..., ::-1], powers[..., block]   # views of powers
    if frame.any():
        # A frame mode's powers become e^{-rate t} in place, in the views too.
        # s = 1 / (decay^(chunks-1) e^{-rate (tail-1)}), from the decay the run
        # multiplies: the oldest input reaches the last output through s and
        # chunks-2 decays, whose product is then 1 to about chunks ulps whatever
        # |Im(rate)| L is.  An s from the chunk-start tables, whose exponents
        # round apart from the decay's, put outputs off by up to 3e-12 at
        # L = 16384.  s is 1 on the other modes.
        np.divide(1.0, powers, out=powers, where=frame[..., None])
        s = 1.0 / (_int_power(np.where(frame, decay, 1.0), chunks - 1)
                   * np.where(frame, powers[..., tail - 1], 1.0))
        impulse, inject = s[..., None] * impulse, s[..., None] * inject
    if offset.any():
        # Offset kernel values e^{rate (L-1-m)} = e^{rate (L-T)} e^{rate (T-1-m)},
        # and e^{rate (L-T)} is chunk 0's read offset, or 1 when one chunk covers L.
        k = max(chunks - 2, 0)
        lead = (hi[..., k // m] * (lo[..., k % m] * powers[..., tail]) if chunks > 1
                else np.ones_like(decay))
        impulse = np.where(offset[..., None], lead[..., None] * fwd[..., ::-1], impulse)
        inject = np.where(offset[..., None], fwd, inject)
        decay = np.where(offset, 1.0, decay)
        far_hi = np.where(offset, np.moveaxis(hi, -1, 0), 1.0)
        far_lo = np.where(offset, np.moveaxis(lo, -1, 0), 1.0)
        far_lo_tail = far_lo * np.where(offset, powers[..., tail], 1.0)

    # The first T kernel values as a C-contiguous Toeplitz block, which
    # numpy's matmul can hand to BLAS; head[:, idx] would put H fastest.
    head = np.einsum("hn,hnm->hm", coef, impulse).real
    lag = np.arange(block)[None, :] - np.arange(block)[:, None]
    toeplitz = np.where(lag >= 0, np.take(head, np.maximum(lag, 0), axis=1), 0.0)  # (H, s, t)

    def read_map(tc):
        # Re(state . R) for the chunk's tc outputs, as a real (H, 2N, tc)
        # matrix against the state's interleaved (re, im) view.
        r = coef[..., None] * np.where(offset[..., None], powers[..., tc - 1::-1],
                                       powers[..., 1:tc + 1])
        return np.stack([r.real, -r.imag], axis=2).reshape(h, 2 * n, tc)

    read = read_map(block)
    return _ScanPlan(
        toeplitz, read, read if tail == block else read_map(tail),
        np.ascontiguousarray(inject.transpose(0, 2, 1)).view(np.float64),  # (H, T, 2N)
        decay.copy(), far_hi, far_lo, far_lo_tail, bool(frame.any()))  # decay may view all powers


def _scan_run(plan, u):
    """The scan of a (B, H, L) float array u through a :func:`_scan_plan` for H and L,
    as a new C-contiguous array.

    The chunks run in groups of ``_GROUP``.  For a group, one product
    writes the in-chunk Toeplitz outputs into y and one writes every
    chunk's injection into a chunk-major state buffer; the loop then runs
    S_j = decay S_{j-1} + fresh_j over contiguous (B, H, N) slices of that
    buffer, leaving in slot k the state chunk k reads (with the offset
    modes' read offset), and one more product adds every chunk's read-out
    to y.  Each BLAS call is one (b, h) row's product over the group's
    chunks, so a row's output does not depend on the batch it runs in;
    nor does its lift (``_LIFT_BELOW``), which is chosen per row.
    """
    # After the parameter checks, so both layer views name the same fault first.
    _numbers("input u", u, finite=True)
    toeplitz, read, read_tail, inject, decay, far_hi, far_lo, far_lo_tail, lifts = plan
    lift = None
    if lifts:
        # A row whose largest magnitude is below _LIFT_BELOW is scaled by 2^k,
        # exactly, to one in [0.5, 1), and its output back at the end.  Rows
        # are read whole only when some row's first entry is below it.
        if (np.abs(u[:, :, 0]) < _LIFT_BELOW).any():
            top = np.abs(u).max(axis=2)
            lift = np.where(top < _LIFT_BELOW, -np.frexp(top)[1], 0)[..., None]
            u = np.ldexp(u, lift)
    b, h, l = u.shape
    block, n = toeplitz.shape[-1], decay.shape[-1]
    chunks = -(-l // block)
    tail = l - block * (chunks - 1)
    group = min(_GROUP, chunks)

    y = np.empty(u.shape)
    # Slot 0 holds the state entering the group; slot k + 1 receives chunk
    # k's injection and becomes the state after chunk k.
    state = np.empty((group + 1, b, h, 2 * n))
    state[0] = 0.0
    cstate = state.view(np.complex128)                  # (group + 1, B, H, N)
    readout = np.empty((b, h, group, block))
    step = np.empty((b, h, n), np.complex128)
    # A same-shape product skips the buffered loop numpy runs for a broadcast one.
    decay = np.broadcast_to(decay, step.shape).copy()
    offset = None if far_hi is None else np.empty((h, n), np.complex128)
    for j0 in range(0, chunks, group):
        g = min(group, chunks - j0)
        fed = g - (j0 + g == chunks)                    # chunks a later chunk reads from
        full = g - (j0 + g == chunks and tail < block)  # chunks of T steps
        c0, c1 = j0 * block, (j0 + full) * block
        yc = y[:, :, c0:c1].reshape(b, h, full, block)
        np.matmul(u[:, :, c0:c1].reshape(b, h, full, block), toeplitz, out=yc)
        np.matmul(u[:, :, c0:c0 + fed * block].reshape(b, h, fed, block), inject,
                  out=state[1:fed + 1].transpose(1, 2, 0, 3))
        for k in range(fed):
            fresh = cstate[k + 1]
            if far_hi is not None:
                fresh *= _far_offset(far_hi, far_lo, j0 + k, offset)
            fresh += np.multiply(decay, cstate[k], out=step)
            if far_hi is not None:                      # chunk j0 + k is not the last
                cstate[k] *= _far_offset(far_hi, far_lo_tail, chunks - 2 - j0 - k, offset)
        np.matmul(state[:full].transpose(1, 2, 0, 3), read, out=readout[:, :, :full])
        yc += readout[:, :, :full]
        if full < g:                                    # the short last chunk
            yt = y[:, :, None, c1:]
            np.matmul(u[:, :, None, c1:], toeplitz[:, :tail, :tail], out=yt)
            yt += state[g - 1, :, :, None, :] @ read_tail
        if fed == g:
            state[0] = state[g]
    return y if lift is None else np.ldexp(y, -lift, out=y)
