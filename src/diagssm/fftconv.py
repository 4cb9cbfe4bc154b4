"""Causal convolution by numpy's FFT, and a transform-domain softmax.

The causal convolution y_k = sum_{j<=k} K_j u_{k-j} is the product of two
degree L-1 polynomials, whose first L terms are those of the product mod
x^n - 1, n = 2m and m = max(4, next power of two >= L).  Since x^n - 1 =
(x^m - 1)(x^m + 1), they are half the sum of the cyclic and negacyclic
convolutions of length m.  Every row takes both on its own: the cyclic
one by numpy's real transform of m points, and the negacyclic one, right
angle style (Crandall and Fagin, 1994), as a cyclic convolution of h =
m/2 complex points, the row folded to u[:h] - i*u[h:] and twisted.  A
row's bits depend on no other row.  The batch's rows are cut into one
contiguous share per available core (``shares._split_rows``), each
convolved into its slice of the one result, and each share transforms
one block of rows at a time, the blocks' buffers of all shares within a
fixed 1 MB, so the working memory beyond the result and the kernel's
spectrum does not grow with the batch, and the bits do not depend on the
share count.  The kernel's spectrum and the convolution of an input with
it are two steps, so a caller whose kernels do not change (a layer between
parameter updates) can keep the spectrum and skip the first.  A direct
O(L^2) evaluation is kept as the reference the fast path is checked
against.

The softmax of c*k is one inverse FFT of (1 - a)/(1 - a*w), a = e^c and
w the L roots of unity, at every L; a positive Re(c) is reflected first,
and c near a singular point 2*pi*i*k/L is refused.
"""

import cmath
import functools

import numpy as np

from .cnum import _count, _numbers, _rows_in_range
from .shares import _split_rows

# Bytes of the block buffers in causal_conv_fft, over all shares: each
# share's buffer within its rows' part of the budget, 16*m bytes per row, m
# the padded length (the row's m/2 + 1 cyclic spectrum values and its m/2
# negacyclic ones, whose bytes then take the m floats of the inverse real
# transform).  Blocks of 1 MB and 4 MB ran the conv_long layer's
# convolution within 2% of 2 MB (2-vCPU Xeon VM, one thread, in-process
# A/B, 10 alternating rounds); a larger block only raises the peak.  Split
# into two shares, a 2 MB budget raised conv_long's peak_rss_mb by about
# 1.1 MB over one thread's at 2 MB (likely because each thread's malloc
# arena keeps the blocks it freed); at 1 MB it reads the same as one thread.
_BLOCK_BYTES = 1 << 20


def fft(x, inverse=False):
    """Discrete Fourier transform of a one-dimensional power-of-two signal.

    ``inverse=True`` applies conjugation and 1/L scaling, so
    fft(fft(x), inverse=True) recovers x.  Kept only because
    ssmbench/tracer.py wraps ``diagssm.fftconv.fft``.
    """
    a = _numbers("x", x, np.complex128)
    if a.ndim != 1:
        raise ValueError("input must be one-dimensional")
    n = a.size
    if n < 1 or n & (n - 1):
        raise ValueError("length must be a power of two")
    return np.fft.ifft(a) if inverse else np.fft.fft(a)


def _next_pow2(m):
    return 1 << (m - 1).bit_length()


def causal_conv_naive(kernel, u):
    """Direct O(L^2) causal convolution; the reference path."""
    kernel, u = _numbers("kernel", kernel), _numbers("input u", u)
    if kernel.ndim != 1 or u.ndim != 1:
        raise ValueError("kernel and input u must be one-dimensional")
    if kernel.size != u.size:
        raise ValueError("kernel and input lengths must match")
    l = u.size
    out = np.empty(l)
    for k in range(l):
        out[k] = np.dot(kernel[: k + 1], u[k::-1])
    return out


def causal_conv_fft(kernel, u):
    """Causal convolution along the last axis in O(L log L).

    Leading axes broadcast, kernel against input (an H x L kernel stack
    against a B x H x L input), and the result has the input's shape; a
    kernel that would widen it raises ValueError, as does a NaN or inf in
    either (the transform would spread it to every output, where the
    direct sum keeps it to later ones).  The kernel's spectrum is taken
    once (:func:`_kernel_spectrum`); the input's first axis is cut into
    one share of rows per core, and each share is transformed in runs of
    rows within one (..., H, L) slice, the runs' buffers within
    ``_BLOCK_BYTES`` over all shares, so beyond the result and the
    kernel's spectrum the call holds about one block per share
    (:func:`_conv_by_spectrum`).  Each row
    takes a real transform of m = next_pow2(L) points (the cyclic half)
    and a complex one of m/2 (the negacyclic half) on its own, so its bits
    depend neither on the other rows nor on the runs or shares.
    Empty input gives empty output.  A row whose transform overflows is
    convolved again scaled by a power of two; an output past float range
    raises ValueError("state-space output leaves float range").
    """
    u = _numbers("input u", u, finite=True)
    kernel = _numbers("kernel", kernel, finite=True)
    if kernel.ndim < 1 or u.ndim < 1:
        raise ValueError("kernel and input must have at least one dimension")
    l = u.shape[-1]
    if kernel.shape[-1] != l:
        raise ValueError("kernel and input lengths must match")
    try:
        widened = np.broadcast_shapes(kernel.shape, u.shape) != u.shape
    except ValueError:
        widened = True
    if widened:
        raise ValueError(f"kernel of shape {kernel.shape} does not broadcast "
                         f"to the input's shape {u.shape}")
    return _conv_by_spectrum(_kernel_spectrum(kernel), u)


def _kernel_spectrum(kernel):
    """The (..., m + 1) complex plan of each length-L kernel row K, m = max(4, next_pow2(L)).

    Its first h + 1 = m/2 + 1 values are half the real FFT of K at m
    points (the even bins X[2k] of K's spectrum at n = 2m points); the
    other h are half the FFT at h points of K folded and twisted,
    (K[:h] - i*K[h:]) * tau (the bins X[4k+1]).  Both are formed in place
    in the plan, so building it holds about the plan's own bytes.  h is at
    least 2: numpy's in-place complex product of one element rounds without
    the fused multiply-add of its vector loop, so at h = 1 a block of one
    row would round otherwise than a longer one.
    """
    m = max(4, _next_pow2(kernel.shape[-1]))
    plan = np.empty(kernel.shape[:-1] + (m + 1,), complex)
    cyclic, negacyclic = plan[..., :m // 2 + 1], plan[..., m // 2 + 1:]
    np.fft.rfft(kernel, m, out=cyclic)
    _fold(kernel, negacyclic)
    negacyclic *= _twist(m)[0]
    np.fft.fft(negacyclic, out=negacyclic)
    plan *= 0.5
    return plan


def _conv_by_spectrum(spec_k, u):
    """Causal convolution of a finite float array u with the kernels of plan spec_k.

    spec_k is :func:`_kernel_spectrum` of kernels of u's length that
    broadcast to u's shape; the caller has checked both.  The rows of u's
    first axis are cut into per-core shares (``shares._split_rows``), each
    convolved into its slice of the one result in blocks within the
    share's rows' part of ``_BLOCK_BYTES``.  A row whose transform
    overflows is convolved again scaled by a power of two
    (``cnum._rows_in_range``); where its output leaves float range, raises
    ValueError("state-space output leaves float range").
    """
    out = np.empty(u.shape)
    if out.size == 0:                                   # no row to transform
        return out
    rows, y = (a.reshape((1,) * (2 - u.ndim) + u.shape) for a in (u, out))   # at least (H, L)
    spec_k = np.broadcast_to(spec_k, rows.shape[:-1] + spec_k.shape[-1:])

    def share(lo, hi):
        budget = _BLOCK_BYTES * (hi - lo) // len(rows)
        _rows_in_range(functools.partial(_conv_blocks, spec_k[lo:hi], budget=budget),
                       rows[lo:hi], y[lo:hi])

    _split_rows(len(rows), share, rows[0].size)
    return out


def _conv_blocks(spec_k, u, out, budget):
    """:func:`_conv_by_spectrum` into out with no overflow check, one block of rows at a time.

    u has at least two axes, spec_k its shape but for the last axis and out
    its shape.  Each row u of a block, with its kernel's plan (X_e, X_o),
    gives the cyclic half c = irfft(rfft(u, m) * X_e, m) and the negacyclic
    half w = conj(tau) * ifft(fft((u[:h] - i*u[h:]) * tau) * X_o) of h
    points, tau_j = e^{-i*pi*j/m} (:func:`_twist`), and y[:h] = c[:h] +
    Re(w), y[h:L] = c[h:L] - Im(w): the twist reads x^h as -i, a square
    root of x^m = -1.  One buffer of m + 1 complex values per row holds the
    spectrum and w; w's bytes take c once w is spent.  A block holds as
    many rows as ``budget`` bytes take at 16*m per row, at least one.
    """
    l = u.shape[-1]
    m = spec_k.shape[-1] - 1
    h = m // 2
    tau, untwist = _twist(m)
    rows = max(1, min(u.shape[-2], budget // (16 * m)))
    buf = np.empty((rows, m + 1), complex)
    for lead in np.ndindex(u.shape[:-2]):
        for j in range(0, u.shape[-2], rows):
            blk = (*lead, slice(j, j + rows))
            x, y, plan = u[blk], out[blk], spec_k[blk]
            spec, w = buf[:len(x), :h + 1], buf[:len(x), h + 1:]
            _fold(x, w)
            w *= tau
            np.fft.fft(w, out=w)
            w *= plan[:, h + 1:]
            np.fft.ifft(w, out=w)
            w *= untwist
            y[:, :h] = w.real[:, :l]
            np.negative(w.imag[:, :max(l - h, 0)], out=y[:, h:])
            np.fft.rfft(x, m, out=spec)
            spec *= plan[:, :h + 1]
            cyclic = w.view(float)                      # m floats per row
            np.fft.irfft(spec, m, out=cyclic)
            y += cyclic[:, :l]
    return out


def _fold(x, out):
    """out = x[..., :h] - i*x[..., h:] for out's length h, x zero-padded to 2h points."""
    h = out.shape[-1]
    lo, hi = x[..., :h], x[..., h:]
    out.real[..., :lo.shape[-1]] = lo
    out.real[..., lo.shape[-1]:] = 0
    np.negative(hi, out=out.imag[..., :hi.shape[-1]])
    out.imag[..., hi.shape[-1]:] = 0


# Eight lengths stay cached: a sweep over more evicts the least recently
# used instead of growing the cache.
@functools.lru_cache(maxsize=8)
def _twist(m):
    """tau_j = e^{-i*pi*j/m} for j < m/2 and its conjugate, made once per m, read-only."""
    tau = np.exp(-1j * np.pi * np.arange(m // 2) / m)
    untwist = tau.conj()
    tau.flags.writeable = untwist.flags.writeable = False
    return tau, untwist


def softmax_via_fft(c, l):
    """softmax(c*0, c*1, ..., c*(L-1)) evaluated in the transform domain.

    One inverse FFT of (1 - a) / (1 - a*w), with a = e^c and w numpy's L
    roots of unity, at every L.  Re(c) > 0 is taken by the reflection
    softmax(c*k)[k] = softmax(-c*k)[L-1-k], so |a| <= 1.  c within 1e-9
    of a singular point 2*pi*i*k/L (k an integer) raises ValueError.
    """
    c = complex(_numbers("c", c, np.complex128, finite=True))
    l = _count("l", l)
    flip = c.real > 0
    a = cmath.exp(-c if flip else c)
    den = 1 - a * np.exp(-2j * np.pi * np.arange(l) / l)
    if np.min(np.abs(den)) < 1e-9:
        raise ValueError("FFT softmax singular: c is within 1e-9 of a point 2*pi*i*k/L")
    out = np.fft.ifft((1 - a) / den)
    return out[::-1].copy() if flip else out
