"""Causal convolution by numpy's FFT, and a transform-domain softmax.

The causal convolution y_k = sum_{j<=k} K_j u_{k-j} is the product of two
degree L-1 polynomials.  A row with no partner is zero-padded to n, the
next power of two >= 2L (avoiding circular wrap-around), and convolved by
numpy's real transform: multiply the spectra, inverse transform.  The
kernel is real, so two input rows that share it are convolved as the real
and imaginary parts of one complex row z, which numpy transforms faster
than two real ones, and z takes two transforms of m = n/2 points instead
of one of n: since x^n - 1 = (x^m - 1)(x^m + 1), the first L terms of the
product are half the sum of its cyclic and its negacyclic convolution of
length m.  The input is transformed one block of rows at a time, each
block's buffer within a fixed 2 MB, so the working memory beyond the
result and the kernel's spectrum does not grow with the batch.  The
kernel's spectrum and the convolution of an input with it are two steps,
so a caller whose kernels do not change (a layer between parameter
updates) can keep the spectrum and skip the first.  A direct
O(L^2) evaluation is kept as the reference the fast path is checked
against.

The softmax of c*k is one inverse FFT of (1 - a)/(1 - a*w), a = e^c and
w the L roots of unity, at every L; a positive Re(c) is reflected first,
and c near a singular point 2*pi*i*k/L is refused.
"""

import cmath
import functools
import math

import numpy as np

from .cnum import _count, _numbers, _rows_in_range

# Bytes of one block in causal_conv_fft: the spectra of a run of real rows,
# or the cyclic and negacyclic halves (m points each) of a run of row pairs
# together with their kernels' spectrum over all n = 2m bins, 4m complex
# values per coordinate.  Pair blocks of twice this ran the conv_long
# layer's convolution 2-3% faster and would raise its peak RSS by about
# 2 MB (2-vCPU Xeon VM, in-process A/B, 40 alternating rounds).
_BLOCK_BYTES = 1 << 21


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
    once (:func:`_kernel_spectrum`); the input is transformed in runs of
    rows within one (..., H, L) slice, each run's buffer within
    ``_BLOCK_BYTES``, so beyond the result and the kernel's spectrum the
    call holds about two blocks (:func:`_conv_by_spectrum`).  Rows of
    consecutive leading indices that share a kernel row share one complex
    transform (:func:`_conv_pairs`), so a row's bits depend on its partner
    at rounding level, and never on the runs; the pair's complex row takes
    a cyclic and a negacyclic transform of n/2 points each rather than one
    of n.  Empty input gives empty output.  A row whose transform
    overflows is convolved again scaled by a power of two; an output past
    float range raises ValueError("state-space output leaves float range").
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
    """The real FFT of each length-L kernel row, zero-padded to the next power of two >= 2L."""
    return np.fft.rfft(kernel, _next_pow2(2 * kernel.shape[-1]))


def _conv_by_spectrum(spec_k, u):
    """Causal convolution of a finite float array u with the kernels of spectrum spec_k.

    spec_k is :func:`_kernel_spectrum` of kernels of u's length that
    broadcast to u's shape; the caller has checked both.  A row whose
    transform overflows is convolved again scaled by a power of two
    (``cnum._rows_in_range``); where its output leaves float range, raises
    ValueError("state-space output leaves float range").
    """
    return _rows_in_range(lambda rows: _conv_blocks(spec_k, rows), u)


def _conv_blocks(spec_k, u):
    """:func:`_conv_by_spectrum` with no overflow check, one block of rows at a time.

    Where every leading index shares one kernel row per coordinate, rows of
    consecutive leading indices are convolved two at a time
    (:func:`_conv_pairs`); the last row of an odd count, and every row of
    kernels with their own leading axes, takes the real transform.
    """
    l = u.shape[-1]
    n = _next_pow2(2 * l)
    out = np.empty(u.shape)
    if out.size == 0:                                   # no row to pair or transform
        return out
    shared = math.prod(spec_k.shape[:-2]) == 1
    u = u.reshape((1,) * (2 - u.ndim) + u.shape)        # at least (H, L)
    spec_k = np.broadcast_to(spec_k, u.shape[:-1] + (n // 2 + 1,))
    blocks = out.reshape(u.shape)
    leads = list(np.ndindex(u.shape[:-2]))
    if shared and len(leads) > 1:
        paired = len(leads) // 2 * 2
        _conv_pairs(spec_k[leads[0]], u, blocks, list(zip(leads[0:paired:2], leads[1:paired:2])))
        leads = leads[paired:]
    h = u.shape[-2]
    rows = max(1, _BLOCK_BYTES // (16 * (n // 2 + 1)))
    for lead in leads:
        for j in range(0, h, rows):
            blk = (*lead, slice(j, j + rows))
            spec = np.fft.rfft(u[blk], n)
            spec *= spec_k[blk]
            blocks[blk] = np.fft.irfft(spec, n)[..., :l]
    return out


def _conv_pairs(spec_k, u, out, pairs):
    """Convolve rows u[a] and u[b] of each pair (a, b) of leading indices
    with the (H, n/2 + 1) kernel spectrum spec_k, into out[a] and out[b].

    The two rows of one coordinate share its real kernel K, so conv(K, u_a
    + i*u_b) = conv(K, u_a) + i*conv(K, u_b).  Its first L terms are half
    the sum of its cyclic and negacyclic convolutions of length m = n/2 >=
    L, since x^n - 1 = (x^m - 1)(x^m + 1): the cyclic one is ifft(fft(z) *
    X[0::2]) and the negacyclic one conj(tau) * ifft(fft(z*tau) * X[1::2]),
    tau_j = e^{-i*pi*j/m} (:func:`_twist`), where X is K's spectrum over all
    n bins (the upper ones the conjugates of the mirrored lower ones,
    formed once per block of coordinates) and z = u_a + i*u_b.  Both halves
    share one (2, rows, m) buffer, so one in-place FFT and one inverse FFT
    give both rows.  The smaller row is first lifted by an exact power of
    two to the larger one's binary exponent and its output scaled back
    (with the 1/2), so each row rounds relative to its own scale; an
    all-zero row's output is zero.
    """
    h, l = u.shape[-2:]
    m = _next_pow2(l)
    tau, untwist = _twist(m)
    # A block holds its complex rows and their kernels' full spectrum, and
    # at most half the slice's coordinates: no more bytes than the real
    # transform spends on a whole slice (its spectra and inverse).
    rows = max(1, min(_BLOCK_BYTES // (64 * m), (h + 1) // 2))
    zbuf = np.empty(2 * rows * m, complex)        # flat, so a short last block is contiguous too
    full = np.empty((rows, 2 * m), complex)
    lifted = []
    for pair in pairs:
        tops = np.array([np.maximum(u[p].max(axis=-1), -u[p].min(axis=-1)) for p in pair])
        exps = np.frexp(np.where(tops > 0, tops, tops.max(axis=0)))[1]
        lifted.append((pair, tops, (exps.max(axis=0) - exps)[..., None]))
    for j in range(0, h, rows):
        spec = spec_k[j:j + rows]
        z, fj = zbuf[:2 * len(spec) * m].reshape(2, len(spec), m), full[:len(spec)]
        fj[:, :m + 1] = spec
        np.conjugate(spec[:, -2:0:-1], out=fj[:, m + 1:])
        bins = fj.reshape(len(spec), m, 2).transpose(2, 0, 1)     # X[0::2], X[1::2]
        cyc, neg = z
        parts = cyc.real[:, :l], cyc.imag[:, :l]
        for pair, tops, lift in lifted:
            tops, lift = tops[:, j:j + rows], lift[:, j:j + rows]
            for p, s, part in zip(pair, lift, parts):
                _times_pow2(u[p][j:j + rows], s, part)
            cyc[:, l:] = 0
            np.multiply(cyc, tau, out=neg)
            np.fft.fft(z, out=z)
            z *= bins
            np.fft.ifft(z, out=z)
            np.multiply(neg[:, :l], untwist[:l], out=neg[:, :l])
            cyc[:, :l] += neg[:, :l]
            for p, s, part, top in zip(pair, lift, parts, tops):
                dst = out[p][j:j + rows]
                _times_pow2(part, -s - 1, dst)
                dst[top == 0] = 0


# Eight lengths stay cached: a sweep over more evicts the least recently
# used instead of growing the cache.
@functools.lru_cache(maxsize=8)
def _twist(m):
    """tau_j = e^{-i*pi*j/m} for j < m and its conjugate, made once per m, read-only."""
    tau = np.exp(-1j * np.pi * np.arange(m) / m)
    untwist = tau.conj()
    tau.flags.writeable = untwist.flags.writeable = False
    return tau, untwist


def _times_pow2(x, s, out):
    """out = x * 2**s, exactly (rounded once where it is subnormal), for an
    integer array s broadcast against x.  A multiply where 2**s is a float
    (-1074 <= s <= 1023), as it is for all but rows over 2**1023 apart;
    np.ldexp, about ten times slower, otherwise."""
    if s.min() >= -1074 and s.max() <= 1023:
        np.multiply(x, np.ldexp(1.0, s), out=out)
    else:
        np.ldexp(x, s, out=out)


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
