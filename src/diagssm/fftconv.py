"""Causal convolution by numpy's real FFT, and a transform-domain softmax.

The causal convolution y_k = sum_{j<=k} K_j u_{k-j} is the product of two
degree L-1 polynomials, so it is computed by zero-padding both factors to
the next power of two >= 2L (avoiding circular wrap-around), multiplying
spectra, and inverse transforming.  The input is transformed one block of
rows at a time, each block's spectrum within a fixed 2 MB, so the working
memory beyond the result and the kernel's spectrum does not grow with the
batch.  The kernel's spectrum and the convolution of an input with it are
two steps, so a caller whose kernels do not change (a layer between
parameter updates) can keep the spectrum and skip the first.  A direct
O(L^2) evaluation is kept as the reference the fast path is checked
against.

The softmax of c*k is one inverse FFT of (1 - a)/(1 - a*w), a = e^c and
w the L roots of unity, at every L; a positive Re(c) is reflected first,
and c near a singular point 2*pi*i*k/L is refused.
"""

import cmath

import numpy as np

from .cnum import _count, _numbers, _rows_in_range

# Spectrum bytes of one block of input rows in causal_conv_fft.  At
# (B,H,L) = (4,16,16384), 1 MB and 512 KB blocks ran the convolution 6% and
# 21% slower (in-process A/B, 60 alternating rounds, one BLAS thread).  A
# conv layer_forward's traced peak is 1.44x its output at 2 MB, 1.19x and
# 1.13x at 1 MB and 512 KB, and 1.94x at 4 MB.
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
    rows within one (..., H, L) slice, each run's spectrum within
    ``_BLOCK_BYTES``, so beyond the result and the kernel's spectrum the
    call holds about two blocks (:func:`_conv_by_spectrum`).  numpy's FFT
    transforms each row alone, so the result does not depend on the runs.
    A row whose transform overflows is convolved again scaled by a power of
    two; an output past float range raises ValueError("state-space output
    leaves float range").
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
    """:func:`_conv_by_spectrum` with no overflow check, one block of rows at a time."""
    l = u.shape[-1]
    n = _next_pow2(2 * l)
    out = np.empty(u.shape)
    u = u.reshape((1,) * (2 - u.ndim) + u.shape)        # at least (H, L)
    spec_k = np.broadcast_to(spec_k, u.shape[:-1] + (n // 2 + 1,))
    blocks = out.reshape(u.shape)
    h = u.shape[-2]
    rows = max(1, _BLOCK_BYTES // (16 * (n // 2 + 1)))
    for lead in np.ndindex(u.shape[:-2]):
        for j in range(0, h, rows):
            blk = (*lead, slice(j, j + rows))
            spec = np.fft.rfft(u[blk], n)
            spec *= spec_k[blk]
            blocks[blk] = np.fft.irfft(spec, n)[..., :l]
    return out


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
