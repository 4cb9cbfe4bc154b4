"""Causal convolution by numpy's real FFT, and a transform-domain softmax.

The causal convolution y_k = sum_{j<=k} K_j u_{k-j} is the product of two
degree L-1 polynomials, so it is computed by zero-padding both factors to
the next power of two >= 2L (avoiding circular wrap-around), multiplying
spectra, and inverse transforming.  The input is transformed one block of
rows at a time, each block's spectrum within a fixed 2 MB, so the working
memory beyond the result and the kernel's spectrum does not grow with the
batch.  A direct O(L^2) evaluation is kept as the reference the fast path
is checked against.
"""

import cmath

import numpy as np

from .cnum import DEFAULT_EPS, softmax_eps

# Spectrum bytes of one block of input rows in causal_conv_fft.  At
# (B,H,L) = (4,16,16384), 1 MB blocks ran no faster and left the process
# peak RSS higher (116 against 103 MB); 4 MB blocks put the traced peak at
# 2.4x the result.
_BLOCK_BYTES = 1 << 21


def fft(x, inverse=False):
    """Discrete Fourier transform of a one-dimensional power-of-two signal.

    ``inverse=True`` applies conjugation and 1/L scaling, so
    fft(fft(x), inverse=True) recovers x.
    """
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 1:
        raise ValueError("input must be one-dimensional")
    n = a.size
    if n < 1 or n & (n - 1):
        raise ValueError("length must be a power of two")
    return np.fft.ifft(a) if inverse else np.fft.fft(a)


def _next_pow2(m):
    return 1 << (m - 1).bit_length()


def _as_signal(x, name):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return x


def causal_conv_naive(kernel, u):
    """Direct O(L^2) causal convolution; the reference path."""
    kernel = _as_signal(kernel, "kernel")
    u = _as_signal(u, "input")
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
    once; the input is transformed in runs of rows whose spectrum fits
    ``_BLOCK_BYTES``, so beyond the result and the kernel's spectrum the
    call holds about two blocks.  numpy's FFT transforms each row on its
    own, so the result does not depend on the block size.
    """
    kernel = np.asarray(kernel, dtype=float)
    u = np.asarray(u, dtype=float)
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
    for name, x in (("input u", u), ("kernel", kernel)):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite (no NaN or inf)")
    n = _next_pow2(2 * l)
    out = np.empty(u.shape)
    u = u.reshape((1,) * (3 - u.ndim) + u.shape)        # at least (B, H, L)
    spec_k = np.broadcast_to(np.fft.rfft(kernel, n), u.shape[:-1] + (n // 2 + 1,))
    blocks = out.reshape(u.shape)
    b, h = u.shape[-3:-1]
    rows = max(1, _BLOCK_BYTES // (16 * (n // 2 + 1)))
    # A block is whole (H, L) slices while they fit, else a run within one.
    h_step = min(h, rows) or 1
    b_step = rows // h_step if h <= rows else 1
    for lead in np.ndindex(u.shape[:-3]):
        for i in range(0, b, b_step):
            for j in range(0, h, h_step):
                blk = lead + np.s_[i:i + b_step, j:j + h_step]
                spec = np.fft.rfft(u[blk], n)
                spec *= spec_k[blk]
                blocks[blk] = np.fft.irfft(spec, n)[..., :l]
    return out


def softmax_via_fft(c, l, eps=DEFAULT_EPS):
    """softmax(c*0, c*1, ..., c*(L-1)) evaluated in the transform domain.

    Exploits the geometric structure of the input: the softmax values are
    the coefficients of a rational function that can be sampled at the L
    roots of unity and inverse transformed.  Only scalars with negative
    real part are exponentiated.  Valid for Re(c) != 0 away from the
    singular points {-2*pi*i*k/L}; non-power-of-two lengths fall back to
    the direct eps-stabilized softmax.
    """
    c = complex(c)
    if int(l) != l or l < 1:
        raise ValueError("length must be a positive integer")
    l = int(l)
    if l & (l - 1):
        return softmax_eps(c * np.arange(l), eps)
    ks = np.arange(l)
    if c.real == 0.0 or np.min(np.abs(c + 2j * np.pi * ks / l)) < 1e-9:
        raise ValueError("FFT softmax singular")
    p = 1 if c.real > 0 else 0
    q = 1 - p
    e = cmath.exp(c * (q - p))
    r = (q - p * e) / (p - q * e)
    omega = np.exp(-2j * np.pi * ks / l)
    return fft((r + 1.0) / (r + omega), inverse=True)
