"""Causal convolution by numpy's real FFT, and a transform-domain softmax.

The causal convolution y_k = sum_{j<=k} K_j u_{k-j} is the product of two
degree L-1 polynomials, so it is computed by zero-padding both factors to
the next power of two >= 2L (avoiding circular wrap-around), multiplying
spectra, and inverse transforming.  A direct O(L^2) evaluation is kept as
the reference the fast path is checked against.
"""

import cmath

import numpy as np

from .cnum import DEFAULT_EPS, softmax_eps


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
    against a B x H x L input), and the result has the input's shape.
    """
    kernel = np.asarray(kernel, dtype=float)
    u = np.asarray(u, dtype=float)
    if kernel.ndim < 1 or u.ndim < 1:
        raise ValueError("kernel and input must have at least one dimension")
    l = u.shape[-1]
    if kernel.shape[-1] != l:
        raise ValueError("kernel and input lengths must match")
    n = _next_pow2(2 * l)
    spec = np.fft.rfft(u, n)
    spec *= np.fft.rfft(kernel, n)
    # the copy lets the 2L-long inverse transform be freed
    return np.fft.irfft(spec, n)[..., :l].copy()


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
