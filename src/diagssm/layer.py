"""A single diagonal-state sequence-mixing layer, and a toy trainer.

The layer maps a batch of H-coordinate, length-L sequences to sequences of
the same shape.  All H coordinates share one diagonal spectrum; each
coordinate h has its own sample time delta_h and complex weight row W[h],
from which a length-L kernel is built and convolved with that coordinate's
input.  A residual connection, a GELU, and a position-wise H x H output
projection follow.  Excluding the projection, the kernel machinery holds
exactly 2N + H + 2HN real parameters.  :class:`LayerParams` is the
kernel module's parameter container (``kernel.DiagonalParams``) for those,
plus the projection w_out, b_out and the layer's kept plans.

Randomness is fully pinned: a splitmix64 generator drives Box-Muller
sampling, and the stream layout is documented on :class:`SplitMix64` so a
port in any language can reproduce the parameters bit for bit from a seed.
To reproduce the parameter file's text too, a port must write floats as
their shortest round-trip decimals, as Python's ``json`` does.
"""

import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .cnum import _choice, _count, _numbers, _positive
from .fftconv import _conv_by_spectrum, _kernel_spectrum
from .hippo import skew_hippo_lambda
from .kernel import (DiagonalParams, _blocked_kernel, _check_layout, _check_sizes, _complex,
                     _diagonal_form, _diagonal_rates, _exp_blocks, _exp_gram, _reduce_phase,
                     diagonal_kernels)
from .recurrence import _scan_plan, _scan_run
# Bound only because ssmbench/tracer.py wraps these names here; the layer calls none.
from .fftconv import causal_conv_fft  # noqa: F401
from .kernel import build_kernel, kernel_grad_exp  # noqa: F401
from .recurrence import run_exp, run_softmax_stable  # noqa: F401

PARAMS_FORMAT_VERSION = 1

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64) with Box-Muller normals.

    Raw stream: state <- (state + 0x9E3779B97F4A7C15) mod 2^64, then
    z <- state; z <- (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64;
    z <- (z ^ (z >> 27)) * 0x94D049BB133111EB mod 2^64; output z ^ (z >> 31).

    uniform() maps one raw output to [0, 1) as (z >> 11) * 2^-53.

    normal() draws u1 then u2 with uniform() (u1 is replaced by 2^-53 if it
    is exactly zero), forms z0 = sqrt(-2 ln u1) cos(2 pi u2) and
    z1 = sqrt(-2 ln u1) sin(2 pi u2), returns z0 and caches z1 for the
    next call.  Ports must reproduce this exact consumption order.  The
    seed is a count with no lower bound, taken mod 2^64.

    The generator is counter-based: raw output k (k = 1, 2, ...) of a
    generator seeded with s is the mix above applied to
    (s + k * 0x9E3779B97F4A7C15) mod 2^64, so any stretch of the stream
    can be drawn at once.  uniforms(count) and normals(count) do so, as
    one uint64 numpy pass; they return bitwise what count calls of
    uniform() or normal() would, advance the state alike, and take and
    leave the cached z1 alike.  Their log, cos and sin go through ``math``
    element by element, since numpy's may round differently; every other
    step is a correctly rounded numpy operation.
    """

    def __init__(self, seed):
        self._state = _count("seed", seed, low=None) & _MASK64
        self._cached_normal = None

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self):
        if self._cached_normal is not None:
            value = self._cached_normal
            self._cached_normal = None
            return value
        u1 = self.uniform() or 2.0 ** -53
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._cached_normal = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)

    def _next_u64s(self, count):
        """The next count raw outputs as one uint64 array (uint64 arrays wrap mod 2^64)."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(0x9E3779B97F4A7C15)
        z += np.uint64(self._state)
        self._state = (self._state + count * 0x9E3779B97F4A7C15) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def uniforms(self, count):
        """count uniform() draws as one float array; count is an integer >= 0."""
        return (self._next_u64s(_count("count", count, low=0)) >> np.uint64(11)) * 2.0 ** -53

    def normals(self, count):
        """count normal() draws as one float array; count is an integer >= 0."""
        count = _count("count", count, low=0)
        out = np.empty(count)
        done = 0
        if count and self._cached_normal is not None:
            out[0], self._cached_normal, done = self._cached_normal, None, 1
        pairs = (count - done + 1) // 2
        u1, u2 = self.uniforms(2 * pairs).reshape(pairs, 2).T
        u1[u1 == 0.0] = 2.0 ** -53
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), float, pairs))
        angle = ((2.0 * math.pi) * u2).tolist()
        z = np.empty((pairs, 2))                    # (z0, z1) of each pair
        z[:, 0] = list(map(math.cos, angle))
        z[:, 1] = list(map(math.sin, angle))
        z *= radius[:, None]
        z = z.reshape(-1)
        out[done:] = z[:count - done]
        if (count - done) % 2:
            self._cached_normal = float(z[-1])
        return out


@dataclass
class LayerParams(DiagonalParams):
    """A layer's parameters: the spectrum, delta and W of its H coordinates,
    plus the position-wise H x H output projection."""

    w_out: np.ndarray       # (H, H)
    b_out: np.ndarray       # (H,)
    # Mode -> (key, plan) of the latest call in that mode; see _layer_plan.
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    _LAYOUT: ClassVar[dict] = {**DiagonalParams._LAYOUT, "w_out": "hh", "b_out": "h"}

    def __getstate__(self):
        # Copies and pickles drop the plans: each is megabytes of tables
        # derived from the fields they do carry.
        return {**self.__dict__, "_plans": {}}


DELTA_INIT_LOW = 0.001
DELTA_INIT_HIGH = 0.1


def init_layer(h, n, variant, seed):
    """Seeded layer parameters.

    Every layer of size n starts from the same skew-HiPPO spectrum:
    :func:`skew_hippo_lambda` solves it once per n per process and gives
    each layer its own writable copy.  For the exp family lambda_re stores
    log(1/2) so the effective real part is -1/2 at init, matching the
    softmax variant.  Each delta is log-uniform in [0.001, 0.1].  W's real
    and imaginary parts are standard normal.  The projection starts as the
    identity with zero bias, keeping the layer near-passthrough.  Draw
    order: H uniforms for delta_log, then W row by row, real part before
    imaginary part.
    """
    _check_sizes(h, n, variant)
    spectrum = skew_hippo_lambda(n)
    if variant == "softmax":
        lambda_re = spectrum.lambda_re
    else:
        lambda_re = np.full(n, math.log(0.5))
    rng = SplitMix64(seed)
    lo, hi = math.log(DELTA_INIT_LOW), math.log(DELTA_INIT_HIGH)
    delta_log = lo + rng.uniforms(h) * (hi - lo)
    # Each normal pair (z0, z1) is one entry's (re, im): complex128's layout.
    w = rng.normals(2 * h * n).view(np.complex128).reshape(h, n)
    return LayerParams(
        variant=variant,
        h=h,
        n=n,
        lambda_re=lambda_re,
        lambda_im=spectrum.lambda_im,
        delta_log=delta_log,
        w=w,
        w_out=np.eye(h),
        b_out=np.zeros(h),
    )


# Numerical Recipes' erfcc: erfc(z) ~= t*exp(-z^2 + c0 + poly(t)) with
# t = 1/(1 + z/2) and poly the 9-term Horner sum over c1..c9.
_ERF_COEFFS = (
    -1.26551223, 1.00002368, 0.37409196, 0.09678418, -0.18628806,
    0.27886807, -1.13520398, 1.48851587, -0.82215223, 0.17087277,
)

_SQRT2 = math.sqrt(2.0)

# Elements per gelu block: the block's input and output and the four float
# scratch buffers (1 MiB together) stay in a core's L2 cache across the 32
# elementwise passes of the formula.
_GELU_BLOCK = 1 << 15

# Floats in layer_forward's projection scratch: one block of the output,
# 256 KB, which stays in a core's L2 cache between the product and the copy
# that writes it back.
_PROJECTION_BLOCK = 1 << 15

# The float64 sign bit, for applying erf's odd symmetry as a bit operation.
_SIGN_BIT = np.uint64(1 << 63)


def gelu(x):
    """GELU 0.5*x*(1 + erf(x/sqrt(2))), with erf from Numerical Recipes' erfcc.

    The exact form is evaluated with the erfcc rational approximation,
    whose absolute error against math.erf is at most 8.3e-8 in erf and
    1.4e-8 in gelu (200k seeded points in [-10, 10]).  With z = |x|/sqrt(2),
    erfcc's t = 1/(1 + z/2) is formed as 2/(2 + z), which has the same bits
    in two passes.

    Returns a new array of x's shape; x is not written to.  The flattened
    input is processed in blocks of ``_GELU_BLOCK`` elements, each through
    block-sized scratch buffers, so the temporaries stay in cache; every
    element sees the same operations in the same order whatever the block
    size.  x holds real numbers; gelu(-inf) is -0, GELU's limit, gelu(inf)
    is inf and NaN stays NaN.
    """
    x = _numbers("x", x)
    out = _gelu_into(x, np.empty(x.shape))
    return out if out.ndim else out[()]


def _gelu_into(x, out):
    """:func:`gelu` of the float array x written to out, a C-contiguous float
    array of x's shape, which may be x itself; returns out.

    Each block of x is read only at the block's start, into x/sqrt(2) and
    x*0.5, so writing over x gives the same bits as a fresh out.

    The loop is branch-free: erf's sign is applied by a sign-bit AND and
    XOR on uint64 views, not by a masked (``where=``) ufunc.  numpy's masked
    loop is not vectorized and mispredicts on mixed-sign data: it took
    10-14 ns per element on a random-sign 2^15 block, about half the GELU,
    where a plain pass takes 0.3-0.8 ns and the AND plus XOR 0.6-0.8 ns.
    """
    src, dst = x.reshape(-1), out.reshape(-1)
    size = min(src.size, _GELU_BLOCK)
    z_buf, t_buf, p_buf, half_buf = (np.empty(size) for _ in range(4))
    for lo in range(0, src.size, _GELU_BLOCK):
        xb, o = src[lo:lo + _GELU_BLOCK], dst[lo:lo + _GELU_BLOCK]
        z, t, p, half = (buf[:xb.size] for buf in (z_buf, t_buf, p_buf, half_buf))
        np.divide(xb, _SQRT2, out=z)                  # s = x/sqrt(2)
        np.multiply(xb, 0.5, out=half)                # xb is not read again
        np.abs(z, out=z)
        # t = 2/(2 + z) has the bits of 1/(1 + z/2): scaling by 2 is exact,
        # and 2 + z cannot overflow (z = |x|/sqrt(2) < 1.3e308).
        np.add(z, 2.0, out=t)
        np.divide(2.0, t, out=t)
        np.multiply(t, _ERF_COEFFS[-1], out=p)
        for coeff in reversed(_ERF_COEFFS[1:-1]):
            p += coeff
            p *= t
        with np.errstate(over="ignore"):              # |x| > ~1.34e154: inf, and exp gives 0
            np.multiply(z, z, out=o)
        np.subtract(_ERF_COEFFS[0], o, out=o)        # == -(z*z) + c0 exactly
        o += p
        np.exp(o, out=o)
        o *= t                                        # erfc(|s|)
        # erf(s) = 1 - erfc for s >= 0, else erfc - 1 == -(1 - erfc) exactly, so
        # s's sign bit (half's; z is spent) is XORed onto 1 - erfc.  The bit and
        # s >= 0 disagree only at x = -0 and on NaN, where half*p is half's -0
        # or NaN either way.
        np.subtract(1.0, o, out=p)
        sign = z.view(np.uint64)
        np.bitwise_and(half.view(np.uint64), _SIGN_BIT, out=sign)
        np.bitwise_xor(p.view(np.uint64), sign, out=p.view(np.uint64))
        p += 1.0
        # GELU's limit at x = -inf is -0, where half*p would be -inf*0 = NaN.
        # Wherever half < -1e300, z*z overflows and p is exactly 0, so the
        # clamp changes the bits of no other input (NaN stays NaN).
        np.maximum(half, -1e300, out=half)
        np.multiply(half, p, out=o)
    return out


def layer_kernels(params, l, kernel_limit=None):
    """The H kernels of length L as one H x L array, zeroed from ``kernel_limit`` on."""
    limit = None if kernel_limit is None else _count("kernel_limit", kernel_limit)
    _check_layout(params)
    kernels = diagonal_kernels(params.variant, *_diagonal_form(params), l)
    if limit is not None:
        kernels[:, limit:] = 0.0
    return kernels


def _layer_plan(params, mode, l, kernel_limit):
    """The parameter-only work of a mode at length l, built once and kept on params.

    In ``conv`` mode the plan is the spectrum of :func:`layer_kernels`
    (its finiteness checked once, when built); in ``recurrent`` mode it is
    the scan's tables.  Each mode keeps its latest plan, reused while the
    key matches: the variant, sizes, l, kernel_limit (None in recurrent
    mode), and the dtype and bytes of the four arrays the kernels read, so
    an in-place edit of any of them builds a new plan.
    :func:`_check_layout` has fixed their shapes and kinds, so equal keys
    mean equal parameters.
    """
    arrays = (params.lambda_re, params.lambda_im, params.delta_log, params.w)
    key = (params.variant, params.h, params.n, l, kernel_limit,
           *((a.dtype, a.tobytes()) for a in map(np.asarray, arrays)))
    kept = params._plans.get(mode)
    if kept is None or kept[0] != key:
        if mode == "conv":
            kernels = _numbers("kernel", layer_kernels(params, l, kernel_limit), finite=True)
            plan = _kernel_spectrum(kernels)
        else:
            plan = _scan_plan(params.variant, *_diagonal_form(params), params.h, l)
        kept = params._plans[mode] = (key, plan)
    return kept[1]


def ssm_outputs(params, u, mode="conv", kernel_limit=None):
    """Per-coordinate state-space outputs y, before residual and projection.

    ``mode="conv"`` convolves each coordinate with its kernel (FFT path);
    ``mode="recurrent"`` runs the recurrences instead, all coordinates and
    batch rows in one chunked scan over a (B,H,N) state, for every variant
    (``recurrence._scan_plan`` then ``_scan_run``, the two halves of
    :func:`~diagssm.recurrence.chunked_scan`).  Each mode's parameter-only
    work (its plan: the kernels' spectrum, or the scan's tables) is done
    once per layer and kept until the parameters, L or ``kernel_limit``
    change (:func:`_layer_plan`); a layer keeps one plan per mode, so calls
    that alternate modes rebuild neither.  The scan's step factors come from
    lam*dt alone, so it shares no closed form with the kernels.  Every
    exponent's real part is non-positive except one: softmax modes with
    Re(lam) > 0 accumulate and are scaled at read-out, and where such a
    mode's growth over the whole sequence is at most e^36 it runs in a
    read-out frame, as a near mode of its own rate lam*dt with
    s = e^{-lam*dt*(L-1)} on its impulse and injection, whose decay
    compounds to at most e^36 over the sequence
    (``recurrence._FRAME_SPAN``).  Both modes run at ``DEFAULT_EPS`` and
    agree to rounding.  Kernel truncation only exists on
    the convolution path: a truncated kernel is no longer the impulse
    response of the underlying recurrence.  Returns a new C-contiguous array
    of u's shape.

    Both views share one layout check (:func:`_check_layout`) and one
    parameter check, and refuse the same parameters.  Raises ValueError
    naming ``u`` when the input holds NaN or +-inf (checked on every call,
    after the parameters): in either mode one NaN would otherwise spread
    to earlier positions.  Each view computes a row apart from the others,
    so a row's bits depend neither on the rest of its batch nor on the
    blocks the convolution runs in.  A row whose transform or
    scan overflows runs again scaled by a power of two
    (``cnum._rows_in_range``), and where the output itself leaves float
    range, both raise ValueError("state-space output leaves float range"),
    with no warning.
    """
    _check_layout(params)
    u = _numbers("input u", u)
    if u.ndim != 3:
        raise ValueError("input must have shape (batch, coordinates, length)")
    _, h, l = u.shape
    if h != params.h:
        raise ValueError("coordinate count does not match the layer")
    if l < 1:
        raise ValueError("input length must be >= 1")
    if _choice("mode", mode, ("conv", "recurrent")) == "conv":
        limit = None if kernel_limit is None else _count("kernel_limit", kernel_limit)
        spectrum = _layer_plan(params, "conv", l, limit)
        return _conv_by_spectrum(spectrum, _numbers("input u", u, finite=True))
    if kernel_limit is not None:
        raise ValueError("kernel_limit requires conv mode")
    return _scan_run(_layer_plan(params, "recurrent", l, None), u)


def layer_forward(params, u, mode="conv", kernel_limit=None):
    """Full layer: out_t = W_out . gelu(y_t + u_t) + b_out, position-wise.

    Returns the float64 array :func:`ssm_outputs` allocated, overwritten
    in place by the residual, the GELU and the projection, so the output
    is the call's only (B, H, L) array.  Beyond it and the mode's own
    scratch, the call holds the GELU's block buffers (:func:`_gelu_into`)
    and one projection scratch of ``_PROJECTION_BLOCK`` floats: each batch
    row is projected through BLAS one block of ``_PROJECTION_BLOCK // H``
    columns at a time (several rows per product when whole rows fit).  A
    row that fits one block is the same BLAS call as ``w_out @ y`` makes
    per row, bit for bit; across blocks, BLAS may sum a block's columns in
    another order (numpy takes gemv for a single column), so the result
    agrees with the whole-array product to the rounding of an H-term dot
    product.

    Raises ValueError naming the field of a layer that
    :func:`_check_layout` refuses, and naming ``u`` when the input holds a
    non-finite value (see :func:`ssm_outputs`).  A residual, projection or
    bias add whose finite operands give a result past float range raises
    ValueError("layer output leaves float range") in either mode, with no
    warning; the check is numpy's own overflow flag on each call, so it
    adds no pass.  An SSM output past float range raises first, in
    :func:`ssm_outputs`.
    """
    u = _numbers("input u", u)
    y = ssm_outputs(params, u, mode, kernel_limit)    # a fresh C-contiguous array
    h, l = y.shape[1:]
    cols = min(l, max(1, _PROJECTION_BLOCK // h))
    rows = max(1, _PROJECTION_BLOCK // (h * cols))     # > 1 only when whole rows fit
    scratch = np.empty(rows * h * cols)
    try:
        with np.errstate(over="raise"):               # the GELU's z*z keeps its own "ignore"
            y += u
            _gelu_into(y, y)
            for lead in range(0, len(y), rows):
                for lo in range(0, l, cols):
                    block = y[lead:lead + rows, :, lo:lo + cols]
                    tmp = scratch[:block.size].reshape(block.shape)   # C-contiguous for BLAS
                    np.matmul(params.w_out, block, out=tmp)
                    np.copyto(block, tmp)
            # One add over the whole array: numpy's broadcast add over a
            # block's short rows ran 2-3x slower per element than this one pass.
            y += params.b_out[:, None]
    except FloatingPointError:
        raise ValueError("layer output leaves float range") from None
    return y


@dataclass
class KernelStats:
    argmax_pos: np.ndarray      # length H, int
    profiles: np.ndarray        # H x L, each row |K|/max|K| (zeros stay zero)
    argmax_p95: int


def kernel_stats(params, l):
    """Peak positions and max-normalized magnitude profiles of the kernels.

    argmax ties resolve to the lowest index; an all-zero kernel reports
    argmax 0 and an all-zero profile.  The summary statistic is the
    nearest-rank 95th percentile of the argmax positions, the
    ceil(0.95*H)-th smallest.
    """
    kernels = layer_kernels(params, l)
    mags = np.abs(kernels)
    argmax = mags.argmax(axis=1)
    peaks = mags.max(axis=1)
    safe = np.where(peaks > 0.0, peaks, 1.0)
    profiles = mags / safe[:, None]
    return KernelStats(
        argmax_pos=argmax.astype(int),
        profiles=profiles,
        argmax_p95=int(np.quantile(argmax, 0.95, method="inverted_cdf")),
    )


TOY_SLOW_MODE_RATE = 1.5      # radians per step for the slowest spectral mode
TOY_DECAY_OVER_WINDOW = 0.7   # envelope falls to exp(-0.7) across the window
TOY_INIT_ENERGY = 0.15        # mean squared value of the initial kernel
TOY_SEGMENT = 100             # steps between logged losses, and between loss checks


def _toy_system(n, l, lag, seed):
    """:func:`train_toy_delay`'s frozen set-up: (z, coef, theta_a, bordered).

    z = lam*dt and coef = (e^z - 1)/lam are the (N,) rates and exp input
    maps of the toy's spectrum and sample time, so the kernel of weights w
    is Re sum_i w_i g_i with g_ik = coef_i e^{z_i k}: K = theta @ lift for
    theta = [Re w; Im w] and the 2N x L rows lift = [Re g; -Im g], which
    are never formed.  bordered is [[G, -p], [-p^T, 1]], G = lift @ lift.T
    in closed form (``kernel._exp_gram``) and p = lift[:, lag] =
    [Re g(lag); -Im g(lag)].  theta_a = [theta; 1] holds the seed's weights,
    rescaled so the kernel's mean square theta^T G theta / L is
    ``TOY_INIT_ENERGY``.
    """
    spectrum = skew_hippo_lambda(n)
    delta = TOY_SLOW_MODE_RATE / float(spectrum.lambda_im[-1])
    lambda_re = np.full(n, math.log(TOY_DECAY_OVER_WINDOW / (delta * l)))
    lam = -np.exp(lambda_re) + 1j * spectrum.lambda_im
    # delta goes through its log and back, as a stored delta_log would.
    _, coef, z, _ = _diagonal_rates("exp", lam, np.exp([math.log(delta)]), np.ones((1, n)), 1, l)
    # e^{z k} is periodic in Im z: reduced to [-pi, pi], z*k rounds at ulps of
    # pi*k rather than of |Im z|*k (up to 7409*k at N = 32).
    z, coef = _complex(z[0].real, _reduce_phase(z[0].imag)), coef[0]
    k = 2 * n
    gram = _exp_gram(z, coef, l)
    bordered = np.empty((k + 1, k + 1))
    bordered[:k, :k] = gram
    at_lag = coef * np.exp(z * lag)
    bordered[:n, k], bordered[n:k, k] = -at_lag.real, at_lag.imag
    bordered[k, :k] = bordered[:k, k]
    bordered[k, k] = 1.0
    w = SplitMix64(seed).normals(k).view(np.complex128)
    theta = np.concatenate([w.real, w.imag])
    theta_a = np.ones(k + 1)
    energy = float(theta @ gram @ theta) / l
    np.multiply(theta, math.sqrt(TOY_INIT_ENERGY / energy), out=theta_a[:k])
    return z, coef, theta_a, bordered


def _toy_kernel(z, coef, theta, l):
    """The kernel theta @ lift of :func:`_toy_system`'s rates z and input maps
    coef, as one row of the kernels' blocked product (``kernel._blocked_kernel``)."""
    n = len(z)
    return _blocked_kernel(_complex(theta[:n], theta[n:]) * coef, *_exp_blocks(z, l), l)


def train_toy_delay(n, l, lag, steps, lr=2e-3, seed=0):
    """Fit a single exp-variant kernel to a unit impulse at position lag.

    Minimizes mean((K - impulse)^2) over the complex weights with the
    analytic kernel gradient and Adam (beta1=0.9, beta2=0.999, eps=1e-8).
    The spectrum and sample time stay frozen at a setup chosen for the
    task, which keeps the fit convex in the trained parameters.  The kernel
    is then linear in theta = [Re w, Im w]: K = theta @ lift for a real
    2N x L lift (see :func:`_toy_system`), so the loss is a quadratic in
    theta and needs only the 2N x 2N Gram matrix G = lift @ lift.T and
    p = lift[:, lag].  Neither needs the lift: G is a sum of geometric
    series in closed form, O(N^2) at any L (``kernel._exp_gram``), and p
    is one exponential per mode.  Both are bordered into
    M = [[G, -p], [-p^T, 1]]; with theta_a = [theta; 1], one
    (2N+1) x (2N+1) product gives M @ theta_a = [back; 1 - p . theta],
    where back = G @ theta - p = lift @ (K - impulse) is the gradient times
    L/2, and theta_a . (M @ theta_a) = L * mse.  Adam's gradient scale,
    bias corrections and lr fold into two scalars per step, c_t and e_t.
    Steps run in 100-step segments: the loss is logged and checked at a
    segment's start, and its c_t and e_t formed in one pass, so a step is
    the bordered product and eight ufunc calls.  A segment that may hide
    an overflowed loss reruns checking every loss, so divergence is
    reported at the first step whose loss is not finite.  At N = 32,
    L = 1024 the default lr, 2e-3, recovered lag 1000 on each of 4502
    seeds surveyed; 1e-3 stopped ~3% above the optimum on a few.  The
    rates are reduced modulo 2 pi, so the logged losses (from M) and the
    final MSE (from the kernel, one blocked row) are both within a few
    ulps of (1 + |K|^2) / L of the loss of the kernel from exact
    exponents, and a fit that can be exact (L <= 2N) may log one a hair
    below 0; the final MSE and argmax come from the kernel itself.  The
    setup:

    * the shared spectrum is the long-memory initialization, with the
      sample time set so the slowest mode advances ~1.5 rad per step
      (slower modes would be indistinguishable from constants, faster
      ones alias into noise);
    * every mode decays by only exp(-0.7) across the window, so the
      kernel's reach covers any admissible lag from the start;
    * the random initial weights are rescaled so the initial kernel has
      mean square 0.15 -- an energetic start whose removal, along with
      the placement of the peak at the lag, is what training has to do.

    A lag far beyond typical kernel-peak positions makes this a small
    long-range capability check.  n, l and steps are counts >= 1, lag one
    below l, and lr a positive scalar, taken as a Python float.  Returns a
    report dict with the loss history every 100 steps.
    """
    n, l, steps = _count("n", n), _count("l", l), _count("steps", steps)
    if _count("lag", lag, low=0) >= l:
        raise ValueError("lag must satisfy 0 <= lag < l")
    # A numpy lr would make the step scalars and the overflow guard its dtype.
    lr = float(_positive("lr", lr))
    # theta_a = [theta; 1] and the bordered Gram matrix: bordered @ theta_a
    # is back_a = [back; 1 - p . theta], and theta_a . back_a = L * mse.
    z, coef, theta_a, bordered = _toy_system(n, l, lag, seed)
    k = 2 * n
    target = np.zeros(l)
    target[lag] = 1.0

    beta1, beta2, eps_opt = 0.9, 0.999, 1e-8
    betas = np.empty((2, k + 1))        # same shape as ema: a plain, not a broadcast, multiply
    betas[0], betas[1] = beta1, beta2
    # Row 0 of terms is back_a, row 1 its square.  ema holds Adam's moments as
    # unnormalized EMAs of those rows, a_t = beta1 a + back and
    # b_t = beta2 b + back^2, so m_t = (1 - beta1) (2/L) a_t and
    # v_t = (1 - beta2) (2/L)^2 b_t.  Adam's lr m_hat / (sqrt(v_hat) + eps)
    # is then c_t a / (sqrt(b) + e_t) with r_t = sqrt((1 - beta2) /
    # (1 - beta2^t)), c_t = lr (1 - beta1) / ((1 - beta1^t) r_t) and
    # e_t = eps / ((2/L) r_t).  Only the first 2N entries of a, b and
    # theta_a take part in the update; theta_a's 1 stays put.
    terms, ema = np.zeros((2, 2, k + 1))
    back, theta, a, b = terms[0], theta_a[:k], ema[0, :k], ema[1, :k]
    upd = np.empty(k)
    grad_scale = 2.0 / l
    # A step is per-call overhead on short vectors, so the calls are bound
    # once and take out positionally.
    gram_dot, loss_dot, square = bordered.dot, theta_a.dot, terms[1]
    add, subtract, multiply, sqrt, divide = np.add, np.subtract, np.multiply, np.sqrt, np.divide

    def loss(step):
        """The MSE at theta_a; one that is not finite is divergence at step."""
        gram_dot(theta_a, back)
        mse = float(loss_dot(back)) / l
        if not math.isfinite(mse):
            raise RuntimeError(f"training diverged at step {step}")
        return mse

    def advance(start, stop):
        """Adam steps start .. stop - 1, with no loss taken."""
        # The powers go through Python's **: np.power rounds differently.
        t = range(start + 1, stop + 1)
        r = np.sqrt((1.0 - beta2) / (1.0 - np.fromiter([beta2 ** i for i in t], float)))
        c = lr * (1.0 - beta1) / ((1.0 - np.fromiter([beta1 ** i for i in t], float)) * r)
        e = eps_opt / (grad_scale * r)
        for c_t, e_t in zip(c.tolist(), e.tolist()):
            gram_dot(theta_a, back)
            multiply(back, back, square)
            multiply(ema, betas, ema)
            add(ema, terms, ema)
            sqrt(b, upd)
            add(upd, e_t, upd)
            divide(a, upd, upd)
            multiply(upd, c_t, upd)
            subtract(theta, upd, theta)

    history = []
    # Divergence is the finiteness checks' to report; one context, not one per step.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, TOY_SEGMENT):
            stop = min(start + TOY_SEGMENT, steps)
            history.append({"step": start, "mse": loss(start)})
            # A step moves an entry of theta by at most ~7.3 lr, so here
            # |theta| stays below 1e150.  If theta and ema end finite (b is
            # inf or NaN once any |back| >= 1.34e154), no loss overflowed;
            # otherwise the segment reruns from its start, checking each loss.
            if float(np.abs(theta).max()) + 1e3 * lr < 1e150:
                start_theta, start_ema = theta.copy(), ema.copy()
                advance(start, stop)
                if np.isfinite(theta).all() and np.isfinite(ema).all():
                    continue
                theta[:], ema[:] = start_theta, start_ema
            for step in range(start, stop):
                loss(step)
                advance(step, step + 1)
        final_kernel = _toy_kernel(z, coef, theta, l)
        final_resid = final_kernel - target
        final_mse = float(np.mean(final_resid * final_resid))
    if not np.isfinite(final_mse):
        raise RuntimeError(f"training diverged at step {steps}")
    history.append({"step": steps, "mse": final_mse})
    return {
        "n": n,
        "l": l,
        "lag": lag,
        "steps": steps,
        "lr": lr,
        "seed": seed,
        "initial_mse": history[0]["mse"],
        "final_mse": final_mse,
        "final_argmax": int(np.argmax(np.abs(final_kernel))),
        "history": history,
    }


def _json_default(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def _to_json(obj):
    """obj as compact JSON text; ndarrays and numpy scalars go through tolist().

    Floats are written as Python's shortest round-trip decimal.  Raises
    ValueError on a non-finite value, which JSON cannot hold.
    """
    try:
        return json.dumps(obj, allow_nan=False, separators=(",", ":"), default=_json_default)
    except ValueError as exc:
        raise ValueError(f"cannot write a non-finite value as JSON ({exc})") from None


def params_to_json(params):
    """Serialize layer parameters; every float reads back bit for bit.

    Raises ValueError where :func:`_check_layout` does, so what this writes
    loads again, and on a non-finite value, which JSON cannot hold.
    """
    _check_layout(params)
    fields = {"version": PARAMS_FORMAT_VERSION, "variant": params.variant,
              "h": params.h, "n": params.n}
    for name in LayerParams._LAYOUT:        # w is written as its real and imaginary parts
        value = getattr(params, name)
        fields.update({"w_re": value.real, "w_im": value.imag} if name == "w" else {name: value})
    return _to_json(fields)


def _write_text(path, text):
    """Write text and a newline to path; form text first, so a refusal leaves the file."""
    with open(path, "w") as fh:
        fh.write(text + "\n")


def save_layer_params(path, params):
    _write_text(path, params_to_json(params))


def _finite_float(token):
    if not math.isfinite(value := float(token)):
        raise ValueError(f"parameter file holds the non-finite number {token}")
    return value


def _entry(raw, key):
    if key not in raw:
        raise ValueError(f"parameter file lacks {key}")
    return raw[key]


def _holds_bool(value):
    return isinstance(value, bool) or isinstance(value, list) and any(map(_holds_bool, value))


def _file_array(raw, key):
    """raw[key] as a float array; ValueError names a null, boolean, non-numeric or ragged entry."""
    value = _entry(raw, key)
    if _holds_bool(value):              # numpy would cast true among numbers to 1.0
        raise ValueError(f"{key} must hold numbers only, got a boolean entry")
    try:
        value = np.array(value)
    except ValueError:                  # ragged nesting
        raise ValueError(f"{key} is not a rectangular array of numbers") from None
    if value.dtype.kind not in "iuf":
        raise ValueError(f"{key} must hold numbers only, got {value.dtype} entries")
    return value.astype(float, copy=False)


def params_from_json(text):
    """Layer parameters from the text :func:`params_to_json` writes.

    Raises ValueError on a missing key, a version other than the integer
    1, a non-finite number, a null, boolean, non-numeric or ragged array,
    and where :func:`_check_layout` does, naming the key.
    """
    raw = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    if not isinstance(raw, dict):
        raise ValueError("parameter file is not a JSON object")
    version = _entry(raw, "version")
    if type(version) is not int or version != PARAMS_FORMAT_VERSION:     # true == 1.0 == 1
        raise ValueError("unsupported parameter file version")
    arrays = {name: _file_array(raw, name) for name in LayerParams._LAYOUT if name != "w"}
    try:  # w.imag = im would broadcast
        w = _complex(_file_array(raw, "w_re"), _file_array(raw, "w_im"))
    except ValueError:
        raise ValueError("w_re and w_im shapes differ") from None
    params = LayerParams(variant=_entry(raw, "variant"), h=_entry(raw, "h"), n=_entry(raw, "n"),
                         w=w, **arrays)
    _check_layout(params)
    return params


def load_layer_params(path):
    with open(path) as fh:
        return params_from_json(fh.read())


def write_report_json(path, report):
    """Training report as JSON; every float reads back bit for bit."""
    _write_text(path, _to_json(report))
