"""A single diagonal-state sequence-mixing layer, and a toy trainer.

The layer maps a batch of H-coordinate, length-L sequences to sequences of
the same shape.  All H coordinates share one diagonal spectrum; each
coordinate h has its own sample time delta_h and complex weight row W[h],
from which a length-L kernel is built and convolved with that coordinate's
input.  A residual connection, a GELU, and a position-wise H x H output
projection follow.  Excluding the projection, the kernel machinery holds
exactly 2N + H + 2HN real parameters.

Randomness is fully pinned: a splitmix64 generator drives Box-Muller
sampling, and the stream layout is documented on :class:`SplitMix64` so a
port in any language can reproduce the parameters bit for bit from a seed.
To reproduce the parameter file's text too, a port must write floats as
their shortest round-trip decimals, as Python's ``json`` does.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .cnum import DEFAULT_EPS
from .fftconv import causal_conv_fft
from .hippo import skew_hippo_lambda
from .kernel import KernelParams, VARIANTS, _diagonal_form, diagonal_kernels, exp_basis, truncate_kernel
from .recurrence import chunked_scan
# Bound only because ssmbench/tracer.py wraps these names here; the layer calls none.
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
    next call.  Ports must reproduce this exact consumption order.
    """

    def __init__(self, seed):
        self._state = int(seed) & _MASK64
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


@dataclass
class LayerParams:
    variant: str
    h: int
    n: int
    lambda_re: np.ndarray   # length N, shared across coordinates
    lambda_im: np.ndarray   # length N
    delta_log: np.ndarray   # length H
    w: np.ndarray           # H x N complex
    w_out: np.ndarray       # H x H
    b_out: np.ndarray       # length H

    def coordinate_kernel_params(self, h_idx):
        """Kernel parameters of a single coordinate."""
        return KernelParams(
            variant=self.variant,
            lambda_re=self.lambda_re,
            lambda_im=self.lambda_im,
            w=self.w[h_idx],
            delta_log=float(self.delta_log[h_idx]),
        )


def _check_sizes(h, n, variant):
    """h and n must be integers >= 1 (bools are not), variant one of ``VARIANTS``."""
    for name, size in (("h", h), ("n", n)):
        if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {size!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")


# The layer's arrays and their shapes, one letter per axis: "h" for H, "n" for N.
_LAYOUT = {"lambda_re": "n", "lambda_im": "n", "delta_log": "h", "w": "hn",
           "w_out": "hh", "b_out": "h"}


def _check_layout(params):
    """Refuse, naming the field, a LayerParams not laid out as ``_LAYOUT`` says.

    Also refuses what :func:`_check_sizes` does and a non-finite projection;
    the kernel parameters' values are ``kernel._diagonal_rates``' to check.
    """
    _check_sizes(params.h, params.n, params.variant)
    sizes = {"h": params.h, "n": params.n}
    for name, axes in _LAYOUT.items():
        shape, want = np.shape(getattr(params, name)), tuple(sizes[a] for a in axes)
        if shape != want:
            raise ValueError(f"{name} must have shape {want}, got {shape}")
    for name in ("w_out", "b_out"):
        if not np.isfinite(getattr(params, name)).all():
            raise ValueError(f"{name} must be finite, got a non-finite entry")


DELTA_INIT_LOW = 0.001
DELTA_INIT_HIGH = 0.1


def init_layer(h, n, variant, seed):
    """Seeded layer parameters.

    The shared spectrum comes from :func:`skew_hippo_lambda`; for the exp
    family lambda_re stores log(1/2) so the effective real part is -1/2 at
    init, matching the softmax variant.  Each delta is log-uniform in
    [0.001, 0.1].  W's real and imaginary parts are standard normal.  The
    projection starts as the identity with zero bias, keeping the layer
    near-passthrough.  Draw order: H uniforms for delta_log, then W row by
    row, real part before imaginary part.
    """
    _check_sizes(h, n, variant)
    spectrum = skew_hippo_lambda(n)
    if variant == "softmax":
        lambda_re = spectrum.lambda_re.copy()
    else:
        lambda_re = np.full(n, math.log(0.5))
    rng = SplitMix64(seed)
    lo, hi = math.log(DELTA_INIT_LOW), math.log(DELTA_INIT_HIGH)
    delta_log = np.array([lo + rng.uniform() * (hi - lo) for _ in range(h)])
    w = np.empty((h, n), dtype=np.complex128)
    for row in range(h):
        for col in range(n):
            w[row, col] = complex(rng.normal(), rng.normal())
    return LayerParams(
        variant=variant,
        h=h,
        n=n,
        lambda_re=lambda_re,
        lambda_im=spectrum.lambda_im.copy(),
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

# Elements per gelu block: the block's input, output and four scratch
# buffers stay in a core's L2 cache across the ~35 passes of the formula.
_GELU_BLOCK = 1 << 15


def gelu(x):
    """GELU 0.5*x*(1 + erf(x/sqrt(2))), with erf from Numerical Recipes' erfcc.

    The exact form is evaluated with the erfcc rational approximation,
    whose absolute error against math.erf is at most 8.3e-8 in erf and
    1.4e-8 in gelu (200k seeded points in [-10, 10]).

    Returns a new array of x's shape; x is not written to.  The flattened
    input is processed in blocks of ``_GELU_BLOCK`` elements, each through
    block-sized scratch buffers, so the temporaries stay in cache; every
    element sees the same operations in the same order whatever the block
    size.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    src, dst = x.reshape(-1), out.reshape(-1)
    size = min(src.size, _GELU_BLOCK)
    z_buf, t_buf, p_buf = np.empty(size), np.empty(size), np.empty(size)
    nonneg_buf = np.empty(size, dtype=bool)
    for lo in range(0, src.size, _GELU_BLOCK):
        xb, o = src[lo:lo + _GELU_BLOCK], dst[lo:lo + _GELU_BLOCK]
        z, t, p, nonneg = (buf[:xb.size] for buf in (z_buf, t_buf, p_buf, nonneg_buf))
        np.divide(xb, _SQRT2, out=z)                  # s = x/sqrt(2)
        np.greater_equal(z, 0.0, out=nonneg)
        np.abs(z, out=z)
        np.multiply(z, 0.5, out=t)
        t += 1.0
        np.divide(1.0, t, out=t)
        np.multiply(t, _ERF_COEFFS[-1], out=p)
        for coeff in reversed(_ERF_COEFFS[1:-1]):
            p += coeff
            p *= t
        np.multiply(z, z, out=o)
        np.negative(o, out=o)
        o += _ERF_COEFFS[0]
        o += p
        np.exp(o, out=o)
        o *= t                                        # erfc(|s|)
        # erf(s) = 1 - erfc for s >= 0, else erfc - 1; 1 - erfc == -(erfc - 1) exactly
        np.subtract(o, 1.0, out=p)
        np.negative(p, out=p, where=nonneg)
        p += 1.0
        np.multiply(xb, 0.5, out=o)
        o *= p
    return out if out.ndim else out[()]


def layer_kernels(params, l, eps=DEFAULT_EPS, kernel_limit=None):
    """The H per-coordinate kernels of length L, as one H x L array."""
    kernels = diagonal_kernels(params.variant, *_diagonal_form(params), l, eps)
    if kernel_limit is not None:
        kernels = truncate_kernel(kernels, kernel_limit)
    return kernels


def ssm_outputs(params, u, mode="conv", kernel_limit=None, eps=DEFAULT_EPS):
    """Per-coordinate state-space outputs y, before residual and projection.

    ``mode="conv"`` convolves each coordinate with its kernel (FFT path);
    ``mode="recurrent"`` runs the recurrences instead, all coordinates and
    batch rows in one :func:`~diagssm.recurrence.chunked_scan` over a
    (B,H,N) state, for every variant.  The scan's step factors come from
    lam*dt alone, with every exponent's real part non-positive (softmax
    modes with Re(lam) > 0 accumulate first and are scaled at read-out),
    so it shares no closed form with the kernels.  The two modes agree to
    rounding.  Kernel truncation only exists on the convolution path: a
    truncated kernel is no longer the impulse response of the underlying
    recurrence.

    Both views share one layout check (:func:`_check_layout`) and one
    parameter check, and refuse the same parameters.  Raises ValueError
    naming ``u`` when the input holds NaN or +-inf (the convolution and
    the scan each check the input they consume): in either mode one NaN
    would otherwise spread to earlier positions.
    """
    _check_layout(params)
    u = np.asarray(u, dtype=float)
    if u.ndim != 3:
        raise ValueError("input must have shape (batch, coordinates, length)")
    _, h, l = u.shape
    if h != params.h:
        raise ValueError("coordinate count does not match the layer")
    if l < 1:
        raise ValueError("input length must be >= 1")
    if mode not in ("conv", "recurrent"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "conv":
        return causal_conv_fft(layer_kernels(params, l, eps, kernel_limit), u)
    if kernel_limit is not None:
        raise ValueError("kernel_limit requires conv mode")
    return chunked_scan(params.variant, *_diagonal_form(params), u, eps)


def layer_forward(params, u, mode="conv", kernel_limit=None, eps=DEFAULT_EPS):
    """Full layer: out_t = W_out . gelu(y_t + u_t) + b_out, position-wise.

    Raises ValueError naming the field of a layer that
    :func:`_check_layout` refuses, and naming ``u`` when the input holds a
    non-finite value (see :func:`ssm_outputs`).
    """
    u = np.asarray(u, dtype=float)
    y = ssm_outputs(params, u, mode, kernel_limit, eps)    # a fresh array
    y += u
    out = params.w_out @ gelu(y)       # (H, H) @ (B, H, L), through BLAS
    out += params.b_out[:, None]
    return out


def nearest_rank_percentile(values, p):
    """The ceil(p*N)-th smallest value (1-based nearest-rank percentile)."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("empty sample")
    return np.quantile(values, p, method="inverted_cdf")


@dataclass
class KernelStats:
    argmax_pos: np.ndarray      # length H, int
    profiles: np.ndarray        # H x L, each row |K|/max|K| (zeros stay zero)
    argmax_p95: int


def kernel_stats(params, l, eps=DEFAULT_EPS):
    """Peak positions and max-normalized magnitude profiles of the kernels.

    argmax ties resolve to the lowest index; an all-zero kernel reports
    argmax 0 and an all-zero profile.  The summary statistic is the
    nearest-rank 95th percentile of the argmax positions.
    """
    kernels = layer_kernels(params, l, eps)
    mags = np.abs(kernels)
    argmax = mags.argmax(axis=1)
    peaks = mags.max(axis=1)
    safe = np.where(peaks > 0.0, peaks, 1.0)
    profiles = mags / safe[:, None]
    return KernelStats(
        argmax_pos=argmax.astype(int),
        profiles=profiles,
        argmax_p95=int(nearest_rank_percentile(argmax, 0.95)),
    )


TOY_SLOW_MODE_RATE = 1.5      # radians per step for the slowest spectral mode
TOY_DECAY_OVER_WINDOW = 0.7   # envelope falls to exp(-0.7) across the window
TOY_INIT_ENERGY = 0.15        # mean squared value of the initial kernel


def _cache_aligned_empty(shape):
    """An uninitialized float array whose data starts on a 64-byte boundary."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = (-raw.ctypes.data) % 64 // 8
    return raw[start:start + size].reshape(shape)


def train_toy_delay(n, l, lag, steps, lr=1e-3, seed=0):
    """Fit a single exp-variant kernel to a unit impulse at position lag.

    Minimizes mean((K - impulse)^2) over the complex weights with the
    analytic kernel gradient and Adam (beta1=0.9, beta2=0.999, eps=1e-8).
    The spectrum and sample time stay frozen at a setup chosen for the
    task, which keeps the fit convex in the trained parameters.  The kernel
    is then linear in the weights, so the N x L basis of
    :func:`~diagssm.kernel.exp_basis` is built once, and each step is two
    matrix-vector products with it: the kernel, and the gradient
    (``kernel_grad_exp``'s ``d_w_re`` and ``d_w_im``).  The setup:

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
    long-range capability check.  Returns a report dict with the loss
    history every 100 steps.
    """
    if not all(isinstance(v, (int, np.integer)) for v in (n, l, lag, steps)):
        raise ValueError("n, l, lag and steps must be integers")
    if not 0 <= lag < l:
        raise ValueError("lag must satisfy 0 <= lag < l")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    spectrum = skew_hippo_lambda(n)
    delta = TOY_SLOW_MODE_RATE / float(spectrum.lambda_im[-1])
    lambda_re = np.full(n, math.log(TOY_DECAY_OVER_WINDOW / (delta * l)))
    delta_log = math.log(delta)
    rng = SplitMix64(seed)
    w = np.array([complex(rng.normal(), rng.normal()) for _ in range(n)])
    basis = exp_basis(KernelParams(variant="exp", lambda_re=lambda_re,
                                   lambda_im=spectrum.lambda_im, w=w,
                                   delta_log=delta_log), l)
    # theta = [Re w, Im w] maps to the kernel through one real 2N x L
    # matrix, and the gradient of upstream . K is that matrix times upstream.
    # Both products read it every step; numpy only aligns data to 16 bytes,
    # and on an AVX-512 Xeon core BLAS ran them about 1.7x slower when it
    # did not start on a 64-byte cache line.
    lift = _cache_aligned_empty((2 * n, l))
    lift[:n], lift[n:] = basis.real, -basis.imag
    theta = np.concatenate([w.real, w.imag])
    k0 = theta @ lift
    theta = theta * math.sqrt(TOY_INIT_ENERGY / float(np.mean(k0 * k0)))
    target = np.zeros(l)
    target[lag] = 1.0

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    beta1, beta2, eps_opt = 0.9, 0.999, 1e-8

    history = []
    initial_mse = None
    for step in range(steps):
        resid = theta @ lift - target
        mse = float(np.mean(resid * resid))
        if not np.isfinite(mse):
            raise RuntimeError(f"training diverged at step {step}")
        if step == 0:
            initial_mse = mse
        if step % 100 == 0:
            history.append({"step": step, "mse": mse})
        grad = lift @ (2.0 * resid / l)
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1 ** (step + 1))
        v_hat = v / (1.0 - beta2 ** (step + 1))
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps_opt)

    final_kernel = theta @ lift
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
        "initial_mse": initial_mse,
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
    for name in _LAYOUT:        # w is written as its real and imaginary parts
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


def _file_array(raw, key):
    """raw[key] as a float array; ValueError names a null, non-numeric or ragged entry."""
    value = _entry(raw, key)
    try:
        value = np.array(value)
    except ValueError:                  # ragged nesting
        raise ValueError(f"{key} is not a rectangular array of numbers") from None
    if value.dtype.kind not in "iuf":
        raise ValueError(f"{key} must hold numbers only, got {value.dtype} entries")
    return value.astype(float, copy=False)


def params_from_json(text):
    """Layer parameters from the text :func:`params_to_json` writes.

    Raises ValueError on a missing key, a wrong version, a non-finite
    number, a null, non-numeric or ragged array, and where
    :func:`_check_layout` does, naming the key.
    """
    raw = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    if not isinstance(raw, dict):
        raise ValueError("parameter file is not a JSON object")
    if _entry(raw, "version") != PARAMS_FORMAT_VERSION:
        raise ValueError("unsupported parameter file version")
    arrays = {name: _file_array(raw, name) for name in _LAYOUT if name != "w"}
    w_re, w_im = _file_array(raw, "w_re"), _file_array(raw, "w_im")
    try:  # re + 1j*im would turn -0.0 into 0.0, and w.imag = im would broadcast
        w = np.stack([w_re, w_im], axis=-1).view(np.complex128)[..., 0]
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
