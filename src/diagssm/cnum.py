"""Bounded arithmetic over complex vectors, including a safe softmax.

The softmax of a complex vector is not always defined: the sum of
exponentials in the denominator can vanish (e.g. exp(0) + exp(i*pi) = 0),
and even when it does not, the exponentials themselves can overflow.  The
routines here remove both failure modes.  Exponents are shifted by the
entry with the largest real part, so every exponential has magnitude at
most one, and the final division goes through an eps-regularized
reciprocal that is total on the complex plane.

The package's argument rules live here too, each written once: a count is
an int or numpy integer, not a bool, at least its bound (1 for sizes and
lengths); a positive scalar is a real number, not a bool, finite and > 0;
an array holds bool, integer or real entries (complex where the argument
is complex); a choice is one of a set of strings.  Every public entry
point applies them, and each refusal is a ValueError naming the argument.
"""

import math

import numpy as np

# Regularization strength used throughout the package unless overridden.
DEFAULT_EPS = 1e-7


def _count(name, value, low=1):
    """value as an int: an int or numpy integer, not a bool, and >= low unless low is None."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (
            low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _positive(name, value):
    """value; it must be an int, float or numpy real, not a bool, finite and > 0."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and 0 < value < math.inf):     # false for NaN too
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


def _numbers(name, x, dtype=float, finite=False):
    """x as an array of dtype, not copied if it is one; its entries must be bool,
    integer, real or (for a complex dtype) complex, and with ``finite`` not NaN or inf."""
    real = np.dtype(dtype).kind != "c"
    x = np.asarray(x)
    if x.dtype.kind not in ("biuf" if real else "biufc"):
        raise ValueError(f"{name} must hold {'real ' if real else ''}numbers, got dtype {x.dtype}")
    x = x.astype(dtype, copy=False)
    if finite and not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite (no NaN or inf)")
    return x


def _rows_in_range(run, u):
    """run(u) for a linear map ``run`` that computes each row along u's last
    axis from that row (another row may move its rounding, not its scale),
    with no float overflow left in it.

    numpy's overflow and invalid flags are noted, not warned, so a call that
    raises none costs one ``np.errstate``.  Where one is raised, each row
    whose output is not finite runs again scaled by a power of two to a
    largest magnitude in [0.5, 1), exactly, and its output is scaled back;
    the other rows keep their bits.  A row whose output still leaves float
    range raises ValueError("state-space output leaves float range").
    """
    flagged = []
    with np.errstate(over="call", invalid="call", call=lambda *_: flagged.append(True)):
        y = run(u)
    if not flagged:
        return y
    bad = ~np.isfinite(y).all(axis=-1, keepdims=True)
    if not bad.any():                       # the flag came from no row's output
        return y
    shift = np.where(bad, -np.frexp(np.abs(u).max(axis=-1, keepdims=True))[1], 0)
    try:
        with np.errstate(over="raise", invalid="raise"):
            np.copyto(y, np.ldexp(run(np.ldexp(u, shift)), -shift), where=bad)
    except FloatingPointError:
        raise ValueError("state-space output leaves float range") from None
    return y


def _choice(name, value, choices):
    """value, if it is one of the strings in choices."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"unknown {name} {value!r}")
    return value


def reciprocal_eps(x, eps=DEFAULT_EPS):
    """Bounded substitute for 1/x: conj(x) / (x*conj(x) + eps).

    The denominator is real and at least eps, so the result is finite for
    every finite input and its magnitude never exceeds 1/(2*sqrt(eps)).
    Past 2^500 in either part, where x*conj(x) nears overflow, x and eps
    are scaled by 2^-600, exactly, and the result with them, which is
    about 1/x.  Accepts scalars or arrays of any shape; NaN or inf in x is
    refused; eps is a positive scalar.
    """
    _positive("eps", eps)
    x = _numbers("x", x, np.complex128, finite=True)
    s = np.where(np.maximum(np.abs(x.real), np.abs(x.imag)) > 2.0 ** 500, 2.0 ** -600, 1.0)
    x = _scaled(x, s)
    return _scaled(x.conj() / (x.real * x.real + x.imag * x.imag + eps * s * s), s)[()]


def _scaled(x, s):
    """Complex x times real s, part by part, as an array: a complex product
    rounds (and overflows) in ways that this does not."""
    out = np.empty(np.shape(x), np.complex128)
    out.real, out.imag = np.real(x) * s, np.imag(x) * s
    return out


def softmax_eps(x, eps=DEFAULT_EPS):
    """Softmax of a complex vector, finite for every finite input; NaN or inf is refused.

    Subtracts the entry with the largest real part, the first of equals
    (making every exponential have magnitude <= 1), then multiplies by the
    eps-stabilized reciprocal of the sum of exponentials.  Where the plain
    softmax is well defined the result agrees with it up to an O(eps)
    perturbation; where the plain softmax would divide by zero this
    returns (near-)zeros instead of NaN.
    """
    x = _numbers("x", x, np.complex128, finite=True)
    if x.size == 0:
        raise ValueError("empty vector")
    with np.errstate(over="ignore"):
        shift = x - x.ravel()[np.argmax(x.real)]
    # A shift past float range has real part -inf, whose exp is 0, or an
    # imaginary part of +-inf, a phase that no float resolves: taken as 0.
    e = np.exp(np.where(np.isinf(shift.imag), shift.real, shift))
    return e * reciprocal_eps(np.sum(e), eps)
