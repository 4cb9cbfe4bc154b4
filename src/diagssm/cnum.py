"""Bounded arithmetic over complex vectors, including a safe softmax.

The softmax of a complex vector is not always defined: the sum of
exponentials in the denominator can vanish (e.g. exp(0) + exp(i*pi) = 0),
and even when it does not, the exponentials themselves can overflow.  The
routines here remove both failure modes.  Exponents are shifted by the
entry with the largest real part, so every exponential has magnitude at
most one, and the final division goes through an eps-regularized
reciprocal that is total on the complex plane.
"""

import numpy as np

# Regularization strength used throughout the package unless overridden.
DEFAULT_EPS = 1e-7


def reciprocal_eps(x, eps=DEFAULT_EPS):
    """Bounded substitute for 1/x: conj(x) / (x*conj(x) + eps).

    The denominator is real and at least eps, so the result is finite for
    every finite input and its magnitude never exceeds 1/(2*sqrt(eps)).
    Accepts scalars or arrays of any shape; eps must be finite and > 0.
    """
    if not 0.0 < eps < np.inf:      # false for NaN too
        raise ValueError("eps must be finite and positive")
    x = np.asarray(x, dtype=np.complex128)
    return x.conj() / (x.real * x.real + x.imag * x.imag + eps)


def cmax_by_real(x):
    """Return (index, value) of the entry with the largest real part.

    Ties resolve to the lowest index.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.complex128)).ravel()
    if x.size == 0:
        raise ValueError("empty vector")
    idx = int(np.argmax(x.real))
    return idx, complex(x[idx])


def softmax_eps(x, eps=DEFAULT_EPS):
    """Softmax of a complex vector, finite for every finite input.

    Subtracts the entry with the largest real part (making every
    exponential have magnitude <= 1), then multiplies by the eps-stabilized
    reciprocal of the sum of exponentials.  Where the plain softmax is well
    defined the result agrees with it up to an O(eps) perturbation; where
    the plain softmax would divide by zero this returns (near-)zeros
    instead of NaN.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.size == 0:
        raise ValueError("empty vector")
    _, m = cmax_by_real(x)
    e = np.exp(x - m)
    return e * reciprocal_eps(np.sum(e), eps)
