"""Spectral initialization of diagonal state matrices with long-range memory.

The initialization starts from a 2N x 2N matrix of the form -I/2 + S with S
skew-symmetric, whose eigenvalues are -1/2 + i*mu in conjugate pairs.  The
diagonal spectrum keeps the N eigenvalues with positive imaginary part.
Only the magnitudes mu are needed, and they are the positive eigenvalues
of the Hermitian matrix i*S, so one Hermitian eigensolve (numpy's
``eigvalsh``) yields them directly.

Every layer of a given N starts from the same spectrum, so mu is solved
once per N per process and kept read-only in a small cache; callers get
fresh, writable copies.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .cnum import _count, _numbers


@dataclass
class DiagSpectrum:
    """Eigenvalues of a diagonal state matrix, split into real/imag parts."""

    lambda_re: np.ndarray
    lambda_im: np.ndarray


def skew_hippo_matrix(n):
    """The 2N x 2N long-memory matrix: -1/2 on the diagonal, and
    sqrt(2i+1)*sqrt(2j+1)/2 above it (negated below).  Indices are 0-based.

    Adding I/2 leaves an exactly skew-symmetric matrix.  n is a count >= 1.
    """
    dim = 2 * _count("n", n)
    root = np.sqrt(2.0 * np.arange(dim) + 1.0)
    outer = np.outer(root, root) / 2.0
    m = np.triu(outer, 1) - np.tril(outer, -1)
    np.fill_diagonal(m, -0.5)
    return m


def symmetric_eigenvalues(m):
    """Eigenvalues of a dense real-symmetric or complex-Hermitian matrix,
    sorted descending (``numpy.linalg.eigvalsh``).

    Raises ValueError naming ``matrix`` if it is empty or not square and
    symmetric (Hermitian) to 1e-12 of its Frobenius norm, or does not hold
    finite real (complex) numbers.  Real input stays on eigvalsh's real path.
    """
    a = _numbers("matrix", m, complex if np.iscomplexobj(m) else float, finite=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix not symmetric")
    if a.size == 0:
        raise ValueError("matrix must be nonempty")
    fro = np.sqrt((np.abs(a) ** 2).sum())
    if np.max(np.abs(a - a.conj().T)) > 1e-12 * max(1.0, fro):
        raise ValueError("matrix not symmetric")
    return np.linalg.eigvalsh(a)[::-1].copy()


# Eight N stay cached: a sweep over more evicts the least recently used
# instead of growing the cache.
@functools.lru_cache(maxsize=8)
def _skew_hippo_mu(n):
    """The magnitudes mu for a validated plain-int n, solved once and kept read-only."""
    s = skew_hippo_matrix(n) + 0.5 * np.eye(2 * n)
    mu = np.linalg.eigvalsh(1j * s)[::-1][:n].copy()
    mu.flags.writeable = False
    return mu


def skew_hippo_lambda(n):
    """Diagonal spectrum -1/2 + i*mu_k, mu_k > 0 sorted descending.

    S, the skew part of :func:`skew_hippo_matrix`, has eigenvalues +-i*mu,
    so the Hermitian matrix i*S has eigenvalues -+mu; the N positive ones
    are the magnitudes.  The real parts are set to -1/2 directly, not read
    off the eigensolver.

    The magnitudes come from ``np.linalg.eigvalsh(1j * s)`` directly, with
    no input validation: S is exactly skew-symmetric and finite by
    construction, so :func:`symmetric_eigenvalues` (the same call behind
    its checks) would accept it and return the same bits.  They are solved
    once per N per process (n is validated first, so the cache is keyed on
    a plain int) and kept read-only; each call returns new, writable
    arrays, so a caller may edit its spectrum freely.
    """
    n = _count("n", n)
    return DiagSpectrum(lambda_re=np.full(n, -0.5), lambda_im=_skew_hippo_mu(n).copy())
