"""Closed-form convolution kernels of diagonal state spaces.

A discretized linear state space with state matrix A, input map B and
readout C has the length-L impulse response

    K_k = Re( C exp(A*k*delta) (exp(A*delta) - I) A^{-1} B ),   0 <= k < L.

When A is diagonal with entries lambda_i this collapses to a weighted sum
of sampled exponentials, a Vandermonde product, so the kernel is
computable in O(N*L) without any matrix powers.  :func:`diagonal_kernels`
builds the kernels of a layer's H coordinates, which share the spectrum;
the one-coordinate functions are its H = 1 case.  Exponentials are built
in blocks of 64 positions, e^{z k} = e^{64 z j} * e^{z r} for k = 64 j + r,
then each kernel is one ceil(L/64) x N by N x 64 matrix product (two for
softmax modes on both sides of the imaginary axis), no N x L array.  The
kernels' gradient, :func:`diagonal_kernels_vjp`, is that product's
transpose on the same two tables, again one row at a time and with no
N x L array; ``kernel_grad_exp`` is its H = 1 case.  Every table of powers
in the package, these two and the recurrent scan's, comes from one
primitive that splits it again into two tables of about sqrt(count)
entries: about N*(2*sqrt(L/64) + 16) exponentials per kernel, 48 per mode
at L = 16384.  Sums over positions of products of two such
exponentials are geometric series: ``_exp_gram`` forms the Gram matrix of
an exp basis from them in closed form, O(N^2) at any L.  Three
parameterizations:

* ``exp``           -- weights w~ against (exp(lam*dt)-1)/lam * exp(lam*dt*k),
                       with lam forced into the left half plane;
* ``softmax``       -- weights w against a row-softmax of the position
                       matrix P_{i,k} = lam_i*k*dt, bounded for any lam;
* ``exp_no_scale``  -- the ``exp`` form with the (exp(lam*dt)-1)/lam scale
                       term omitted.

The parameters of H coordinates sharing N modes live in one container,
:class:`DiagonalParams`: the variant, the spectrum (lambda_re, lambda_im,
(N,)), the log sample times delta_log (H,) and the weights w (H, N).
:func:`KernelParams` builds its H = 1 case, one coordinate, and
``layer.LayerParams`` extends it with the output projection.  One table,
``_LAYOUT``, gives each array's shape in terms of h and n; one check,
:func:`_check_layout`, refuses any other layout, naming the field, on
every path that uses the parameters; ``pack``/``unpack`` map the
trainable arrays to one flat vector and back in that order.

Every diagonal path, oracles and gradient included, is checked and
discretized by ``_diagonal_rates``: dt = exp(delta_log) from
``_diagonal_form``, and the exp scale as expm1(lam*dt)/lam, exact as
lam*dt -> 0 (its limit dt where lam*dt is subnormal or 0).

``general_ssm_kernel`` evaluates the dense formula directly (Taylor matrix
exponential plus Gaussian elimination) and serves as the independent
reference the closed forms are checked against.
"""

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .cnum import DEFAULT_EPS, _choice, _count, _numbers, _positive, reciprocal_eps

VARIANTS = ("exp", "softmax", "exp_no_scale")


@dataclass
class DiagonalParams:
    """The spectrum, sample times and weights of H coordinates sharing N modes.

    ``w`` holds the exp-form weights w~ for the ``exp``/``exp_no_scale``
    variants and the softmax-form weights w for the ``softmax`` variant.
    Sample times are stored as logarithms, so delta = exp(delta_log) is
    positive by construction.  The arrays' shapes are ``_LAYOUT``'s, and
    :func:`_check_layout` refuses any other layout wherever the parameters
    are used.  :func:`KernelParams` builds the H = 1 case, one coordinate;
    ``layer.LayerParams`` adds a layer's output projection.
    """

    variant: str
    h: int
    n: int
    lambda_re: np.ndarray   # (N,), shared by the H coordinates
    lambda_im: np.ndarray   # (N,)
    delta_log: np.ndarray   # (H,)
    w: np.ndarray           # (H, N), complex

    # The arrays and their shapes, one letter per axis: "h" for H, "n" for N.
    _LAYOUT: ClassVar[dict] = {"lambda_re": "n", "lambda_im": "n", "delta_log": "h", "w": "hn"}

    def coordinate_kernel_params(self, h_idx):
        """Coordinate h_idx's parameters: an H = 1 container whose arrays are
        views of this one's.  h_idx is a count below h."""
        if (h_idx := _count("h_idx", h_idx, low=0)) >= self.h:
            raise ValueError(f"h_idx must be below h = {self.h}, got {h_idx}")
        rows = slice(h_idx, h_idx + 1)
        return DiagonalParams(self.variant, 1, self.n, self.lambda_re, self.lambda_im,
                              self.delta_log[rows], self.w[rows])

    def pack(self):
        """The trainable arrays as one float64 vector, in ``_LAYOUT`` order,
        w as its real parts, then its imaginary parts."""
        _check_layout(self)
        parts = ((self.w.real, self.w.imag) if name == "w" else (getattr(self, name),)
                 for name in self._LAYOUT)
        return np.concatenate([np.ravel(part) for pair in parts for part in pair], dtype=float)

    def unpack(self, vector):
        """A copy of these parameters with the trainable arrays read from a
        :meth:`pack` vector; ``p.unpack(p.pack())`` is bitwise p."""
        _check_layout(self)         # so the arrays' shapes are the layout's
        arrays = {name: np.asarray(getattr(self, name)) for name in self._LAYOUT}
        counts = [a.size * (2 if name == "w" else 1) for name, a in arrays.items()]
        vector = _numbers("vector", vector)
        if vector.shape != (sum(counts),):
            raise ValueError(f"vector must have shape ({sum(counts)},), got {vector.shape}")
        for (name, a), part in zip(arrays.items(), np.split(vector, np.cumsum(counts)[:-1])):
            arrays[name] = (_complex(*part.reshape(2, *a.shape)) if name == "w"
                            else part.reshape(a.shape).copy())
        return replace(self, **arrays)


def _complex(re, im):
    """re + i*im as a new complex array, bitwise: re + 1j*im would turn -0.0 into 0.0."""
    return np.stack([re, im], axis=-1).view(np.complex128)[..., 0]


def KernelParams(variant, lambda_re, lambda_im, w, delta_log):
    """One coordinate's parameters: the H = 1 :class:`DiagonalParams`.

    ``lambda_re``, ``lambda_im`` and ``w`` hold the N modes (a scalar is
    one mode) and ``delta_log`` is a real scalar or a (1,) array, the
    container's own field shape; every value must be finite.  Arrays
    already of the right dtype are kept, not copied, save delta_log.
    """
    _choice("variant", variant, VARIANTS)
    lambda_re = np.atleast_1d(_numbers("lambda_re", lambda_re, finite=True))
    lambda_im = np.atleast_1d(_numbers("lambda_im", lambda_im, finite=True))
    w = np.atleast_1d(_numbers("w", w, np.complex128, finite=True))
    delta_log = _numbers("delta_log", delta_log, finite=True)
    if delta_log.shape not in ((), (1,)):
        raise ValueError(f"delta_log must be a scalar or have shape (1,), got {delta_log.shape}")
    if not (lambda_re.shape == lambda_im.shape == w.shape):
        raise ValueError("lambda_re, lambda_im and w must have equal length")
    if lambda_re.size < 1:
        raise ValueError("state size must be >= 1")
    return DiagonalParams(variant, 1, lambda_re.size, lambda_re, lambda_im,
                          delta_log.reshape(1).copy(), w.reshape(1, -1))


def _check_sizes(h, n, variant):
    """h and n must be counts >= 1 (ints, not bools or floats), variant one of ``VARIANTS``."""
    _count("h", h)
    _count("n", n)
    _choice("variant", variant, VARIANTS)


def _check_layout(params):
    """Refuse, naming the field, parameters not laid out as their ``_LAYOUT`` says.

    Also refuses what :func:`_check_sizes` does, a dtype other than real
    floating (floating or complex for w), and a non-finite entry in an
    array beyond the spectrum, delta_log and w (a layer's projection);
    those three's values are :func:`_diagonal_rates`' to check.
    """
    _check_sizes(params.h, params.n, params.variant)
    sizes = {"h": params.h, "n": params.n}
    for name, axes in params._LAYOUT.items():
        value = np.asarray(getattr(params, name))
        shape, want = value.shape, tuple(sizes[a] for a in axes)
        if shape != want:
            raise ValueError(f"{name} must have shape {want}, got {shape}")
        if value.dtype.kind not in ("fc" if name == "w" else "f"):
            kind = "a floating or complex" if name == "w" else "a real floating"
            raise ValueError(f"{name} must have {kind} dtype, got {value.dtype}")
        if name not in DiagonalParams._LAYOUT and not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got a non-finite entry")


@dataclass
class GeneralSSM:
    """Dense (A, B, C) triple for the reference kernel path only; all finite."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.a = _numbers("A", self.a, np.complex128, finite=True)
        self.b = _numbers("B", self.b, np.complex128, finite=True).reshape(-1)
        self.c = _numbers("C", self.c, np.complex128, finite=True).reshape(-1)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError("A must be square")
        n = self.a.shape[0]
        if n < 1:
            raise ValueError("state size must be >= 1")
        if self.b.size != n or self.c.size != n:
            raise ValueError("B and C must match the state size")
        if n > 16:
            raise ValueError("reference path is restricted to N <= 16")


def effective_lambda(params):
    """Diagonal entries actually used by the kernel.

    The ``exp`` family maps lambda_re through -exp(.) so the real parts are
    negative for any finite parameter; the ``softmax`` variant uses the
    stored real parts unchanged.
    """
    if params.variant == "softmax":
        return params.lambda_re + 1j * params.lambda_im
    return -np.exp(params.lambda_re) + 1j * params.lambda_im


def _diagonal_form(params):
    """(lam (N,), delta (H,), w (H, N)) of a :class:`DiagonalParams`, a
    ``LayerParams`` included, that :func:`_check_layout` has passed; exp
    overflow gives inf."""
    with np.errstate(over="ignore"):
        return effective_lambda(params), np.exp(params.delta_log), params.w


def _coordinate_form(params, *variants):
    """:func:`_diagonal_form` of one coordinate's parameters (H = 1) of one of
    ``variants``, after :func:`_check_layout`."""
    _check_layout(params)
    if params.variant not in variants:
        raise ValueError(f"expected variant in {variants}, got {params.variant!r}")
    if params.h != 1:
        raise ValueError(f"h must be 1 on a one-coordinate path, got {params.h}")
    return _diagonal_form(params)


def _diagonal_rates(variant, lam, delta, w, h, l):
    """Both layer views' parameter check: lam (N,), coef (H, N), rates, far modes.

    Rates delta_h*lam_i, negated for far modes (softmax, Re(lam) > 0), must
    not overflow times L.  ``coef`` is w times the variant's input map:
    the zero-order-hold scale expm1(lam*delta)/lam for ``exp`` (its limit
    delta*(1 + lam*delta/2) where |lam*delta| < 1e-8), 1/lam for
    ``softmax`` (before its row sums), 1 for ``exp_no_scale``.  Each
    ValueError names the field.
    """
    _choice("variant", variant, VARIANTS)
    lam = _numbers("lam", lam, np.complex128).reshape(-1)
    delta = _numbers("delta", delta).reshape(-1)
    w = _numbers("w", w, np.complex128)
    if delta.shape != (h,) or w.shape != (h, lam.size):
        raise ValueError("delta must have shape (H,) and w (H, N) for H coordinates, N modes")
    if lam.size == 0:
        raise ValueError("state size must be >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        z = delta[:, None] * lam
        for name, value in (("lam", lam), ("delta", delta), ("w", w), ("lam*delta*L", z * l)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
    if np.any(delta <= 0):
        raise ValueError("delta must be positive")
    if variant != "exp_no_scale" and np.any(lam == 0):
        raise ValueError("singular lambda")
    with np.errstate(over="ignore", invalid="ignore"):
        if variant == "exp":
            w = w * _exp_scale(lam, delta, z)
        elif variant == "softmax":
            w = w / lam
    if not np.isfinite(w).all():
        raise ValueError("lam gives a non-finite input map w/lam or w*(e^{lam*delta}-1)/lam")
    far = (lam.real > 0) & (variant == "softmax")
    return lam, w, np.where(far, -z, z), far


def _exp_scale(lam, delta, z):
    """The exp input map expm1(z)/lam of rates z = delta[:, None]*lam, (H, N).

    The quotient loses its digits (or overflows) where z is subnormal or 0;
    there its limit delta*(1 + z/2) is used, off by at most |z|^2/6 relative.
    """
    return np.where(np.abs(z) < 1e-8, delta[:, None] * (1 + z / 2), np.expm1(z) / lam)


_BLOCK = 64


def _exp_factors(z, count, step=1):
    """(hi, lo): e^{z step k} = hi[..., k // m] * lo[..., k % m] for 0 <= k < count.

    m = ceil(sqrt(count)) is lo's last axis; hi has ceil(count/m) entries
    there, e^{z step m a}, and lo has e^{z step r} for r < m: about
    2 sqrt(count) exponentials per rate instead of count.  Each factor's
    exponent is z step times an integer in [0, count), so when Re(z) <= 0
    neither factor exceeds one in magnitude.
    """
    z = np.asarray(z, dtype=np.complex128)[..., None]
    m = math.isqrt(count - 1) + 1
    hi = np.exp(z * (step * m * np.arange(-(-count // m), dtype=float)))
    lo = np.exp(z * (step * np.arange(m, dtype=float)))
    return hi, lo


def _exp_range(z, count, step=1):
    """e^{z step k} for 0 <= k < count, an array of z's shape plus (count,).

    The broadcast product of the two tables of :func:`_exp_factors`.
    """
    hi, lo = _exp_factors(z, count, step)
    return (hi[..., :, None] * lo[..., None, :]).reshape(*hi.shape[:-1], -1)[..., :count]


def _factor_sum(hi, lo, count):
    """sum_{k<count} hi[..., k // m] * lo[..., k % m] over the tables of :func:`_exp_factors`."""
    full, part = divmod(count, lo.shape[-1])
    total = hi[..., :full].sum(axis=-1) * lo.sum(axis=-1)
    return total + hi[..., full] * lo[..., :part].sum(axis=-1) if part else total


def _exp_blocks(z, l):
    """Blocked factors of e^{z_i k}, 0 <= k < L, for a vector of rates z.

    With B = min(L, 64) and k = B*j + r, returns (outer, inner) where
    outer[i, j] = e^{z_i B j} for the ceil(L/B) block starts and
    inner[i, r] = e^{z_i r} for the B offsets inside a block, so
    e^{z_i k} = outer[i, k // B] * inner[i, k % B].  Positions past L-1 in
    the last block are padding.  When Re(z) <= 0 no factor exceeds one in
    magnitude.
    """
    block = min(l, _BLOCK)
    return _exp_range(z, -(-l // block), block), _exp_range(z, block)


def _blocked_kernel(coef, outer, inner, l):
    """Re sum_i coef_i e^{z_i k} for 0 <= k < L, from the tables (outer, inner)
    of :func:`_exp_blocks`: one ceil(L/B) x N by N x B product."""
    return ((coef[:, None] * outer).T @ inner).reshape(-1)[:l].real


def _blocked_kernel_transpose(outer, inner, dk):
    """sum_k dk[m, k] e^{z_i k} over 0 <= k < L for the M rows of dk (M, L),
    as an (M, N) array, from the tables (outer, inner) of :func:`_exp_blocks`.

    The transpose of :func:`_blocked_kernel`'s product: the rows, padded to
    ceil(L/B) blocks of B, are one M*ceil(L/B) x B by B x N product with
    inner, then weighted by outer and summed over the blocks.  That product
    is real by complex, so it runs on inner's (Re, Im) pairs as one real
    product of twice the width.
    """
    (n, blocks), block = outer.shape, inner.shape[1]
    padded = np.zeros((len(dk), blocks * block))
    padded[:, :dk.shape[1]] = dk
    per_block = (padded.reshape(-1, block) @ inner.T.copy().view(float)).view(complex)
    return np.einsum("mji,ij->mi", per_block.reshape(len(dk), blocks, n), outer)


# 2*pi = _TWO_PI_HI + _TWO_PI_LO to about 1e-25.  _TWO_PI_HI has 27 significant
# bits, so n * _TWO_PI_HI is exact for |n| < 2^26 (Cody-Waite reduction).
_TWO_PI_HI = float.fromhex("0x1.921fb54p+2")
_TWO_PI_LO = float.fromhex("0x1.10b4611a62633p-28")


def _reduce_phase(b):
    """b - 2 pi m for the integer m nearest b / (2 pi): in [-pi, pi], to
    an ulp of the result for |b| < 4e8 (Cody-Waite)."""
    turns = np.rint(b / (_TWO_PI_HI + _TWO_PI_LO))
    return (b - turns * _TWO_PI_HI) - turns * _TWO_PI_LO


def _expm1_parts(a, b):
    """(Re, Im) of expm1(a + ib) for real arrays a and b, b in [-pi, pi].

    expm1(a) cos(b) - 2 sin^2(b/2) and e^a sin(b), with cos and sin of b
    from its half angle, keep their digits where a + ib is near 0.
    """
    half, cos_half = np.sin(b / 2), np.cos(b / 2)
    vers = 2.0 * half * half                # 1 - cos(b)
    return np.expm1(a) * (1.0 - vers) - vers, 2.0 * np.exp(a) * half * cos_half


def _exp_gram(z, coef, l):
    """The real 2N x 2N Gram matrix of the rows [Re g; -Im g], g_ik = coef_i e^{z_i k}, k < L.

    In closed form, with no N x L array: with P = (c c^T) o S(z_i + z_j)
    and Q = (c c^H) o S(z_i + conj(z_j)),
    G = 1/2 [[Re(P + Q), Im(Q - P)], [Im(Q - P)^T, Re(Q - P)]], where
    S(s) = sum_{k<L} e^{s k} = expm1(s L) / expm1(s) (L where s = 0).  P is
    symmetric and Q Hermitian, so S is evaluated for pairs i <= j only.
    Im(s) is taken as its rounded sum plus that sum's exact rounding error
    (Knuth's two-sum), reduced modulo 2 pi by an exact split of 2 pi first,
    so that s near 2 pi i m keeps its digits in both expm1s.  z and coef are
    (N,) complex, with Re(z) <= 0 and |Im z| below 1e8; l is a count >= 1.
    """
    n = len(z)
    modes = np.arange(n)
    i, j = np.nonzero(modes[:, None] <= modes)      # the pairs i <= j; np.triu_indices is slower
    a = z.real[i] + z.real[j]
    x, y = z.imag[i], np.stack([z.imag[j], -z.imag[j]])       # for P, then Q
    b = x + y
    err = (x - (b - (b - x))) + (y - (b - x))
    b = _reduce_phase(b) + err
    num, den = _complex(*_expm1_parts(a * l, b * l)), _complex(*_expm1_parts(a, b))
    sums = np.divide(num, den, out=np.full(den.shape, complex(l)), where=den != 0)
    sums *= coef[i] * np.stack([coef[j], coef[j].conj()])
    p, q = np.empty((2, n, n), complex)
    p[i, j] = p[j, i] = sums[0]
    q[i, j], q[j, i] = sums[1], sums[1].conj()
    gram = np.empty((2 * n, 2 * n))
    np.multiply(0.5, (q + p).real, out=gram[:n, :n])
    np.multiply(0.5, (q - p).imag, out=gram[:n, n:])
    np.multiply(0.5, (q - p).real, out=gram[n:, n:])
    gram[n:, :n] = gram[:n, n:].T
    return gram


def diagonal_kernels(variant, lam, delta, w, l, eps=DEFAULT_EPS):
    """The (H, L) kernels of H coordinates sharing one diagonal spectrum.

    ``lam`` (N,) is the effective spectrum, ``delta`` (H,) the sample times
    and ``w`` (H, N) the weights in the variant's form; row h is the
    ``dss_*`` kernel of (lam, delta_h, w_h).  Softmax rows are taken
    relative to their largest entry, e^{lam_i dt k} if Re(lam_i) <= 0 and
    e^{-lam_i dt (L-1-k)} from the far end if not: no exponent is positive.
    """
    l = _count("l", l)
    _, w, rate, far = _diagonal_rates(variant, lam, delta, w, np.size(delta), l)
    out = np.zeros((len(w), l))
    for flip in np.unique(far):             # near modes, then far ones, where present
        sel = far == flip
        # One row's exponentials at a time: an (H, N, L/64) block leaves the cache.
        for row, dst in enumerate(out):
            outer, inner = _exp_blocks(rate[row, sel], l)
            coef = w[row, sel]
            if variant == "softmax":
                coef = coef * reciprocal_eps(_factor_sum(outer, inner, l), eps)
            kernel = _blocked_kernel(coef, outer, inner, l)
            dst += kernel[::-1] if flip else kernel
    return out


def dss_exp_kernel(params, l):
    """Kernel K_k = Re( sum_i w~_i (e^{lam_i dt}-1)/lam_i e^{lam_i dt k} )."""
    return diagonal_kernels("exp", *_coordinate_form(params, "exp"), l)[0]


def dss_softmax_kernel(params, l, eps=DEFAULT_EPS):
    """Kernel K_k = Re( (w / lam) . row_softmax_eps(P) ), P_{i,k} = lam_i*dt*k."""
    return diagonal_kernels("softmax", *_coordinate_form(params, "softmax"), l, eps)[0]


def dss_exp_noscale_kernel(params, l):
    """Kernel K_k = Re( sum_i w~_i e^{lam_i dt k} ), scale term omitted."""
    return diagonal_kernels("exp_no_scale", *_coordinate_form(params, "exp_no_scale"), l)[0]


def build_kernel(params, l):
    """One coordinate's kernel: the H = 1 case of :func:`diagonal_kernels`."""
    return diagonal_kernels(params.variant, *_coordinate_form(params, *VARIANTS), l)[0]


def _matexp_taylor(m):
    """exp(m) by scaling-and-squaring around a plain Taylor series.

    The matrix is halved until its 1-norm is <= 0.5, the series is summed
    until the next term's 1-norm falls below 1e-18 (at most 200 terms), and
    the result is squared back up.  A norm that halving never brings down
    is refused.
    """
    m = np.asarray(m, dtype=np.complex128)
    dim = m.shape[0]
    norm1 = float(np.abs(m).sum(axis=0).max()) if dim else 0.0
    if not norm1 < math.inf:
        raise ValueError("A*delta must be finite")
    squarings = 0
    while norm1 > 0.5:
        norm1 /= 2.0
        squarings += 1
    scaled = m / (2.0 ** squarings)
    total = np.eye(dim, dtype=np.complex128)
    term = np.eye(dim, dtype=np.complex128)
    for k in range(1, 201):
        term = term @ scaled / k
        total = total + term
        if np.abs(term).sum(axis=0).max() < 1e-18:
            break
    else:
        raise RuntimeError("matrix exponential series did not converge")
    for _ in range(squarings):
        total = total @ total
    return total


def _solve_gauss(a, b):
    """Solve a @ x = b by Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=np.complex128)
    x = np.array(b, dtype=np.complex128).reshape(-1)
    dim = a.shape[0]
    tiny = dim * np.finfo(float).eps * max(1.0, float(np.abs(a).max()))
    for col in range(dim):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if np.abs(a[piv, col]) <= tiny:
            raise ValueError("A not invertible")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            x[[col, piv]] = x[[piv, col]]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= factors[:, None] * a[col, col:]
        x[col + 1 :] -= factors * x[col]
    for col in range(dim - 1, -1, -1):
        x[col] = (x[col] - a[col, col + 1 :] @ x[col + 1 :]) / a[col, col]
    return x


def general_ssm_kernel(ssm, delta, l):
    """Reference kernel of a dense state space, via the definition.

    Discretizes with a zero-order hold (Abar = exp(A*delta),
    Bbar = (Abar - I) A^{-1} B) and reads the kernel off repeated
    matrix-vector products.  Deliberately shares no code with the
    closed-form diagonal paths.  delta is a positive scalar.  A system
    whose Abar or kernel leaves float range (an unstable A over a long
    delta or l) is refused with a ValueError naming ``ssm``.
    """
    _positive("delta", delta)
    l = _count("l", l)
    # An overflowing product is refused: A*delta by its norm, the rest below.
    with np.errstate(over="ignore", invalid="ignore"):
        abar = _matexp_taylor(ssm.a * delta)
        if not np.isfinite(abar).all():
            raise ValueError("ssm leaves float range: exp(A*delta) overflows")
        ainv_b = _solve_gauss(ssm.a, ssm.b)
        bbar = (abar - np.eye(ssm.a.shape[0])) @ ainv_b
        out = np.empty(l)
        v = bbar
        for k in range(l):
            out[k] = (ssm.c @ v).real
            v = abar @ v
    if not np.isfinite(out).all():
        raise ValueError(f"ssm leaves float range within l = {l} steps")
    return out


def dense_to_diagonal_weights(cv, vinvb, lam, delta, l):
    """Weights making a diagonal system reproduce a dense system's kernel.

    Given the row C*V and column V^{-1}*B of a diagonalization
    A = V diag(lam) V^{-1}, returns

        w~_i = (C V)_i * (V^{-1} B)_i
        w_i  = w~_i * (exp(L*lam_i*delta) - 1)

    ``w~`` feeds the exp-form kernel, ``w`` the softmax form.  delta is a
    positive scalar and l a count.  Raises ValueError rather than
    overflowing when L*Re(lam_i)*delta > 700 or when either weight leaves
    float range, and rejects near-singular growth factors
    |exp(L*lam_i*delta) - 1| <= 1e-12.
    """
    cv, vinvb, lam = (_numbers(name, x, np.complex128, finite=True).reshape(-1)
                      for name, x in (("cv", cv), ("vinvb", vinvb), ("lam", lam)))
    _positive("delta", delta)
    l = _count("l", l)
    z = l * delta * lam
    if np.any(z.real > 700.0):
        raise ValueError("weight overflow: L*Re(lam)*delta must be at most 700, "
                         f"got {z.real.max():.6g}")
    grow = np.expm1(z)
    if np.any(np.abs(grow) <= 1e-12):
        raise ValueError("softmax weight undefined")
    with np.errstate(over="ignore", invalid="ignore"):
        w_tilde = cv * vinvb
        w = w_tilde * grow
    for name, x in (("exp weights w~ = cv*vinvb", w_tilde),
                    ("softmax weights w = w~*(exp(L*lam*delta) - 1)", w)):
        if not np.all(np.isfinite(x)):
            raise ValueError(f"weight overflow: {name} must be finite")
    return w_tilde, w


def _scale_slope(z, e_z):
    """phi(z) = (z e^z - expm1 z)/z^2 = sum_k (k+1) z^k/(k+2)!, given e_z = e^z.

    dt phi(z) is d/dz of the exp scale dt*expm1(z)/z, z = lam*dt, at fixed
    dt.  The quotient cancels as z -> 0; where |z| < 1/2 the series is
    summed.
    """
    near = np.abs(z) < 0.5
    zs = np.where(near, z, 0.0)
    series = np.zeros_like(zs)
    for k in range(14, -1, -1):
        series = series * zs + (k + 1) / math.factorial(k + 2)
    zq = np.where(near, 1.0, z)
    return np.where(near, series, (zq * e_z - np.expm1(zq)) / zq / zq)


def diagonal_kernels_vjp(variant, lam, delta, w, l, dk):
    """The gradient of f = sum(dk * K), K = ``diagonal_kernels(variant, lam, delta, w, l)``.

    The arguments are :func:`diagonal_kernels`' and ``dk`` is (H, L) real
    upstream kernels.  The gradient is one float64 vector in the
    :meth:`DiagonalParams.pack` layout of an H-row container of the
    variant: lambda_re, lambda_im (each summed over the H rows, which share
    the spectrum), delta_log, Re w, Im w, for lam = -e^{lambda_re} +
    i*lambda_im and delta = e^{delta_log}.  ``exp`` and ``exp_no_scale``
    only: ``softmax`` raises a ValueError naming the variant.

    With z = lam*delta_h and the input map s (delta_h*expm1(z)/z for
    ``exp``, 1 for ``exp_no_scale``), row h is Re sum_i w_hi s_hi e^{z_hi k},
    so f = Re sum_hi w_hi s_hi G_hi, where G_hi = sum_k dk_hk e^{z_hi k}.
    G and its z-derivative G'_hi = sum_k k dk_hk e^{z_hi k} are, row by row,
    the transpose of the forward build's blocked product
    (:func:`_blocked_kernel_transpose`), so no N x L table is formed.  The
    chain rule runs through z: df/dz = w (ds/dz G + s G'), with ds/dz =
    delta phi(z) from :func:`_scale_slope`; dz/dlambda_re = Re(z),
    dz/dlambda_im = i*delta_h, dz/ddelta_log = z and, at fixed lam,
    ds/ddelta_log = delta_h e^z.  No delta^2 is formed, so a finite gradient
    is computed finite.  Parameters :func:`diagonal_kernels` refuses raise
    its ValueError, and a component outside float range raises
    ValueError("gradient leaves float range").
    """
    l = _count("l", l)
    if _choice("variant", variant, VARIANTS) == "softmax":
        raise ValueError("diagonal_kernels_vjp has no softmax variant yet, got 'softmax'")
    h = np.size(delta)
    lam, _, z, _ = _diagonal_rates(variant, lam, delta, w, h, l)
    dk = _numbers("dk", dk, finite=True)
    if dk.shape != (h, l):
        raise ValueError(f"dk must have shape {(h, l)}, got {dk.shape}")
    delta, w = np.asarray(delta, dtype=float).reshape(-1), np.asarray(w, dtype=complex)
    dt, positions = delta[:, None], np.arange(l)
    with np.errstate(over="ignore", invalid="ignore"):
        g, gk = np.stack([_blocked_kernel_transpose(*_exp_blocks(z[row], l),
                                                    np.stack([dk[row], positions * dk[row]]))
                          for row in range(h)], axis=1)
        if variant == "exp":
            e_z = np.exp(z)
            scale, ds_dz, ds_dlog = _exp_scale(lam, delta, z), dt * _scale_slope(z, e_z), dt * e_z
        else:
            scale, ds_dz, ds_dlog = 1.0, 0.0, 0.0
        sens = w * (ds_dz * g + scale * gk)         # df/dz
        d_delta_log = (w * (ds_dlog * g + scale * z * gk)).sum(axis=1).real
        grad = DiagonalParams(variant, h, lam.size, (z.real * sens.real).sum(axis=0),
                              (-dt * sens.imag).sum(axis=0), d_delta_log,
                              np.conj(scale * g)).pack()
    if not np.isfinite(grad).all():
        raise ValueError("gradient leaves float range")
    return grad


def kernel_grad_exp(params, l, upstream):
    """Analytic gradient of f = sum_k upstream_k * K_k, exp variant.

    The gradient is one float64 vector laid out as the
    :meth:`DiagonalParams.pack` vector of the coordinate's parameters:
    lambda_re, lambda_im, delta_log, Re w~, Im w~; ``params.unpack(grad)``
    names the parts.  It is the H = 1 case of :func:`diagonal_kernels_vjp`,
    whose docstring gives the chain rule.  Parameters :func:`dss_exp_kernel`
    refuses raise the same ValueError, and a component outside float range
    raises ValueError("gradient leaves float range").
    """
    l = _count("l", l)
    upstream = _numbers("upstream", upstream, finite=True)
    if upstream.shape != (l,):
        raise ValueError(f"upstream must have shape ({l},), got {upstream.shape}")
    return diagonal_kernels_vjp("exp", *_coordinate_form(params, "exp"), l, upstream[None])


def finite_diff_grad(f, theta, h=1e-6):
    """Central-difference gradient of a scalar function of a real vector; h is a positive scalar."""
    _positive("h", h)
    theta = _numbers("theta", theta)
    grad = np.empty(theta.size)
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = h
        grad[j] = (f(theta + step) - f(theta - step)) / (2.0 * h)
    return grad


def write_kernel_csv(path, kernels, header=False):
    """Write kernels as CSV to a path or text stream, one kernel per row at %.17g."""
    rows = np.atleast_2d(_numbers("kernels", kernels))
    names = ",".join(f"k{i}" for i in range(rows.shape[1])) if header else ""
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=names, comments="")
