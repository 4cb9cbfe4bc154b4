import math

import numpy as np
import pytest

from diagssm import init_layer, skew_hippo_lambda, skew_hippo_matrix, symmetric_eigenvalues
from diagssm.hippo import _skew_hippo_mu


def charpoly_eigenvalues(m, tol=1e-12):
    """Oracle: roots of det(m - x*I) located by sign changes and bisection.

    Independent of the eigensolver under test (only determinants are
    evaluated); works for symmetric matrices with distinct eigenvalues.
    """
    m = np.asarray(m, dtype=float)
    radius = np.abs(m).sum(axis=1).max() + 1.0  # Gershgorin bound

    def poly(x):
        return np.linalg.det(m - x * np.eye(m.shape[0]))

    grid = np.linspace(-radius, radius, 20001)
    values = np.array([poly(x) for x in grid])
    roots = []
    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = values[i], values[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = poly(mid)
                if fm == 0.0 or (b - a) < tol:
                    break
                if fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    return np.sort(np.array(roots))[::-1]


def test_matrix_n1_values():
    m = skew_hippo_matrix(1)
    expected = np.array([[-0.5, math.sqrt(3) / 2], [-math.sqrt(3) / 2, -0.5]])
    assert np.abs(m - expected).max() < 1e-15


def test_matrix_n2_corner_entry():
    # sqrt(2*0+1)*sqrt(2*3+1)/2 = sqrt(7)/2
    m = skew_hippo_matrix(2)
    assert m[0, 3] == pytest.approx(math.sqrt(7) / 2, abs=1e-12)
    assert m[3, 0] == pytest.approx(-math.sqrt(7) / 2, abs=1e-12)


@pytest.mark.parametrize("n", [1, 3, 8, 64, 100])
def test_matrix_plus_half_identity_is_skew(n):
    # Exact skew-symmetry makes i*S exactly Hermitian, which is why
    # skew_hippo_lambda hands it to eigvalsh without validating it again.
    m = skew_hippo_matrix(n)
    s = m + 0.5 * np.eye(2 * n)
    assert np.array_equal(s, -s.T)


def test_matrix_rejects_zero():
    with pytest.raises(ValueError):
        skew_hippo_matrix(0)


def test_eigenvalues_identity():
    got = symmetric_eigenvalues(np.eye(3))
    assert np.abs(got - 1.0).max() < 1e-12


def test_eigenvalues_2x2_textbook():
    got = symmetric_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.abs(got - np.array([3.0, 1.0])).max() < 1e-12
    got = symmetric_eigenvalues(np.array([[2.0, 1j], [-1j, 2.0]]))  # Hermitian
    assert np.abs(got - np.array([3.0, 1.0])).max() < 1e-12


def test_eigenvalues_match_charpoly_oracle():
    rng = np.random.RandomState(5)
    base = rng.standard_normal((8, 8))
    m = 0.5 * (base + base.T)
    got = symmetric_eigenvalues(m)
    want = charpoly_eigenvalues(m)
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-8


def test_eigenvalues_sum_matches_trace():
    rng = np.random.RandomState(6)
    for _ in range(10):
        base = rng.standard_normal((6, 6)) * rng.uniform(0.1, 100)
        m = 0.5 * (base + base.T)
        got = symmetric_eigenvalues(m)
        assert got.sum() == pytest.approx(np.trace(m), rel=1e-9)
        assert np.all(np.diff(got) <= 1e-12)  # descending


def test_eigenvalues_reject_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigenvalues(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigenvalues(np.array([[1.0, 1j], [1j, 1.0]]))  # not Hermitian
    # Entries that are not finite numbers are refused by name, before numpy sees them.
    for bad, message in ((np.eye(2, dtype=object), "matrix must hold real numbers"),
                         (np.array([["1", "0"], ["0", "1"]]), "matrix must hold real numbers"),
                         (np.array([[math.nan, 0.0], [0.0, 1.0]]), "matrix must be finite")):
        with pytest.raises(ValueError, match=message):
            symmetric_eigenvalues(bad)
    # The conversion keeps real input on eigvalsh's real path and the spectrum's bits.
    base = np.random.RandomState(8).standard_normal((6, 6))
    m = base + base.T
    assert symmetric_eigenvalues(m).tobytes() == np.linalg.eigvalsh(m)[::-1].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 64, 100])
def test_lambda_has_the_validated_eigensolve_bits(n):
    # skew_hippo_lambda's direct eigvalsh returns the bytes of the validated
    # path, which accepts i*S, on the call that solves it (cold) and on the
    # call that reads the cached magnitudes (warm).
    s = skew_hippo_matrix(n) + 0.5 * np.eye(2 * n)
    want = symmetric_eigenvalues(1j * s)[:n]
    _skew_hippo_mu.cache_clear()
    cold = skew_hippo_lambda(n).lambda_im
    warm = skew_hippo_lambda(n).lambda_im
    assert cold.tobytes() == warm.tobytes() == want.tobytes()


@pytest.mark.parametrize("cached, bad", [(1, True), (64, 64.0), (np.int64(64), 64.0)])
def test_lambda_refuses_a_non_integer_equal_to_a_cached_n(cached, bad):
    # Each pair compares equal and hashes alike, so a cache keyed before the
    # check could hand back the cached spectrum instead of refusing;
    # functools' cache on the raw argument does so for the numpy pair.
    skew_hippo_lambda(cached)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        skew_hippo_lambda(bad)


def test_one_eigensolve_serves_every_layer_of_one_n(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    _skew_hippo_mu.cache_clear()
    first = init_layer(16, 64, "exp", 0)
    second = init_layer(16, 64, "softmax", 1)
    assert calls == [(128, 128)]
    assert first.lambda_im.tobytes() == second.lambda_im.tobytes()
    # A sweep over more sizes than the cache holds does not grow it.
    for n in range(1, 12):
        skew_hippo_lambda(n)
    assert _skew_hippo_mu.cache_info().currsize == 8


def test_lambda_n1_closed_form():
    # 2x2 characteristic polynomial x^2 + x + 1 has roots -1/2 +- i*sqrt(3)/2
    spec = skew_hippo_lambda(1)
    assert spec.lambda_re[0] == -0.5
    assert spec.lambda_im[0] == pytest.approx(math.sqrt(3) / 2, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
def test_lambda_invariants(n):
    spec = skew_hippo_lambda(n)
    assert spec.lambda_re.shape == spec.lambda_im.shape == (n,)
    # real parts set bitwise, imaginary parts positive descending
    assert np.all(spec.lambda_re == -0.5)
    assert np.all(spec.lambda_im > 0)
    assert np.all(np.diff(spec.lambda_im) <= 0)
    # sum of squared magnitudes equals the off-diagonal Frobenius sum
    s = skew_hippo_matrix(n)
    target = np.sum(np.triu(s, 1) ** 2)
    assert np.sum(spec.lambda_im ** 2) == pytest.approx(target, rel=1e-8)
    # the small end: det(S) is the product of the mu^2, so its log (by LU,
    # no eigensolver) is 2 * sum(log mu)
    _, logdet = np.linalg.slogdet(s + 0.5 * np.eye(2 * n))
    assert 2.0 * np.sum(np.log(spec.lambda_im)) == pytest.approx(logdet, rel=1e-10)


def test_lambda_gram_pairs_are_doubled():
    # the Gram matrix S^T S = -S^2 holds each mu^2 twice, and its
    # square-rooted spectrum pairs up into the magnitudes
    n = 8
    m = skew_hippo_matrix(n)
    s = m.copy()
    np.fill_diagonal(s, 0.0)
    gram = s.T @ s
    mu = np.sqrt(np.maximum(symmetric_eigenvalues(0.5 * (gram + gram.T)), 0.0))
    assert np.abs(mu[0::2] - mu[1::2]).max() < 1e-7 * mu[0]
    assert np.abs(mu[0::2] - skew_hippo_lambda(n).lambda_im).max() < 1e-7 * mu[0]


def test_lambda_deterministic():
    a = skew_hippo_lambda(6)
    b = skew_hippo_lambda(6)
    assert np.array_equal(a.lambda_re, b.lambda_re)
    assert np.array_equal(a.lambda_im, b.lambda_im)
    # Each call hands out its own writable arrays: editing one spectrum,
    # or a layer's, leaves the next call's bytes as they were.
    want_re, want_im = a.lambda_re.tobytes(), a.lambda_im.tobytes()
    a.lambda_re[:] = 1.0
    a.lambda_im[:] = 2.0
    layer = init_layer(2, 6, "softmax", 0)
    layer.lambda_re[0] = 3.0
    layer.lambda_im[0] = 4.0
    c = skew_hippo_lambda(6)
    assert c.lambda_re.tobytes() == want_re
    assert c.lambda_im.tobytes() == want_im
    assert init_layer(2, 6, "softmax", 0).lambda_im.tobytes() == want_im
