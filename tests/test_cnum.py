import numpy as np
import pytest

from diagssm import reciprocal_eps, softmax_eps


def real_softmax(x):
    # textbook real-valued softmax, the oracle for all-real inputs
    e = np.exp(x - np.max(x))
    return e / e.sum()


def test_reciprocal_eps_zero():
    assert complex(reciprocal_eps(0j, 1e-7)) == 0j


def test_reciprocal_eps_one():
    got = complex(reciprocal_eps(1 + 0j, 1e-7))
    assert got == pytest.approx(1.0 / (1.0 + 1e-7))
    assert got.imag == 0.0


def test_reciprocal_eps_bound_random():
    # magnitude never exceeds 1/(2*sqrt(eps)) ~= 1581.14, attained near |x|=sqrt(eps)
    rng = np.random.RandomState(0)
    bound = 1.0 / (2.0 * np.sqrt(1e-7))
    mags = 10.0 ** rng.uniform(-8, 8, 2000)
    phases = rng.uniform(0, 2 * np.pi, 2000)
    xs = mags * np.exp(1j * phases)
    got = np.abs(reciprocal_eps(xs, 1e-7))
    assert np.all(got <= bound + 1e-9)
    near_peak = np.abs(reciprocal_eps(np.sqrt(1e-7) + 0j, 1e-7))
    assert near_peak > 0.99 * bound


def test_reciprocal_eps_rejects_bad_eps():
    with pytest.raises(ValueError):
        reciprocal_eps(1 + 0j, 0.0)


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, -1e-7])
def test_reciprocal_eps_rejects_non_finite_eps(eps):
    # NaN passes an "eps <= 0" test and would make every output NaN.
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        reciprocal_eps(np.array([1 + 0j, 0j]), eps)


def assert_shifted_by(x, first, other):
    # softmax_eps shifts by the entry of largest real part, the first on a
    # tie.  The shift is bitwise visible: another entry of equal real part
    # gives other bits.
    x = np.array(x)
    shifted = [np.exp(x - x[i]) for i in (first, other)]
    want, not_want = (e * reciprocal_eps(e.sum()) for e in shifted)
    assert np.array_equal(softmax_eps(x), want)
    assert not np.array_equal(softmax_eps(x), not_want)


def test_cmax_by_real_tie_breaks_low_index():
    assert_shifted_by([1 + 2j, 3 - 1j, 3 + 5j], 1, 2)


def test_cmax_by_real_singleton():
    assert softmax_eps(np.array([-1 + 0j]))[0] == 1.0 / (1.0 + 1e-7)


def test_cmax_by_real_equal_real_parts():
    assert_shifted_by([0 + 9j, 0 - 9j], 0, 1)


def test_softmax_eps_symmetric_pair():
    got = softmax_eps(np.zeros(2, dtype=complex))
    assert np.abs(got - 0.5).max() < 1e-7


def test_softmax_eps_singular_input_returns_zeros():
    # exp(0) + exp(i*pi) = 0: the uncorrected softmax divides by zero here
    got = softmax_eps(np.array([0.0, 1j * np.pi]))
    assert np.all(np.isfinite(got.view(float)))
    assert np.abs(got).max() < 1e-6


def test_softmax_eps_matches_real_softmax():
    rng = np.random.RandomState(1)
    for _ in range(50):
        x = rng.standard_normal(rng.randint(1, 65)) * rng.uniform(0.1, 10)
        got = softmax_eps(x.astype(complex))
        assert np.abs(got.imag).max() == 0.0
        assert np.abs(got.real - real_softmax(x)).max() < 1e-7


def test_softmax_eps_component_bound():
    rng = np.random.RandomState(2)
    bound = 1.0 / (2.0 * np.sqrt(1e-7))
    for _ in range(50):
        x = rng.standard_normal(16) * 5 + 1j * rng.standard_normal(16) * 5
        assert np.abs(softmax_eps(x)).max() <= bound + 1e-9


def test_softmax_eps_shift_invariance_exact_for_integer_shifts():
    # integer-valued inputs keep every subtraction exact, so the shifted
    # result is bitwise identical; generic floats only match to rounding
    rng = np.random.RandomState(3)
    x = rng.randint(-8, 8, 12) + 1j * rng.randint(-8, 8, 12)
    shifted = softmax_eps(x - 3.0)
    assert np.array_equal(softmax_eps(x), shifted)
    xf = x + rng.standard_normal(12) * 0.25
    assert np.abs(softmax_eps(xf) - softmax_eps(xf - 0.37)).max() < 1e-12


def test_softmax_eps_sums_to_one_when_denominator_large():
    rng = np.random.RandomState(4)
    checked = 0
    for _ in range(200):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        shifted = np.exp(x - x[np.argmax(x.real)])
        if np.abs(shifted.sum()) < 1.0:
            continue
        checked += 1
        assert abs(softmax_eps(x).sum() - 1.0) <= 2e-7
    assert checked > 50


def test_softmax_eps_empty():
    with pytest.raises(ValueError, match="empty vector"):
        softmax_eps(np.array([], dtype=complex))


def test_softmax_eps_finite_for_extreme_inputs():
    # the naive softmax overflows or divides by ~0 on all of these
    cases = [
        np.array([1e8, -1e8, 0.0], dtype=complex),
        np.array([700.0 + 1e6j, 700.0 - 1e6j]),
        np.array([-745.0, -745.0], dtype=complex),
        np.array([0.0, 1j * np.pi, 2j * np.pi]),
    ]
    for x in cases:
        got = softmax_eps(x)
        assert np.all(np.isfinite(got.view(float))), x


def test_reciprocal_and_softmax_of_any_finite_x_are_finite_and_silent():
    # |x| from 1e-300 to 1e308 at random phases; the suite makes a warning an
    # error.  Where |x|^2 overflows, reciprocal_eps is about 1/x; up to
    # |x| = 1e150 it keeps the bits of conj(x) / (|x|^2 + eps).
    rng = np.random.default_rng(39)
    x = 10.0 ** rng.uniform(-300, 308, 4200) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4200))
    r = reciprocal_eps(x)
    assert np.isfinite(r).all()
    big = np.abs(x) > 1e160
    assert big.sum() > 1000 and np.abs(r[big] * x[big] - 1).max() < 1e-14
    keep = np.abs(x) <= 1e150
    small = x[keep]
    plain = small.conj() / (small.real * small.real + small.imag * small.imag + 1e-7)
    assert r[keep].tobytes() == plain.tobytes()
    for k in (2, 3, 7):
        for row in x.reshape(-1, k):
            assert np.isfinite(softmax_eps(row)).all()
    # Shifts past float range: a real part's exp is 0, a phase stays finite.
    assert np.array_equal(softmax_eps([1e308, -1e308]), [1 / (1 + 1e-7), 0])
    assert np.isfinite(softmax_eps([1e308j, -1e308j])).all()
