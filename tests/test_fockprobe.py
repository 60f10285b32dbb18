import math
import operator
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gaussmap import (
    airy_limit_error,
    dilated_fock_coefficients,
    dilated_fock_sweep,
    fockprobe,
    hs_norm_check,
    probe_fock_mixture,
    trace_norm_sum,
)
from gaussmap.fockprobe import (
    _BATCH_BYTES,
    _MAX_TAIL_N,
    _PI_L,
    _SWEEP_BLOCK,
    _fft_coefficients,
    _fft_length,
    _half_circle,
    _log_tail,
    _representation_allowance,
    _rounding_allowance,
    _rows,
    _smooth_length,
    _sweep_cutoffs,
    _tail_cutoff,
    _tau_of,
)
from helpers import coefficient_rows, convolution_coefficients, fft_coefficients

CERTIFIED = "certified_not_in_convex_hull"
NO_NEGATIVITY = "no_negativity_found"


def test_vacuum_row_is_geometric():
    fc = dilated_fock_coefficients(0, 2.0)
    tau = 0.6
    n = np.arange(fc.coeffs.size)
    assert np.allclose(fc.coeffs, (1.0 - tau) * tau**n, atol=1e-15)


def test_first_excited_leading_coefficient():
    # (1 - tau)(-tau) at tau = 3/5; rational, so the match is essentially exact.
    fc = dilated_fock_coefficients(1, 2.0)
    assert fc.coeffs[0] == pytest.approx(-0.24, abs=1e-12)


def test_unit_dilatation_is_identity_sequence():
    for lam in (1.0, -1.0):
        fc = dilated_fock_coefficients(5, lam)
        expected = np.zeros(fc.coeffs.size)
        expected[5] = 1.0
        assert np.array_equal(fc.coeffs, expected)
        assert fc.tail_bound == 0.0
        assert fc.tau == 0.0


def test_zero_dilatation_rejected():
    with pytest.raises(ValueError):
        dilated_fock_coefficients(3, 0.0)


def test_negative_fock_index_rejected():
    with pytest.raises(ValueError):
        dilated_fock_coefficients(-1, 2.0)


def test_contraction_runs_through_same_series():
    fc = dilated_fock_coefficients(2, 0.5)
    assert fc.tau == pytest.approx(-0.6)
    assert abs(np.sum(fc.coeffs) - 1.0) <= fc.tail_bound


@pytest.mark.parametrize("m", [0, 1, 2, 5, 8])
def test_rows_match_direct_convolution(m):
    fc = dilated_fock_coefficients(m, 2.0)
    n_max = min(fc.coeffs.size - 1, 60)
    oracle = convolution_coefficients(m, 2.0, n_max)
    assert np.allclose(fc.coeffs[: n_max + 1], oracle, atol=1e-12)


@pytest.mark.parametrize("m,lam", [(3, 1.5), (25, 2.0), (100, 3.0), (40, 1.2)])
def test_rows_match_fft_oracle(m, lam):
    fc = dilated_fock_coefficients(m, lam)
    oracle = fft_coefficients(m, lam, npts=8192)
    k = min(fc.coeffs.size, 2000)
    assert np.max(np.abs(fc.coeffs[:k] - oracle[:k])) < 1e-13


def test_spot_values_against_high_precision_sum():
    """High-precision evaluation of the double binomial sum at spot indices,
    including an m too deep in cancellation for a float convolution. The
    summands at m = 200 reach ~1e65 against an O(1e-2) result, so the
    working precision has to cover the full cancellation depth."""
    import mpmath

    mpmath.mp.dps = 200
    for m, lam, ns in ((7, 2.0, (0, 3, 7, 20)), (200, 2.0, (0, 150, 200, 400))):
        fc = dilated_fock_coefficients(m, lam)
        lam_mp = mpmath.mpf(lam)
        tau = (lam_mp**2 - 1) / (lam_mp**2 + 1)
        for n in ns:
            total = mpmath.mpf(0)
            for j in range(min(m, n) + 1):
                total += (
                    mpmath.binomial(m, j)
                    * (-tau) ** (m - j)
                    * mpmath.binomial(m + n - j, m)
                    * tau ** (n - j)
                )
            exact = float((1 - tau) * total)
            assert fc.coeffs[n] == pytest.approx(exact, abs=5e-14, rel=5e-13)


def test_spot_values_m1000_against_high_precision_sum():
    """The FFT row at m = 1000 against the same double binomial sum, at
    the float64 tau the row uses. The summands cancel over several
    hundred digits here, so the sum runs at 900 (1200 gives the same
    floats); the binomials are exact integers."""
    import mpmath

    m = 1000
    fc = dilated_fock_coefficients(m, 2.0)
    with mpmath.workdps(900):
        tau = mpmath.mpf(fc.tau)
        for n in (0, 500, 1000, 2000, 3000):
            total = mpmath.mpf(0)
            for j in range(min(m, n) + 1):
                total += (
                    math.comb(m, j) * math.comb(m + n - j, m)
                    * (-tau) ** (m - j) * tau ** (n - j)
                )
            exact = float((1 - tau) * total)
            assert fc.coeffs[n] == pytest.approx(exact, abs=5e-14, rel=5e-13)


def test_smooth_length_is_least_235_smooth_bound():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    for n in range(1, 600):
        length = _smooth_length(n)
        assert length >= n and smooth(length)
        assert not any(smooth(k) for k in range(n, length))


@pytest.mark.parametrize("length", [8, 16, 24, 40, 1000, 4000, 16000])
def test_half_circle_within_octant_bound(length):
    """The grid from cos and sin on one octant and its exact reflections is
    within (3 pi / 4 + 2) u of the long-double exp(i theta_k), and of the
    exact e^(2 pi i k / L), at every k <= L/2."""
    import mpmath

    u = float(np.finfo(np.longdouble).eps) / 2.0
    bound = (3.0 * math.pi / 4.0 + 2.0) * u
    z = _half_circle(length)
    assert z.dtype == np.clongdouble and z.size == length // 2 + 1
    theta = np.arange(length // 2 + 1, dtype=np.longdouble) * (2 * _PI_L / length)
    assert float(np.max(np.abs(z - np.exp(1j * theta)))) <= bound
    with mpmath.workprec(128):
        worst = max(
            abs(mpmath.mpc(_mpf_of(v.real), _mpf_of(v.imag)) - mpmath.expjpi(mpmath.mpf(2 * k) / length))
            for k, v in enumerate(z)
        )
    assert float(worst) <= bound


@pytest.mark.parametrize("eps", [1e-12, 1e-25])
def test_fft_length_is_least_smooth_multiple_of_8(eps):
    """L is a 2-3-5-smooth multiple of 8 above both n_cut and the cutoff
    N_u at u, and the least such. n_cut comes from a user eps above u
    (1e-12) and below it (1e-25): the search for N_u, started at that
    cutoff's k, finds what a cold search finds, so L is the same."""
    u = float(np.finfo(np.longdouble).eps) / 2.0
    for lam in (0.5, 1.2, 2.0, 3.0, 10.0):
        tau = _tau_of(lam)
        for m in (0, 1, 37, 500, 2000):
            n_cut = _tail_cutoff(m, tau, eps)[0]
            assert _tail_cutoff(m, tau, u, n_cut - m) == _tail_cutoff(m, tau, u)
            bound = max(n_cut, _tail_cutoff(m, tau, u)[0])
            length = _fft_length(n_cut, m, tau)
            assert length % 8 == 0 and _smooth_length(length) == length and length > bound
            first = bound + 1 + (-(bound + 1)) % 8
            assert not any(_smooth_length(k) == k for k in range(first, length, 8))


def test_fft_coefficients_calls_no_exp(monkeypatch):
    """The grid needs no complex exp: with np.exp raising, rows and probes
    come out as before."""
    weights = np.zeros(41)
    weights[[3, 40]] = 0.5
    expected = _fft_coefficients(weights, 0.6, 300)
    row = dilated_fock_coefficients(200, 2.0)

    def no_exp(*args, **kwargs):
        raise AssertionError("np.exp called")

    monkeypatch.setattr(np, "exp", no_exp)
    coeffs, rounding = _fft_coefficients(weights, 0.6, 300)
    assert np.array_equal(coeffs, expected[0]) and rounding == expected[1]
    assert np.array_equal(dilated_fock_coefficients(200, 2.0).coeffs, row.coeffs)
    assert probe_fock_mixture(weights, 2.0).verdict == CERTIFIED


def test_fft_transform_runs_in_long_double():
    """numpy before 2.0 transforms clongdouble in complex128, which would
    void the derived rounding allowance."""
    assert np.fft.irfft(np.ones(16, dtype=np.clongdouble), 30).dtype == np.longdouble
    assert np.fft.irfft(np.ones((2, 16), dtype=np.clongdouble), 30, axis=1).dtype == np.longdouble
    weights = np.array([0.0, 0.0, 1.0])
    coeffs, rounding = _fft_coefficients(weights, 0.6, 40)
    assert coeffs.dtype == np.longdouble
    assert coeffs.size == 41
    assert 0.0 < rounding < 1e-15


def _mpf_of(x):
    """A long double as an mpf, exactly: its float64 head plus the rest."""
    import mpmath

    head = float(x)
    return mpmath.mpf(head) + mpmath.mpf(float(x - np.longdouble(head)))


def test_long_double_hfft_within_derived_pass_bound():
    """The transform bound of `_fft_coefficients` for its Hermitian
    transform, np.fft.irfft: 16 u log2(L) relative in l2, plus 2u for the
    scale fl(1 / L) and the product by it, against an exact inverse DFT
    of the Hermitian extension of a random half vector, at L = 120, whose
    real backward passes have radices 4, 2, 3 and 5."""
    import mpmath

    length = 120
    half = length // 2 + 1
    rng = np.random.default_rng(6)
    x = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    x[0] = x[0].real
    x[-1] = x[-1].real
    y = np.fft.irfft(x.astype(np.clongdouble), length)
    u = float(np.finfo(np.longdouble).eps) / 2.0
    with mpmath.workdps(40):
        w = [mpmath.exp(2j * mpmath.pi * k / length) for k in range(length)]
        xs = [mpmath.mpc(float(v.real), float(v.imag)) for v in x]
        full = xs + [mpmath.conj(xs[length - k]) for k in range(half, length)]
        err2 = norm2 = mpmath.mpf(0)
        for n in range(length):
            exact = mpmath.fsum(full[k] * w[(k * n) % length] for k in range(length)) / length
            err2 += (_mpf_of(y[n]) - exact.real) ** 2 + exact.imag ** 2
            norm2 += abs(exact) ** 2
        rel = float(mpmath.sqrt(err2 / norm2))
    assert rel <= (16.0 * math.log2(length) + 2.0) * u


def _exact_fixed_point(weights, tau, n_cut, bits=700):
    """sum_m c_m p_n^(m) for n <= n_cut, times 2^(2 bits), as exact integers.

    Each row is the double binomial sum p_n = (1 - tau) sum_j C(m, j)
    (-tau)^(m - j) C(m + n - j, m) tau^(n - j), a convolution of
    a_j = C(m, j) (-tau)^(m - j) with b_k = C(m + k, m) tau^k. mpmath
    forms a_j and b_k at bits + 300 bits from the double tau, and their
    fixed-point integers a_j 2^bits, b_k 2^bits are convolved exactly.
    In the tests below a_j stays below 2^261 and b_k below 2^460 (at
    m = 200, lam = 3, where the summands reach 2^625 before they
    cancel), so each product is off by less than 2^-238 and each sum
    of at most 261 of them by less than 2^-229.
    """
    import mpmath

    total = [0] * (n_cut + 1)
    with mpmath.workprec(bits + 300):
        t = mpmath.mpf(tau)
        scale = mpmath.mpf(2) ** bits
        for m in np.flatnonzero(weights):
            m = int(m)
            c = mpmath.mpf(float(weights[m])) * (1 - t) * scale
            a = [int(c * math.comb(m, j) * (-t) ** (m - j)) for j in range(m + 1)]
            b, term = [], scale
            for k in range(n_cut + 1):
                b.append(int(term))
                term *= t * (m + k + 1) / (k + 1)
            b.reverse()  # b[n_cut - k] = b_k, so b_(n - j) for j = 0, 1, .. is a slice
            for n in range(n_cut + 1):
                top = min(m, n) + 1
                total[n] += sum(map(operator.mul, a[:top], b[n_cut - n : n_cut - n + top]))
    return total, 2 * bits


def _l1_error(coeffs, exact):
    """l1 distance of long-double coefficients from an `_exact_fixed_point` sum."""
    import mpmath

    total, shift = exact
    with mpmath.workprec(shift + 200):
        return float(mpmath.fsum(
            abs(_mpf_of(q) - mpmath.ldexp(e, -shift)) for q, e in zip(coeffs, total)
        ))


def _alias(weights, tau, length):
    """Bound on the aliasing of an FFT of length L, which folds indices
    j >= L onto the kept ones; L lies beyond the point where each tail is
    below u."""
    return sum(
        abs(weights[m]) * math.exp(_log_tail(int(m), tau, length - 1 - int(m)))
        for m in np.flatnonzero(weights)
    )


def _block_length(tau, cuts, m_lo, m):
    """FFT length of the block of `_rows(m_lo, ...)` that holds row m, where
    cuts[j] is the cutoff of row m_lo + j: blocks of _SWEEP_BLOCK rows
    start at m_lo and take the length of their largest cutoff and top row."""
    j0 = (m - m_lo) - (m - m_lo) % _SWEEP_BLOCK
    block = cuts[j0 : j0 + _SWEEP_BLOCK]
    return _fft_length(max(n for n, _ in block), m_lo + j0 + len(block) - 1, tau)


@pytest.mark.parametrize("lam", [0.5, -2.0, 1.2, 2.0, 3.0])
def test_fft_rows_within_rounding_allowance_of_exact_sum(lam):
    """Rows 0, 1, 37 and 200 as one-term mixtures, as single rows and in
    `dilated_fock_sweep(200, lam)`, against the exact double binomial sum:
    the l1 error over the kept indices stays within the rounding
    allowance that `_fft_coefficients` derives (plus its aliasing, below
    u). The rows of `_rows` are checked in long double, as their block
    computes them, with the allowance at their block's FFT length, and
    the sweep returns their float64 rounding."""
    tau = _tau_of(lam)
    cuts = _sweep_cutoffs(range(201), tau, 1e-12)
    sweep = dilated_fock_sweep(200, lam)
    ms = (0, 1, 37, 200)
    swept = {m: rest for m, *rest in _rows(0, 200, tau, 1e-12) if m in ms}
    for m in ms:
        weights = np.zeros(m + 1)
        weights[m] = 1.0
        n_cut, tail = cuts[m]
        exact = _exact_fixed_point(weights, tau, n_cut)
        coeffs, rounding = _fft_coefficients(weights, tau, n_cut)
        err = _l1_error(coeffs, exact)
        assert err <= rounding + _alias(weights, tau, _fft_length(n_cut, m, tau)), (m, err)
        (m_row, row, n_row, bound), = _rows(m, m, tau, 1e-12)
        length = _fft_length(n_cut, m, tau)
        rounding = _rounding_allowance(tau, 1.0, m, length, n_cut)
        assert (m_row, n_row, bound) == (m, n_cut, tail + rounding) and row.dtype == np.longdouble
        err = _l1_error(row, exact)
        assert err <= rounding + _alias(weights, tau, length), (m, err)
        row, n_row, bound = swept[m]
        length = _block_length(tau, cuts, 0, m)
        rounding = _rounding_allowance(tau, 1.0, m, length, n_cut)
        assert (n_row, bound) == (n_cut, tail + rounding) and row.dtype == np.longdouble
        assert np.array_equal(sweep[m].coeffs, row.astype(float))
        err = _l1_error(row, exact)
        assert err <= rounding + _alias(weights, tau, length), (m, err)


@pytest.mark.parametrize("lam", [1.2, 2.0])
def test_fft_mixtures_within_rounding_allowance_of_exact_sum(lam):
    """A sparse mixture with gaps of 110 and more (binary powers of s) and
    a dense one (a product by s per index) against the exact sum."""
    tau = _tau_of(lam)
    rng = np.random.default_rng(12)
    sparse = np.zeros(261)
    sparse[[4, 120, 260]] = rng.dirichlet(np.ones(3))
    dense = rng.uniform(0.1, 1.0, 31)
    for weights in (sparse, dense / dense.sum()):
        m_top = weights.size - 1
        n_cut = _tail_cutoff(m_top, tau, 1e-12)[0]
        coeffs, rounding = _fft_coefficients(weights, tau, n_cut)
        err = _l1_error(coeffs, _exact_fixed_point(weights, tau, n_cut))
        assert err <= rounding + _alias(weights, tau, _fft_length(n_cut, m_top, tau)), (m_top, err)


@pytest.mark.parametrize("lam", [0.5, -2.0, 1.2, 2.0, 3.0])
def test_fft_rows_match_coefficient_table(lam):
    tau = _tau_of(lam)
    table = coefficient_rows(500, tau, _tail_cutoff(500, tau, 1e-12)[0])
    for m in (0, 1, 13, 120, 500):
        fc = dilated_fock_coefficients(m, lam)
        oracle = np.asarray(table[m, : fc.coeffs.size], dtype=float)
        assert np.max(np.abs(fc.coeffs - oracle)) <= fc.tail_bound


@pytest.mark.parametrize("lam", [0.5, -2.0, 1.2, 2.0, 3.0])
def test_fft_mixtures_match_coefficient_table(lam):
    """Mixtures through the FFT helper (contractions included) and, for
    |lam| > 1, through the public probe, against the table's c @ P."""
    tau = _tau_of(lam)
    rng = np.random.default_rng(11)
    m_top = 300
    n_cut = _tail_cutoff(m_top, tau, 1e-12)[0]
    table = coefficient_rows(m_top, tau, n_cut)
    dense = rng.uniform(0.1, 1.0, m_top + 1)
    sparse = np.zeros(m_top + 1)
    sparse[[3, 40, 41, 300]] = rng.dirichlet(np.ones(4))
    for w in (dense / dense.sum(), sparse):
        oracle = np.asarray(w.astype(np.longdouble) @ table, dtype=float)
        tail = sum(w[m] * _tail_cutoff(m, tau, 1e-12)[1] for m in np.flatnonzero(w))
        coeffs, rounding = _fft_coefficients(w, tau, n_cut)
        assert np.max(np.abs(np.asarray(coeffs, dtype=float) - oracle)) <= tail + rounding
        if abs(lam) > 1.0:
            result = probe_fock_mixture(w, lam)
            assert result.coefficients.size == n_cut + 1
            assert np.max(np.abs(result.coefficients - oracle)) <= result.tail_bound


def test_row_m10000_sums_values_and_memory():
    """m = 10^4 at lam = 2 (N = 77617): a full coefficient table would
    take about 12.4 GB; the FFT row keeps O(N) memory."""
    import mpmath

    tracemalloc.start()
    try:
        fc = dilated_fock_coefficients(10_000, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fc.truncation_N == 77617
    assert peak < 50e6
    assert abs(np.sum(fc.coeffs) - 1.0) <= fc.tail_bound
    assert abs(np.sum(fc.coeffs**2) - 0.25) <= fc.tail_bound

    # Evaluated as a polynomial at points off the FFT grid, the row is
    # g_m up to the tail bound plus the long-double rounding of the
    # evaluation (phases n theta and the sum, below 16 N u sum |p_n|).
    p = fc.coeffs.astype(np.longdouble)
    n = np.arange(p.size, dtype=np.longdouble)
    u = float(np.finfo(np.longdouble).eps) / 2.0
    tol = fc.tail_bound + 16.0 * p.size * u * float(np.sum(np.abs(p)))
    with mpmath.workdps(40):
        tau = mpmath.mpf(fc.tau)
        for theta in (0.3, 1.1, 2.9):
            z = mpmath.exp(1j * mpmath.mpf(theta))
            exact = complex((1 - tau) * (z - tau) ** fc.m / (1 - tau * z) ** (fc.m + 1))
            value = complex(np.sum(p * np.exp(1j * (n * np.longdouble(theta)))))
            assert abs(value - exact) <= tol


def test_normalization_within_tail_bound():
    for lam in (1.2, 2.0, 3.0):
        for m in (0, 1, 7, 50, 200):
            fc = dilated_fock_coefficients(m, lam)
            assert abs(np.sum(fc.coeffs) - 1.0) <= fc.tail_bound


def test_purity_identity_within_tail_bound():
    for lam in (1.2, 2.0, 3.0):
        for m in (0, 3, 30, 120):
            fc = dilated_fock_coefficients(m, lam)
            assert abs(hs_norm_check(m, lam) - 1.0 / lam**2) <= 10.0 * fc.tail_bound


def test_truncation_grows_with_dilatation_strength():
    # Stronger dilatations move tau toward 1 and stretch the series.
    n_weak = dilated_fock_coefficients(50, 1.2).truncation_N
    n_mid = dilated_fock_coefficients(50, 2.0).truncation_N
    n_strong = dilated_fock_coefficients(50, 3.0).truncation_N
    assert n_weak < n_mid < n_strong


def test_sweep_agrees_with_single_rows():
    rows = dilated_fock_sweep(12, 2.0)
    assert len(rows) == 13
    for m in (0, 5, 12):
        single = dilated_fock_coefficients(m, 2.0)
        k = min(rows[m].coeffs.size, single.coeffs.size)
        assert np.allclose(rows[m].coeffs[:k], single.coeffs[:k], atol=5e-15)
        assert rows[m].m == m


# lam = 10 stops at m_max = 37: its reference table at m_max = 300 is
# 301 x 116102 long doubles, 0.56 GB.
SWEEP_TABLE_CASES = [
    (lam, m_max)
    for lam in (0.5, -2.0, 1.2, 2.0, 3.0, 10.0)
    for m_max in (0, 1, 2, 37, 300)
    if (lam, m_max) != (10.0, 300)
]


def _sweep_within_table(rows, tau, cuts):
    """Each sweep row has its own cutoff and is within its tail_bound, in
    l1, of the reference table's row, and its tail_bound holds more than
    the analytic tail and the float64 allowance: the FFT's rounding."""
    table = coefficient_rows(len(cuts) - 1, tau, max(n for n, _ in cuts))
    assert len(rows) == len(cuts)
    for m, (fc, (n_cut, tail)) in enumerate(zip(rows, cuts)):
        oracle = np.asarray(table[m, : n_cut + 1], dtype=float)
        assert fc.m == m and fc.truncation_N == n_cut and fc.coeffs.shape == oracle.shape
        assert np.sum(np.abs(fc.coeffs - oracle)) <= fc.tail_bound
        assert fc.tail_bound > tail + _representation_allowance(fc.coeffs)


@pytest.mark.parametrize("lam, m_max", SWEEP_TABLE_CASES)
def test_sweep_rows_equal_coefficient_table(lam, m_max):
    """The sweep's rows equal the reference table's rows within their
    tail_bound, the contract of FockCoefficients; the largest difference
    is below 1e-4 tail_bound."""
    tau = _tau_of(lam)
    cuts = [_tail_cutoff(m, tau, 1e-12) for m in range(m_max + 1)]
    _sweep_within_table(dilated_fock_sweep(m_max, lam), tau, cuts)


@pytest.mark.parametrize("lam", [1.0001, 1.2, 2.0, 3.0, 10.0, 0.5, -2.0])
@pytest.mark.parametrize("eps", [1e-12, 1e-6, 10.0])
def test_sweep_cutoffs_equal_tail_cutoff(lam, eps):
    """Warm-started searches give the cold search's (N, bound) for each m,
    over every m <= 600 and over sparse and dense index lists, and each
    answer is the least k > k_lo with the bound below eps. At eps = 10
    some answers sit at k_lo + 1, where the search's bracket must not
    reach below k_lo."""
    tau = _tau_of(lam)
    cuts = [_tail_cutoff(m, tau, eps) for m in range(601)]
    assert _sweep_cutoffs(range(601), tau, eps) == cuts
    for ms in ([0, 3, 250, 600], [7], [1, 2, 3, 40, 41, 42, 43, 599, 600], range(100, 301)):
        assert _sweep_cutoffs(ms, tau, eps) == [cuts[m] for m in ms]
    t, target = abs(tau), math.log(eps)
    for m, (n_cut, tail) in enumerate(cuts):
        k, k_lo = n_cut - m, int(t * (m + 2.0) / (1.0 - t)) + 1
        assert k > k_lo and tail == math.exp(_log_tail(m, tau, k)) and tail < eps
        assert k == k_lo + 1 or _log_tail(m, tau, k - 1) >= target


def test_sweep_m500_memory():
    """M = 500 at lam = 3 (N = 11049): the long-double table made a 111 MB
    tracemalloc peak; the float64 rows and one block of FFT buffers stay
    under 80 MB."""
    tracemalloc.start()
    try:
        rows = dilated_fock_sweep(500, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[-1].truncation_N == 11049
    assert peak < 80e6


def _sweep_peak_beyond_rows(m_max, lam):
    """tracemalloc peak of dilated_fock_sweep(m_max, lam) minus the bytes of its rows."""
    tracemalloc.start()
    try:
        rows = dilated_fock_sweep(m_max, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(fc.coeffs.nbytes for fc in rows)


def test_sweep_m500_memory_is_rows_plus_block():
    """At M = 500, lam = 3 the working memory is the returned rows (22 MB)
    plus one grid of the top block's FFT length (L = 11520, 0.4 MB) and at
    most _BATCH_BYTES of samples and transform, not an (M + 1) x (N + 1)
    table: 1.5 MB beyond the rows, where holding all 16 rows of a block
    at once took 7.5 MB."""
    assert _sweep_peak_beyond_rows(500, 3.0) <= 4e6


def test_sweep_working_memory_is_bounded():
    """At lam = 10 the FFT length reaches 25600 by M = 60, where the 16
    rows of a block take 13 MB of samples and transform: transformed at
    once they made a peak 14.6 MB above the rows, and in batches of
    _BATCH_BYTES the peak is 2.0 MB above them."""
    assert _sweep_peak_beyond_rows(60, 10.0) <= 5e6


@pytest.mark.parametrize("lam, m_max", [(10.0, 40), (3.0, 40), (-2.0, 20)])
def test_rows_do_not_depend_on_the_batch_size(monkeypatch, lam, m_max):
    """Each row passes the same products and its own transform in any
    batching of its block: one row per batch, the default _BATCH_BYTES and
    a whole block per batch give the same long-double rows and bounds."""
    tau = _tau_of(lam)
    default = list(_rows(0, m_max, tau, 1e-12))
    for batch_bytes in (1, 1 << 40):
        monkeypatch.setattr(fockprobe, "_BATCH_BYTES", batch_bytes)
        rows = list(_rows(0, m_max, tau, 1e-12))
        assert [(m, n, b) for m, _, n, b in rows] == [(m, n, b) for m, _, n, b in default]
        assert all(np.array_equal(r[1], d[1]) for r, d in zip(rows, default))


# m_max with the last row at the end of a block of _SWEEP_BLOCK = 16 rows
# (15, 31), one row past it (16, 32) and two rows past it (17); 0 is a
# sweep of one row. At lam = 10 the last block splits into batches
# (test_batch_edge_cases_split_their_blocks): m_max = 9 and 21 end at a
# batch edge, 10 and 22 one row past one, and 7 two rows past one.
SWEEP_BLOCK_CASES = [
    (0, 1.2, 1e-12),
    (15, 2.0, 1e-12),
    (16, 3.0, 1e-9),
    (17, 2.5, 1e-12),
    (31, 1.1, 1e-6),
    (32, -2.0, 1e-12),
    (7, 10.0, 1e-12),
    (9, 10.0, 1e-12),
    (10, 10.0, 1e-12),
    (21, 10.0, 1e-12),
    (22, 10.0, 1e-12),
]


def _batch_sizes(m_max, lam, eps):
    """Rows in each batch of each block of dilated_fock_sweep(m_max, lam, eps):
    as many as fit in _BATCH_BYTES at 32 L bytes a row, and at least one."""
    tau = _tau_of(lam)
    cuts = _sweep_cutoffs(range(m_max + 1), tau, eps)
    sizes = []
    for j0 in range(0, m_max + 1, _SWEEP_BLOCK):
        rows = len(cuts[j0 : j0 + _SWEEP_BLOCK])
        batch = max(1, _BATCH_BYTES // (32 * _block_length(tau, cuts, 0, j0)))
        sizes.append([min(batch, rows - i) for i in range(0, rows, batch)])
    return sizes


def test_batch_edge_cases_split_their_blocks():
    """Every block of the table case lam = 10, M = 37 is split into batches,
    and the last block of each batch-edge case ends where the comment on
    SWEEP_BLOCK_CASES says."""
    assert _BATCH_BYTES == 1 << 20 and (10.0, 37) in SWEEP_TABLE_CASES
    assert _batch_sizes(37, 10.0, 1e-12) == [[4] * 4, [2] * 8, [1] * 6]
    last = {m: _batch_sizes(m, 10.0, 1e-12)[-1] for m in (7, 9, 10, 21, 22)}
    assert last == {7: [6, 2], 9: [5, 5], 10: [5, 5, 1], 21: [3, 3], 22: [3, 3, 1]}


@pytest.mark.parametrize("m_max, lam, eps", SWEEP_BLOCK_CASES)
def test_sweep_rows_equal_coefficient_table_at_block_edges(m_max, lam, eps):
    """Rows at and past the edges of a block or of a batch within it equal
    the reference table's within their tail_bound, which is the analytic
    tail plus the rounding allowance at the FFT length of the row's block,
    set by its top row, plus the float64 allowance."""
    assert _SWEEP_BLOCK == 16
    tau = _tau_of(lam)
    cuts = _sweep_cutoffs(range(m_max + 1), tau, eps)
    rows = dilated_fock_sweep(m_max, lam, eps)
    _sweep_within_table(rows, tau, cuts)
    for m, (fc, (n_cut, tail)) in enumerate(zip(rows, cuts)):
        rounding = _rounding_allowance(tau, 1.0, m, _block_length(tau, cuts, 0, m), n_cut)
        assert fc.tail_bound == tail + rounding + _representation_allowance(fc.coeffs)


@pytest.mark.parametrize("m_lo, m_hi, lam, eps", [
    (5, 5, 2.0, 1e-12),
    (1, 17, 0.5, 1e-12),
    (7, 40, 3.0, 1e-12),
    (100, 131, -2.0, 1e-9),
])
def test_rows_from_any_start_keep_block_bounds(m_lo, m_hi, lam, eps):
    """`_rows` started at m_lo > 0 counts its blocks from m_lo: each row has
    its own cutoff, a bound of the analytic tail plus the rounding
    allowance at its block's FFT length, and is within that bound plus
    the float64 allowance, in l1, of the reference table's row. A block
    of one row is the single row that dilated_fock_coefficients returns."""
    tau = _tau_of(lam)
    cuts = _sweep_cutoffs(range(m_lo, m_hi + 1), tau, eps)
    table = coefficient_rows(m_hi, tau, max(n for n, _ in cuts))
    rows = list(_rows(m_lo, m_hi, tau, eps))
    assert [m for m, *_ in rows] == list(range(m_lo, m_hi + 1))
    for (m, row, n_row, bound), (n_cut, tail) in zip(rows, cuts):
        assert n_row == n_cut and row.dtype == np.longdouble and row.size == n_cut + 1
        rounding = _rounding_allowance(tau, 1.0, m, _block_length(tau, cuts, m_lo, m), n_cut)
        assert bound == tail + rounding
        coeffs = row.astype(float)
        oracle = np.asarray(table[m, : n_cut + 1], dtype=float)
        assert np.sum(np.abs(coeffs - oracle)) <= bound + _representation_allowance(coeffs)
    for m in (m_lo, m_hi):
        (_, row, n_cut, bound), = _rows(m, m, tau, eps)
        fc = dilated_fock_coefficients(m, lam, eps)
        assert np.array_equal(fc.coeffs, row.astype(float)) and fc.truncation_N == n_cut
        assert fc.tail_bound == bound + _representation_allowance(fc.coeffs)


def test_trace_norm_sum_grows_in_m():
    # m = 2000 and 10^4 are the growth of acceptance criterion 8 past the
    # sizes a full coefficient table allows.
    values = [trace_norm_sum(m, 2.0) for m in (25, 100, 400, 2000, 10_000)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))
    assert values[0] > 2.0


def test_probe_pure_fock_state_certified():
    result = probe_fock_mixture([0.0] * 7 + [1.0], 2.0)
    assert result.verdict == CERTIFIED
    assert result.min_coefficient < -result.tail_bound
    assert len(result.negative_indices) > 0


def test_probe_vacuum_finds_no_negativity():
    result = probe_fock_mixture([1.0], 2.0)
    assert result.verdict == NO_NEGATIVITY
    assert result.min_coefficient >= -result.tail_bound


def test_probe_mixture_linear_combination():
    weights = [0.5, 0.0, 0.0, 0.3, 0.0, 0.0, 0.2]
    result = probe_fock_mixture(weights, 2.0)
    rows = [dilated_fock_coefficients(m, 2.0) for m in range(len(weights))]
    width = min(r.coeffs.size for r in rows)
    expected = sum(c * r.coeffs[:width] for c, r in zip(weights, rows))
    assert np.allclose(result.coefficients[:width], expected, atol=1e-14)


def test_probe_rejects_bad_weights():
    with pytest.raises(ValueError):
        probe_fock_mixture([0.7, 0.7], 2.0)
    with pytest.raises(ValueError):
        probe_fock_mixture([1.2, -0.2], 2.0)
    with pytest.raises(ValueError):
        probe_fock_mixture([], 2.0)


def test_probe_refuses_weights_whose_sum_overflows():
    """Finite weights that sum past the largest double are refused as a sum
    of inf, with no overflow warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("weights must sum to 1, got inf")):
            probe_fock_mixture([1e308, 1e308], 2.0)


NONFINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NONFINITE)
def test_probe_rejects_nonfinite_arguments(bad):
    for weights in ([0.5, bad], [bad, 0.5, 0.5]):
        with pytest.raises(ValueError, match="weights must be finite"):
            probe_fock_mixture(weights, 2.0)
    with pytest.raises(ValueError, match="lam must be finite"):
        probe_fock_mixture([0.5, 0.5], bad)
    with pytest.raises(ValueError, match="eps must be finite"):
        probe_fock_mixture([0.5, 0.5], 2.0, eps=bad)


@pytest.mark.parametrize("bad", NONFINITE)
def test_rows_and_sweeps_reject_nonfinite_arguments(bad):
    for call in (dilated_fock_coefficients, dilated_fock_sweep, trace_norm_sum, hs_norm_check):
        with pytest.raises(ValueError, match="lam must be finite"):
            call(5, bad)
        with pytest.raises(ValueError, match="eps must be finite"):
            call(5, 2.0, bad)


@pytest.mark.parametrize("m, lam", [(0, 2.0), (7, 1.5), (50, 2.0), (40, 0.5), (3, -1.0), (600, 3.0)])
def test_norm_sums_sum_the_returned_row(m, lam):
    """Both norm sums read the float64 row of dilated_fock_coefficients."""
    coeffs = dilated_fock_coefficients(m, lam).coeffs
    assert trace_norm_sum(m, lam) == float(np.sum(np.abs(coeffs)))
    assert hs_norm_check(m, lam) == float(np.sum(coeffs * coeffs))


def _row_fields(row):
    return row.m, type(row.m), row.lam, row.tau, row.truncation_N, row.tail_bound, row.coeffs.tolist()


@pytest.mark.parametrize("index_type", [np.int32, np.int64])
def test_row_entry_points_take_numpy_integer_indices(index_type):
    """A numpy integer index, which the validation accepts, gives what the
    Python int gives at every row entry point, not an AttributeError from
    int.bit_length in the FFT length."""
    m, lam = 37, 2.0
    assert _row_fields(dilated_fock_coefficients(index_type(m), lam)) == _row_fields(
        dilated_fock_coefficients(m, lam)
    )
    sweep, expected = dilated_fock_sweep(index_type(m), lam), dilated_fock_sweep(m, lam)
    assert [_row_fields(r) for r in sweep] == [_row_fields(r) for r in expected]
    assert trace_norm_sum(index_type(m), lam) == trace_norm_sum(m, lam)
    assert hs_norm_check(index_type(m), lam) == hs_norm_check(m, lam)


def _exact_mixture_coefficient(weights, tau, n):
    """q_n = sum_m c_m p_n^(m) in rational arithmetic, weights a dict m -> c_m.

    (z - tau)^m (1 - tau z)^(-(m+1)) expands to p_n^(m) =
    (1 - tau) sum_j C(m, j) (-tau)^(m-j) C(m + n - j, m) tau^(n-j).
    """
    return sum(
        c * (1 - tau) * sum(
            math.comb(m, j) * (-tau) ** (m - j) * math.comb(m + n - j, m) * tau ** (n - j)
            for j in range(min(m, n) + 1)
        )
        for m, c in weights.items()
    )


def test_probe_bounds_every_tail_at_the_shared_cutoff():
    """Every weight's series is cut at the cutoff of the top index, so the
    probe bounds its tail there, not at the weight's own, smaller cutoff.
    At lam = 3/2 (tau = 5/13) the mixture 0.9 |37><37| + 0.1 |77><77| has
    q_2 = -7.86e-13 in exact arithmetic. The bound at the shared cutoff
    certifies that index; the tails at the weights' own cutoffs alone add
    up to 9.4e-13, more than |q_2|, and could not."""
    weights = np.zeros(78)
    weights[37], weights[77] = 0.9, 0.1
    result = probe_fock_mixture(weights, 1.5)
    exact = float(_exact_mixture_coefficient({37: Fraction(9, 10), 77: Fraction(1, 10)}, Fraction(5, 13), 2))
    assert exact < -result.tail_bound
    assert abs(result.coefficients[2] - exact) <= result.tail_bound
    assert 2 in result.negative_indices
    tau = _tau_of(1.5)
    own_cutoff_tails = 0.9 * _tail_cutoff(37, tau, 1e-12)[1] + 0.1 * _tail_cutoff(77, tau, 1e-12)[1]
    assert exact > -own_cutoff_tails


@pytest.mark.parametrize("support", [1, 2, 40, 501])
def test_probe_searches_one_cutoff_whatever_its_support(support, monkeypatch):
    """A probe runs _tail_cutoff twice: once for the cutoff of its top index
    and once in _fft_length for the FFT length, however many weights are
    nonzero."""
    import gaussmap.fockprobe as fockprobe

    calls = []
    original = fockprobe._tail_cutoff

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(fockprobe, "_tail_cutoff", counted)
    weights = np.zeros(501)
    weights[np.linspace(500, 0, support, dtype=int)] = 1.0
    result = probe_fock_mixture(weights / math.fsum(weights), 2.0)
    assert np.count_nonzero(weights) == support
    assert calls == [500, 500]
    assert result.coefficients.size == _tail_cutoff(500, _tau_of(2.0), 1e-12)[0] + 1


def test_probe_requires_strict_dilatation():
    with pytest.raises(ValueError):
        probe_fock_mixture([0.0, 1.0], 1.0)


def test_probe_vacuum_heavy_mixture_stays_uncertified():
    # Almost all vacuum: the small m = 1 admixture cannot push any q_n
    # below the combined tail.
    result = probe_fock_mixture([0.999, 0.001], 2.0)
    assert result.verdict == NO_NEGATIVITY


def test_airy_limit_error_zero_argument_exact():
    assert airy_limit_error(0.0, 100, 2.0) == 0.0


def test_airy_limit_error_decreases_in_m():
    for k in (0.5, 1.0):
        errs = [airy_limit_error(k, m, 2.0) for m in (100, 1000, 10000)]
        assert errs[0] > errs[1] > errs[2]


def test_airy_limit_error_frozen_values():
    assert airy_limit_error(1.0, 100, 2.0) == pytest.approx(0.13480794, abs=1e-7)
    assert airy_limit_error(1.0, 1000, 2.0) == pytest.approx(0.061882031, abs=1e-8)
    assert airy_limit_error(0.5, 10000, 2.0) == pytest.approx(0.014121628, abs=1e-8)


@pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("k", [1.0, 2.0])
def test_airy_limit_error_leading_term_is_uncompensated_phase(k, lam):
    """The error less its predicted leading term |e^(i phi) - 1|,
    phi = ((lam^2 - 1) / 2) a_m k, is O(m^(-2/3)): it falls by at least
    3.5x per decade of m (m^(-2/3) gives 4.64x), while the error itself
    falls like m^(-1/3) (2.15x)."""
    tau = _tau_of(lam)
    rests = []
    for m in (10**3, 10**4, 10**5):
        a_m = (1.0 - tau) / (m * tau * (1.0 + tau)) ** (1.0 / 3.0)
        predicted = abs(np.exp(1j * (lam * lam - 1.0) / 2.0 * a_m * k) - 1.0)
        rests.append(abs(airy_limit_error(k, m, lam) - predicted))
    assert rests[0] >= 3.5 * rests[1] and rests[1] >= 3.5 * rests[2], rests


def test_airy_limit_error_rejects_bad_arguments():
    with pytest.raises(ValueError):
        airy_limit_error(1.0, 0, 2.0)
    with pytest.raises(ValueError):
        airy_limit_error(1.0, 100, 1.0)


@pytest.mark.parametrize("lam, tau", [(1e9, "1.0"), (1e-200, "-1.0"), (1e200, "nan")])
def test_rows_reject_lam_whose_tau_rounds_to_the_unit_circle(lam, tau):
    """tau = (lam^2 - 1) / (lam^2 + 1) is exactly 1.0 from |lam| of about 1e8
    up, -1.0 below about 1e-8, and NaN once lam * lam overflows; each call
    names lam instead of dividing by 1 - |tau| = 0 or taking int of NaN."""
    for call in (dilated_fock_coefficients, dilated_fock_sweep, trace_norm_sum, hs_norm_check):
        with pytest.raises(ValueError, match=f"lam = .* gives tau = {tau} in double precision"):
            call(5, lam)
    with pytest.raises(ValueError, match="lam"):
        airy_limit_error(1.0, 10, lam)


@pytest.mark.parametrize("lam, shown", [(1e7, "1e+07"), (-1e7, "1e+07"), (1e-7, "1e-07")])
def test_rows_reject_lam_beyond_the_tail_cutoff_limit(lam, shown):
    """tau is below 1 here, but the cutoff of row 5 passes 10^7 coefficients:
    a ValueError naming |lam| (recovered from tau) and the limit, not a
    search that fails to terminate."""
    limit = re.escape("more than 10^7 coefficients")
    for call in (dilated_fock_coefficients, dilated_fock_sweep, trace_norm_sum, hs_norm_check):
        with pytest.raises(ValueError, match=re.escape(f"|lam| = {shown} (tau = ") + ".*" + limit):
            call(5, lam)
    if abs(lam) > 1.0:
        with pytest.raises(ValueError, match=limit):
            probe_fock_mixture([0.0, 1.0], lam)


def test_tail_cutoff_limit_bounds_row_memory():
    """A row peaks at about 96 bytes per coefficient, so the 10^7 limit keeps
    it near 1 GB: lam = 1000 (N = 5.8e7 at m = 5) is refused by the cutoff
    search itself, before any row is allocated. lam = 300 (N = 4.6e6) and
    lam = 420 (N = 9.4e6, where the gallop's next step would pass 10^7)
    stay below the limit and are accepted."""
    with pytest.raises(ValueError, match=re.escape("more than 10^7 coefficients")):
        _tail_cutoff(5, _tau_of(1000.0), 1e-12)
    for lam, n in ((300.0, 4639954), (420.0, 9405779)):
        assert _tail_cutoff(5, _tau_of(lam), 1e-12)[0] == n


def test_tail_cutoff_limit_bounds_row_length(monkeypatch):
    """The 10^7 limit is on the row length N = m + k, not on k: a Fock
    index near or above it is refused by the cutoff search, which never
    evaluates a k with m + k beyond the limit, before any row exists."""
    tau = _tau_of(1.0001)
    seen = []

    def logged(m, tau, k):
        seen.append(m + k)
        return _log_tail(m, tau, k)

    monkeypatch.setattr("gaussmap.fockprobe._log_tail", logged)
    limit = re.escape("more than 10^7 coefficients")
    for m in (3 * 10**7, _MAX_TAIL_N, _MAX_TAIL_N - 1000):
        with pytest.raises(ValueError, match=limit):
            _tail_cutoff(m, tau, 1e-12)
        with pytest.raises(ValueError, match=limit):
            _tail_cutoff(m, tau, 1e-12, 2 * _MAX_TAIL_N)
    # k = 3602 fits below the limit at this m, from a cold and a clamped start.
    for start in (None, 2 * _MAX_TAIL_N):
        assert _tail_cutoff(_MAX_TAIL_N - 20000, tau, 1e-12, start)[0] == 9983602
    assert max(seen) <= _MAX_TAIL_N
    with pytest.raises(ValueError, match=limit):
        dilated_fock_coefficients(3 * 10**7, 1.0001)


def test_airy_limit_error_rejects_nan_m():
    with pytest.raises(ValueError, match="m >= 1"):
        airy_limit_error(1.0, math.nan, 2.0)


@pytest.mark.parametrize("bad", NONFINITE)
def test_airy_limit_error_rejects_nonfinite_arguments(bad):
    with pytest.raises(ValueError, match="k must be finite"):
        airy_limit_error(bad, 100, 2.0)
    with pytest.raises(ValueError, match="lam"):
        airy_limit_error(1.0, 100, bad)


@pytest.mark.parametrize(
    "k, m, message",
    [
        (1e300, 10, "k = 1e+300 gives k^3 / 3 = inf"),
        (-1e103, 10, "k = -1e+103 gives k^3 / 3 = -inf"),
        (1.0, 10**20, f"m = {10**20} gives a limit error of inf"),
        (1.0, 10**400, f"m = {10**400} is beyond double precision"),
    ],
)
def test_airy_limit_error_refuses_what_overflows(k, m, message):
    """A k whose k^3 / 3 overflows, an m whose evaluation overflows and an
    int m beyond the largest double each give one ValueError naming k or m,
    with no warning and no OverflowError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            airy_limit_error(k, m, 2.0)


def test_airy_limit_error_just_below_the_overflow_is_finite():
    """k^3 / 3 of 1e102 is finite, and so is the error at m = 10^17."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(airy_limit_error(1e102, 10, 2.0))
        assert math.isfinite(airy_limit_error(1.0, 10**17, 2.0))


@pytest.mark.parametrize("lam", [1.0, -1.0])
def test_sweep_at_unit_lam_is_exactly_the_identity(lam):
    """|lam| = 1 gives tau = 0: every row of the sweep is e_m, with no tail."""
    rows = dilated_fock_sweep(40, lam)
    assert [r.m for r in rows] == list(range(41))
    for r in rows:
        assert np.array_equal(r.coeffs, np.eye(r.m + 1)[r.m])
        assert r.tail_bound == 0.0
