"""Coefficient sequences of dilated Fock states and mixture probing.

A phase-space dilatation by lam sends the Fock state |m><m| to an
operator that is again diagonal in the Fock basis, with a real
coefficient sequence p_n whose generating function is

    g_m(z) = (1 - tau) (z - tau)^m (1 - tau z)^(-(m+1)),
    tau = (lam^2 - 1) / (lam^2 + 1).

This module extracts the p_n, computes the norm sums that quantify how
the sequences grow, probes finite Fock mixtures for negativity (the
convex-hull certificate), and evaluates the oscillatory large-m limit
of g_m along its natural scaling.

Rows and mixtures sum_m c_m g_m are read off samples on the unit circle
by a long-double FFT of the Hermitian half of the circle, in
O(N log N) time and O(N) memory for N coefficients. Each sample is g_0
times a polynomial in the unimodular s = (z - tau) / (1 - tau z),
formed by divisions and binary powering with no transcendental function
(`_grid_samples`). The grid points z take long-double cos and sin on
one eighth of the circle only; the rest of the half circle is their
exact reflections (`_half_circle`). Single rows, norm sums and sweeps
share one row builder, `_rows`: it transforms consecutive rows in
blocks of `_SWEEP_BLOCK` that share one grid, where row m's samples are
row m - 1's times s, and a single row is a block of one. A block's
samples and transform are formed in batches of at most `_BATCH_BYTES`,
so besides the rows it returns a sweep holds one grid and one batch,
whatever the FFT length. Mixtures go through `_fft_coefficients`, which
evaluates the polynomial by Horner's rule. The returned tail bound
covers the analytic tail beyond the cutoff, the aliasing of the FFT and
its rounding (`_rounding_allowance`).
"""

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_EPS = 1e-12

CERTIFIED = "certified_not_in_convex_hull"
NO_NEGATIVITY = "no_negativity_found"


def _finite(name, value):
    """value as a float; a ValueError naming the argument if it is nan or infinite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _tau_of(lam):
    lam = _finite("lam", lam)
    if lam == 0.0:
        raise ValueError("dilatation parameter must be nonzero")
    tau = (lam * lam - 1.0) / (lam * lam + 1.0)
    if not abs(tau) < 1.0:
        raise ValueError(f"lam = {lam!r} gives tau = {tau!r} in double precision, not |tau| < 1")
    return tau


def _log_tail(m, tau, k):
    """Log of the analytic tail bound of row m at N = m + k; inf while rho >= 1.

    The tail of the factored series is bounded by
    (1 - tau) (1 + |tau|)^m sum_{k' > k} C(m+k', m) |tau|^k', and the sum
    by its first term times 1 / (1 - rho), rho = |tau| (m + k + 2) / (k + 2).
    Binomials go through lgamma so m in the hundreds stays in range.
    """
    t = abs(tau)
    rho = t * (m + k + 2.0) / (k + 2.0)
    if rho >= 1.0:
        return math.inf
    log_pref = m * math.log1p(t) + math.log(1.0 - tau)
    log_binom = math.lgamma(m + k + 2.0) - math.lgamma(k + 2.0) - math.lgamma(m + 1.0)
    return log_pref + log_binom + (k + 1.0) * math.log(t) - math.log(1.0 - rho)


# Largest row length N = m + k that _tail_cutoff accepts: 10^7 coefficients, about
# 1 GB per row, as a row peaks at about 96 bytes per coefficient (tracemalloc).
_MAX_TAIL_N = 10**7


def _tail_cutoff(m, tau, eps, k_start=None):
    """Smallest N = m + k, k > k_lo, with the analytic tail bound below eps; 0 < |tau| < 1.

    The bound falls in k above k_lo, so every bracket search finds the
    same k. This one starts at max(k_start or 8, k_lo + 1), gallops to a
    bracket and bisects; a sweep that starts each row at the previous k
    plus the previous step pays about three evaluations per row instead
    of twenty-odd.

    Returns:
        (N, tail_bound) with tail_bound the certified bound actually
        achieved at the returned N.

    Raises:
        ValueError: when N would pass _MAX_TAIL_N, naming |lam| =
        sqrt((1 + tau) / (1 - tau)) (lam and -lam share tau). No k with
        m + k beyond that limit is evaluated, so a Fock index m near or
        above it is refused before a row is allocated.
    """
    t = abs(tau)
    target = math.log(eps)
    k_max = _MAX_TAIL_N - m

    def below(k):
        return _log_tail(m, tau, k) < target

    # lo is k_lo or fails `below`; hi passes it. A start beyond k_max is
    # clamped to k_max, so hi <= lo means k_max <= lo and no k is left.
    lo = int(t * (m + 2.0) / (1.0 - t)) + 1
    hi, gap = min(max(k_start or 8, lo + 1), k_max), 1
    while hi <= lo or not below(hi):
        if hi >= k_max:
            lam = math.sqrt((1.0 + tau) / (1.0 - tau))
            raise ValueError(
                f"|lam| = {lam:.3g} (tau = {tau!r}) needs a tail cutoff of more than"
                f" 10^7 coefficients for Fock index {m}"
            )
        lo, hi, gap = hi, min(hi + gap, k_max), 2 * gap
    while hi - gap > lo and below(hi - gap):
        hi, gap = hi - gap, 2 * gap
    lo = max(lo, hi - gap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if below(mid) else (mid, hi)
    return m + hi, math.exp(_log_tail(m, tau, hi))


def _sweep_cutoffs(ms, tau, eps):
    """`_tail_cutoff(m, tau, eps)` for each m of the increasing sequence ms, 0 < |tau| < 1.

    k grows with m by a nearly constant step, so each search starts at
    the previous k plus the previous step. Every start gives the same
    answer; a close one only saves evaluations.
    """
    cuts, k, step = [], 0, 0
    for m in ms:
        n, tail = _tail_cutoff(m, tau, eps, k + step)
        step, k = n - m - k, n - m
        cuts.append((n, tail))
    return cuts


# pi to long-double precision.
_PI_L = np.longdouble("3.14159265358979323846264338327950288")


def _smooth_length(n):
    """Smallest L >= n of the form 2^a 3^b 5^c, a length pocketfft handles fast."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _fft_length(n_cut, m_top, tau):
    """FFT length of a row or mixture: the least multiple of 8 that is
    2-3-5-smooth and above both n_cut and the index N_u where the analytic
    tail of g_(m_top) falls below u (the long-double unit roundoff).

    A multiple of 8 lets `_half_circle` build its grid from one octant.
    The search for N_u starts at k = n_cut - m_top, the k of the caller's
    own cutoff when n_cut is one; every start gives the same N_u.
    """
    u = float(np.finfo(np.longdouble).eps) / 2.0
    n = max(n_cut, _tail_cutoff(m_top, tau, u, n_cut - m_top)[0]) + 1
    return 8 * _smooth_length(-(-n // 8))


def _half_circle(length):
    """z_k = e^(i theta_k), theta_k = 2 pi k / length, for k <= length / 2;
    length a multiple of 8.

    cos and sin run in long double on the first octant, k <= length / 8,
    where theta_k <= pi / 4 needs no argument reduction. The rest of the
    half circle is their exact reflections: z_(L/4 - k) = i conj(z_k)
    swaps the real and imaginary parts, and z_(L/2 - k) = -conj(z_k)
    negates the real part.
    """
    e, q, h = length // 8, length // 4, length // 2
    theta = np.arange(e + 1, dtype=np.longdouble) * (2 * _PI_L / length)
    z = np.empty(h + 1, dtype=np.clongdouble)
    re, im = z.real, z.imag
    np.cos(theta, out=re[: e + 1])
    np.sin(theta, out=im[: e + 1])
    re[e : q + 1] = im[e::-1]
    im[e : q + 1] = re[e::-1]
    np.negative(re[q::-1], out=re[q:])
    im[q:] = im[q::-1]
    return z


def _times_power(acc, s, k):
    """acc *= s**k in place by binary powering, in at most 2 log2(k) products.

    The squares s^(2^j) overwrite one scratch array; a gap of 1 costs one
    product and k = 0 none.
    """
    base = s
    while True:
        if k & 1:
            acc *= base
        k >>= 1
        if not k:
            return
        base = base * base if base is s else np.multiply(base, base, out=base)


def _grid_samples(length, tau):
    """(s, g_0) of `_fft_coefficients` and `_rows` at the conjugate grid
    points conj(z_k), k <= length / 2, whose irfft gives the coefficients."""
    tau_l = np.longdouble(tau)
    z = _half_circle(length)
    np.negative(z.imag, out=z.imag)
    w = 1 - tau_l * z
    s = np.divide(z - tau_l, w, out=z)
    g_0 = np.divide(1 - tau_l, w, out=w)
    return s, g_0


def _rounding_allowance(tau, weight_l1, m_top, length, n_cut):
    """l1 rounding allowance over coefficients 0..n_cut of an FFT of length
    `length` whose weights have l1 norm weight_l1 and top index m_top,
    derived in `_fft_coefficients`."""
    u = float(np.finfo(np.longdouble).eps) / 2.0
    t = abs(tau)
    kappa = 1.0 / (1.0 - t)
    first_order = (
        (1.0 - tau) / (1.0 - t) * u * weight_l1
        * ((m_top + 1) * (24.0 * kappa + 14.0) + 16.0 * math.log2(length) + 2.0)
    )
    return 1.01 * math.sqrt(n_cut + 1) * first_order


def _fft_coefficients(weights, tau, n_cut):
    """Coefficients 0..n_cut of sum_m weights[m] g_m by one long-double FFT.

    It serves `probe_fock_mixture`; single rows and sweeps come from
    `_rows`, whose allowance is this one for the weights e_m.

    On the unit circle z = e^(i theta) write w = 1 - tau z. Then

        g_m(z) = g_0 s^m,  g_0 = (1 - tau) / w,  s = (z - tau) / w,

    and |s| = 1, as |z - tau| = |w| there. So the mixture is g_0 times the
    polynomial sum_m c_m s^m, evaluated by Horner's rule over the nonzero
    weights: a gap of k indices multiplies by s^k, formed by binary
    powering (`_times_power`), and the last step by s^prev g_0, prev the
    lowest index. Each sample costs two divisions and products only, no
    transcendental function. A gap of k costs about 2 log2(k) products
    per sample, and a dense mixture up to M costs O(M L) and no table.
    The samples are taken at conj(z_k), z_k = e^(i theta_k),
    theta_k = 2 pi k / L, k <= L/2 (`_grid_samples`), and np.fft.irfft
    transforms them as the Hermitian signal they are: g(conj z) =
    conj g(z), since tau is real, so irfft of the conjugate samples is the
    DFT of the samples at z_k divided by L. The grid points come from one
    long-double cos and sin per eight samples: they are evaluated on the
    first octant, k <= L/8, and the rest of the half circle is their exact
    reflections (`_half_circle`); conjugation is exact. L
    (`_fft_length`) is the least multiple of 8 that is 2-3-5-smooth and
    above both n_cut and the index where the analytic tail of g_M (M the
    top index) falls below u, defined below. Going past the caller's
    n_cut to that index keeps the aliasing under the rounding, so the
    coefficients agree with the exact series to rounding; from a bound
    of 400 up, rounding up to L adds at most 13% and on average about 1%.

    Aliasing. g_m is analytic for |z| < 1/|tau|, so its sampled DFT is
    exactly (1/L) sum_k g(z_k) z_k^(-n) = sum_(j = n mod L) p_j. For
    n <= n_cut < L the term j = n is p_n itself and every other term has
    j >= L > n_cut, and each such j lands on at most one kept n. Hence
    the aliasing, summed over all kept n, is at most sum_(j > n_cut) |p_j|,
    which the caller's analytic tail bound already majorizes; a kept
    coefficient q_n < -tail therefore still proves q_n < 0. The sum of
    the kept coefficients misses sum_all p_j = g(1) only by the indices
    j > n_cut that land outside 0..n_cut, again at most the tail. The
    certificate uses only L > n_cut, not the longer choice of L.

    Rounding. Let u = eps / 2 with eps = finfo(longdouble).eps, t = |tau|,
    kappa = 1 / (1 - t) and G = (1 - tau) / (1 - t) = max |g_0| on the
    circle. Assume the long-double cos and sin of the grid and pocketfft's
    twiddle factors are within one ulp (2u). numpy multiplies
    complex numbers by the textbook formula, off by at most 2 sqrt(2) u
    relative (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Lemma 3.5). It divides x / y by Smith's formula: for
    |Re y| >= |Im y| (the other case is symmetric), r = Im y / Re y,
    d = Re y + Im y r, and the quotient is (Re x + Im x r, Im x - Re x r)
    times fl(1 / d). The two terms of d have one sign, so 1 / d is off by
    at most 4u relative; each part of the numerator is off by u times
    itself plus 2u |x| |Im y| / |y|^2, so the quotient is off by at most
    6u |x/y| + 2u |x| / |y| = 8u |x/y|. Everything below is first order
    in u.
      - On the octant k <= L/8, theta_k = k fl(2 pi / L) is off by at most
        3 u theta_k <= (3 pi / 4) u, so cos and sin put z_k within
        (3 pi / 4 + 2) u of e^(i theta_k). The reflections
        z_(L/4 - k) = i conj(z_k) and z_(L/2 - k) = -conj(z_k) swap and
        negate parts, exactly, so every sample of the half circle is off
        by at most (3 pi / 4 + 2) u. The bullets below use the larger
        (3 pi + 2) u, which majorizes it.
      - w = 1 - tau z is off by at most (t + |w|) u, and z - tau by
        u |z - tau|, with |z - tau| = |w| >= 1 - t. As |ds/dz| =
        (1 - t^2) / |w|^2 <= (1 + t) kappa and the division adds 8u, s is
        off by at most delta_s = ((1 + t)(3 pi + 2) kappa + t kappa + 10) u
        <= (24 kappa + 10) u. As |dg_0/dz| = t |g_0| / |w| and fl(1 - tau)
        adds u, g_0 is off by at most delta_g = (t (3 pi + 3) kappa + 10) u
        <= (13 kappa + 10) u relative to |g_0|.
      - A product of computed powers of s is off by the sum of the errors
        of its factors plus 2 sqrt(2) u. By induction over the products,
        s^(2^j) is off by at most 2^j delta_s + (2^j - 1) 2 sqrt(2) u, and
        multiplying acc by s^k, through the squares for the set bits of
        k, adds at most k (delta_s + 2 sqrt(2) u) to its relative error.
      - Adding a real weight rounds the real part only (u). A weight c_m
        is added once and then passes Horner steps whose gaps, each at
        least 1, add up to m - prev, and the final factors s^prev and g_0.
        So its term c_m s^m g_0 is off by at most
        m (delta_s + (2 sqrt(2) + 1) u) + u + delta_g + 2 sqrt(2) u
        <= (m + 1)(24 kappa + 14) u relative. |s| = 1, so that term has
        modulus at most |c_m| G, and every sample is off by at most
        E = G u sum_m |c_m| (M + 1)(24 kappa + 14), M the top index.
      - The transform: irfft of L // 2 + 1 samples is pocketfft's real
        backward transform (c2r) of length L, scaled by fl(1 / L). It
        drops the imaginary parts of the samples at theta = 0 and pi,
        which are zero in exact arithmetic, so that removes error only. On
        these lengths it runs backward real passes of radix 4, 2 (at most
        once), 3 and 5. A pass
        of radix r computes the Hermitian half of a complex pass, r-point
        butterflies with real constants and a twiddle product, so each
        output is off by at most (r + 9) u sum_l |x_l| over its r inputs,
        and the pass by sqrt(r) (r + 9) u relative to its output in l2 (of
        the whole Hermitian vector). That is at most 16 u per factor 2 of
        L (11 sqrt(2) at r = 2), so at most 16 u log2(L) over the whole
        transform (Higham, ch. 24, gives the radix-2 case).
      - By Parseval the DFT divided by L maps a sample error e to a
        coefficient error of l2 norm |e|_2 / sqrt(L) <= max |e_k| <= E,
        and the transform's own error is at most 16 u log2(L) times the
        l2 norm of the coefficients, itself at most G sum |c|; the scale
        fl(1 / L), rounded once, and the product by it add 2u G sum |c|.
    So the computed coefficients are off by at most
    E2 = G u sum |c| ((M + 1)(24 kappa + 14) + 16 log2 L + 2) in l2, and
    by sqrt(n_cut + 1) E2 summed over the kept indices, which is the
    allowance returned (`_rounding_allowance`). The factor 1.01 covers
    the terms of second and higher order while their first-order sum is
    below 1e-3. numpy before 2.0 computed clongdouble input in complex128
    and would void it.

    Args:
        weights: float64 weights c_0 .. c_M, not all zero.
        tau: series parameter with 0 < |tau| < 1.
        n_cut: last kept index.

    Returns:
        (coefficients 0..n_cut in long double, l1 rounding allowance).
    """
    support = np.flatnonzero(weights)
    m_top = prev = int(support[-1])
    length = _fft_length(n_cut, m_top, tau)
    s, g_0 = _grid_samples(length, tau)

    acc = np.full(s.size, weights[m_top], dtype=np.clongdouble)
    for m in support[-2::-1]:
        _times_power(acc, s, prev - int(m))
        acc += weights[m]
        prev = int(m)
    _times_power(acc, s, prev)
    acc *= g_0
    coeffs = np.fft.irfft(acc, length)[: n_cut + 1]
    weight_l1 = float(np.sum(np.abs(weights)))
    return coeffs, _rounding_allowance(tau, weight_l1, m_top, length, n_cut)


# Rows that share one grid.
_SWEEP_BLOCK = 16
# Bytes of samples and transform held at once: a row takes 32 L bytes at FFT
# length L (L / 2 + 1 complex long-double samples and L long-double outputs),
# so a block of 16 rows fits up to L = 2048.
_BATCH_BYTES = 1 << 20


def _rows(m_lo, m_hi, tau, eps):
    """Rows m_lo .. m_hi of g_m: yields (m, row 0..N_m in long double, N_m,
    analytic tail + l1 rounding allowance); tau = 0 gives the exact
    identity rows with a zero bound.

    Each row is cut at its own certified cutoff (`_sweep_cutoffs`). Blocks
    of `_SWEEP_BLOCK` rows share one grid, of the `_fft_length` L of the
    block's largest N_m and top row, so L > N_m for each. As g_m = g_0 s^m,
    the first row m0 of a block has the samples g_0 s^m0, by binary
    powering, and each later row's are the row before times s. Row m's
    samples thus pass the factor g_0 and products by powers of s whose
    exponents add up to m, so its allowance is the one `_fft_coefficients`
    derives for the weights e_m.

    A block's samples and transform are formed in batches of as many rows
    as fit in `_BATCH_BYTES` (at least one), in one sample buffer, with
    one irfft along the rows of each batch; a batch's first row is the
    previous batch's last times s. So the memory held besides the rows
    handed out is one grid and one batch of samples and transform, at most
    `_BATCH_BYTES` (one row's where a row alone needs more), and the
    previous batch's transform while the next one is made. Each row gets
    the same products and its own transform in any batching, so the rows
    do not depend on `_BATCH_BYTES`, and a block that fits in one batch
    is formed exactly as a whole block is.
    """
    if tau == 0.0:
        for m in range(m_lo, m_hi + 1):
            row = np.zeros(m + 1, dtype=np.longdouble)
            row[m] = 1.0
            yield m, row, m, 0.0
        return
    cuts = _sweep_cutoffs(range(m_lo, m_hi + 1), tau, eps)
    for j0 in range(0, len(cuts), _SWEEP_BLOCK):
        block, m0 = cuts[j0 : j0 + _SWEEP_BLOCK], m_lo + j0
        length = _fft_length(max(n for n, _ in block), m0 + len(block) - 1, tau)
        batch = min(len(block), max(1, _BATCH_BYTES // (32 * length)))
        s, g_0 = _grid_samples(length, tau)
        acc = np.empty((batch, s.size), dtype=np.clongdouble)
        acc[0] = g_0
        _times_power(acc[0], s, m0)
        for i0 in range(0, len(block), batch):
            rows = block[i0 : i0 + batch]
            if i0:
                # The previous batch was full: its last row times s is this one's first.
                np.multiply(acc[-1], s, out=acc[0])
            for i in range(1, len(rows)):
                np.multiply(acc[i - 1], s, out=acc[i])
            coeffs = np.fft.irfft(acc[: len(rows)], length, axis=1)
            if i0 + batch >= len(block):
                # Free the samples before handing out the block's last rows,
                # so that the next block's buffers are not allocated next to them.
                del s, g_0, acc
            for i, (n_cut, tail) in enumerate(rows):
                m = m0 + i0 + i
                rounding = _rounding_allowance(tau, 1.0, m, length, n_cut)
                yield m, coeffs[i, : n_cut + 1], n_cut, tail + rounding


@dataclass
class FockCoefficients:
    """Coefficient sequence of a dilated Fock state.

    Attributes:
        m: Fock index of the input state.
        lam: dilatation parameter.
        tau: derived series parameter (lam^2 - 1) / (lam^2 + 1).
        coeffs: p_0 .. p_N as float64.
        truncation_N: last retained index N.
        tail_bound: certified upper bound on sum_{n > N} |p_n|, plus the
            long-double rounding allowance of the FFT (see
            `_fft_coefficients`) and the float64 representation allowance
            of the stored row. The analytic part also majorizes the FFT's
            aliasing, so each coefficient is within tail_bound of the
            exact p_n and sums over coeffs are comparable against it
            directly.
    """

    m: int
    lam: float
    tau: float
    coeffs: np.ndarray = field(repr=False)
    truncation_N: int
    tail_bound: float

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)


@dataclass
class ProbeResult:
    """Outcome of probing a Fock mixture for negativity after dilatation.

    coefficients holds the full output diagonal q_0 .. q_N; the verdict
    is certified exactly when some q_n < -tail_bound.
    """

    min_coefficient: float
    negative_indices: list
    verdict: str
    tail_bound: float
    coefficients: np.ndarray = field(repr=False, default=None)


def _validate(m, eps):
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 0:
        raise ValueError(f"Fock index must be a nonnegative integer, got {m!r}")
    if not _finite("eps", eps) > 0.0:
        raise ValueError(f"precision must be positive, got {eps!r}")


def _representation_allowance(coeffs):
    """Worst-case float64 noise of storing and summing the row.

    The analytic tail bound can be exactly tight (m = 0 is a pure
    geometric series), so a recorded bound meant to majorize sums over
    the stored float64 row must also cover rounding of the row itself.
    """
    peak = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    return coeffs.size * 2.3e-16 * max(1.0, peak)


def _fock_coefficients(m_lo, m_hi, lam, eps):
    """FockCoefficients for m_lo .. m_hi from `_rows`; the tail_bound of an
    inexact row adds the float64 allowance of the stored row.

    The one validated path into the rows, for single rows, sweeps and
    both norm sums. A numpy integer index goes on as a Python int, whose
    arithmetic (`_smooth_length` takes its bit_length) it needs.
    """
    _validate(m_hi, eps)
    tau = _tau_of(lam)
    for m, row, n_cut, bound in _rows(int(m_lo), int(m_hi), tau, eps):
        coeffs = row.astype(float)
        if bound > 0.0:
            bound += _representation_allowance(coeffs)
        yield FockCoefficients(m, float(lam), tau, coeffs, n_cut, bound)


def dilated_fock_coefficients(m, lam, eps=DEFAULT_EPS):
    """Coefficients p_0 .. p_N of the dilated Fock state |m><m|.

    The sequence is the coefficient list of g_m in powers of z,
    truncated at an N where the analytic tail bound drops below eps.
    lam = 1 or lam = -1 gives tau = 0 and the exact identity sequence
    delta_{nm} with a zero tail bound. Contractions (|lam| < 1, tau < 0)
    run through the same series.

    Args:
        m: Fock index, nonnegative integer.
        lam: dilatation parameter, nonzero.
        eps: truncation precision for the tail bound.

    Returns:
        FockCoefficients with float64 coefficients.
    """
    return next(_fock_coefficients(m, m, lam, eps))


def dilated_fock_sweep(m_max, lam, eps=DEFAULT_EPS):
    """FockCoefficients for every m <= m_max.

    Each row is cut at its own certified cutoff; one pass over m finds
    them all (`_sweep_cutoffs`). The rows are those of single rows,
    computed in blocks of `_SWEEP_BLOCK` that share one grid (`_rows`), so
    a sweep costs O(N log N) long-double work per row, N the largest
    cutoff of its block. Its memory is the float64 rows, one grid, and
    batches of at most `_BATCH_BYTES` (1 MiB) of samples and transform,
    or of one row where a row alone needs more. As for a single row,
    tail_bound is the analytic tail plus the FFT's rounding allowance
    plus the float64 allowance.
    """
    return list(_fock_coefficients(0, m_max, lam, eps))


def trace_norm_sum(m, lam, eps=DEFAULT_EPS):
    """Sum of |p_n| up to the truncation cutoff, over the float64 row of
    dilated_fock_coefficients(m, lam, eps).

    Grows without bound in m whenever |lam| != 1; the growth across
    decades of m is the quantitative shadow of that unboundedness.
    """
    return float(np.sum(np.abs(dilated_fock_coefficients(m, lam, eps).coeffs)))


def hs_norm_check(m, lam, eps=DEFAULT_EPS):
    """Sum of p_n^2 over the float64 row of dilated_fock_coefficients(m, lam, eps);
    equals 1 / lam^2 up to truncation effects."""
    return float(np.sum(np.square(dilated_fock_coefficients(m, lam, eps).coeffs)))


def probe_fock_mixture(weights, lam, eps=DEFAULT_EPS):
    """Probe a finite Fock-diagonal mixture for negativity after dilatation.

    The mixture sum_m c_m |m><m| maps to the diagonal sequence
    q_n = sum_m c_m p_n^(m). A strictly negative q_n certifies that the
    input is not a mixture of Gaussian states, and the verdict is
    claimed only when the negativity exceeds the combined truncation
    tail plus the rounding allowances, so float noise, truncated mass or
    the FFT's aliasing can never certify. The q_n come from one
    long-double FFT of sum_m c_m g_m on the unit circle (see
    `_fft_coefficients`), with no coefficient table. They run to the
    cutoff N of the top index M, the only cutoff searched; the analytic
    part of tail_bound is sum_m c_m times the tail bound of g_m at that
    same N, where each row with m < M is past its own cutoff.

    Args:
        weights: probability weights c_0 .. c_M over Fock states.
        lam: dilatation parameter with |lam| > 1.
        eps: per-state truncation precision.

    Returns:
        ProbeResult; negative_indices lists every n with
        q_n < -tail_bound, and the verdict is certified exactly when
        that list is nonempty.
    """
    c = np.asarray(weights, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("weights must be a nonempty one-dimensional sequence")
    if not np.all(np.isfinite(c)):
        raise ValueError("weights must be finite numbers")
    if np.any(c < 0.0):
        raise ValueError("weights must be nonnegative")
    # Finite weights can still sum past the largest double: that is inf,
    # refused below, not a warning.
    with np.errstate(over="ignore"):
        total = float(np.sum(c))
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    if abs(_finite("lam", lam)) <= 1.0:
        raise ValueError(
            f"mixture probing requires a dilatation with |lam| > 1, got {lam!r}"
        )
    _validate(c.size - 1, eps)

    m_top = c.size - 1
    tau = _tau_of(lam)
    # The cutoff grows with m, so that of m_top is the only one searched and
    # every row is cut there, even when c[m_top] is zero. Each weight's tail
    # is bounded at that N: n_global - m >= k(m_top) keeps rho below 1, and
    # the bound is at most the one at the row's own cutoff. Zero weights add
    # nothing.
    n_global = _tail_cutoff(m_top, tau, eps)[0]
    q_long, rounding = _fft_coefficients(c, tau, n_global)
    q = np.asarray(q_long, dtype=float)
    tails = (c[m] * math.exp(_log_tail(m, tau, n_global - m)) for m in np.flatnonzero(c).tolist())
    combined_tail = float(sum(tails)) + (rounding + _representation_allowance(q))

    negative = np.nonzero(q < -combined_tail)[0]
    verdict = CERTIFIED if negative.size else NO_NEGATIVITY
    return ProbeResult(
        min_coefficient=float(np.min(q)),
        negative_indices=[int(n) for n in negative],
        verdict=verdict,
        tail_bound=combined_tail,
        coefficients=q,
    )


def airy_limit_error(k, m, lam):
    """Distance of the rescaled generating function from its cubic-phase limit.

    Along q = a_m k with a_m = (1 - tau) / cbrt(m tau (1 + tau)), the
    phase-corrected value g_m(q) e^(i lam^2 m q) tends to e^(i k^3 / 3)
    as m grows. Returns the absolute deviation at finite m, evaluated
    from the closed form of g_m in log space so large m stays stable;
    k = 0 returns exactly 0 since the generating function is 1 there.

    The leading error. On the circle g_m = g_0 s^m (see
    `_fft_coefficients`), so log g_m(e^(-iq)) = m log s + log g_0. As
    |s| = 1 and s(conj z) = conj s(z), m log s(e^(-iq)) is i m times an
    odd real series, -i m (lam^2 q - c_3 q^3 + O(q^5)), and a_m makes
    m c_3 a_m^3 = 1/3; the q^5 term is O(m a_m^5) = O(m^(-2/3)). The
    other factor is log g_0(e^(-iq)) = -i ((lam^2 - 1) / 2) q + O(q^2):
    the (m + 1) exponent of 1 - tau z gives g_m one factor g_0 beyond
    s^m, and tau / (1 - tau) = (lam^2 - 1) / 2. The phase correction
    removes only lam^2 m q, so
    g_m(q) e^(i lam^2 m q) = e^(i k^3 / 3) e^(-i phi) (1 + O(m^(-2/3)))
    with the uncompensated phase phi = ((lam^2 - 1) / 2) a_m k, and the
    returned error is |e^(i phi) - 1| + O(m^(-2/3)). phi falls only like
    m^(-1/3): at lam = 2, k = 2, m = 10^4 it gives 0.056 of the 0.0649.

    A k whose k^3 / 3 overflows, or an m at which the evaluation
    overflows, is refused. Below that the error is not guarded: from m
    of about 1e13 it is dominated by rounding.

    Args:
        k: real scaling variable.
        m: Fock index, at least 1.
        lam: dilatation parameter, greater than 1.
    """
    if not m >= 1:
        raise ValueError(f"limit evaluation needs m >= 1, got {m!r}")
    if not _finite("lam", lam) > 1.0:
        raise ValueError(f"limit evaluation needs lam > 1, got {lam!r}")
    k = _finite("k", k)
    if k == 0.0:
        return 0.0
    tau = _tau_of(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.float64(k) ** 3 / 3.0
        if not np.isfinite(phase):
            raise ValueError(f"k = {k!r} gives k^3 / 3 = {float(phase)!r} in double precision")
        try:
            a_m = (1.0 - tau) / (m * tau * (1.0 + tau)) ** (1.0 / 3.0)
        except OverflowError:  # an int m beyond the largest double
            raise ValueError(f"m = {m!r} is beyond double precision") from None
        q = a_m * k
        z = np.exp(-1j * q)
        log_g = (
            math.log(1.0 - tau)
            + m * np.log(z - tau)
            - (m + 1) * np.log(1.0 - tau * z)
        )
        value = np.exp(log_g + 1j * lam * lam * m * q)
        error = float(abs(value - np.exp(1j * phase)))
    if not math.isfinite(error):
        raise ValueError(f"m = {m!r} gives a limit error of {error!r} in double precision")
    return error
