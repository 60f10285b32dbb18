"""Independent computations that the benchmark checks gaussmap against.

Nothing here calls gaussmap: every expected value is derived from the
definitions (closed one-mode criteria, the concave function h(c), the
generating function g_m on the unit circle), so a check can fail when
the program is wrong in a way its own tests share.
"""

import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def omega(n):
    """Canonical form Delta for n modes, interleaved (q1, p1, ...)."""
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def transpose_matrix(n):
    """K matrix of the transposition of every mode: diag(1, -1, ...)."""
    return np.diag(np.tile([1.0, -1.0], n))


def cp_margin(K, alpha):
    """Smallest eigenvalue of alpha + i(Delta - K Delta K^T); CP iff >= 0."""
    n = K.shape[0] // 2
    d = omega(n)
    return float(np.linalg.eigvalsh(alpha + 1j * (d - K @ d @ K.T))[0])


def h_max(K, alpha, iters=90):
    """max over c in [-1, 1] of h(c) = lambda_min(alpha + i(Delta - c Delta_K)).

    h is concave in c (a minimum of affine functions), so a golden-section
    search converges to the maximum; the endpoints are compared too.

    Returns:
        (max value, argmax c).
    """
    n = K.shape[0] // 2
    d = omega(n)
    dk = K @ d @ K.T

    def h(c):
        return float(np.linalg.eigvalsh(alpha + 1j * (d - c * dk))[0])

    lo, hi = -1.0, 1.0
    x1, x2 = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    f1, f2 = h(x1), h(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = h(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = h(x1)
    candidates = [(f1, x1), (f2, x2), (h(-1.0), -1.0), (h(1.0), 1.0)]
    return max(candidates)


def has_factoring(K, alpha, c_floor=1e-4):
    """Whether h(c) >= 0 at some |c| >= c_floor, i.e. K = K' T^b lam with K' CP.

    The feasible set of the concave h is an interval; it meets
    |c| >= c_floor iff h is nonnegative at one of +/- c_floor or at the
    argmax (when that lies beyond the floor).
    """
    n = K.shape[0] // 2
    d = omega(n)
    dk = K @ d @ K.T
    best, c_star = h_max(K, alpha)
    if best < 0.0:
        return False
    if abs(c_star) >= c_floor:
        return True
    vals = [np.linalg.eigvalsh(alpha + 1j * (d - c * dk))[0] for c in (c_floor, -c_floor)]
    return max(vals) >= 0.0


def direction_objective(K, alpha, w):
    """|w* Delta_K w| + w* alpha w - |w* Delta w| for a complex direction w."""
    n = K.shape[0] // 2
    d = omega(n)
    wc = np.conj(w)
    return float(
        abs(wc @ (K @ d @ K.T) @ w) + np.real(wc @ alpha @ w) - abs(wc @ d @ w)
    )


def one_mode_class(K, alpha):
    """Closed one-mode criteria: (is_g2g, is_cp, alpha_psd, margins).

    G2G iff alpha >= 0 and sqrt(det alpha) >= 1 - |det K|; CP iff in
    addition sqrt(det alpha) >= |1 - det K|. The margins are the signed
    distances to those thresholds, used to keep inputs off the boundary.
    """
    a_min = float(np.linalg.eigvalsh(alpha)[0])
    det_k = float(np.linalg.det(K))
    root = math.sqrt(max(float(np.linalg.det(alpha)), 0.0))
    psd = a_min >= 0.0
    g2g_gap = root - (1.0 - abs(det_k))
    cp_gap = root - abs(1.0 - det_k)
    return psd and g2g_gap >= 0.0, psd and cp_gap >= 0.0, psd, (a_min, g2g_gap, cp_gap)


def one_mode_state_valid(cov):
    """A one-mode covariance is valid iff cov >= 0 and det cov >= 1."""
    return float(np.linalg.eigvalsh(cov)[0]) >= 0.0 and float(np.linalg.det(cov)) >= 1.0


def _unit_circle(length):
    return np.exp(2j * np.pi * np.arange(length) / length)


def tau_of(lam):
    return (lam * lam - 1.0) / (lam * lam + 1.0)


def fft_length(lam, m_top, target=1e-13):
    """Power-of-two transform length whose aliasing error is below target.

    g_m is analytic for |z| < 1/tau, so by Cauchy's estimate on the circle
    |z| = r, |p_n| <= M(r) r^-n with
    M(r) = (1 - tau)(r + tau)^m / (1 - tau r)^(m+1). A length L folds
    only coefficients n >= L onto the ones kept, and those sum to at most
    M(r) r^-L / (1 - 1/r); the bound is minimised over a grid of r. Rows
    m < m_top have a smaller M(r), so the same length serves them.
    """
    tau = tau_of(lam)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"the oracle needs lam > 1, got {lam!r}")
    r = 1.0 + (1.0 / tau - 1.0) * np.linspace(0.005, 0.995, 999)
    log_m = (
        math.log(1.0 - tau) + m_top * np.log(r + tau) - (m_top + 1) * np.log(1.0 - tau * r)
    )
    length = 64
    while np.min(log_m - length * np.log(r) - np.log(1.0 - 1.0 / r)) >= math.log(target):
        length *= 2
    return length


def _g_rows(lam, length, m_top):
    """g_0 .. g_m_top on the unit circle, by g_m = g_{m-1} (z - tau)/(1 - tau z)."""
    tau = tau_of(lam)
    z = _unit_circle(length)
    step = (z - tau) / (1.0 - tau * z)
    g = (1.0 - tau) / (1.0 - tau * z)
    for m in range(m_top + 1):
        if m:
            g = g * step
        yield m, g


def fock_rows_fft(lam, length, m_values):
    """Yield (m, coefficients of g_m) by a float64 FFT, for m in m_values.

    g_m(z) = (1 - tau)(z - tau)^m (1 - tau z)^-(m+1) with
    tau = (lam^2 - 1)/(lam^2 + 1). Rows are produced one at a time so a
    check of a whole sweep never holds more than one oracle row.
    """
    wanted = set(m_values)
    for m, g in _g_rows(lam, length, max(wanted)):
        if m in wanted:
            yield m, np.fft.fft(g).real / length


def fock_mixture_fft(weights, lam, length):
    """Coefficients of sum_m weights[m] g_m by a float64 FFT."""
    mix = np.zeros(length, dtype=complex)
    for m, g in _g_rows(lam, length, len(weights) - 1):
        if weights[m]:
            mix += weights[m] * g
    return np.fft.fft(mix).real / length
