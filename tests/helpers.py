"""Shared fixtures and small oracles used across the test modules."""

import numpy as np
from scipy.linalg import expm

from gaussmap import GaussianMap, standard_form, symplectic_eigenvalues


def random_symplectic(n, rng, scale=1.0):
    """Random symplectic matrix from the exponential of a Hamiltonian generator.

    exp(D @ H) with H symmetric is always symplectic, so these are exact
    group elements up to rounding in expm.
    """
    h = rng.standard_normal((2 * n, 2 * n)) * scale
    h = h + h.T
    return expm(standard_form(n) @ h)


def random_valid_cov(n, rng, nu_min=1.0, nu_spread=3.0, scale=0.5):
    """Random physical covariance S diag(nu) S^T with all nu >= nu_min."""
    s = random_symplectic(n, rng, scale=scale)
    nus = nu_min + nu_spread * rng.random(n)
    d = np.repeat(nus, 2)
    return s @ np.diag(d) @ s.T


def random_spd(d, rng, log_cond=3.0):
    """Random symmetric positive definite matrix with condition <= 10^(2*log_cond)."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = 10.0 ** rng.uniform(-log_cond, log_cond, size=d)
    return q @ np.diag(eigs) @ q.T


def random_symplectic_2x2(count, rng, spread=1.0):
    """Vectorized batch of 2x2 determinant-one matrices (one-mode symplectics)."""
    a = rng.uniform(0.3, 1.0 + spread, size=count) * rng.choice([-1.0, 1.0], size=count)
    b = rng.standard_normal(count) * spread
    c = rng.standard_normal(count) * spread
    d = (1.0 + b * c) / a
    out = np.empty((count, 2, 2))
    out[:, 0, 0] = a
    out[:, 0, 1] = b
    out[:, 1, 0] = c
    out[:, 1, 1] = d
    return out


def fft_coefficients(m, lam, npts=4096):
    """Fourier-series oracle for the photon-number coefficients of one dilated
    Fock projector.  Samples the generating function on the unit circle and
    inverts with an FFT; accurate to ~1e-14 while npts is comfortably larger
    than the decay length."""
    tau = (lam * lam - 1.0) / (lam * lam + 1.0)
    z = np.exp(2j * np.pi * np.arange(npts) / npts)
    g = (1.0 - tau) * (z - tau) ** m / (1.0 - tau * z) ** (m + 1)
    return (np.fft.fft(g) / npts).real


def convolution_coefficients(m, lam, n_max):
    """Direct binomial-convolution oracle for small m.

    (z - tau)^m expands exactly; (1 - tau z)^-(m+1) is a negative binomial
    series.  Safe in float64 for m up to ~10.
    """
    from math import comb

    tau = (lam * lam - 1.0) / (lam * lam + 1.0)
    numer = np.zeros(n_max + 1)
    for j in range(min(m, n_max) + 1):
        numer[j] = comb(m, j) * (-tau) ** (m - j)
    series = np.array([comb(m + k, m) * tau**k for k in range(n_max + 1)])
    out = np.convolve(numer, series)[: n_max + 1]
    return (1.0 - tau) * out


def coefficient_rows(m_max, tau, n_max):
    """Reference table: every row p^(j), j <= m_max, out to column n_max.

    The whole (m_max + 1) x (n_max + 1) long-double table of the recursion

        p_j[n] = p_{j-1}[n-1] + tau (p_j[n-1] - p_{j-1}[n]),

    that multiplying g_(j-1) by (z - tau) / (1 - tau z) gives, evaluated
    along anti-diagonals j + n = d, which depend only on the two previous
    diagonals. It shares no code with the FFT of `gaussmap.fockprobe`,
    so it is an independent oracle for single rows, mixtures and sweeps:
    each must agree with it within its tail bound. The recursion's own
    long-double rounding is far below those bounds (the factor has
    modulus one on the unit circle, so no stage amplifies).
    """
    tau_l = np.longdouble(tau)
    one = np.longdouble(1.0)
    rows = m_max + 1
    cols = n_max + 1
    P = np.zeros((rows, cols), dtype=np.longdouble)
    P[0, :] = (one - tau_l) * tau_l ** np.arange(cols)
    P[:, 0] = (one - tau_l) * (-tau_l) ** np.arange(rows)

    w_prev2 = np.zeros(rows, dtype=np.longdouble)   # diagonal d - 2
    w_prev1 = np.zeros(rows, dtype=np.longdouble)   # diagonal d - 1
    w_cur = np.zeros(rows, dtype=np.longdouble)
    w_prev2[0] = P[0, 0]
    if rows > 1:
        w_prev1[1] = P[1, 0]
    if cols > 1:
        w_prev1[0] = P[0, 1]

    for d in range(2, m_max + n_max + 1):
        j_min = max(0, d - n_max)
        j_max = min(m_max, d)
        a = max(1, j_min)
        b = min(j_max, d - 1)
        if a <= b:
            w_cur[a : b + 1] = w_prev2[a - 1 : b] + tau_l * (
                w_prev1[a : b + 1] - w_prev1[a - 1 : b]
            )
        if j_min == 0:
            w_cur[0] = P[0, d]
        if j_max == d:
            w_cur[d] = P[d, 0]
        js = np.arange(j_min, j_max + 1)
        P[js, d - js] = w_cur[j_min : j_max + 1]
        w_prev2, w_prev1, w_cur = w_prev1, w_cur, w_prev2
    return P


def random_multimode(rng, n):
    """K = U(-1.5, 1.5) * U(0.2, 1.5), alpha = R R^T with R = U(-1, 1) * U(0.1, 1.5)."""
    K = rng.uniform(-1.5, 1.5, (2 * n, 2 * n)) * rng.uniform(0.2, 1.5)
    R = rng.uniform(-1, 1, (2 * n, 2 * n)) * rng.uniform(0.1, 1.5)
    return GaussianMap(K=K, alpha=R @ R.T)


def seeded_map(n_wanted, trial_wanted):
    """One map of the default_rng(7) sequence, n in (2, 3) with 300 trials each."""
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for trial in range(300):
            gmap = random_multimode(rng, n)
            if (n, trial) == (n_wanted, trial_wanted):
                return gmap
    raise ValueError("no such trial")


def count_eigensolves(monkeypatch):
    """Count calls of numpy.linalg.eigh and eigvalsh from now on; returns a one-item list."""
    count = [0]
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            count[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return count


def one_mode_margin(gmap):
    """Exact minimum of the direction_margin objective over unit directions, one mode.

    With t = 1 - |det K|, the objective is a + |k| - |d| = a - t |d| for
    |det K| < 1, and the minimum of a - t |d| over unit w is the bottom
    eigenvalue of the real 4x4 form [[alpha, -t D], [t D, alpha]] on
    (Re w, Im w). For |det K| >= 1 a real eigenvector of alpha attains it.

    Returns:
        (minimum, unit direction attaining it).
    """
    detk = float(np.linalg.det(gmap.K))
    alpha = gmap.alpha
    if abs(detk) >= 1.0:
        w_a, v_a = np.linalg.eigh(alpha)
        return float(w_a[0]), np.asarray(v_a[:, 0], dtype=complex)
    B = -(1.0 - abs(detk)) * standard_form(1)
    w_m, v_m = np.linalg.eigh(np.block([[alpha, B], [B.T, alpha]]))
    y = v_m[:, 0]
    w = y[:2] + 1j * y[2:]
    return float(w_m[0]), w / np.linalg.norm(w)


def homogeneous_oracle(K, alpha):
    """Exact verdicts for a map with K D K^T = kappa D, kappa != 0, and alpha >= 0.

    Such a K is sqrt|kappa| S T^b with S symplectic, so
    h(c) = lambda_min(alpha + i (1 - c kappa) D). Writing alpha =
    S' diag(nu_j, nu_j) S'^T (Williamson), alpha + i gamma D >= 0 holds
    exactly when nu_min >= |gamma|. So the map is G2G exactly when some c
    in [-1, 1] has |1 - c kappa| <= nu_min, with those c forming the
    interval [(1 - nu_min) / kappa, (1 + nu_min) / kappa] n [-1, 1], and
    CP exactly when |1 - kappa| <= nu_min. The factor K = lam S'' T^b with
    S'' CP is read off the interval end of largest |c| as lam = 1 / sqrt|c|
    and b = (c < 0), the positive end winning a tie.

    Returns:
        (is_g2g, is_cp, interval, (lam, transposed)), the last two None when
        the map is not G2G.
    """
    delta = standard_form(K.shape[0] // 2)
    kappa = float(np.sum((K @ delta @ K.T) * delta) / np.sum(delta * delta))
    nu = float(symplectic_eigenvalues(alpha)[0])
    lo, hi = sorted(((1.0 - nu) / kappa, (1.0 + nu) / kappa))
    lo, hi = max(lo, -1.0), min(hi, 1.0)
    if lo > hi:
        return False, False, None, None
    c = hi if hi >= -lo else lo
    return True, abs(1.0 - kappa) <= nu, (lo, hi), (1.0 / np.sqrt(abs(c)), bool(c < 0))
