"""Shared fixtures and small oracles used across the test modules."""

import numpy as np
from scipy.linalg import expm

from gaussmap import GaussianMap, standard_form


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


def squeezed_cov(eps):
    """One-mode squeezed covariance diag(eps, 1/eps); physical for any eps > 0."""
    return np.diag([eps, 1.0 / eps])


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
