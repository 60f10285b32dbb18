"""Symplectic linear algebra for n-mode bosonic phase space.

Quadratures are interleaved as (q1, p1, ..., qn, pn). The canonical
antisymmetric form on one mode is [[0, 1], [-1, 0]], and the vacuum
covariance matrix is the identity, so a covariance matrix is physical
exactly when all of its symplectic eigenvalues are >= 1.
"""

import math

import numpy as np

DEFAULT_TOL = 1e-9


def _mode_count(n, name="mode count"):
    """n as an int, or ValueError unless it is a positive integer (2.0 passes).

    Every other value, inf, None and a string included, gets the one
    message "{name} must be a positive integer, got {n!r}".
    """
    try:
        if int(n) == n and n >= 1:
            return int(n)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a positive integer, got {n!r}")


def _array(value, shape, name):
    """value as a float array of exactly this shape, every entry finite.

    Raises:
        ValueError: "{name} has shape S, expected T", or "{name} has a NaN
            or infinite entry".
    """
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has a NaN or infinite entry")
    return arr


def _tolerance(tol, name="tol"):
    """ValueError unless tol is a finite number >= 0, the rule of every tolerance.

    The message is "{name} must be a finite number >= 0, got {tol!r}". A
    NaN, infinite or negative tol would turn a test that allows tol times a
    scale into a made-up verdict.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {tol!r}")


def _square(value, name):
    """value as a float square matrix of nonzero, even dimension; its
    entries may be anything."""
    arr = np.asarray(value, dtype=float)
    d = arr.shape[0] if arr.ndim else 0
    if arr.shape != (d, d) or d == 0 or d % 2 != 0:
        raise ValueError(
            f"{name} has shape {arr.shape}, expected a square matrix of nonzero even dimension"
        )
    return arr


def standard_form(n):
    """Return the canonical antisymmetric form for n modes.

    Args:
        n: number of modes, must be >= 1.

    Returns:
        The 2n x 2n block-diagonal matrix with [[0, 1], [-1, 0]] per mode.

    Raises:
        ValueError: if n is not a positive integer.
    """
    n = _mode_count(n)
    delta = np.zeros((2 * n, 2 * n))
    for i in range(n):
        delta[2 * i, 2 * i + 1] = 1.0
        delta[2 * i + 1, 2 * i] = -1.0
    return delta


def is_symplectic(S, tol=DEFAULT_TOL):
    """Check whether S preserves the canonical form: S @ delta @ S.T == delta.

    The comparison uses the max-abs-entry norm, relative to ||delta|| = 1.
    """
    _tolerance(tol)
    S = _square(S, "S")
    delta = standard_form(S.shape[0] // 2)
    return bool(np.max(np.abs(S @ delta @ S.T - delta)) <= tol)


def _split(sigma):
    """(symmetric part, antisymmetric part) of sigma, halved before they are
    summed: finite for every finite sigma, where 0.5 (sigma + sigma.T)
    overflows from about 9e307. Halving is exact away from subnormal
    entries, so there the parts are bit for bit those of the unhalved sums."""
    half = 0.5 * sigma
    return half + half.T, half - half.T


def _check_symmetric(sigma, tol, name="sigma"):
    """The symmetric part of sigma, or ValueError unless
    max |sigma - sigma.T| <= tol * max(1, max |sigma|)."""
    _tolerance(tol)
    sigma = _square(sigma, name)
    scale = max(1.0, float(np.max(np.abs(sigma))))
    sym, anti = _split(sigma)
    if np.max(np.abs(anti)) > 0.5 * tol * scale:
        raise ValueError(f"{name} must be symmetric within tolerance {tol}")
    return sym


def _symplectic_spectrum(sigma, tol):
    """(nu, valid, w0) of sigma from one symmetry check and one eigh.

    w0 is the least eigenvalue of sigma. If sigma is positive
    semidefinite within tol, nu holds its ascending symplectic eigenvalues
    and valid is nu[0] >= 1 - tol; otherwise nu is None and valid False.
    """
    sigma = _check_symmetric(sigma, tol)
    n = sigma.shape[0] // 2
    w, v = np.linalg.eigh(sigma)
    if w[0] < -tol * max(1.0, float(w[-1])):
        return None, False, w[0]
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    herm = -1j * (root @ standard_form(n) @ root)
    nu = np.linalg.eigvalsh(herm)[n:]
    return nu, bool(nu[0] >= 1.0 - tol), w[0]


def symplectic_eigenvalues(sigma, tol=DEFAULT_TOL):
    """Symplectic eigenvalues of a symmetric positive semidefinite matrix.

    These are the n nonnegative values nu such that +/-nu exhaust the
    spectrum of 1j * sigma @ inv(delta). Computed through the Hermitian
    matrix -1j * sqrt(sigma) @ delta @ sqrt(sigma), which shares them.

    Args:
        sigma: 2n x 2n real symmetric positive semidefinite matrix.
        tol: slack used for the symmetry and positivity checks.

    Returns:
        Ascending numpy array of the n symplectic eigenvalues.

    Raises:
        ValueError: if tol is not a finite number >= 0, sigma is not
            symmetric, or sigma has a negative-definite direction (strictly
            negative eigenvalue beyond tolerance).
    """
    return covariance_spectrum(sigma, tol)[0]


def covariance_spectrum(sigma, tol=DEFAULT_TOL):
    """Symplectic eigenvalues of sigma and the verdict of is_valid_covariance,
    from one eigendecomposition of sigma and one of the Hermitian matrix.

    Returns:
        (nu, valid): nu as from symplectic_eigenvalues, and valid =
        is_valid_covariance(sigma, tol), which is nu[0] >= 1 - tol.

    Raises:
        ValueError: as symplectic_eigenvalues does.
    """
    nu, valid, least = _symplectic_spectrum(sigma, tol)
    if nu is None:
        raise ValueError(
            f"matrix has a negative-definite direction (eigenvalue {least:.3e})"
        )
    return nu, valid


def is_valid_covariance(sigma, tol=DEFAULT_TOL):
    """Decide whether sigma is a physical covariance matrix.

    True iff sigma is positive semidefinite and its smallest symplectic
    eigenvalue is >= 1 - tol, so False wherever symplectic_eigenvalues
    raises for a negative-definite direction. For one mode this coincides
    with the determinant test det(sigma) >= 1 on positive semidefinite
    input.
    """
    return _symplectic_spectrum(sigma, tol)[1]
