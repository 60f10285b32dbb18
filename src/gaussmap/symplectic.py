"""Symplectic linear algebra for n-mode bosonic phase space.

Quadratures are interleaved as (q1, p1, ..., qn, pn). The canonical
antisymmetric form on one mode is [[0, 1], [-1, 0]], and the vacuum
covariance matrix is the identity, so a covariance matrix is physical
exactly when all of its symplectic eigenvalues are >= 1.
"""

import numpy as np

DEFAULT_TOL = 1e-9


def standard_form(n):
    """Return the canonical antisymmetric form for n modes.

    Args:
        n: number of modes, must be >= 1.

    Returns:
        The 2n x 2n block-diagonal matrix with [[0, 1], [-1, 0]] per mode.

    Raises:
        ValueError: if n is not a positive integer.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"mode count must be a positive integer, got {n!r}")
    n = int(n)
    delta = np.zeros((2 * n, 2 * n))
    for i in range(n):
        delta[2 * i, 2 * i + 1] = 1.0
        delta[2 * i + 1, 2 * i] = -1.0
    return delta


def is_symplectic(S, tol=DEFAULT_TOL):
    """Check whether S preserves the canonical form: S @ delta @ S.T == delta.

    The comparison uses the max-abs-entry norm, relative to ||delta|| = 1.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    if S.shape[0] % 2 != 0:
        raise ValueError(f"matrix dimension must be even, got {S.shape[0]}")
    delta = standard_form(S.shape[0] // 2)
    return bool(np.max(np.abs(S @ delta @ S.T - delta)) <= tol)


def _check_symmetric(sigma, tol, name="sigma"):
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {sigma.shape}")
    if sigma.shape[0] % 2 != 0:
        raise ValueError(f"{name} dimension must be even, got {sigma.shape[0]}")
    scale = max(1.0, float(np.max(np.abs(sigma))))
    if np.max(np.abs(sigma - sigma.T)) > tol * scale:
        raise ValueError(f"{name} must be symmetric within tolerance {tol}")
    return 0.5 * (sigma + sigma.T)


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
        ValueError: if sigma is not symmetric, or has a negative-definite
            direction (strictly negative eigenvalue beyond tolerance).
    """
    sigma = _check_symmetric(sigma, tol)
    n = sigma.shape[0] // 2
    w, v = np.linalg.eigh(sigma)
    scale = max(1.0, float(w[-1]))
    if w[0] < -tol * scale:
        raise ValueError(
            f"matrix has a negative-definite direction (eigenvalue {w[0]:.3e})"
        )
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    delta = standard_form(n)
    herm = -1j * (root @ delta @ root)
    ev = np.linalg.eigvalsh(herm)
    return ev[n:]


class WilliamsonDecomposition:
    """Result of williamson(): S symplectic, nu ascending positive."""

    def __init__(self, S, nu):
        self.S = S
        self.nu = nu

    def __iter__(self):
        return iter((self.S, self.nu))

    def __repr__(self):
        return f"WilliamsonDecomposition(nu={np.array2string(self.nu, precision=6)})"


def williamson(sigma, tol=DEFAULT_TOL):
    """Williamson decomposition of a strictly positive definite matrix.

    Finds a symplectic S and ascending symplectic eigenvalues nu with
    S @ sigma @ S.T = diag(nu_1, nu_1, ..., nu_n, nu_n).

    The construction diagonalizes the antisymmetric matrix
    A = sigma^{-1/2} @ delta @ sigma^{-1/2} with a real Schur
    factorization, normalizes every 2x2 block to have a positive
    upper-right entry, sorts blocks, and assembles
    S = D^{1/2} @ Q.T @ sigma^{-1/2}.

    Raises:
        ValueError: if sigma is singular or indefinite.
    """
    # Imported here: scipy.linalg is most of the package's import time and
    # nothing else needs it.
    from scipy.linalg import schur

    sigma = _check_symmetric(sigma, tol)
    n = sigma.shape[0] // 2
    w, v = np.linalg.eigh(sigma)
    if w[0] <= tol * max(1.0, float(w[-1])):
        raise ValueError(
            f"matrix must be strictly positive definite (min eigenvalue {w[0]:.3e})"
        )
    inv_root = (v / np.sqrt(w)) @ v.T
    delta = standard_form(n)
    A = inv_root @ delta @ inv_root
    A = 0.5 * (A - A.T)
    T, Q = schur(A, output="real")

    # Each diagonal block of T is [[0, a], [-a, 0]]; flip the block basis
    # where a < 0 so that nu = 1/a is positive, then order by nu.
    a_vals = np.empty(n)
    for i in range(n):
        a = T[2 * i, 2 * i + 1]
        if a < 0:
            Q[:, [2 * i, 2 * i + 1]] = Q[:, [2 * i + 1, 2 * i]]
            a = -a
        a_vals[i] = a
    nu = 1.0 / a_vals
    order = np.argsort(nu, kind="stable")
    cols = np.empty(2 * n, dtype=int)
    cols[0::2] = 2 * order
    cols[1::2] = 2 * order + 1
    Q = Q[:, cols]
    nu = nu[order]

    d_half = np.repeat(np.sqrt(nu), 2)
    S = (d_half[:, None] * Q.T) @ inv_root
    return WilliamsonDecomposition(S=S, nu=nu)


def is_valid_covariance(sigma, tol=DEFAULT_TOL):
    """Decide whether sigma is a physical covariance matrix.

    True iff sigma is positive semidefinite and its smallest symplectic
    eigenvalue is >= 1 - tol. For one mode this coincides with the
    determinant test det(sigma) >= 1 on positive semidefinite input.
    """
    sigma = _check_symmetric(sigma, tol)
    w = np.linalg.eigvalsh(sigma)
    if w[0] < -tol * max(1.0, float(abs(w[-1]))):
        return False
    nu = symplectic_eigenvalues(sigma, tol=tol)
    return bool(nu[0] >= 1.0 - tol)
