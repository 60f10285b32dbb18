"""Gaussian states, linear phase-space maps, and their action laws.

A map is the triple (K, alpha, y0) acting on moments as
x -> K x + y0 and sigma -> K sigma K.T + alpha, and on characteristic
functions as chi(k) -> chi(K.T k) * exp(-k.T alpha k / 4 + 1j k.T y0).
Maps are stored raw, with no validity assumption: classification is a
query, and representing invalid candidates is the whole point. So a
map, a state or a quadrature vector k or r need only be well formed:
finite entries and matching shapes, else a ValueError names the argument
("K has shape (3, 3), expected ...", "y0 has a NaN or infinite entry").
apply_map_moments takes raw moments and checks only their sizes.
"""

from dataclasses import dataclass

import numpy as np

from .symplectic import (
    DEFAULT_TOL, _array, _check_symmetric, _mode_count, _split, _square, is_valid_covariance)


@dataclass
class GaussianState:
    """An n-mode Gaussian state given by its mean and covariance matrix.

    cov must be a 2n x 2n matrix and mean hold 2n entries, all finite,
    else ValueError names the argument. The covariance matrix must also be
    a physical quantum covariance (all symplectic eigenvalues >= 1).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        cov = _square(self.cov, "cov")
        d = cov.shape[0]
        self.cov = _array(cov, (d, d), "cov")
        self.mean = _array(np.ravel(self.mean), (d,), "mean")
        if not is_valid_covariance(self.cov):
            raise ValueError("covariance matrix is not a valid quantum covariance")

    @property
    def n(self):
        return self.mean.shape[0] // 2


@dataclass
class GaussianMap:
    """A candidate phase-space map (K, alpha, y0) on n modes.

    K and alpha must be 2n x 2n, y0 (zero when omitted) must hold 2n
    entries, all finite, and alpha must be symmetric within DEFAULT_TOL;
    else ValueError names the argument. Nothing else is assumed.
    """

    K: np.ndarray
    alpha: np.ndarray
    y0: np.ndarray = None

    def __post_init__(self):
        K = _square(self.K, "K")
        d = K.shape[0]
        self.K = _array(K, (d, d), "K")
        alpha = _array(self.alpha, (d, d), "alpha")
        self.alpha = _check_symmetric(alpha, DEFAULT_TOL, name="alpha")
        self.y0 = np.zeros(d) if self.y0 is None else _array(np.ravel(self.y0), (d,), "y0")

    @property
    def n(self):
        return self.K.shape[0] // 2


def char_function(state, k):
    """Characteristic function exp(-k.T sigma k / 4 + 1j k.T x) at k."""
    k = _array(np.ravel(k), state.mean.shape, "k")
    return np.exp(-0.25 * k @ state.cov @ k + 1j * (k @ state.mean))


def wigner_function(state, r):
    """Gaussian Wigner function at the phase-space point r.

    Returns det(pi sigma)^{-1/2} * exp(-(r-x).T sigma^{-1} (r-x)).

    Raises:
        ValueError: if the covariance matrix is singular.
    """
    r = _array(np.ravel(r), state.mean.shape, "r")
    sign, logdet = np.linalg.slogdet(np.pi * state.cov)
    if sign <= 0:
        raise ValueError("covariance matrix is singular or not positive definite")
    diff = r - state.mean
    try:
        expo = diff @ np.linalg.solve(state.cov, diff)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance matrix is singular") from exc
    return float(np.exp(-0.5 * logdet - expo))


def apply_map(gmap, state):
    """Push a state's moments through a map, without asserting validity.

    Returns:
        Tuple (mean, cov) of the candidate output moments
        (K x + y0, K sigma K.T + alpha). The caller decides whether the
        result is physical, e.g. via is_valid_covariance.
    """
    return apply_map_moments(gmap, state.mean, state.cov)


def apply_map_moments(gmap, mean, cov):
    """(K x + y0, K sigma K.T + alpha) for raw moments of matching size.

    Unlike `apply_map` it takes the arrays themselves, so moments that
    are not a physical state (a subvacuum cov, say) go through as well.
    The covariance is returned as the symmetric part 0.5 C + 0.5 C.T:
    rounding leaves the product C = K sigma K.T + alpha off symmetric in
    the last bits, and a symmetry check at tol = 0 would reject it. Moments
    of another size raise ValueError("dimension mismatch (map has n = ...,
    state has ...)"), where the state has "n = ..." when its mean and cov
    agree on a mode count, and "mean of shape ... and cov of shape ..."
    when they do not. Output moments that overflow double precision raise
    ValueError naming max |K|, as delta_K does.
    """
    d = 2 * gmap.n
    shapes = np.shape(mean), np.shape(cov)
    if shapes != ((d,), (d, d)):
        k = np.size(mean)
        if k % 2 == 0 and shapes == ((k,), (k, k)):
            state = f"n = {k // 2}"
        else:
            state = f"mean of shape {shapes[0]} and cov of shape {shapes[1]}"
        raise ValueError(f"dimension mismatch (map has n = {gmap.n}, state has {state})")
    with np.errstate(over="ignore", invalid="ignore"):
        mean_out = gmap.K @ mean + gmap.y0
        cov_out = _split(gmap.K @ cov @ gmap.K.T + gmap.alpha)[0]
    if not (np.isfinite(mean_out).all() and np.isfinite(cov_out).all()):
        raise ValueError(f"output moments are not finite in double precision (max |K| = {np.max(np.abs(gmap.K)):.3e})")
    return mean_out, cov_out


def apply_map_char(gmap, chi_in, k):
    """Action of a map on a characteristic function, evaluated at k.

    chi_in is a callable k -> complex. Returns
    chi_in(K.T k) * exp(-k.T alpha k / 4 + 1j k.T y0).
    """
    k = _array(np.ravel(k), (2 * gmap.n,), "k")
    return chi_in(gmap.K.T @ k) * np.exp(-0.25 * k @ gmap.alpha @ k + 1j * (k @ gmap.y0))


def compose(outer, inner):
    """Composition applying inner first: (K2 K1, K2 a1 K2.T + a2, K2 y1 + y2)."""
    if outer.n != inner.n:
        raise ValueError(f"mode counts differ: {outer.n} vs {inner.n}")
    return GaussianMap(
        K=outer.K @ inner.K,
        alpha=outer.K @ inner.alpha @ outer.K.T + outer.alpha,
        y0=outer.K @ inner.y0 + outer.y0,
    )


def dilatation(lam, n):
    """The dilatation map K = lam * identity, alpha = 0, y0 = 0.

    Dilatations with |lam| > 1 send every Gaussian state to a Gaussian
    state yet are not completely positive; contractions (|lam| < 1) are
    not even Gaussian-to-Gaussian.
    """
    if lam == 0:
        raise ValueError("dilatation parameter must be nonzero")
    d = 2 * _mode_count(n)
    # lam goes on the diagonal only: inf times the zeros of K would be NaN.
    return GaussianMap(K=np.diag(np.full(d, float(lam))), alpha=np.zeros((d, d)))


def transposition(n, modes=None):
    """Transposition of a subset of modes: diag(1, -1) on each chosen mode.

    Args:
        n: total number of modes.
        modes: iterable of 1-based mode indices to transpose; None means
            all modes; an empty iterable yields the identity map.

    Raises:
        ValueError: if a mode index is not a positive integer (1.5 is
            refused, not truncated), or is above n.
    """
    n = _mode_count(n)
    if modes is None:
        chosen = set(range(1, n + 1))
    else:
        chosen = {_mode_count(m, "mode index") for m in modes}
        for m in chosen:
            if m > n:
                raise ValueError(f"mode index {m} out of range 1..{n}")
    diag = np.ones(2 * n)
    for m in chosen:
        diag[2 * (m - 1) + 1] = -1.0
    return GaussianMap(K=np.diag(diag), alpha=np.zeros((2 * n, 2 * n)))


def transposition_matrix(n, modes=None):
    """The K matrix of transposition(n, modes), as a plain array."""
    return transposition(n, modes).K
