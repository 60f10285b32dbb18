"""Classification and normal forms of linear phase-space maps.

Decides whether a map (K, alpha, y0) sends every Gaussian state to a
Gaussian state, whether it is a completely positive channel, and whether
it is classically admissible (alpha positive semidefinite). Produces the
normal-form factorizations through a dilatation and an optional
transposition where they exist, and constructs the two two-mode
counterexample families that admit no such factorization.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .gaussian import GaussianMap, transposition_matrix
from .symplectic import DEFAULT_TOL, is_symplectic, standard_form

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Witness:
    """A direction certifying that a map is not Gaussian-to-Gaussian.

    The objective is |w* D_K w| + w* alpha w - |w* D w| where D is the
    canonical form and D_K = K D K.T; a negative value at any w proves
    the map invalid.
    """

    w: np.ndarray
    objective: float


@dataclass
class ClassificationReport:
    """Aggregate verdicts for one map.

    method records how the Gaussian-to-Gaussian verdict was reached. A
    False verdict carries a witness direction with a negative objective.
    For two or more modes a True verdict that is not completely positive
    carries c_star in [-1, 1] with h(c_star) >= 0 up to tolerance, where
    h(c) = lambda_min(alpha + i(D - c D_K)); the completely positive
    shortcut carries c_star = 1. When the verdict came from max_h, h_max
    is the maximum of h and c_star its argument.
    """

    is_g2g: bool
    is_cp: bool
    is_classical_g2g: bool
    witness: Optional[Witness] = None
    margin: Optional[float] = None
    method: str = "concave_h_maximum"
    h_max: Optional[float] = None
    c_star: Optional[float] = None


@dataclass
class NormalForm:
    """Factorization of a map as S . (transposition) . (lambda identity).

    kind is one of cp_only, dilatation_then_cp, transpose_then_cp,
    dilatation_transpose_then_cp, homogeneous, none. For the homogeneous
    kind (noiseless maps) lam holds the scale kappa. The residual map
    (S, alpha, y0) is the completely positive factor.
    """

    kind: str
    lam: Optional[float] = None
    transposed: bool = False
    S: Optional[np.ndarray] = None
    alpha: Optional[np.ndarray] = None
    y0: Optional[np.ndarray] = None
    note: Optional[str] = None


def delta_K(gmap):
    """The transformed canonical form K @ delta @ K.T (antisymmetric)."""
    delta = standard_form(gmap.n)
    dk = gmap.K @ delta @ gmap.K.T
    return 0.5 * (dk - dk.T)


def direction_margin(gmap, w):
    """Feasibility objective |w* D_K w| + w* alpha w - |w* D w| at w."""
    w = np.asarray(w, dtype=complex).reshape(-1)
    delta = standard_form(gmap.n)
    dk = delta_K(gmap)
    quad = np.real(np.conj(w) @ gmap.alpha @ w)
    return float(
        abs(np.conj(w) @ dk @ w) + quad - abs(np.conj(w) @ delta @ w)
    )


def _golden_max(f, lo, hi, iters=70):
    """Golden-section search for the maximum of a concave f on [lo, hi].

    Returns (f(x), x) at the better of the two final interior points.
    """
    x1 = hi - INV_PHI * (hi - lo)
    x2 = lo + INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INV_PHI * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INV_PHI * (hi - lo)
            f1 = f(x1)
    return max((f1, x1), (f2, x2))


def _h_forms(gmap):
    """(alpha + i D, i D_K): h(c) is the smallest eigenvalue of A - c G."""
    return gmap.alpha + 1j * standard_form(gmap.n), 1j * delta_K(gmap)


def max_h(gmap):
    """Maximum over c in [-1, 1] of h(c) = lambda_min(alpha + i(D - c D_K)).

    The map is Gaussian-to-Gaussian exactly when the maximum is
    nonnegative. With the real forms a = w* alpha w, d = i w* D w and
    k = i w* D_K w, the objective of direction_margin is a + |k| - |d|.
    For unit w and |c| <= 1 it is at least min(a + d - c k, a - d + c k),
    the form of alpha + i(D - c D_K) at w and at its complex conjugate,
    hence at least h(c): no direction goes below the maximum. The
    converse, that a nonnegative objective everywhere forces h(c) >= 0
    at some c, is the complex S-lemma, because the joint numerical range
    of two Hermitian forms is convex (Polik and Terlaky, "A survey of
    the S-lemma", SIAM Rev. 2007). h is a minimum of affine functions of
    c, hence concave: a golden-section search finds its maximum, and
    both endpoints are compared as well.

    Returns:
        (h_max, c_star) with h(c_star) = h_max.
    """
    A, G = _h_forms(gmap)

    def h(c):
        return float(np.linalg.eigvalsh(A - c * G)[0])

    return max(_golden_max(h, -1.0, 1.0), (h(-1.0), -1.0), (h(1.0), 1.0))


def _max_h_witness(gmap, c_star, step=1e-6):
    """A unit direction whose objective attains h_max = h(c_star).

    A bottom eigenvector w of alpha + i(D - c D_K) has objective h(c)
    when k(w) = 0, and also at an endpoint c = 1 (c = -1) when k(w) <= 0
    (k(w) >= 0). Since h rises up to c_star, the bottom eigenvector v_l
    just left of c_star has k <= 0 and v_r just right of it k >= 0. With
    their phases aligned, the real combination v_l + t v_r with k = 0
    lies in the bottom eigenspace at c_star up to O(step**2). No
    direction goes below h_max, so the candidate with the smallest
    recomputed objective is kept.

    Returns:
        (w, direction_margin(gmap, w)).
    """
    A, G = _h_forms(gmap)

    def bottom(c):
        return np.linalg.eigh(A - c * G)[1][:, 0]

    v_l, v_r = bottom(max(c_star - step, -1.0)), bottom(min(c_star + step, 1.0))
    overlap = np.vdot(v_l, v_r)
    if abs(overlap) > 0.0:
        v_r = v_r * (np.conj(overlap) / abs(overlap))
    k_l, k_r = np.vdot(v_l, G @ v_l).real, np.vdot(v_r, G @ v_r).real
    candidates = [v_l, v_r]
    if k_l < 0.0 < k_r:
        # k(v_l + t v_r) = k_l + 2 t x + t**2 k_r has one root t > 0.
        x = np.vdot(v_l, G @ v_r).real
        root = math.sqrt(x * x - k_l * k_r)
        t = -k_l / (x + root) if x > 0.0 else (root - x) / k_r
        w = v_l + t * v_r
        candidates.append(w / np.linalg.norm(w))
    return min(((w, direction_margin(gmap, w)) for w in candidates), key=lambda p: p[1])


def _tol_scale(gmap):
    return max(1.0, float(np.max(np.abs(gmap.alpha))), float(np.max(np.abs(delta_K(gmap)))))


def _alpha_min_eig(gmap):
    return float(np.linalg.eigvalsh(gmap.alpha)[0])


def _one_mode_g2g(gmap, atol):
    """Determinant test: alpha >= 0 and sqrt(det alpha) >= 1 - |det K|, within atol."""
    det_a = max(float(np.linalg.det(gmap.alpha)), 0.0)
    det_k = float(np.linalg.det(gmap.K))
    return _alpha_min_eig(gmap) >= -atol and math.sqrt(det_a) >= 1.0 - abs(det_k) - atol


def _one_mode_margin(gmap):
    """Exact objective minimum for one mode, via the sign-resolved forms."""
    detk = float(np.linalg.det(gmap.K))
    alpha = gmap.alpha
    if abs(detk) >= 1.0:
        w_a, v_a = np.linalg.eigh(alpha)
        w = np.asarray(v_a[:, 0], dtype=complex)
        return float(w_a[0]), w / np.linalg.norm(w)
    delta = standard_form(1)
    B = -(1.0 - abs(detk)) * delta
    M = np.block([[alpha, B], [B.T, alpha]])
    w_m, v_m = np.linalg.eigh(M)
    y = v_m[:, 0]
    w = y[:2] + 1j * y[2:]
    return float(w_m[0]), w / np.linalg.norm(w)


def is_cp(gmap, tol=DEFAULT_TOL):
    """Complete positivity: alpha + 1j (delta - D_K) positive semidefinite.

    The opposite sign follows by conjugation. For one mode this agrees
    with the determinant test sqrt(det alpha) >= |1 - det K| whenever
    alpha is positive semidefinite.
    """
    delta = standard_form(gmap.n)
    herm = gmap.alpha + 1j * (delta - delta_K(gmap))
    ev = np.linalg.eigvalsh(herm)
    return bool(ev[0] >= -tol * _tol_scale(gmap))


def is_classical_g2g(gmap, tol=DEFAULT_TOL):
    """Classical admissibility: alpha positive semidefinite within tol."""
    return bool(_alpha_min_eig(gmap) >= -tol * max(1.0, float(np.max(np.abs(gmap.alpha)))))


def is_g2g(gmap, tol=DEFAULT_TOL):
    """Decide whether the map sends all Gaussian states to Gaussian states.

    One mode is decided by the determinant test: alpha positive
    semidefinite and sqrt(det alpha) >= 1 - |det K|. For two or more
    modes complete positivity (h(1) >= 0) implies the verdict and alpha
    with a negative eigenvalue refutes it; otherwise the verdict is
    max_h(gmap) >= 0. Every comparison allows tol times _tol_scale.

    Returns:
        True or False.
    """
    atol = tol * _tol_scale(gmap)
    if gmap.n == 1:
        return _one_mode_g2g(gmap, atol)
    if is_cp(gmap, tol=tol):
        return True
    if _alpha_min_eig(gmap) < -atol:
        return False
    return max_h(gmap)[0] >= -atol


def classify(gmap, tol=DEFAULT_TOL):
    """Full classification report for one map.

    Verdicts are consistent with is_g2g / is_cp / is_classical_g2g; the
    method field records how the Gaussian-to-Gaussian verdict was
    reached. A False verdict carries a violating direction, and a verdict
    from max_h carries its maximum and argument (see ClassificationReport).
    """
    atol = tol * _tol_scale(gmap)
    cp = is_cp(gmap, tol=tol)
    report = partial(
        ClassificationReport, is_cp=cp, is_classical_g2g=is_classical_g2g(gmap, tol=tol)
    )

    if gmap.n == 1:
        margin, w = _one_mode_margin(gmap)
        if _one_mode_g2g(gmap, atol):
            return report(is_g2g=True, margin=max(margin, 0.0), method="one_mode_determinant")
        return report(
            is_g2g=False,
            witness=Witness(w=w, objective=margin),
            margin=margin,
            method="one_mode_determinant",
        )

    if float(np.max(np.abs(gmap.alpha))) <= atol:
        # Noiseless multi-mode maps factor exactly when D_K is a scalar
        # multiple c of the canonical form with |c| >= 1; then h(1/c) = 0.
        delta = standard_form(gmap.n)
        dk = delta_K(gmap)
        c = float(np.sum(dk * delta) / np.sum(delta * delta))
        if np.max(np.abs(dk - c * delta)) <= tol * max(1.0, abs(c)):
            if abs(c) >= 1.0 - tol:
                return report(
                    is_g2g=True,
                    method="homogeneous_shortcut",
                    c_star=max(-1.0, min(1.0, 1.0 / c)),
                )
            # Exact minimizer: a matched quadrature pair of the first mode.
            w = np.zeros(2 * gmap.n, dtype=complex)
            w[0] = 1.0 / math.sqrt(2.0)
            w[1] = 1j / math.sqrt(2.0)
            margin = abs(c) - 1.0
            return report(
                is_g2g=False,
                witness=Witness(w=w, objective=margin),
                margin=margin,
                method="homogeneous_shortcut",
            )

    if cp:
        return report(is_g2g=True, method="cp_implies_g2g", c_star=1.0)
    a_min = _alpha_min_eig(gmap)
    if a_min < -atol:
        w_a, v_a = np.linalg.eigh(gmap.alpha)
        w = np.asarray(v_a[:, 0], dtype=complex)
        return report(
            is_g2g=False,
            witness=Witness(w=w, objective=a_min),
            margin=a_min,
            method="negative_alpha",
        )
    h_max, c_star = max_h(gmap)
    if h_max >= -atol:
        return report(is_g2g=True, margin=max(h_max, 0.0), h_max=h_max, c_star=c_star)
    w, objective = _max_h_witness(gmap, c_star)
    return report(
        is_g2g=False,
        witness=Witness(w=w, objective=objective),
        margin=objective,
        h_max=h_max,
        c_star=c_star,
    )


def decompose_one_mode(gmap, tol=DEFAULT_TOL):
    """Normal form of a one-mode Gaussian-to-Gaussian map.

    The four determinant ranges give the four kinds:
    0 <= det K <= 1 is already completely positive (cp_only);
    det K > 1 factors through a dilatation of lam = sqrt(det K);
    -1 <= det K < 0 factors through a transposition;
    det K < -1 needs both. Boundaries are classified inclusively, and the
    order of factors is fixed as K = S . T^b . (lam identity).

    Raises:
        ValueError: if the map has more than one mode or is not
            Gaussian-to-Gaussian.
    """
    if gmap.n != 1:
        raise ValueError(f"one-mode decomposition requires n = 1, got n = {gmap.n}")
    if not is_g2g(gmap, tol=tol):
        raise ValueError("map is not Gaussian-to-Gaussian; no normal form exists")
    d = float(np.linalg.det(gmap.K))
    T = transposition_matrix(1)
    if -tol <= d <= 1.0 + tol:
        return NormalForm(
            kind="cp_only", lam=1.0, transposed=False,
            S=gmap.K.copy(), alpha=gmap.alpha.copy(), y0=gmap.y0.copy(),
        )
    if d > 1.0:
        lam = math.sqrt(d)
        return NormalForm(
            kind="dilatation_then_cp", lam=lam, transposed=False,
            S=gmap.K / lam, alpha=gmap.alpha.copy(), y0=gmap.y0.copy(),
        )
    if d >= -1.0 - tol:
        return NormalForm(
            kind="transpose_then_cp", lam=1.0, transposed=True,
            S=gmap.K @ T, alpha=gmap.alpha.copy(), y0=gmap.y0.copy(),
        )
    lam = math.sqrt(-d)
    return NormalForm(
        kind="dilatation_transpose_then_cp", lam=lam, transposed=True,
        S=(gmap.K @ T) / lam, alpha=gmap.alpha.copy(), y0=gmap.y0.copy(),
    )


def decompose_no_noise(gmap, tol=DEFAULT_TOL):
    """Normal form of a noiseless map (alpha = 0) on any number of modes.

    Such a map is Gaussian-to-Gaussian exactly when K D K.T = c D for a
    scalar with |c| >= 1; then K = S . T^b . kappa with kappa = sqrt(|c|),
    b = (c < 0), and S symplectic. Returns kind none (with a note) when
    D_K is not proportional to D or the scale is below one.

    Raises:
        ValueError: if alpha is not zero within tolerance.
    """
    alpha_norm = float(np.max(np.abs(gmap.alpha)))
    if alpha_norm > tol * max(1.0, float(np.max(np.abs(gmap.K))) ** 2):
        raise ValueError(f"map has noise (max |alpha| = {alpha_norm:.3e}); alpha must be 0")
    delta = standard_form(gmap.n)
    dk = delta_K(gmap)
    c = float(np.sum(dk * delta) / np.sum(delta * delta))
    residual = float(np.max(np.abs(dk - c * delta)))
    if residual > tol * max(1.0, abs(c)):
        return NormalForm(
            kind="none",
            note=(
                "K D K.T is not proportional to D "
                f"(proportionality residual {residual:.3e}); "
                "a noiseless map of this form is not Gaussian-to-Gaussian"
            ),
        )
    if abs(c) < 1.0 - tol:
        return NormalForm(
            kind="none",
            note=(
                f"scale |c| = {abs(c):.6g} is below 1; the map contracts "
                "the canonical form and is not Gaussian-to-Gaussian"
            ),
        )
    kappa = math.sqrt(abs(c))
    transposed = c < 0
    S = gmap.K.copy()
    if transposed:
        S = S @ transposition_matrix(gmap.n)
    S = S / kappa
    if not is_symplectic(S, tol=max(tol * 1e3, 1e-6)):
        raise ValueError("recovered factor failed the symplectic check")
    return NormalForm(
        kind="homogeneous", lam=kappa, transposed=transposed,
        S=S, alpha=np.zeros_like(gmap.alpha), y0=gmap.y0.copy(),
    )


def state_quadratic_infimum(w):
    """Infimum of w* sigma w over all valid covariance matrices: |w* D w|.

    Real directions give zero, and the infimum is approached (not always
    attained) by strongly squeezed states aligned with w.
    """
    w = np.asarray(w, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(w)
    if nrm == 0:
        raise ValueError("direction vector must be nonzero")
    if w.shape[0] % 2 != 0:
        raise ValueError(f"direction length must be even, got {w.shape[0]}")
    delta = standard_form(w.shape[0] // 2)
    return float(abs(np.conj(w) @ delta @ w))


def rescale_domain(gmap, mu):
    """Rescale the domain: (K, alpha, y0) -> (mu K, alpha, y0).

    The original map is Gaussian-to-Gaussian on the restricted domain of
    covariances with all symplectic eigenvalues >= mu**2 exactly when
    the rescaled map is Gaussian-to-Gaussian on every state.
    """
    if mu <= 0:
        raise ValueError(f"scale must be positive, got {mu}")
    return GaussianMap(K=float(mu) * gmap.K, alpha=gmap.alpha.copy(), y0=gmap.y0.copy())


def partial_transpose_example(nu):
    """Two-mode map sqrt(nu) (1 (+) T), alpha = identity.

    Gaussian-to-Gaussian for every nu > 0, never completely positive,
    and admits no factorization through a dilatation and transposition
    followed by a completely positive map.
    """
    if nu <= 0:
        raise ValueError(f"parameter must be positive, got {nu}")
    K = math.sqrt(nu) * np.diag([1.0, 1.0, 1.0, -1.0])
    return GaussianMap(K=K, alpha=np.eye(4))


def q_exchange_example(nu):
    """Two-mode map sqrt(nu) (exchange of the two position quadratures).

    The K matrix swaps q1 and q2, negates p1, and fixes p2, all scaled
    by sqrt(nu); alpha is the identity. Gaussian-to-Gaussian for every
    nu > 0 and completely positive for none.
    """
    if nu <= 0:
        raise ValueError(f"parameter must be positive, got {nu}")
    K = math.sqrt(nu) * np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return GaussianMap(K=K, alpha=np.eye(4))


def homogeneous_factoring_check(gmap, tol=DEFAULT_TOL):
    """Search for a factoring K = K' . T^b . (lam identity) with K' CP.

    Complete positivity of the residual depends on lam and b only through
    alpha + 1j (D - (+/-) D_K / lam**2), whose smallest eigenvalue is a
    concave function of x = 1 / lam**2. The feasible x therefore form a
    closed subinterval of [0, 1]: a golden-section maximization locates
    it and a bisection finds its upper endpoint, whose lam is the
    smallest feasible dilatation parameter.

    Feasibility along the interval is measured at the numerical noise
    floor rather than at `tol`. Slack of size tol around the degenerate
    point x = 0 would otherwise admit a sliver of width ~sqrt(tol)
    whenever the margin decays quadratically there (both counterexample
    families do), which is a limit of ever-larger dilatations and not a
    factoring. Endpoints below x = 1e-4 are reported as absent for the
    same reason, so a returned lam never exceeds 100.

    Returns:
        None when no factoring exists (as for both counterexample
        families), else a tuple (lam, transposed, residual GaussianMap).
    """
    delta = standard_form(gmap.n)
    dk = delta_K(gmap)
    alpha = gmap.alpha
    scale = _tol_scale(gmap)
    feas_tol = 1e-13 * scale
    x_floor = 1e-4

    def feas(sign, x):
        herm = alpha + 1j * (delta - sign * x * dk)
        return float(np.linalg.eigvalsh(herm)[0])

    best = None
    for b, sign in ((0, 1.0), (1, -1.0)):
        if feas(sign, 1.0) >= -feas_tol:
            x_hi = 1.0
        else:
            f_peak, x_peak = _golden_max(lambda x: feas(sign, x), 0.0, 1.0)
            if f_peak < -feas_tol:
                continue
            lo, hi = x_peak, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if feas(sign, mid) >= -feas_tol:
                    lo = mid
                else:
                    hi = mid
            x_hi = lo
        if x_hi < x_floor:
            continue
        lam = 1.0 / math.sqrt(x_hi) if x_hi < 1.0 else 1.0
        if best is None or lam < best[0] - tol:
            T_b = transposition_matrix(gmap.n) if b else np.eye(2 * gmap.n)
            residual = GaussianMap(
                K=(gmap.K @ T_b) / lam, alpha=gmap.alpha.copy(), y0=gmap.y0.copy()
            )
            if not is_cp(residual, tol):
                continue
            best = (lam, bool(b), residual)
    return best
