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
class HSolution:
    """Certificate of solve_h: h(c_star) = h_max, and no h(c) exceeds h_upper.

    interval = (c_lo, c_hi) is the feasible set {c : h(c) >= -floor},
    floor = 1e-13 * _tol_scale, or None when it is empty; h is at least
    -floor at both ends. eigensolves counts the eigendecompositions made.
    """

    h_max: float
    c_star: float
    h_upper: float
    interval: Optional[tuple]
    eigensolves: int


@dataclass
class ClassificationReport:
    """Aggregate verdicts for one map, on any number of modes.

    method records how the Gaussian-to-Gaussian verdict was reached:
    cp_implies_g2g, negative_alpha or concave_h_maximum. A False verdict
    carries a witness direction with a negative objective. A verdict of
    solve_h carries its certificate (see HSolution), so a True one has
    h(c_star) >= 0 up to tolerance, where h(c) = lambda_min(alpha + i(D - c D_K)).
    The completely positive exit carries c_star = 1; fields an exit did
    not compute are None. Every verdict allows tol * _tol_scale, so
    is_cp implies is_g2g, which implies is_classical_g2g.
    """

    is_g2g: bool
    is_cp: bool
    is_classical_g2g: bool
    witness: Optional[Witness] = None
    margin: Optional[float] = None
    method: str = "concave_h_maximum"
    h_max: Optional[float] = None
    c_star: Optional[float] = None
    h_upper: Optional[float] = None
    interval: Optional[tuple] = None
    eigensolves: Optional[int] = None


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


# Step of _max_h_witness either side of c_star; solve_h narrows its bracket to it.
_WITNESS_STEP = 1e-6


def _h_forms(gmap):
    """(A, G, scale) with A = alpha + i D and G = i D_K, so h(c) = lambda_min(A - c G).

    scale, the largest of 1, max |alpha| and max |D_K|, multiplies every
    tolerance (see _tol_scale).
    """
    dk = delta_K(gmap)
    scale = max(1.0, float(np.max(np.abs(gmap.alpha))), float(np.max(np.abs(dk))))
    return gmap.alpha + 1j * standard_form(gmap.n), 1j * dk, scale


def _tol_scale(gmap):
    return _h_forms(gmap)[2]


def solve_h(gmap):
    """Maximum and feasible interval of h(c) = lambda_min(alpha + i(D - c D_K)).

    One eigendecomposition of A - c G (see _h_forms) gives h(c) and, from
    the bottom eigenvector v, the supergradient g = -v* G v. h is concave,
    so every tangent h(c) + g (x - c) bounds it from above. Cutting planes
    (Kelley 1960; Overton, SIAM J. Optim. 1992) keep the nearest tangent
    rising on the left of the maximum and the nearest falling on its
    right, and evaluate h where they meet, which bounds max h from above.
    The solve stops when that bound is within floor = 1e-13 * _tol_scale
    of the best value and the bracket between the two tangent points,
    which holds the maximizer, is no wider than _WITNESS_STEP. Near a
    smooth maximum each cut halves the bracket; at a kink (noiseless
    maps, where h is piecewise linear) the first two tangents meet at the
    maximum itself.

    If h_max >= -floor, each end of the feasible set is found by Newton
    steps on h towards min(0, h_max), from the tangent at the innermost
    cut on that side with h < -floor (the end is c = -1 or 1 if there is
    none). By concavity the steps stay outside the set; the first iterate
    with h >= -floor is the end, so both ends are feasible.

    Returns:
        HSolution.
    """
    return _solve_h(*_h_forms(gmap))


def _solve_h(A, G, scale):
    """solve_h on the forms of _h_forms."""
    floor = 1e-13 * scale
    cuts = []

    def cut(c):
        w, v = np.linalg.eigh(A - c * G)
        cuts.append((c, float(w[0]), -float(np.vdot(v[:, 0], G @ v[:, 0]).real)))
        return cuts[-1]

    lo, hi = cut(-1.0), cut(1.0)
    best = max(lo, hi, key=lambda p: p[1])
    while True:
        (a, h_a, g_a), (b, h_b, g_b) = lo, hi
        if g_a <= 0.0 or g_b >= 0.0:
            # h is monotone on [a, b], and a tangent there bounds it by its end value.
            upper = h_a if g_a <= 0.0 else h_b
            break
        x = (h_b - h_a + g_a * a - g_b * b) / (g_a - g_b)
        upper = h_a + g_a * (x - a)
        if upper - best[1] <= floor and b - a <= _WITNESS_STEP or not a < x < b:
            break
        p = cut(x)
        best = max(best, p, key=lambda q: q[1])
        lo, hi = (p, hi) if p[2] > 0.0 else (lo, p)
    c_star, h_max = best[0], best[1]

    def end(side):
        outside = [p for p in cuts if side * (p[0] - c_star) > 0.0 and p[1] < -floor]
        c, h, g = min(outside, key=lambda p: abs(p[0] - c_star), default=(side, 0.0, 0.0))
        while h < -floor:
            x = c + (min(0.0, h_max) - h) / g
            if not 0.0 < side * (x - c_star) < side * (c - c_star):
                return c_star
            c, h, g = cut(x)
        return c

    interval = (end(-1.0), end(1.0)) if h_max >= -floor else None
    return HSolution(h_max, c_star, max(upper, h_max), interval, len(cuts))


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
    the S-lemma", SIAM Rev. 2007). solve_h finds the maximum.

    Returns:
        (h_max, c_star) with h(c_star) = h_max.
    """
    solution = solve_h(gmap)
    return solution.h_max, solution.c_star


def _max_h_witness(gmap, A, G, c_star):
    """A unit direction whose objective attains h_max = h(c_star).

    A bottom eigenvector w of A - c G (see _h_forms) has objective h(c)
    when k(w) = 0, and also at an endpoint c = 1 (c = -1) when k(w) <= 0
    (k(w) >= 0). Since h rises up to c_star, the bottom eigenvector v_l
    just left of c_star has k <= 0 and v_r just right of it k >= 0. With
    their phases aligned, the real combination v_l + t v_r with k = 0
    lies in the bottom eigenspace at c_star up to O(_WITNESS_STEP**2). No
    direction goes below h_max, so the candidate with the smallest
    objective, recomputed from gmap by direction_margin, is kept.

    Returns:
        (w, direction_margin(gmap, w)).
    """

    def bottom(c):
        return np.linalg.eigh(A - c * G)[1][:, 0]

    v_l = bottom(max(c_star - _WITNESS_STEP, -1.0))
    v_r = bottom(min(c_star + _WITNESS_STEP, 1.0))
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


def is_noiseless(gmap, tol=DEFAULT_TOL):
    """Whether alpha = 0 within tol * _tol_scale, the maps decompose_no_noise takes."""
    return float(np.max(np.abs(gmap.alpha))) <= tol * _tol_scale(gmap)


def is_cp(gmap, tol=DEFAULT_TOL):
    """Complete positivity: h(1) >= 0, i.e. alpha + 1j (delta - D_K) >= 0.

    The opposite sign follows by conjugation. For one mode this agrees
    with the determinant test sqrt(det alpha) >= |1 - det K| whenever
    alpha is positive semidefinite.
    """
    A, G, scale = _h_forms(gmap)
    return bool(np.linalg.eigvalsh(A - G)[0] >= -tol * scale)


def is_classical_g2g(gmap, tol=DEFAULT_TOL):
    """Classical admissibility: alpha positive semidefinite within tol * _tol_scale."""
    return bool(np.linalg.eigvalsh(gmap.alpha)[0] >= -tol * _tol_scale(gmap))


def is_g2g(gmap, tol=DEFAULT_TOL):
    """Decide whether the map sends all Gaussian states to Gaussian states.

    The verdict of classify, on any number of modes: max_h(gmap) >= 0
    unless complete positivity or a negative eigenvalue of alpha decides
    first. Every comparison allows tol times _tol_scale.

    Returns:
        True or False.
    """
    return classify(gmap, tol=tol).is_g2g


def classify(gmap, tol=DEFAULT_TOL):
    """Full classification report for one map, on any number of modes.

    One decision sequence, with every comparison allowing
    atol = tol * _tol_scale: the map is G2G if it is completely positive
    (h(1) >= -atol); it is not if alpha has an eigenvalue below -atol,
    whose real eigenvector is the witness; otherwise solve_h decides by
    h_max >= -atol, and a False verdict takes its witness from
    _max_h_witness. For one mode D_K = det K D, so this reproduces the
    determinant test alpha >= 0 and sqrt(det alpha) >= 1 - |det K|. The
    forms of h are built once and shared by every step. A False verdict
    carries a violating direction, and a verdict from solve_h carries its
    certificate (see ClassificationReport).
    """
    A, G, scale = _h_forms(gmap)
    atol = tol * scale
    w_a, v_a = np.linalg.eigh(gmap.alpha)
    cp = bool(np.linalg.eigvalsh(A - G)[0] >= -atol)
    report = partial(ClassificationReport, is_cp=cp, is_classical_g2g=bool(w_a[0] >= -atol))
    if cp:
        return report(is_g2g=True, method="cp_implies_g2g", c_star=1.0)
    if w_a[0] < -atol:
        a_min = float(w_a[0])
        return report(
            is_g2g=False,
            witness=Witness(w=v_a[:, 0].astype(complex), objective=a_min),
            margin=a_min,
            method="negative_alpha",
        )
    solution = _solve_h(A, G, scale)
    if solution.h_max >= -atol:
        return report(is_g2g=True, margin=max(solution.h_max, 0.0), **vars(solution))
    w, objective = _max_h_witness(gmap, A, G, solution.c_star)
    return report(
        is_g2g=False,
        witness=Witness(w=w, objective=objective),
        margin=objective,
        **vars(solution),
    )


def _residual(gmap, lam, transposed):
    """The factor (K T^b / lam, alpha, y0) left by K = K' . T^b . (lam identity)."""
    T_b = transposition_matrix(gmap.n) if transposed else np.eye(2 * gmap.n)
    return GaussianMap(K=(gmap.K @ T_b) / lam, alpha=gmap.alpha.copy(), y0=gmap.y0.copy())


def decompose_one_mode(gmap, tol=DEFAULT_TOL):
    """Normal form of a one-mode Gaussian-to-Gaussian map.

    The four determinant ranges give the four kinds:
    0 <= det K <= 1 is already completely positive (cp_only);
    det K > 1 factors through a dilatation of lam = sqrt(det K);
    -1 <= det K < 0 factors through a transposition;
    det K < -1 needs both. Boundaries are classified inclusively, and the
    order of factors is fixed as K = S . T^b . (lam identity). The map
    must first pass classify, which decides one mode like any other.

    Raises:
        ValueError: if the map has more than one mode or is not
            Gaussian-to-Gaussian.
    """
    if gmap.n != 1:
        raise ValueError(f"one-mode decomposition requires n = 1, got n = {gmap.n}")
    if not classify(gmap, tol=tol).is_g2g:
        raise ValueError("map is not Gaussian-to-Gaussian; no normal form exists")
    d = float(np.linalg.det(gmap.K))
    dilated, transposed = abs(d) > 1.0 + tol, d < -tol
    lam = math.sqrt(abs(d)) if dilated else 1.0
    kind = {
        (False, False): "cp_only",
        (True, False): "dilatation_then_cp",
        (False, True): "transpose_then_cp",
        (True, True): "dilatation_transpose_then_cp",
    }[dilated, transposed]
    residual = _residual(gmap, lam, transposed)
    return NormalForm(
        kind=kind, lam=lam, transposed=transposed, S=residual.K, alpha=residual.alpha, y0=residual.y0
    )


def decompose_no_noise(gmap, tol=DEFAULT_TOL):
    """Normal form of a noiseless map (alpha = 0) on any number of modes.

    Such a map is Gaussian-to-Gaussian exactly when K D K.T = c D for a
    scalar with |c| >= 1; then K = S . T^b . kappa with kappa = sqrt(|c|),
    b = (c < 0), and S symplectic. Returns kind none (with a note) when
    D_K is not proportional to D or the scale is below one.

    Raises:
        ValueError: if the map is not noiseless (see is_noiseless).
    """
    if not is_noiseless(gmap, tol=tol):
        alpha_norm = float(np.max(np.abs(gmap.alpha)))
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
    kappa, transposed = math.sqrt(abs(c)), c < 0
    S = _residual(gmap, kappa, transposed).K
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


def factor_interval(gmap, interval, tol=DEFAULT_TOL):
    """Read K = K' . T^b . (lam identity) with K' CP off a feasible interval of h.

    K' = K T^b / lam is CP exactly when h(c) >= 0 at c = 1 / lam**2
    (b = 0) or c = -1 / lam**2 (b = 1, as T flips the sign of D_K). So the
    end of (c_lo, c_hi) with the largest |c| gives the smallest lam; the
    transposition is taken only when it lowers lam by more than tol, and
    the residual must pass is_cp. Ends with |c| < 1e-4 (lam > 100) do not
    count: both counterexample families touch zero at c = 0 with a
    quadratic decay, and the feasible sliver of width ~sqrt(floor) around
    it is a limit of ever-larger dilatations, not a factoring.

    Returns:
        None when interval is None or no end qualifies, else a tuple
        (lam, transposed, residual GaussianMap).
    """
    if interval is None:
        return None
    best = None
    for c, transposed in ((interval[1], False), (-interval[0], True)):
        if c < 1e-4:
            continue
        lam = 1.0 / math.sqrt(c)
        if best is not None and lam >= best[0] - tol:
            continue
        residual = _residual(gmap, lam, transposed)
        if is_cp(residual, tol):
            best = (lam, transposed, residual)
    return best


def homogeneous_factoring_check(gmap, tol=DEFAULT_TOL):
    """Search for a factoring K = K' . T^b . (lam identity) with K' CP.

    Reads the factoring off the feasible interval of one solve_h, whose
    noise floor rather than tol keeps the sliver around a degenerate
    c = 0 narrow (see factor_interval); a returned lam never exceeds 100.

    Returns:
        None when no factoring exists (as for both counterexample
        families), else a tuple (lam, transposed, residual GaussianMap).
    """
    return factor_interval(gmap, solve_h(gmap).interval, tol)
