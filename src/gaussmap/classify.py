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
from .symplectic import DEFAULT_TOL, _tolerance, standard_form


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
    floor = 1e-13 * _scale(sizes), or None when it is empty; h is at least
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
    not compute are None. The two exits allow tol * _scale(sizes) and
    solve_h allows tol * _scale(sizes, c_star), so is_cp implies is_g2g,
    which implies is_classical_g2g.
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
    """Factorization K = S . T^b . (lam identity) of a map, as decompose reads it.

    kind names the rule that gave it: cp_only, dilatation_then_cp,
    transpose_then_cp or dilatation_transpose_then_cp for one mode (the
    determinant ranges); on two or more modes the factor is read off the
    feasible interval of h, and kind is homogeneous for a noiseless map
    (then K D K.T = lam**2 D up to T, and S is symplectic) and
    homogeneous_factoring for the rest. transposed is b. The residual map
    (S, alpha, y0) is the completely positive factor.
    """

    kind: str
    lam: float
    transposed: bool
    S: np.ndarray
    alpha: np.ndarray
    y0: np.ndarray


def delta_K(gmap):
    """The transformed canonical form K @ delta @ K.T (antisymmetric).

    Raises:
        ValueError: when it is not finite in double precision (K = 1e154 I
        already overflows), naming max |K|: then no test of h can decide.
    """
    delta = standard_form(gmap.n)
    with np.errstate(over="ignore", invalid="ignore"):
        dk = gmap.K @ delta @ gmap.K.T
        dk = 0.5 * (dk - dk.T)
    if not np.isfinite(dk).all():
        raise ValueError(
            "map cannot be decided in double precision: K D K.T is not finite "
            f"(max |K| = {np.max(np.abs(gmap.K)):.3e})"
        )
    return dk


def direction_margin(gmap, w):
    """Feasibility objective |w* D_K w| + w* alpha w - |w* D w| at w."""
    w = np.asarray(w, dtype=complex).reshape(-1)
    delta = standard_form(gmap.n)
    dk = delta_K(gmap)
    quad = np.real(np.conj(w) @ gmap.alpha @ w)
    return float(
        abs(np.conj(w) @ dk @ w) + quad - abs(np.conj(w) @ delta @ w)
    )


# Largest width of the final bracket of solve_h. The rule pins c_star, which the
# report prints and decompose falls back to: on a flat maximum the upper bound
# meets the best value while the bracket is still wide, and without the rule
# c_star moves by a few 1e-6. _max_h_witness combines the bottom eigenvectors at
# the two ends of the bracket, so its objective is off by O(width**2).
_WITNESS_STEP = 1e-6


def _h_forms(gmap):
    """(A, G, sizes) with A = alpha + i D and G = i D_K, so h(c) = lambda_min(A - c G).

    sizes = (max |alpha|, max |D_K|) gives the tolerance scale at every
    c (see _scale).
    """
    dk = delta_K(gmap)
    sizes = (float(np.max(np.abs(gmap.alpha))), float(np.max(np.abs(dk))))
    return gmap.alpha + 1j * standard_form(gmap.n), 1j * dk, sizes


def _scale(sizes, c=1.0):
    """max(1, max |alpha|, |c| max |D_K|), the size of A - c G.

    Forming A - c G and a backward-stable eigh of it round h(c) by a
    small multiple of the unit roundoff times this size (Demmel, Applied
    Numerical Linear Algebra, 1997, ch. 5), so every test of h(c) allows
    tol times it.
    """
    return max(1.0, sizes[0], abs(c) * sizes[1])


def solve_h(gmap):
    """Maximum and feasible interval of h(c) = lambda_min(alpha + i(D - c D_K)).

    One eigendecomposition of A - c G (see _h_forms) gives h(c) and, from
    the bottom eigenvector v, the supergradient g = -v* G v. h is concave,
    so every tangent h(c) + g (x - c) bounds it from above. Cutting planes
    (Kelley 1960; Overton, SIAM J. Optim. 1992) keep the nearest tangent
    rising on the left of the maximum and the nearest falling on its
    right, and evaluate h where they meet, which bounds max h from above.
    The solve stops when that bound is within floor = 1e-13 * _scale(sizes)
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

    The map is Gaussian-to-Gaussian exactly when h_max >= 0. With the
    real forms a = w* alpha w, d = i w* D w and k = i w* D_K w, the
    objective of direction_margin is a + |k| - |d|. For unit w and
    |c| <= 1 it is at least min(a + d - c k, a - d + c k), the form of
    alpha + i(D - c D_K) at w and at its complex conjugate, hence at
    least h(c): no direction goes below the maximum. The converse, that a
    nonnegative objective everywhere forces h(c) >= 0 at some c, is the
    complex S-lemma, because the joint numerical range of two Hermitian
    forms is convex (Polik and Terlaky, "A survey of the S-lemma", SIAM
    Rev. 2007).

    Returns:
        HSolution.
    """
    A, G, sizes = _h_forms(gmap)
    return _solve_h(A, G, _scale(sizes))[0]


def _solve_h(A, G, scale, at_one=None):
    """solve_h on the forms of _h_forms; at_one, when the caller has made
    it (classify's CP test does), is eigh(A - G) and serves as the cut at c = 1.

    Returns:
        (HSolution, (v_lo, v_hi), ends): v_lo and v_hi are the bottom
        eigenvectors at the two ends of the final bracket of the maximum,
        for _max_h_witness; ends is ((c_lo, h(c_lo)), (c_hi, h(c_hi))) at
        the ends of the feasible interval, each a cut already made, or None
        with the interval.
    """
    floor = 1e-13 * scale
    cuts = []

    def cut(c, eig=None):
        # A cut needs the eigensolve of _least_eig_test, not its test.
        w, v = _least_eig_test(A - c * G, scale, 0.0)[0] if eig is None else eig
        cuts.append((c, float(w[0]), -float(np.vdot(v[:, 0], G @ v[:, 0]).real), v[:, 0]))
        return cuts[-1]

    lo, hi = cut(-1.0), cut(1.0, at_one)
    best = max(lo, hi, key=lambda p: p[1])
    while True:
        (a, h_a, g_a, _), (b, h_b, g_b, _) = lo, hi
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
        # With no cut outside on this side, the end is the cut at c = side.
        outside = [p for p in cuts if side * (p[0] - c_star) > 0.0 and p[1] < -floor]
        c, h, g, _ = min(outside, key=lambda p: abs(p[0] - c_star), default=cuts[side > 0])
        while h < -floor:
            x = c + (min(0.0, h_max) - h) / g
            if not 0.0 < side * (x - c_star) < side * (c - c_star):
                return c_star, h_max
            c, h, g, _ = cut(x)
        return c, h

    ends = (end(-1.0), end(1.0)) if h_max >= -floor else None
    interval = (ends[0][0], ends[1][0]) if ends else None
    solution = HSolution(h_max, c_star, max(upper, h_max), interval, len(cuts))
    return solution, (lo[3], hi[3]), ends


def _max_h_witness(gmap, G, v_l, v_r):
    """A unit direction whose objective attains h_max = h(c_star).

    A bottom eigenvector w of A - c G (see _h_forms) has objective h(c)
    when k(w) = 0, and also at an endpoint c = 1 (c = -1) when k(w) <= 0
    (k(w) >= 0). v_l and v_r are the bottom eigenvectors at the two ends
    of the final bracket of _solve_h, which holds c_star as one of its
    ends: h rises at the left end, so k(v_l) <= 0, and falls at the right
    end, so k(v_r) >= 0, unless the maximum is at c = -1 or 1. With their
    phases aligned, the real combination v_l + t v_r with k = 0 lies in
    the bottom eigenspace at c_star up to O(_WITNESS_STEP**2). No
    direction goes below h_max, so the candidate with the smallest
    objective, recomputed from gmap by direction_margin, is kept.

    The arithmetic runs under np.errstate: at a large |K| (K = 1e150 I)
    the products overflow, and the objective comes out infinite or NaN
    with no RuntimeWarning, for _classify to refuse.

    Returns:
        (w, direction_margin(gmap, w)).
    """
    with np.errstate(over="ignore", invalid="ignore"):
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


def _least_eig_test(matrix, scale, tol):
    """(eigh(matrix), passed), passed when its least eigenvalue is >= -tol * scale.

    Every eigensolve of this module: the one test of complete positivity
    (matrix A - G, see _h_forms, with scale = _scale(sizes)) and of
    classical admissibility (matrix alpha), so is_cp and is_classical_g2g
    give classify's fields from the same eigendecomposition, and every cut
    of _solve_h.

    Raises:
        ValueError: when tol is not a finite number >= 0, or when eigh
        fails or returns a least eigenvalue, the one every decision reads,
        that is not finite; the message names scale.
    """
    _tolerance(tol)
    try:
        eig = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError:
        eig = None
    if eig is None or not math.isfinite(eig[0][0]):
        raise ValueError(
            f"map cannot be decided in double precision: an eigensolve at scale {scale:.3e} failed"
        )
    return eig, bool(eig[0][0] >= -tol * scale)


def is_cp(gmap, tol=DEFAULT_TOL):
    """Complete positivity: h(1) >= 0, i.e. alpha + 1j (delta - D_K) >= 0.

    The opposite sign follows by conjugation. For one mode this agrees
    with the determinant test sqrt(det alpha) >= |1 - det K| whenever
    alpha is positive semidefinite. The test of classify, so
    is_cp(gmap) == classify(gmap).is_cp.
    """
    A, G, sizes = _h_forms(gmap)
    return _least_eig_test(A - G, _scale(sizes), tol)[1]


def is_classical_g2g(gmap, tol=DEFAULT_TOL):
    """Classical admissibility: alpha positive semidefinite within tol * _scale(sizes).

    The test of classify, so is_classical_g2g(gmap) == classify(gmap).is_classical_g2g.
    """
    return _least_eig_test(gmap.alpha, _scale(_h_forms(gmap)[2]), tol)[1]


def is_g2g(gmap, tol=DEFAULT_TOL):
    """Decide whether the map sends all Gaussian states to Gaussian states.

    The verdict of classify, on any number of modes, and not the bare
    test h_max >= 0 of solve_h: the map is G2G if it is completely
    positive, not G2G if alpha has an eigenvalue below -tol * _scale(sizes),
    and otherwise G2G exactly when h_max >= -tol * _scale(sizes, c_star).

    Returns:
        True or False.

    Raises:
        ValueError: for the maps classify refuses.
    """
    return classify(gmap, tol).is_g2g


def classify(gmap, tol=DEFAULT_TOL):
    """Full classification report for one map, on any number of modes.

    One decision sequence, with atol = tol * _scale(sizes): the map is G2G
    if it is completely positive (h(1) >= -atol); it is not if alpha has
    an eigenvalue below -atol, whose real eigenvector is the witness;
    otherwise solve_h decides by h_max >= -tol * _scale(sizes, c_star),
    from the size of A - c_star G, and a False verdict takes its witness
    from _max_h_witness; a witness that neither proves the verdict nor
    attains h_max would contradict it, so the map is refused as
    undecidable (see _classify).
    For one mode D_K = det K D, so this reproduces the determinant test
    alpha >= 0 and sqrt(det alpha) >= 1 - |det K|. The
    forms of h are built once and shared by every step, and the eigh of
    A - G that tests complete positivity is the solve's cut at c = 1. A
    False verdict carries a violating direction, and a verdict from
    solve_h carries its certificate (see ClassificationReport).
    """
    return _classify(gmap, *_h_forms(gmap), tol)[0]


def _classify(gmap, A, G, sizes, tol):
    """classify on the forms of _h_forms.

    Returns:
        (report, ends). For a G2G verdict, ends = ((c_lo, h(c_lo)),
        (c_hi, h(c_hi))) are the points decompose factors at, with the values
        of h already computed there: (1, 1) for a CP map, the feasible
        interval, or (c_star, c_star) when h_max passes the verdict but not
        the solve's floor; None for a False verdict.

    Raises:
        ValueError: when solve_h rejects but the witness of _max_h_witness
        neither proves the map not G2G (a negative objective) nor attains
        h_max to its own accuracy, _WITNESS_STEP**2 * _scale(sizes, c_star);
        a NaN objective does neither. Such a witness contradicts the
        verdict: on two modes the dilatation K = 1e8 I gets h_max = -1 and
        a witness of objective 0, and K = 1e150 I one of +1e300. A map at
        the verdict's boundary keeps its verdict: its witness is negative
        (just above -tol * _scale(sizes, c_star)), or at tol = 0 within
        that accuracy of h_max. Besides the refusals of delta_K and
        _least_eig_test.
    """
    scale = _scale(sizes)
    (w_a, v_a), classical = _least_eig_test(gmap.alpha, scale, tol)
    at_one, cp = _least_eig_test(A - G, scale, tol)
    report = partial(ClassificationReport, is_cp=cp, is_classical_g2g=classical)
    if cp:
        return report(is_g2g=True, method="cp_implies_g2g", c_star=1.0), ((1.0, float(at_one[0][0])),) * 2
    if not classical:
        a_min = float(w_a[0])
        return report(
            is_g2g=False,
            witness=Witness(w=v_a[:, 0].astype(complex), objective=a_min),
            margin=a_min,
            method="negative_alpha",
        ), None
    solution, bracket, ends = _solve_h(A, G, scale, at_one)
    atol = tol * _scale(sizes, solution.c_star)
    if solution.h_max >= -atol:
        ends = ends or ((solution.c_star, solution.h_max),) * 2
        return report(is_g2g=True, margin=max(solution.h_max, 0.0), **vars(solution)), ends
    w, objective = _max_h_witness(gmap, G, *bracket)
    attained = solution.h_max + _WITNESS_STEP**2 * _scale(sizes, solution.c_star)
    if not (objective < 0.0 or objective <= attained):
        raise ValueError(
            "map cannot be decided in double precision: h_max = "
            f"{solution.h_max:.3e} is below -{atol:.3e}, but its witness has objective {objective:.3e}"
        )
    return report(is_g2g=False, witness=Witness(w=w, objective=objective), margin=objective, **vars(solution)), None


def rescale_domain(gmap, mu):
    """Rescale the domain: (K, alpha, y0) -> (mu K, alpha, y0).

    The original map is Gaussian-to-Gaussian on the restricted domain of
    covariances with all symplectic eigenvalues >= mu**2 exactly when
    the rescaled map is Gaussian-to-Gaussian on every state.
    """
    if not 0 < mu < math.inf:  # an infinite mu would turn the zeros of K into NaN
        raise ValueError(f"scale must be positive and finite, got {mu}")
    return GaussianMap(K=float(mu) * gmap.K, alpha=gmap.alpha.copy(), y0=gmap.y0.copy())


def partial_transpose_example(nu):
    """Two-mode map sqrt(nu) (1 (+) T), alpha = identity.

    Gaussian-to-Gaussian for every nu > 0, never completely positive,
    and admits no factorization through a dilatation and transposition
    followed by a completely positive map.
    """
    if nu <= 0:
        raise ValueError(f"parameter must be positive, got {nu}")
    K = np.diag(math.sqrt(nu) * np.array([1.0, 1.0, 1.0, -1.0]))
    return GaussianMap(K=K, alpha=np.eye(4))


def q_exchange_example(nu):
    """Two-mode map sqrt(nu) (exchange of the two position quadratures).

    The K matrix swaps q1 and q2, negates p1, and fixes p2, all scaled
    by sqrt(nu); alpha is the identity. Gaussian-to-Gaussian for every
    nu > 0 and completely positive for none.
    """
    if nu <= 0:
        raise ValueError(f"parameter must be positive, got {nu}")
    # sqrt(nu) goes on the nonzero entries only: inf times a zero would be NaN.
    r = math.sqrt(nu)
    K = np.zeros((4, 4))
    K[0, 2] = K[2, 0] = K[3, 3] = r
    K[1, 1] = -r
    return GaussianMap(K=K, alpha=np.eye(4))


def _factor_interval(sizes, ends, tol):
    """Read K = K' . T^b . (lam identity) with K' CP off a feasible interval of h.

    ends = ((c_lo, h(c_lo)), (c_hi, h(c_hi))) as _classify returns them:
    every end is a point where h was already computed, so reading it costs
    no eigensolve.

    K' = K T^b / lam has D_K' = c D_K with c = 1 / lam**2 (b = 0) or
    -1 / lam**2 (b = 1, as T flips the sign of D_K), so it is CP exactly
    when h(c) >= -tol * _scale(sizes, c), the verdict's test at c; with
    alpha = 0 that bounds ||D - c D_K||_2, so S is symplectic within it.
    The end with the largest |c| gives the smallest lam; the transposition
    is taken only when it lowers lam by more than tol. Ends with
    |c| max(1, max |D_K|) < 1e-4 do not count: both counterexample
    families (max |D_K| of order 1) touch zero at c = 0 with a quadratic
    decay, and the feasible sliver of width ~sqrt(floor) around it is a
    limit of ever-larger dilatations, not a factoring. K = 150 I
    (c = 1 / 22500) still counts.

    Returns:
        None when no end qualifies, else (lam, transposed).
    """
    best = None
    for (end, h), transposed in ((ends[1], False), (ends[0], True)):
        c = -end if transposed else end
        if c * max(1.0, sizes[1]) < 1e-4:
            continue
        lam = 1.0 / math.sqrt(c)
        if best is not None and lam >= best[0] - tol:
            continue
        if h >= -tol * _scale(sizes, end):
            best = (lam, transposed)
    return best


def _noiseless_rejection(gmap, G, sizes, tol):
    """Why a rejected noiseless map is not G2G: K D K.T must be c D with |c| >= 1.

    c is the least-squares fit. For |c| >= 1 the misfit is the reason;
    below 1 the contraction is, unless the misfit ||D_K - c D||_2 exceeds
    tol * max(|c|, max |D_K|), |c| times the verdict's allowance at 1 / c.
    """
    delta = standard_form(gmap.n)
    c = float(np.sum(G.imag * delta) / np.sum(delta * delta))
    misfit = float(np.linalg.norm(G.imag - c * delta, 2))
    if abs(c) >= 1.0 or misfit > tol * max(abs(c), sizes[1]):
        return f"K D K.T is not proportional to D (proportionality residual {misfit:.3e})"
    return f"scale |c| = {abs(c):.6g} is below 1; the map contracts the canonical form"


def _normal_form(gmap, kind, lam, transposed):
    """The NormalForm of K = S . T^b . (lam identity): S = K T^b / lam, and gmap's alpha and y0."""
    T_b = transposition_matrix(gmap.n) if transposed else np.eye(2 * gmap.n)
    return NormalForm(kind, lam, transposed, (gmap.K @ T_b) / lam, gmap.alpha.copy(), gmap.y0.copy())


def _one_mode_form(gmap, tol):
    """Normal form of a one-mode Gaussian-to-Gaussian map.

    The four determinant ranges give the four kinds:
    0 <= det K <= 1 is already completely positive (cp_only);
    det K > 1 factors through a dilatation of lam = sqrt(det K);
    -1 <= det K < 0 factors through a transposition;
    det K < -1 needs both. Boundaries are classified inclusively.
    """
    d = float(np.linalg.det(gmap.K))
    dilated, transposed = abs(d) > 1.0 + tol, d < -tol
    lam = math.sqrt(abs(d)) if dilated else 1.0
    kind = {
        (False, False): "cp_only",
        (True, False): "dilatation_then_cp",
        (False, True): "transpose_then_cp",
        (True, True): "dilatation_transpose_then_cp",
    }[dilated, transposed]
    return _normal_form(gmap, kind, lam, transposed)


class _NotG2G(ValueError):
    """decompose's refusal of a map that is not Gaussian-to-Gaussian, told
    apart from a map that cannot be decided at all."""


def decompose(gmap, tol=DEFAULT_TOL):
    """Normal form K = S . T^b . (lam identity) of a map, with (S, alpha, y0) CP.

    Every map passes classify first, on forms of h built once (see
    _h_forms). A one-mode map takes the kind of its determinant range,
    with lam = sqrt|det K|. Any other map is read off the feasible
    interval of h by _factor_interval, or off (1, 1) for a CP map and
    (c*, c*) when h_max passes the verdict but not the solve's floor; its
    kind is homogeneous for a noiseless map (max |alpha| <= tol *
    _scale(sizes)) and homogeneous_factoring otherwise. h at those ends is
    the value classify computed, so decompose makes exactly the
    eigensolves of one classify.

    Returns:
        NormalForm, or None when the map is Gaussian-to-Gaussian but does
        not factor (as for both counterexample families).

    Raises:
        ValueError: when the map is not Gaussian-to-Gaussian, with the
        reason (for a noiseless map: K D K.T is not proportional to D, or
        its scale is below 1), as the private subclass _NotG2G; as a plain
        ValueError for a bad tol or a map that cannot be decided in double
        precision (see delta_K, _least_eig_test and _classify).
    """
    A, G, sizes = _h_forms(gmap)
    report, ends = _classify(gmap, A, G, sizes, tol)
    noiseless = sizes[0] <= tol * _scale(sizes)
    if not report.is_g2g:
        reason = _noiseless_rejection(gmap, G, sizes, tol) if noiseless else "no normal form exists"
        raise _NotG2G(f"map is not Gaussian-to-Gaussian; {reason}")
    if gmap.n == 1:
        return _one_mode_form(gmap, tol)
    factoring = _factor_interval(sizes, ends, tol)
    if factoring is None:
        return None
    kind = "homogeneous" if noiseless else "homogeneous_factoring"
    return _normal_form(gmap, kind, *factoring)
