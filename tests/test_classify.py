import importlib
import math

import numpy as np
import pytest

from gaussmap import (
    GaussianMap,
    classify,
    compose,
    decompose,
    delta_K,
    dilatation,
    direction_margin,
    is_classical_g2g,
    is_cp,
    is_g2g,
    partial_transpose_example,
    q_exchange_example,
    rescale_domain,
    solve_h,
    standard_form,
    transposition,
    transposition_matrix,
)
from gaussmap.classify import _NotG2G, _h_forms, _scale
from helpers import (
    count_eigensolves,
    homogeneous_oracle,
    one_mode_margin,
    random_multimode,
    random_symplectic,
    random_valid_cov,
    seeded_map,
)


def _tol_scale(gmap):
    """The scale of classify's CP and alpha tests: _scale at c = 1."""
    return _scale(_h_forms(gmap)[2])


def one_mode_map(k, alpha=None, y0=None):
    k = np.asarray(k, dtype=float)
    if alpha is None:
        alpha = np.zeros((2, 2))
    if y0 is None:
        y0 = np.zeros(2)
    return GaussianMap(K=k, alpha=np.asarray(alpha, dtype=float), y0=np.asarray(y0))


def random_one_mode(rng, box=3.0):
    k = rng.uniform(-box, box, size=(2, 2))
    a = rng.uniform(-box, box, size=(2, 2))
    return one_mode_map(k, a @ a.T)


def test_delta_K_identity():
    gmap = one_mode_map(np.eye(2))
    assert np.allclose(delta_K(gmap), standard_form(1))


def test_delta_K_scaling_is_quadratic():
    for lam in (0.5, 2.0, 3.0):
        gmap = dilatation(lam, 2)
        assert np.allclose(delta_K(gmap), lam * lam * standard_form(2))


def test_direction_margin_real_direction_reduces_to_noise():
    rng = np.random.default_rng(4)
    gmap = random_one_mode(rng)
    u = rng.standard_normal(2)
    w = u.astype(complex)
    expected = abs(np.conj(w) @ delta_K(gmap) @ w) + np.real(np.conj(w) @ gmap.alpha @ w)
    assert direction_margin(gmap, w) == pytest.approx(float(expected), rel=1e-12)


def test_is_g2g_dilatation_two_true():
    assert is_g2g(dilatation(2.0, 1)) is True


def test_is_g2g_contraction_false():
    assert is_g2g(dilatation(0.5, 1)) is False


def test_is_g2g_total_depolarizer():
    # K = 0 with vacuum noise sends everything to a fixed valid state.
    gmap = one_mode_map(np.zeros((2, 2)), np.eye(2))
    assert is_g2g(gmap) is True


@pytest.mark.parametrize("nu", [0.5, 1.0, 3.0])
def test_is_g2g_partial_transpose_family(nu):
    assert is_g2g(partial_transpose_example(nu)) is True


def test_is_cp_identity():
    assert is_cp(one_mode_map(np.eye(2)))


def test_is_cp_transposition_false():
    assert not is_cp(transposition(1))


def test_is_cp_boundary_attenuator():
    # sqrt(det alpha) = 3/4 = 1 - det K exactly on the boundary.
    gmap = one_mode_map(0.5 * np.eye(2), 0.75 * np.eye(2))
    assert is_cp(gmap)


def test_is_cp_q_exchange_false():
    assert not is_cp(q_exchange_example(1.0))


def test_is_classical_zero_noise():
    assert is_classical_g2g(one_mode_map(np.diag([1.0, 2.0])))


def test_is_classical_rejects_indefinite_noise():
    gmap = one_mode_map(np.eye(2), np.diag([1.0, -0.1]))
    assert not is_classical_g2g(gmap)


def test_contraction_classical_but_not_quantum():
    gmap = dilatation(0.5, 1)
    assert is_classical_g2g(gmap)
    assert is_g2g(gmap) is False


def test_classify_cp_attenuator_all_verdicts():
    report = classify(one_mode_map(0.5 * np.eye(2), np.eye(2)))
    assert report.is_g2g is True
    assert report.is_cp
    assert report.is_classical_g2g
    assert report.witness is None


def test_classify_dilatation_two():
    report = classify(dilatation(2.0, 1))
    assert report.is_g2g is True
    assert not report.is_cp


def test_classify_contraction_report():
    report = classify(dilatation(0.5, 1))
    assert report.is_g2g is False
    assert not report.is_cp
    assert report.is_classical_g2g
    assert report.witness is not None
    assert report.margin < 0


def test_classify_witness_direction_reproduces_margin():
    report = classify(dilatation(0.5, 1))
    val = direction_margin(dilatation(0.5, 1), report.witness.w)
    assert val == pytest.approx(report.witness.objective, rel=1e-9, abs=1e-12)
    assert val < 0


def test_classify_report_invariants_random():
    """Witnesses only accompany negative verdicts, negative margins always
    carry a witness, and complete positivity forces the main verdict."""
    rng = np.random.default_rng(19)
    for _ in range(200):
        gmap = random_one_mode(rng)
        report = classify(gmap)
        if report.witness is not None:
            assert report.is_g2g is False
        if report.margin is not None and report.margin < 0:
            assert report.witness is not None
        if report.is_cp:
            assert report.is_g2g is True


def test_minimizer_matches_determinant_criterion_one_mode():
    """The maximum of h(c), and classify itself, decide one mode like the
    determinant test. A reported margin is the exact objective minimum of
    the one-mode oracle, and a False verdict's witness recomputes below 0."""
    rng = np.random.default_rng(8)
    checked = margins = witnesses = 0
    for _ in range(300):
        gmap = random_one_mode(rng)
        det_a = max(np.linalg.det(gmap.alpha), 0.0)
        margin = np.sqrt(det_a) - 1.0 + abs(np.linalg.det(gmap.K))
        if abs(margin) <= 1e-6:
            continue
        solution = solve_h(gmap)
        h_max, c_star = solution.h_max, solution.c_star
        assert -1.0 <= c_star <= 1.0
        assert (h_max >= -1e-9) == (margin > 0), (
            f"maximum {h_max:.3e} disagrees with margin {margin:.3e}"
        )
        report = classify(gmap)
        assert report.is_g2g is bool(margin > 0)
        scale = _tol_scale(gmap)
        oracle, _ = one_mode_margin(gmap)
        if report.margin is not None:
            expected = max(oracle, 0.0) if report.is_g2g else oracle
            assert abs(report.margin - expected) <= 1e-12 * scale
            margins += 1
        if not report.is_g2g:
            assert direction_margin(gmap, report.witness.w) < 0.0
            witnesses += 1
        checked += 1
    assert checked > 250
    assert margins > 100 and witnesses > 5


def test_minimizer_two_mode_counterexamples_stay_nonnegative():
    for make in (partial_transpose_example, q_exchange_example):
        for nu in (0.5, 1.0, 3.0):
            assert solve_h(make(nu)).h_max >= -1e-9


def test_cp_implies_g2g_random():
    rng = np.random.default_rng(29)
    found_cp = 0
    for _ in range(400):
        k = rng.uniform(-1.0, 1.0, size=(2, 2)) * 0.6
        a = rng.uniform(-1.5, 1.5, size=(2, 2))
        gmap = one_mode_map(k, a @ a.T)
        if is_cp(gmap):
            found_cp += 1
            assert is_g2g(gmap) is True
    assert found_cp > 50


def test_g2g_requires_positive_noise_block():
    """Any map passing the full check has alpha bounded below by roundoff."""
    rng = np.random.default_rng(37)
    for _ in range(300):
        gmap = random_one_mode(rng)
        if is_g2g(gmap) is True:
            assert np.linalg.eigvalsh(gmap.alpha).min() >= -1e-8


def test_quadratic_form_lower_bound_random():
    """w* sigma w >= |w* D w| for every valid state and direction."""
    rng = np.random.default_rng(43)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        sigma = random_valid_cov(n, rng)
        w = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        lhs = float(np.real(np.conj(w) @ sigma @ w))
        assert lhs >= abs(np.conj(w) @ standard_form(n) @ w) - 1e-9


def test_quadratic_form_bound_approached_by_squeezing():
    """For w with parallel real and imaginary parts the infimum is zero and a
    squeezed family walks down to it monotonically."""
    w = np.array([1.0 + 1.0j, 0.0])
    assert abs(np.conj(w) @ standard_form(1) @ w) == pytest.approx(0.0)
    values = []
    for eps in (1.0, 0.1, 0.01, 1e-3, 1e-4):
        sigma = np.diag([eps, 1.0 / eps])
        values.append(float(np.real(np.conj(w) @ sigma @ w)))
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3


def test_rescale_domain_unit_scale_is_identity_operation():
    rng = np.random.default_rng(53)
    gmap = random_one_mode(rng)
    same = rescale_domain(gmap, 1.0)
    assert np.allclose(same.K, gmap.K)
    assert np.allclose(same.alpha, gmap.alpha)


def test_rescale_domain_contraction_recovered():
    # A factor-2 restricted domain exactly compensates a half contraction.
    rescaled = rescale_domain(dilatation(0.5, 1), 2.0)
    assert np.allclose(rescaled.K, np.eye(2))
    assert is_g2g(rescaled) is True


def test_rescale_domain_insufficient_restriction():
    rescaled = rescale_domain(dilatation(1.0 / 3.0, 1), 2.0)
    assert np.allclose(rescaled.K, (2.0 / 3.0) * np.eye(2))
    assert is_g2g(rescaled) is False


def test_rescale_domain_rejects_nonpositive():
    with pytest.raises(ValueError):
        rescale_domain(dilatation(2.0, 1), 0.0)


def test_partial_transpose_example_spectra():
    spec1 = np.sort(
        np.linalg.eigvalsh(
            1j * (standard_form(2) - delta_K(partial_transpose_example(1.0)))
        )
    )
    assert np.allclose(spec1, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)
    spec3 = np.sort(
        np.linalg.eigvalsh(
            1j * (standard_form(2) - delta_K(partial_transpose_example(3.0)))
        )
    )
    assert np.allclose(spec3, [-4.0, -2.0, 2.0, 4.0], atol=1e-12)


def test_q_exchange_example_spectra():
    for nu, root in ((1.0, np.sqrt(2.0)), (2.0, np.sqrt(5.0))):
        spec = np.sort(
            np.linalg.eigvalsh(
                1j * (standard_form(2) - delta_K(q_exchange_example(nu)))
            )
        )
        assert np.allclose(spec, [-root, -root, root, root], atol=1e-12)


def test_counterexamples_reject_nonpositive_parameter():
    with pytest.raises(ValueError):
        partial_transpose_example(0.0)
    with pytest.raises(ValueError):
        q_exchange_example(-1.0)


def test_nan_map_gets_no_verdict():
    """A NaN in K is refused where the map is built, so no verdict (and no
    NaN witness) is ever given for it."""
    nan_K = [[float("nan"), 0.0], [0.0, 1.0]]
    for call in (classify, is_g2g, decompose):
        with pytest.raises(ValueError, match="^K has a NaN or infinite entry$"):
            call(GaussianMap(K=nan_K, alpha=np.eye(2)))


@pytest.mark.parametrize("n", [1, 2])
def test_map_beyond_double_precision_gets_no_verdict(n):
    """K = 1e154 I overflows K D K.T: every decision refuses the map with a
    ValueError naming max |K|, and decompose's is not its not-G2G refusal."""
    gmap = GaussianMap(K=1e154 * np.eye(2 * n), alpha=np.zeros((2 * n, 2 * n)))
    message = r"^map cannot be decided in double precision: K D K.T is not finite \(max \|K\| = 1.000e\+154\)$"
    for call in (classify, is_g2g, is_cp, is_classical_g2g, decompose):
        with pytest.raises(ValueError, match=message) as raised:
            call(gmap)
        assert not isinstance(raised.value, _NotG2G)


@pytest.mark.parametrize("k, objective", [(1e8, r"0.000e\+00"), (1e150, r"1.000e\+300")])
def test_false_verdict_contradicting_its_witness_gets_no_verdict(k, objective):
    """K = k I on two modes is a dilatation, so G2G, but the solve of h
    rejects it with h_max = -1 and a witness whose objective is 0 or
    +1e300: classify, is_g2g and decompose refuse the map as undecidable,
    with no RuntimeWarning on the way and not with decompose's not-G2G
    refusal."""
    gmap = GaussianMap(K=k * np.eye(4), alpha=np.zeros((4, 4)))
    message = (
        r"^map cannot be decided in double precision: h_max = -1.000e\+00 is below"
        rf" -1.000e-09, but its witness has objective {objective}$"
    )
    for call in (classify, is_g2g, decompose):
        with pytest.raises(ValueError, match=message) as raised:
            call(gmap)
        assert not isinstance(raised.value, _NotG2G)
    assert (is_cp(gmap), is_classical_g2g(gmap)) == (False, True)


@pytest.mark.parametrize("scale", [1e8, 1e10, 1e14])
def test_large_one_mode_maps_get_no_false_verdict(scale):
    """One-mode maps K = scale N(0, 1), alpha = R R^T are all G2G (alpha >= 0
    and |det K| >= 1). At these scales the solve of h rejects many of them,
    and each such rejection is refused as undecidable, not reported."""
    rng = np.random.default_rng(5)
    refused = 0
    for _ in range(100):
        K, R = scale * rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        gmap = GaussianMap(K=K, alpha=R @ R.T)
        try:
            assert is_g2g(gmap)
        except ValueError as error:
            assert str(error).startswith("map cannot be decided in double precision: h_max")
            refused += 1
    assert refused > 0


@pytest.mark.parametrize("failing_call", [1, 2, 3])
@pytest.mark.parametrize("failure", ["LinAlgError", "nan"])
def test_failed_eigensolve_gets_no_verdict(monkeypatch, failure, failing_call):
    """An eigh that fails, or returns a NaN eigenvalue, in the alpha test,
    the CP test or a cut of the solve ends classify with a ValueError that
    names the scale, not with a verdict read off a NaN."""
    original, calls = np.linalg.eigh, [0]

    def eigh(matrix):
        calls[0] += 1
        w, v = original(matrix)
        if calls[0] != failing_call:
            return w, v
        if failure == "nan":
            return np.full_like(w, np.nan), v
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    message = r"^map cannot be decided in double precision: an eigensolve at scale 1.000e\+00 failed$"
    with pytest.raises(ValueError, match=message):
        classify(dilatation(0.5, 1))
    assert calls[0] == failing_call


def test_rescale_domain_and_examples_refuse_non_finite_parameters():
    with pytest.raises(ValueError, match="^scale must be positive and finite, got inf$"):
        rescale_domain(dilatation(2.0, 1), float("inf"))
    with pytest.raises(ValueError, match="^scale must be positive and finite, got nan$"):
        rescale_domain(dilatation(2.0, 1), float("nan"))
    for example in (partial_transpose_example, q_exchange_example):
        for nu in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^K has a NaN or infinite entry$"):
                example(nu)


def test_classify_counterexamples_g2g_not_cp():
    for make in (partial_transpose_example, q_exchange_example):
        for nu in (0.5, 1.0, 3.0):
            report = classify(make(nu))
            assert report.is_g2g is True
            assert not report.is_cp
            assert report.h_max >= -1e-9 * _tol_scale(make(nu))


@pytest.mark.parametrize("n, trial, objective", [(2, 153, -0.0079421), (3, 155, -0.0230134)])
def test_not_g2g_near_boundary_gets_witness(n, trial, objective):
    """Maps just outside the G2G set get a witness that attains max h."""
    gmap = seeded_map(n, trial)
    scale = _tol_scale(gmap)
    assert is_g2g(gmap) is False
    report = classify(gmap)
    assert report.is_g2g is False
    value = direction_margin(gmap, report.witness.w)
    assert value < -1e-9 * scale
    assert value == pytest.approx(objective, abs=1e-7)
    assert value == pytest.approx(report.witness.objective, abs=1e-12)
    assert value == pytest.approx(report.h_max, abs=1e-9 * scale)


def test_g2g_not_cp_three_modes_decided():
    """A three-mode map that is G2G but not CP, with h_max about 0.08, factors."""
    gmap = seeded_map(3, 17)
    report = classify(gmap)
    assert report.is_g2g is True
    assert not report.is_cp
    assert report.h_max >= -1e-9 * _tol_scale(gmap)
    assert -1.0 <= report.c_star <= 1.0
    assert is_g2g(gmap) is True
    nf = decompose(gmap)
    assert nf is not None
    assert is_cp(GaussianMap(K=nf.S, alpha=nf.alpha, y0=nf.y0))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_max_h_duality_and_witness_random(n, monkeypatch):
    """No unit direction goes below max h (weak duality), and on every draw
    that is not G2G the witness attains it (strong duality). On the draws
    that are not CP, solve_h takes at most 30 eigensolves in the median."""
    rng = np.random.default_rng(100 + n)
    count = count_eigensolves(monkeypatch)
    not_g2g = 0
    solves = []
    for _ in range(40):
        gmap = random_multimode(rng, n)
        scale = _tol_scale(gmap)
        before = count[0]
        h_max = solve_h(gmap).h_max
        if not is_cp(gmap):
            solves.append(count[0] - before)
        W = rng.standard_normal((30, 2 * n)) + 1j * rng.standard_normal((30, 2 * n))
        for w in W / np.linalg.norm(W, axis=1, keepdims=True):
            assert direction_margin(gmap, w) >= h_max - 1e-12 * scale
        report = classify(gmap)
        assert report.is_g2g is is_g2g(gmap)
        if report.is_g2g:
            continue
        not_g2g += 1
        value = direction_margin(gmap, report.witness.w)
        assert value < -1e-9 * scale
        assert abs(value - h_max) <= 1e-9 * scale
    assert not_g2g > 20
    assert np.median(solves) <= 30


def h_at(gmap, c):
    """h(c) = lambda_min(alpha + i(D - c D_K)), straight from the definition."""
    return float(np.linalg.eigvalsh(gmap.alpha + 1j * (standard_form(gmap.n) - c * delta_K(gmap)))[0])


def test_solve_h_interval_one_mode_closed_form():
    """For one mode D_K = det K D, so with alpha >= 0 the feasible set is
    {c in [-1, 1] : |1 - c det K| <= sqrt(det alpha)}. The ends of solve_h
    match it in all four determinant ranges, and are feasible."""
    rng = np.random.default_rng(31)
    ranges = set()
    for i in range(400):
        d = rng.uniform(*[(0.1, 0.9), (1.1, 3.0), (-0.9, -0.1), (-3.0, -1.1)][i % 4])
        k = rng.uniform(-2.0, 2.0, size=(2, 2))
        if abs(np.linalg.det(k)) < 0.05:
            continue
        k = k * np.sqrt(abs(d / np.linalg.det(k)))
        if np.linalg.det(k) * d < 0:
            k[:, 0] = -k[:, 0]
        r = rng.uniform(-1.0, 1.0, size=(2, 2))
        gmap = one_mode_map(k, r @ r.T)
        det_k = float(np.linalg.det(k))
        s = float(np.sqrt(max(np.linalg.det(gmap.alpha), 0.0)))
        lo, hi = sorted(((1.0 - s) / det_k, (1.0 + s) / det_k))
        lo, hi = max(lo, -1.0), min(hi, 1.0)
        if s < 0.05 or abs(hi - lo) < 1e-6:
            continue
        solution = solve_h(gmap)
        if lo > hi:
            assert solution.interval is None
            continue
        floor = 1e-13 * _tol_scale(gmap)
        assert solution.interval == pytest.approx((lo, hi), abs=1e-8)
        assert min(h_at(gmap, c) for c in solution.interval) >= -floor
        ranges.add((det_k > 0, abs(det_k) > 1))
    assert len(ranges) == 4


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_solve_h_upper_bound_and_feasible_ends(n, monkeypatch):
    """h_upper is at least h on a 2001-point grid of c, within the noise
    floor of h_max; both ends of the interval are feasible and the
    reported eigensolves are the ones made. Every other draw is a CP
    channel mu S (S symplectic) after T^b and a dilatation lam, so G2G."""
    rng = np.random.default_rng(200 + n)
    count = count_eigensolves(monkeypatch)
    grid = np.linspace(-1.0, 1.0, 2001)
    feasible = 0
    for trial in range(12):
        if trial % 2:
            gmap = random_multimode(rng, n)
        else:
            mu, lam = rng.uniform(0.3, 0.9), rng.uniform(1.2, 3.0)
            T_b = transposition_matrix(n) if rng.integers(2) else np.eye(2 * n)
            r = rng.uniform(-0.3, 0.3, (2 * n, 2 * n))
            K = lam * mu * random_symplectic(n, rng, scale=0.3) @ T_b
            gmap = GaussianMap(K=K, alpha=(1.0 - mu**2) * np.eye(2 * n) + r @ r.T)
        floor = 1e-13 * _tol_scale(gmap)
        before = count[0]
        solution = solve_h(gmap)
        assert solution.eigensolves == count[0] - before
        assert solution.h_max == pytest.approx(h_at(gmap, solution.c_star), abs=floor)
        assert solution.h_max <= solution.h_upper <= solution.h_max + floor
        assert solution.h_upper >= max(h_at(gmap, c) for c in grid) - 1e-14 * _tol_scale(gmap)
        if solution.interval is None:
            assert solution.h_max < -floor
            continue
        feasible += 1
        c_lo, c_hi = solution.interval
        assert -1.0 <= c_lo <= solution.c_star <= c_hi <= 1.0
        assert min(h_at(gmap, c_lo), h_at(gmap, c_hi)) >= -floor
    assert feasible >= 6


@pytest.mark.parametrize("n", [1, 2])
def test_alpha_threshold_shared_by_g2g_and_classical(n):
    """One threshold, tol * _tol_scale, reads alpha for both verdicts: with
    K = 100 I the scale is 1e4, so an eigenvalue of -1e-6 is zero for both.
    The solve's verdict allows only tol * scale(c*) = tol at c* = 1e-4,
    where h_max = -1e-6, so the map is classical but not G2G. CP implies
    G2G implies classical."""
    alpha = np.eye(2 * n)
    alpha[-1, -1] = -1e-6
    gmap = GaussianMap(K=100.0 * np.eye(2 * n), alpha=alpha)
    report = classify(gmap)
    assert report.is_g2g is False and report.is_classical_g2g is True
    assert is_classical_g2g(gmap) is True
    rng = np.random.default_rng(61 + n)
    for _ in range(100):
        gmap = random_multimode(rng, n)
        gmap.alpha -= rng.uniform(0.0, 0.3) * np.eye(2 * n)
        report = classify(gmap)
        assert report.is_classical_g2g is is_classical_g2g(gmap)
        assert not report.is_cp or report.is_g2g
        assert not report.is_g2g or report.is_classical_g2g


def _shift_past(gmap, least, tol=1e-9):
    """gmap with alpha + c I, c chosen so that least(shifted map) is
    -tol * _tol_scale(shifted map) in exact arithmetic; least must move by
    c exactly when alpha does. Rounding puts the computed value on either
    side of the threshold."""
    c = 0.0
    for _ in range(2):  # the scale moves with alpha, by a relative 1e-9 at most
        shifted = GaussianMap(K=gmap.K, alpha=gmap.alpha + c * np.eye(2 * gmap.n))
        c += -least(shifted) - tol * _tol_scale(shifted)
    return GaussianMap(K=gmap.K, alpha=gmap.alpha + c * np.eye(2 * gmap.n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_predicates_agree_with_classify_at_the_boundaries(n):
    """Maps placed tol * _tol_scale past the CP boundary (h(1)) and past the
    PSD boundary of alpha, where the last bits of an eigensolve decide:
    is_cp and is_classical_g2g give classify's fields, from one test, and
    CP implies G2G implies classical."""
    rng = np.random.default_rng(24 + n)
    at_one = lambda g: float(np.linalg.eigvalsh(g.alpha + 1j * (standard_form(g.n) - delta_K(g)))[0])
    least_alpha = lambda g: float(np.linalg.eigvalsh(g.alpha)[0])
    for _ in range(50):
        base = random_multimode(rng, n)
        for least in (at_one, least_alpha):
            gmap = _shift_past(base, least)
            report = classify(gmap)
            assert is_cp(gmap) is report.is_cp
            assert is_classical_g2g(gmap) is report.is_classical_g2g
            assert is_g2g(gmap) is report.is_g2g
            assert not report.is_cp or report.is_g2g
            assert not report.is_g2g or report.is_classical_g2g


def test_classify_computes_delta_K_once_per_decision(monkeypatch):
    """Every exit of classify shares one K D K^T; only the witness check,
    direction_margin, computes it again from the map. is_g2g and
    decompose check the witness of a False verdict of the solve too, with
    the same calls as classify, and make one K D K^T and no
    direction_margin on every other map. A noiseless decompose reads its
    proportionality off the same one."""
    module = importlib.import_module("gaussmap.classify")
    calls = {"delta_K": 0, "direction_margin": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    maps = [
        (one_mode_map(0.5 * np.eye(2), np.eye(2)), "cp_implies_g2g", True),
        (one_mode_map(0.5 * np.eye(2), np.diag([1.0, -0.5])), "negative_alpha", False),
        (dilatation(2.0, 1), "concave_h_maximum", True),
        (dilatation(0.5, 1), "concave_h_maximum", False),
        (partial_transpose_example(1.0), "concave_h_maximum", True),
        (seeded_map(2, 153), "concave_h_maximum", False),
    ]
    for gmap, method, verdict in maps:
        calls.update(delta_K=0, direction_margin=0)
        report = module.classify(gmap)
        assert (report.method, report.is_g2g) == (method, verdict)
        assert calls["delta_K"] == 1 + calls["direction_margin"]
        solved_false = method == "concave_h_maximum" and not verdict
        assert calls["direction_margin"] >= 2 if solved_false else calls["direction_margin"] == 0
        classify_calls = dict(calls)
        calls.update(delta_K=0, direction_margin=0)
        assert module.is_g2g(gmap) is verdict
        assert calls == classify_calls
        calls.update(delta_K=0, direction_margin=0)
        if verdict:
            module.decompose(gmap)
        else:
            with pytest.raises(ValueError, match="not Gaussian-to-Gaussian"):
                module.decompose(gmap)
        assert calls == classify_calls
    calls.update(delta_K=0, direction_margin=0)
    K = 3.0 * random_symplectic(2, np.random.default_rng(5))
    nf = module.decompose(GaussianMap(K=K, alpha=np.zeros((4, 4))))
    assert nf.kind == "homogeneous"
    assert calls == {"delta_K": 1, "direction_margin": 0}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_not_g2g_classify_eigensolves_beyond_solve(n, monkeypatch):
    """A False verdict of solve_h costs one eigensolve beyond the solve, of
    alpha: the CP exit's eigh of A - G is the solve's cut at c = 1, and the
    witness reuses the bracket's eigenvectors."""
    count = count_eigensolves(monkeypatch)
    rng = np.random.default_rng(40 + n)
    seen = 0
    for gmap in [dilatation(0.5, n)] + [random_multimode(rng, n) for _ in range(30)]:
        before = count[0]
        report = classify(gmap)
        if report.method != "concave_h_maximum" or report.is_g2g:
            continue
        assert count[0] - before == report.eigensolves + 1
        seen += 1
    assert seen >= 5


def _homogeneous_map(rng, n, kappa, nu_min=None):
    """K = sqrt|kappa| S T^b (b = 1 for kappa < 0), S = random_symplectic, and
    alpha = S' diag(nu_j, nu_j) S'^T with nu_min the least nu_j, or alpha = 0
    for nu_min None. Returns (map, alpha for any other nu_min, ||S'||_2^2)."""
    S, S_alpha = random_symplectic(n, rng, scale=0.3), random_symplectic(n, rng, scale=0.3)
    K = math.sqrt(abs(kappa)) * S @ (transposition_matrix(n) if kappa < 0 else np.eye(2 * n))
    spread = rng.uniform(0.1, 1.0, n - 1)

    def alpha(nu):
        return S_alpha @ np.diag(np.repeat(np.concatenate(([nu], nu + spread)), 2)) @ S_alpha.T

    a = np.zeros((2 * n, 2 * n)) if nu_min is None else alpha(nu_min)
    return GaussianMap(K=K, alpha=a), alpha, np.linalg.norm(S_alpha, 2) ** 2


def _homogeneous_corpus(n, rng, tol):
    """Seeded homogeneous maps at kappa from 1e-12 to 1e6, both signs:
    random noise, alpha = 0, and maps placed +-10 tol * scale from the G2G
    boundary (nu_min = 1 - |kappa|) and the CP boundary (nu_min = |1 - kappa|).
    A shift of nu_min by 10 tol * scale * ||S'||^2 moves h by at least 10 tol
    * scale, as alpha + i gamma D = S' (diag(nu) + i gamma D) S'^T."""
    for _ in range(6):
        yield _homogeneous_map(rng, n, rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-12, 6), rng.uniform(0, 2))[0]
    for kappa in (4.0, -2.5, 1e6, -1e-12):
        yield _homogeneous_map(rng, n, kappa)[0]
    for kappa in (1.0, -1.0):
        gmap = _homogeneous_map(rng, n, kappa)[0]
        offset = 10 * tol * _tol_scale(gmap)
        for sign in (1, -1):
            yield GaussianMap(K=math.sqrt(1 + sign * offset) * gmap.K, alpha=gmap.alpha)
    for kappa in (0.3, -0.7, 2.5, -2.5, -1e-12):
        boundaries = {abs(1 - kappa)} | ({1 - abs(kappa)} if abs(kappa) < 1 else set())
        for nu in sorted(boundaries):
            gmap, alpha, stretch = _homogeneous_map(rng, n, kappa, nu)
            offset = 10 * tol * _tol_scale(gmap) * stretch
            for sign in (1, -1):
                yield GaussianMap(K=gmap.K, alpha=alpha(nu + sign * offset))


def _check_homogeneous(gmap, tol):
    """classify, is_cp, is_g2g and decompose against homogeneous_oracle.

    Interval ends are compared in units of gamma = 1 - c kappa, where the
    solve's floor and Newton steps leave them within 1e-7 * scale. decompose
    must give the least lam the oracle allows (lam = sqrt|det K| on one mode),
    at a c = +-1 / lam**2 inside the interval.
    """
    g2g, cp, interval, factor = homogeneous_oracle(gmap.K, gmap.alpha)
    delta = standard_form(gmap.n)
    kappa = float(np.sum(delta_K(gmap) * delta) / np.sum(delta * delta))
    slack = 1e-7 * _tol_scale(gmap) / abs(kappa)
    report = classify(gmap, tol=tol)
    assert (report.is_g2g, report.is_cp) == (g2g, cp)
    assert (is_g2g(gmap, tol=tol), is_cp(gmap, tol=tol)) == (g2g, cp)
    if g2g and not cp:
        assert report.interval == pytest.approx(interval, abs=slack)
    if not g2g:
        with pytest.raises(_NotG2G):
            decompose(gmap, tol=tol)
        return
    nf = decompose(gmap, tol=tol)
    assert nf is not None
    c = (-1.0 if nf.transposed else 1.0) / nf.lam**2
    assert interval[0] - slack <= c <= interval[1] + slack
    lam = max(1.0, math.sqrt(abs(np.linalg.det(gmap.K)))) if gmap.n == 1 else factor[0]
    assert nf.lam == pytest.approx(lam, rel=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_homogeneous_maps_match_the_exact_oracle(n):
    """On maps with K D K^T = kappa D and alpha >= 0 the verdicts, the
    feasible interval and the factor of decompose have a closed form."""
    tol = 1e-9
    for gmap in _homogeneous_corpus(n, np.random.default_rng(60 + n), tol):
        _check_homogeneous(gmap, tol)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: verdicts and factors go wrong at large |K|")
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_large_homogeneous_maps_match_the_exact_oracle(n):
    """The same oracle from kappa = 1e8 up, K = 1e8 I on n modes included:
    every n has maps called not G2G that are dilatations."""
    rng = np.random.default_rng(70 + n)
    cases = [GaussianMap(K=1e8 * np.eye(2 * n), alpha=np.zeros((2 * n, 2 * n)))]
    for kappa in (1e8, -1e12, 1e16, -1e16, 1e24, 1e100, -1e300):
        cases += [_homogeneous_map(rng, n, kappa)[0], _homogeneous_map(rng, n, kappa, 0.5)[0]]
    for gmap in cases:
        _check_homogeneous(gmap, 1e-9)
