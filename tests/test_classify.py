import importlib

import numpy as np
import pytest

from gaussmap import (
    GaussianMap,
    classify,
    compose,
    delta_K,
    dilatation,
    direction_margin,
    homogeneous_factoring_check,
    is_classical_g2g,
    is_cp,
    is_g2g,
    max_h,
    partial_transpose_example,
    q_exchange_example,
    rescale_domain,
    solve_h,
    standard_form,
    state_quadratic_infimum,
    transposition,
    transposition_matrix,
)
from gaussmap.classify import _tol_scale
from helpers import (
    count_eigensolves,
    one_mode_margin,
    random_multimode,
    random_symplectic,
    random_valid_cov,
    seeded_map,
)


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
        h_max, c_star = max_h(gmap)
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
            assert max_h(make(nu))[0] >= -1e-9


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


def test_state_quadratic_infimum_real_direction():
    assert state_quadratic_infimum(np.array([1.0, 2.0])) == pytest.approx(0.0)


def test_state_quadratic_infimum_matched_pair():
    w = np.array([1.0, 1j])
    assert state_quadratic_infimum(w) == pytest.approx(2.0)


def test_state_quadratic_infimum_cross_mode_pair():
    w = np.zeros(4, dtype=complex)
    w[0] = 1.0
    w[2] = 1j
    assert state_quadratic_infimum(w) == pytest.approx(0.0)


def test_state_quadratic_infimum_rejects_zero_vector():
    with pytest.raises(ValueError):
        state_quadratic_infimum(np.zeros(2))


def test_quadratic_form_lower_bound_random():
    """w* sigma w >= |w* D w| for every valid state and direction."""
    rng = np.random.default_rng(43)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        sigma = random_valid_cov(n, rng)
        w = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        lhs = float(np.real(np.conj(w) @ sigma @ w))
        assert lhs >= state_quadratic_infimum(w) - 1e-9


def test_quadratic_form_bound_approached_by_squeezing():
    """For w with parallel real and imaginary parts the infimum is zero and a
    squeezed family walks down to it monotonically."""
    w = np.array([1.0 + 1.0j, 0.0])
    assert state_quadratic_infimum(w) == pytest.approx(0.0)
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
    factoring = homogeneous_factoring_check(gmap)
    assert factoring is not None
    assert is_cp(factoring[2])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_max_h_duality_and_witness_random(n, monkeypatch):
    """No unit direction goes below max h (weak duality), and on every draw
    that is not G2G the witness attains it (strong duality). On the draws
    that are not CP, max_h takes at most 30 eigensolves in the median."""
    rng = np.random.default_rng(100 + n)
    count = count_eigensolves(monkeypatch)
    not_g2g = 0
    solves = []
    for _ in range(40):
        gmap = random_multimode(rng, n)
        scale = _tol_scale(gmap)
        before = count[0]
        h_max, _ = max_h(gmap)
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
    K = 100 I the scale is 1e4, so an eigenvalue of -1e-6 is zero for both,
    and CP implies G2G implies classical."""
    alpha = np.eye(2 * n)
    alpha[-1, -1] = -1e-6
    gmap = GaussianMap(K=100.0 * np.eye(2 * n), alpha=alpha)
    report = classify(gmap)
    assert report.is_g2g is True and report.is_classical_g2g is True
    assert is_classical_g2g(gmap) is True
    rng = np.random.default_rng(61 + n)
    for _ in range(100):
        gmap = random_multimode(rng, n)
        gmap.alpha -= rng.uniform(0.0, 0.3) * np.eye(2 * n)
        report = classify(gmap)
        assert report.is_classical_g2g is is_classical_g2g(gmap)
        assert not report.is_cp or report.is_g2g
        assert not report.is_g2g or report.is_classical_g2g


def test_classify_computes_delta_K_once_per_decision(monkeypatch):
    """Every exit of classify shares one K D K^T; only the witness check,
    direction_margin, computes it again from the map."""
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
