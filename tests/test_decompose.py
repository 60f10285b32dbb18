import numpy as np
import pytest

from gaussmap import (
    GaussianMap,
    classify,
    decompose,
    dilatation,
    is_cp,
    is_symplectic,
    partial_transpose_example,
    q_exchange_example,
    standard_form,
    transposition_matrix,
)
from gaussmap.classify import _factor_interval, _h_forms, _scale, _solve_h
from gaussmap.symplectic import DEFAULT_TOL
from helpers import count_eigensolves, random_symplectic
from scipy.linalg import expm


def one_mode_map(k, alpha=None):
    k = np.asarray(k, dtype=float)
    if alpha is None:
        alpha = np.zeros((2, 2))
    return GaussianMap(K=k, alpha=np.asarray(alpha, dtype=float), y0=np.zeros(2))


def recompose(nf, n):
    t = transposition_matrix(n) if nf.transposed else np.eye(2 * n)
    return nf.lam * (nf.S @ t)


def test_one_mode_pure_dilatation():
    nf = decompose(dilatation(2.0, 1))
    assert nf.kind == "dilatation_then_cp"
    assert nf.lam == pytest.approx(2.0)
    assert not nf.transposed
    assert np.allclose(nf.S, np.eye(2))


def test_one_mode_pure_transposition():
    nf = decompose(one_mode_map(np.diag([1.0, -1.0])))
    assert nf.kind == "transpose_then_cp"
    assert nf.transposed
    assert nf.lam == pytest.approx(1.0)


def test_one_mode_dilated_transposition():
    nf = decompose(one_mode_map(np.diag([3.0, -1.0])))
    assert nf.kind == "dilatation_transpose_then_cp"
    assert nf.lam == pytest.approx(np.sqrt(3.0))
    assert nf.transposed


def test_one_mode_cp_branch_keeps_map():
    gmap = one_mode_map(0.5 * np.eye(2), np.eye(2))
    nf = decompose(gmap)
    assert nf.kind == "cp_only"
    assert nf.lam == pytest.approx(1.0)
    assert np.allclose(nf.S, gmap.K)
    assert np.allclose(nf.alpha, gmap.alpha)


def test_one_mode_rejects_invalid_map():
    with pytest.raises(ValueError):
        decompose(dilatation(0.5, 1))


def test_one_mode_zero_determinant_routes_to_cp():
    gmap = one_mode_map(np.diag([1.0, 0.0]), 2.0 * np.eye(2))
    nf = decompose(gmap)
    assert nf.kind == "cp_only"


def test_one_mode_recomposition_sweep():
    """Factors must rebuild K and leave a completely positive residual, across
    all four determinant ranges."""
    rng = np.random.default_rng(61)
    kinds = set()
    for i in range(1000):
        k = rng.uniform(-2.0, 2.0, size=(2, 2))
        d = np.linalg.det(k)
        if abs(d) < 1e-3:
            continue
        # Steer the determinant into one of the four ranges.
        target = [0.5, 2.5, -0.5, -2.5][i % 4]
        k = k * np.sqrt(abs(target) / abs(d))
        if np.sign(np.linalg.det(k)) != np.sign(target):
            k[:, 0] = -k[:, 0]
        s = rng.uniform(0.0, 1.0)
        alpha = (1.0 - min(abs(target), 1.0) + s) * np.eye(2)
        gmap = one_mode_map(k, alpha)
        nf = decompose(gmap)
        kinds.add(nf.kind)
        rebuilt = recompose(nf, 1)
        assert np.max(np.abs(rebuilt - k)) <= 1e-9 * max(1.0, np.abs(k).max())
        residual = GaussianMap(K=nf.S, alpha=nf.alpha, y0=nf.y0)
        assert is_cp(residual)
    assert kinds == {
        "cp_only",
        "dilatation_then_cp",
        "transpose_then_cp",
        "dilatation_transpose_then_cp",
    }


def test_no_noise_scaled_symplectic():
    rng = np.random.default_rng(3)
    s0 = random_symplectic(2, rng)
    nf = decompose(GaussianMap(K=3.0 * s0, alpha=np.zeros((4, 4)), y0=np.zeros(4)))
    assert nf.kind == "homogeneous"
    assert nf.lam == pytest.approx(3.0, rel=1e-9)
    assert not nf.transposed
    assert np.allclose(nf.S, s0, atol=1e-8)


def test_no_noise_transposed_branch():
    rng = np.random.default_rng(7)
    s0 = random_symplectic(2, rng)
    k = 2.0 * s0 @ transposition_matrix(2)
    nf = decompose(GaussianMap(K=k, alpha=np.zeros((4, 4)), y0=np.zeros(4)))
    assert nf.kind == "homogeneous"
    assert nf.lam == pytest.approx(2.0, rel=1e-9)
    assert nf.transposed
    assert np.allclose(nf.S, s0, atol=1e-8)


def test_no_noise_non_proportional_returns_none():
    k = np.diag([2.0, 2.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="not proportional"):
        decompose(GaussianMap(K=k, alpha=np.zeros((4, 4)), y0=np.zeros(4)))


def test_no_noise_contraction_returns_none():
    with pytest.raises(ValueError, match="below 1"):
        decompose(dilatation(0.5, 2))


@pytest.mark.parametrize("transposed", [False, True])
def test_no_noise_large_scale_stays_homogeneous(transposed):
    """K = 150 I (or 150 T) has its feasible interval end at c = 1 / 22500
    (c = -1 / 22500). The floor of the interval rule is relative,
    |c| max |D_K| = 1 >= 1e-4, so that end counts and gives lam = 150."""
    k = 150.0 * (transposition_matrix(2) if transposed else np.eye(4))
    nf = decompose(GaussianMap(K=k, alpha=np.zeros((4, 4)), y0=np.zeros(4)))
    assert nf.kind == "homogeneous"
    assert nf.lam == pytest.approx(150.0, rel=1e-12)
    assert nf.transposed is transposed
    assert np.allclose(nf.S, np.eye(4))


def test_no_noise_exact_recovery_sweep():
    rng = np.random.default_rng(97)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        kappa = rng.uniform(1.0, 10.0)
        transposed = bool(rng.integers(0, 2))
        s0 = random_symplectic(n, rng)
        k = kappa * s0
        if transposed:
            k = k @ transposition_matrix(n)
        nf = decompose(GaussianMap(K=k, alpha=np.zeros((2 * n, 2 * n)), y0=np.zeros(2 * n)))
        assert nf.kind == "homogeneous"
        assert nf.lam == pytest.approx(kappa, rel=1e-9)
        assert nf.transposed == transposed
        assert np.max(np.abs(nf.S - s0)) <= 1e-8 * max(1.0, np.abs(s0).max())
        assert is_symplectic(nf.S, tol=1e-6)


def test_no_noise_perturbed_proportionality_rejected():
    rng = np.random.default_rng(13)
    for _ in range(100):
        s0 = random_symplectic(2, rng)
        k = 2.0 * s0
        k[0, 1] += 1e-3 * max(1.0, np.abs(k).max())
        with pytest.raises(ValueError, match="not Gaussian-to-Gaussian"):
            decompose(GaussianMap(K=k, alpha=np.zeros((4, 4)), y0=np.zeros(4)))


def residual_map(nf):
    return GaussianMap(K=nf.S, alpha=nf.alpha, y0=nf.y0)


def test_factoring_pure_dilatation():
    nf = decompose(dilatation(2.0, 1))
    assert nf is not None
    assert nf.lam == pytest.approx(2.0, abs=1e-9)
    assert not nf.transposed
    assert is_cp(residual_map(nf))


def test_factoring_rotated_dilatation():
    rng = np.random.default_rng(5)
    s0 = random_symplectic(1, rng)
    gmap = GaussianMap(K=2.0 * s0, alpha=np.zeros((2, 2)), y0=np.zeros(2))
    nf = decompose(gmap)
    assert nf.lam == pytest.approx(2.0, abs=1e-6)
    assert not nf.transposed
    assert np.allclose(nf.S, s0, atol=1e-6)


def test_factoring_boundary_contact_two_modes():
    """A rank-deficient noise block pins the feasible interval to one point;
    the endpoint search still lands on it, at square-root-of-noise accuracy."""
    rng = np.random.default_rng(7)
    h = rng.standard_normal((4, 4))
    h = h + h.T
    s0 = expm(standard_form(2) @ h)
    gmap = GaussianMap(
        K=2.0 * s0,
        alpha=s0 @ np.diag([1.0, 1.0, 1.0, 0.0]) @ s0.T,
        y0=np.zeros(4),
    )
    nf = decompose(gmap)
    assert nf is not None
    assert nf.lam == pytest.approx(2.0, abs=1e-4)
    assert not nf.transposed
    assert is_cp(residual_map(nf))


@pytest.mark.parametrize("nu,delta", [(1.0, 0.01), (2.0, 4e-4)])
def test_factoring_interior_contact_sharp(nu, delta):
    # Inflating the counterexample noise admits a factoring at sqrt(nu/delta).
    base = partial_transpose_example(nu)
    gmap = GaussianMap(K=base.K, alpha=(1.0 + delta) * np.eye(4), y0=np.zeros(4))
    nf = decompose(gmap)
    assert nf is not None
    assert nf.lam == pytest.approx(np.sqrt(nu / delta), rel=1e-6)
    assert is_cp(residual_map(nf))


@pytest.mark.parametrize("nu", [0.5, 1.0, 3.0])
def test_factoring_absent_for_counterexamples(nu):
    assert decompose(partial_transpose_example(nu)) is None
    assert decompose(q_exchange_example(nu)) is None


def test_factoring_cap_on_dilatation_size():
    # The smallest feasible dilatation here is 200, beyond the documented
    # cutoff of 100, so the search reports no factoring.
    base = partial_transpose_example(1.0)
    gmap = GaussianMap(K=base.K, alpha=(1.0 + 2.5e-5) * np.eye(4), y0=np.zeros(4))
    assert decompose(gmap) is None


def test_factoring_tie_takes_no_transposition():
    # h(c) = 2 - |1 - c| >= 0 on all of [-1, 1]: both ends give lam = 1.
    # The map is CP, so decompose reads (1, 1); the interval rule is checked as well.
    gmap = GaussianMap(K=np.eye(4), alpha=2.0 * np.eye(4), y0=np.zeros(4))
    A, G, sizes = _h_forms(gmap)
    ends = _solve_h(A, G, _scale(sizes))[2]
    assert _factor_interval(sizes, ends, DEFAULT_TOL) == (1.0, False)
    nf = decompose(gmap)
    assert (nf.lam, nf.transposed) == (1.0, False)
    assert np.array_equal(nf.S, gmap.K)


def test_decompose_makes_the_eigensolves_of_one_classify(monkeypatch):
    """decompose reads h at the ends of the feasible interval off the
    values classify computed (the cuts of the solve, c* or the CP exit), so
    it calls eigh and eigvalsh exactly as often as classify does."""
    S = random_symplectic(2, np.random.default_rng(23))
    maps = [
        (GaussianMap(K=0.5 * S, alpha=2.0 * np.eye(4)), "homogeneous_factoring", 1.0),
        (GaussianMap(K=3.0 * S, alpha=np.zeros((4, 4))), "homogeneous", 3.0),
        (GaussianMap(K=2.0 * S, alpha=0.5 * np.eye(4)), "homogeneous_factoring", None),
    ]
    count = count_eigensolves(monkeypatch)
    for gmap, kind, lam in maps:
        count[0] = 0
        report = classify(gmap)
        classify_solves = count[0]
        count[0] = 0
        nf = decompose(gmap)
        assert count[0] == classify_solves, kind
        assert nf.kind == kind
        assert report.is_cp is (lam == 1.0)
        if lam is not None:
            assert nf.lam == pytest.approx(lam, rel=1e-9)
        else:
            assert 1.0 < nf.lam <= 2.0 + 1e-9


def _perturbed_noiseless(k, rel, j=0):
    """K = k I on two modes with K[j, j] scaled by 1 + rel, alpha = 0."""
    K = k * np.eye(4)
    K[j, j] *= 1.0 + rel
    return GaussianMap(K=K, alpha=np.zeros((4, 4)), y0=np.zeros(4))


@pytest.mark.parametrize("k, rel", [(2.0, 1e-9), (10.0, 1e-9)])
def test_noiseless_boundary_follows_classify(k, rel):
    """Near-proportional maps that classify calls G2G within tol * scale on h
    factor as homogeneous."""
    gmap = _perturbed_noiseless(k, rel)
    assert classify(gmap).is_g2g
    assert decompose(gmap).kind == "homogeneous"


def test_noiseless_unequal_dilatation_raises():
    """K = diag(1000, 1000, 999.5, 999.5) dilates the two modes differently,
    so it is not G2G. Its proportionality misfit passes tol * scale at this
    scale, but its factor misses symplecticity by about 5e-4, so decompose
    raises instead of returning a non-symplectic S."""
    gmap = GaussianMap(
        K=np.diag([1000.0, 1000.0, 999.5, 999.5]), alpha=np.zeros((4, 4)), y0=np.zeros(4)
    )
    with pytest.raises(ValueError):
        decompose(gmap)


@pytest.mark.parametrize("k", [2.0, 10.0])
def test_noiseless_rejection_matches_classify(k):
    """decompose raises "not Gaussian-to-Gaussian" exactly where classify says
    the map is not G2G, over relative perturbations from 1e-10 to 1e-5."""
    verdicts = set()
    for rel in np.logspace(-10, -5, 51):
        gmap = _perturbed_noiseless(k, rel)
        is_g2g = classify(gmap).is_g2g
        verdicts.add(is_g2g)
        if is_g2g:
            assert decompose(gmap).kind == "homogeneous", rel
        else:
            with pytest.raises(ValueError, match="not Gaussian-to-Gaussian"):
                decompose(gmap)
    assert verdicts == {True, False}


def test_noiseless_decompose_raises_exactly_where_classify_rejects():
    """At K = 150 I and 1000 I, with K[j, j] (j = 0, 1, 3) scaled by 1 + rel
    for rel from 1e-10 to 1e-5, decompose raises "not Gaussian-to-Gaussian"
    exactly where classify says not G2G, and every S it returns is
    symplectic. The first three maps have h_max of -5.0e-8, -1.0e-9 and
    -2.5e-9 at c* with scale(c*) = 1, below tol = 1e-9, so they must raise."""
    must_raise = [(10.0, 1e-7, 0), (2.0, 2e-9, 0), (2.0, 5e-9, 0)]
    rels = np.logspace(-10, -5, 51)
    sweep = [(k, rel, j) for k in (150.0, 1000.0) for j in (0, 1, 3) for rel in rels]
    verdicts = set()
    for k, rel, j in must_raise + sweep:
        gmap = _perturbed_noiseless(k, rel, j)
        is_g2g = classify(gmap).is_g2g
        if (k, rel, j) in must_raise:
            assert not is_g2g, (k, rel)
        verdicts.add(is_g2g)
        if is_g2g:
            nf = decompose(gmap)
            assert nf.kind == "homogeneous", (k, j, rel)
            assert is_symplectic(nf.S, tol=1e-6), (k, j, rel)
        else:
            with pytest.raises(ValueError, match="not Gaussian-to-Gaussian"):
                decompose(gmap)
    assert verdicts == {True, False}
