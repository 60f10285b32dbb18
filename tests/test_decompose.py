import numpy as np
import pytest

from gaussmap import (
    GaussianMap,
    decompose_no_noise,
    decompose_one_mode,
    dilatation,
    homogeneous_factoring_check,
    is_cp,
    is_symplectic,
    partial_transpose_example,
    q_exchange_example,
    standard_form,
    transposition_matrix,
)
from helpers import random_symplectic
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
    nf = decompose_one_mode(dilatation(2.0, 1))
    assert nf.kind == "dilatation_then_cp"
    assert nf.lam == pytest.approx(2.0)
    assert not nf.transposed
    assert np.allclose(nf.S, np.eye(2))


def test_one_mode_pure_transposition():
    nf = decompose_one_mode(one_mode_map(np.diag([1.0, -1.0])))
    assert nf.kind == "transpose_then_cp"
    assert nf.transposed
    assert nf.lam == pytest.approx(1.0)


def test_one_mode_dilated_transposition():
    nf = decompose_one_mode(one_mode_map(np.diag([3.0, -1.0])))
    assert nf.kind == "dilatation_transpose_then_cp"
    assert nf.lam == pytest.approx(np.sqrt(3.0))
    assert nf.transposed


def test_one_mode_cp_branch_keeps_map():
    gmap = one_mode_map(0.5 * np.eye(2), np.eye(2))
    nf = decompose_one_mode(gmap)
    assert nf.kind == "cp_only"
    assert nf.lam == pytest.approx(1.0)
    assert np.allclose(nf.S, gmap.K)
    assert np.allclose(nf.alpha, gmap.alpha)


def test_one_mode_rejects_invalid_map():
    with pytest.raises(ValueError):
        decompose_one_mode(dilatation(0.5, 1))


def test_one_mode_rejects_multimode_input():
    with pytest.raises(ValueError):
        decompose_one_mode(dilatation(2.0, 2))


def test_one_mode_zero_determinant_routes_to_cp():
    gmap = one_mode_map(np.diag([1.0, 0.0]), 2.0 * np.eye(2))
    nf = decompose_one_mode(gmap)
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
        nf = decompose_one_mode(gmap)
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
    nf = decompose_no_noise(GaussianMap(K=3.0 * s0, alpha=np.zeros((4, 4)), y0=np.zeros(4)))
    assert nf.kind == "homogeneous"
    assert nf.lam == pytest.approx(3.0, rel=1e-9)
    assert not nf.transposed
    assert np.allclose(nf.S, s0, atol=1e-8)


def test_no_noise_transposed_branch():
    rng = np.random.default_rng(7)
    s0 = random_symplectic(2, rng)
    k = 2.0 * s0 @ transposition_matrix(2)
    nf = decompose_no_noise(GaussianMap(K=k, alpha=np.zeros((4, 4)), y0=np.zeros(4)))
    assert nf.kind == "homogeneous"
    assert nf.lam == pytest.approx(2.0, rel=1e-9)
    assert nf.transposed
    assert np.allclose(nf.S, s0, atol=1e-8)


def test_no_noise_non_proportional_returns_none():
    k = np.diag([2.0, 2.0, 1.0, 1.0])
    nf = decompose_no_noise(GaussianMap(K=k, alpha=np.zeros((4, 4)), y0=np.zeros(4)))
    assert nf.kind == "none"
    assert "not proportional" in nf.note


def test_no_noise_contraction_returns_none():
    nf = decompose_no_noise(dilatation(0.5, 2))
    assert nf.kind == "none"
    assert "below 1" in nf.note


def test_no_noise_rejects_noisy_map():
    gmap = GaussianMap(K=np.eye(2), alpha=0.1 * np.eye(2), y0=np.zeros(2))
    with pytest.raises(ValueError):
        decompose_no_noise(gmap)


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
        nf = decompose_no_noise(GaussianMap(K=k, alpha=np.zeros((2 * n, 2 * n)), y0=np.zeros(2 * n)))
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
        nf = decompose_no_noise(GaussianMap(K=k, alpha=np.zeros((4, 4)), y0=np.zeros(4)))
        assert nf.kind == "none"


def test_factoring_pure_dilatation():
    found = homogeneous_factoring_check(dilatation(2.0, 1))
    assert found is not None
    lam, transposed, residual = found
    assert lam == pytest.approx(2.0, abs=1e-9)
    assert not transposed
    assert is_cp(residual)


def test_factoring_rotated_dilatation():
    rng = np.random.default_rng(5)
    s0 = random_symplectic(1, rng)
    gmap = GaussianMap(K=2.0 * s0, alpha=np.zeros((2, 2)), y0=np.zeros(2))
    lam, transposed, residual = homogeneous_factoring_check(gmap)
    assert lam == pytest.approx(2.0, abs=1e-6)
    assert not transposed
    assert np.allclose(residual.K, s0, atol=1e-6)


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
    found = homogeneous_factoring_check(gmap)
    assert found is not None
    lam, transposed, residual = found
    assert lam == pytest.approx(2.0, abs=1e-4)
    assert not transposed
    assert is_cp(residual)


@pytest.mark.parametrize("nu,delta", [(1.0, 0.01), (2.0, 4e-4)])
def test_factoring_interior_contact_sharp(nu, delta):
    # Inflating the counterexample noise admits a factoring at sqrt(nu/delta).
    base = partial_transpose_example(nu)
    gmap = GaussianMap(K=base.K, alpha=(1.0 + delta) * np.eye(4), y0=np.zeros(4))
    found = homogeneous_factoring_check(gmap)
    assert found is not None
    lam, _, residual = found
    assert lam == pytest.approx(np.sqrt(nu / delta), rel=1e-6)
    assert is_cp(residual)


@pytest.mark.parametrize("nu", [0.5, 1.0, 3.0])
def test_factoring_absent_for_counterexamples(nu):
    assert homogeneous_factoring_check(partial_transpose_example(nu)) is None
    assert homogeneous_factoring_check(q_exchange_example(nu)) is None


def test_factoring_cap_on_dilatation_size():
    # The smallest feasible dilatation here is 200, beyond the documented
    # cutoff of 100, so the search reports no factoring.
    base = partial_transpose_example(1.0)
    gmap = GaussianMap(K=base.K, alpha=(1.0 + 2.5e-5) * np.eye(4), y0=np.zeros(4))
    assert homogeneous_factoring_check(gmap) is None


def test_factoring_tie_takes_no_transposition():
    # h(c) = 2 - |1 - c| >= 0 on all of [-1, 1]: both ends give lam = 1.
    gmap = GaussianMap(K=np.eye(4), alpha=2.0 * np.eye(4), y0=np.zeros(4))
    lam, transposed, residual = homogeneous_factoring_check(gmap)
    assert lam == 1.0
    assert not transposed
    assert np.array_equal(residual.K, gmap.K)
