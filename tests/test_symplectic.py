import numpy as np
import pytest

from gaussmap import (
    GaussianMap,
    classify,
    covariance_spectrum,
    decompose,
    is_classical_g2g,
    is_cp,
    is_g2g,
    is_symplectic,
    is_valid_covariance,
    standard_form,
    symplectic_eigenvalues,
)
from gaussmap.symplectic import _array, _check_symmetric, _mode_count, _square
from helpers import random_spd, random_symplectic, random_valid_cov


def test_standard_form_one_mode():
    assert np.array_equal(standard_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_standard_form_block_structure():
    d = standard_form(2)
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(d[:2, :2], block)
    assert np.array_equal(d[2:, 2:], block)
    assert np.count_nonzero(d[:2, 2:]) == 0
    assert np.count_nonzero(d[2:, :2]) == 0


@pytest.mark.parametrize("n", [1, 2, 5])
def test_standard_form_antisymmetric_and_squares_to_minus_identity(n):
    d = standard_form(n)
    assert np.array_equal(d.T, -d)
    assert np.allclose(d @ d, -np.eye(2 * n))


def test_standard_form_rejects_nonpositive_mode_count():
    with pytest.raises(ValueError):
        standard_form(0)


def test_is_symplectic_identity():
    assert is_symplectic(np.eye(4))


def test_is_symplectic_rejects_reflection():
    # diag(1, -1) flips the form's sign, so it is not a group element.
    assert not is_symplectic(np.diag([1.0, -1.0]))


def test_is_symplectic_accepts_squeezing():
    assert is_symplectic(np.diag([2.0, 0.5]))


def test_is_symplectic_odd_dimension_rejected():
    with pytest.raises(ValueError):
        is_symplectic(np.eye(3))


def test_is_symplectic_random_group_elements():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for _ in range(20):
            assert is_symplectic(random_symplectic(n, rng))


def test_symplectic_eigenvalues_identity():
    assert np.allclose(symplectic_eigenvalues(np.eye(6)), np.ones(3))


def test_symplectic_eigenvalues_squeezed_vacuum():
    eps = 1e-4
    nus = symplectic_eigenvalues(np.diag([eps, 1.0 / eps]))
    assert np.allclose(nus, [1.0])


def test_symplectic_eigenvalues_scaled_identity_one_mode():
    for c in (0.25, 1.0, 7.5):
        assert np.allclose(symplectic_eigenvalues(c * np.eye(2)), [c])


def test_symplectic_eigenvalues_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        symplectic_eigenvalues(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_symplectic_eigenvalues_negative_definite_rejected():
    with pytest.raises(ValueError):
        symplectic_eigenvalues(-np.eye(2))


def test_symplectic_eigenvalues_degenerate_returns_zero():
    nus = symplectic_eigenvalues(np.diag([1.0, 0.0]))
    assert nus.min() == pytest.approx(0.0, abs=1e-12)


def test_symplectic_spectrum_invariant_under_symplectic_congruence():
    # Transport conditioning is kept around 1e5 so the 1e-9 agreement is a
    # statement about the algorithm, not about ill-conditioned inputs.
    rng = np.random.default_rng(23)
    for rep in range(20):
        for n in (1, 2, 3):
            sigma = random_valid_cov(n, rng, nu_min=1.0, scale=0.35)
            ref = symplectic_eigenvalues(sigma)
            for _ in range(5):
                s = random_symplectic(n, rng, scale=0.35)
                moved = symplectic_eigenvalues(s @ sigma @ s.T)
                assert np.allclose(moved, ref, atol=1e-9, rtol=1e-9)


def test_symplectic_eigenvalue_one_mode_closed_form():
    # For a single mode the invariant is just sqrt(det sigma).
    rng = np.random.default_rng(77)
    for _ in range(1000):
        a = rng.standard_normal((2, 2))
        sigma = a @ a.T + 0.05 * np.eye(2)
        nu = symplectic_eigenvalues(sigma)[0]
        assert nu == pytest.approx(np.sqrt(np.linalg.det(sigma)), rel=1e-9, abs=1e-12)


def test_symplectic_form_eigenvalue_pairing():
    """i D^-1 sigma has spectrum {+-nu_j}; check the pairing survives transport."""
    rng = np.random.default_rng(3)
    for n in (1, 2):
        sigma = random_valid_cov(n, rng)
        d = standard_form(n)
        spec = np.linalg.eigvals(1j * np.linalg.inv(d) @ sigma)
        spec = np.sort_complex(spec)
        assert np.allclose(spec.imag, 0.0, atol=1e-9)
        pos = np.sort(spec.real[spec.real > 0])
        neg = np.sort(-spec.real[spec.real < 0])
        assert np.allclose(pos, neg, atol=1e-9)
        assert np.allclose(pos, symplectic_eigenvalues(sigma), atol=1e-9)


def test_is_valid_covariance_vacuum():
    assert is_valid_covariance(np.eye(2))


def test_is_valid_covariance_rejects_subvacuum():
    assert not is_valid_covariance(np.diag([0.5, 0.5]))


def test_is_valid_covariance_strong_squeezing():
    assert is_valid_covariance(np.diag([1e-3, 1e3]))


def test_is_valid_covariance_random_states_match_determinant():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        a = rng.standard_normal((2, 2))
        sigma = a @ a.T + 0.01 * np.eye(2)
        expected = np.linalg.det(sigma) >= 1.0
        got = is_valid_covariance(sigma)
        if abs(np.linalg.det(sigma) - 1.0) > 1e-9:
            assert got == expected


# A frozen copy of the validity code as it stood before symplectic_eigenvalues
# and is_valid_covariance shared one symmetry check and one eigh: the oracle
# for test_validity_matches_the_two_pass_code.
def _two_pass_check_symmetric(sigma, tol, name="sigma"):
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {sigma.shape}")
    if sigma.shape[0] % 2 != 0:
        raise ValueError(f"{name} dimension must be even, got {sigma.shape[0]}")
    scale = max(1.0, float(np.max(np.abs(sigma))))
    if np.max(np.abs(sigma - sigma.T)) > tol * scale:
        raise ValueError(f"{name} must be symmetric within tolerance {tol}")
    return 0.5 * (sigma + sigma.T)


def _two_pass_symplectic_eigenvalues(sigma, tol=1e-9):
    sigma = _two_pass_check_symmetric(sigma, tol)
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


def _two_pass_is_valid_covariance(sigma, tol=1e-9):
    sigma = _two_pass_check_symmetric(sigma, tol)
    w = np.linalg.eigvalsh(sigma)
    if w[0] < -tol * max(1.0, float(abs(w[-1]))):
        return False
    nu = _two_pass_symplectic_eigenvalues(sigma, tol=tol)
    return bool(nu[0] >= 1.0 - tol)


def _outcome(call, sigma):
    """What call(sigma) gives: ("value", bytes) or ("raises", message)."""
    try:
        value = call(sigma)
    except ValueError as exc:
        return "raises", str(exc)
    return "value", np.asarray(value).tobytes()


def _validity_corpus(rng, per_kind=70):
    """Seeded matrices at n = 1, 2, 3: valid, sub-vacuum, degenerate and
    indefinite ones, states with smallest symplectic eigenvalue 1 +/- 1e-10
    and (1 - 1e-9)(1 +/- 1e-10) (the edge at the default tol), and
    asymmetric ones just inside and just outside the symmetry tolerance."""
    for n in (1, 2, 3):
        d = 2 * n
        for _ in range(per_kind):
            s = random_symplectic(n, rng, scale=0.4)
            yield random_valid_cov(n, rng)
            yield s @ np.diag(np.repeat(rng.uniform(0.05, 1.0, n), 2)) @ s.T
            nus = rng.uniform(0.0, 3.0, n)
            nus[rng.integers(n)] = 0.0
            yield s @ np.diag(np.repeat(nus, 2)) @ s.T
            spd = random_spd(d, rng, log_cond=1.0)
            w = np.linalg.eigvalsh(spd)
            yield spd - rng.uniform(w[0], w[-1]) * np.eye(d)
            for edge in (1.0, 1.0 - 1e-9):
                for sign in (1.0, -1.0):
                    nus = 1.0 + 3.0 * rng.random(n)
                    nus[rng.integers(n)] = edge * (1.0 + sign * 1e-10)
                    yield s @ np.diag(np.repeat(nus, 2)) @ s.T
            sigma = random_valid_cov(n, rng)
            for size in (1e-10, 1e-8):
                bump = np.zeros((d, d))
                bump[0, -1] = size * max(1.0, np.abs(sigma).max())
                yield sigma + bump


def test_validity_matches_the_two_pass_code():
    """symplectic_eigenvalues and is_valid_covariance give, bit for bit,
    what the two-pass code gave, and raise exactly where and as it raised."""
    rng = np.random.default_rng(2024)
    count = 0
    for sigma in _validity_corpus(rng):
        for call, oracle in (
            (symplectic_eigenvalues, _two_pass_symplectic_eigenvalues),
            (is_valid_covariance, _two_pass_is_valid_covariance),
        ):
            assert _outcome(call, sigma) == _outcome(oracle, sigma)
        count += 1
    assert count >= 2000


def test_array_returns_floats_of_the_exact_shape():
    arr = _array([[1, 2], [3, 4]], (2, 2), "K")
    assert arr.dtype == float
    assert np.array_equal(arr, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("value, shape", [(np.zeros(3), (2,)), (np.zeros((2, 1)), (2,)), (1.0, (2, 2))])
def test_array_names_a_wrong_shape(value, shape):
    with pytest.raises(ValueError) as raised:
        _array(value, shape, "y0")
    assert str(raised.value) == f"y0 has shape {np.shape(value)}, expected {shape}"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_array_names_a_non_finite_entry(bad):
    with pytest.raises(ValueError) as raised:
        _array([0.0, bad], (2,), "k")
    assert str(raised.value) == "k has a NaN or infinite entry"


@pytest.mark.parametrize("shape", [(), (2,), (2, 4), (0, 0), (3, 3), (2, 2, 2)])
def test_square_names_a_shape_that_is_not_square_even_and_nonzero(shape):
    with pytest.raises(ValueError) as raised:
        _square(np.zeros(shape), "K")
    expected = f"K has shape {shape}, expected a square matrix of nonzero even dimension"
    assert str(raised.value) == expected


def test_square_accepts_any_entries():
    """Only the shape is checked: the covariance functions stay NaN-tolerant."""
    sq = _square([[np.nan, 1], [np.inf, 0]], "sigma")
    assert sq.dtype == float and sq.shape == (2, 2)
    assert not is_valid_covariance(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_shape_checks_of_symplectic_functions_name_their_argument():
    for call, name in ((is_symplectic, "S"), (symplectic_eigenvalues, "sigma")):
        with pytest.raises(ValueError, match=f"^{name} has shape \\(3, 3\\), expected a square"):
            call(np.eye(3))
    with pytest.raises(ValueError, match="^alpha has shape"):
        _check_symmetric(np.eye(2)[0], 1e-9, name="alpha")


@pytest.mark.parametrize("n", [0, -1, 1.5, float("inf"), float("-inf"), float("nan"), None, "2", 2j])
def test_mode_count_names_a_bad_count(n):
    """int(n) may raise OverflowError, TypeError or ValueError; each is this ValueError."""
    for call in (_mode_count, standard_form):
        with pytest.raises(ValueError) as raised:
            call(n)
        assert str(raised.value) == f"mode count must be a positive integer, got {n!r}"


def test_mode_count_returns_an_int():
    assert _mode_count(2.0) == 2 and type(_mode_count(2.0)) is int


# Every public function that takes a tol, with an argument it decides at
# tol = 0: an attenuator with unit noise, which is CP, and the vacuum.
_ATTENUATOR = GaussianMap(K=0.5 * np.eye(2), alpha=np.eye(2))
_TOL_CALLS = {
    call.__name__: (call, arg)
    for calls, arg in (
        ((classify, is_g2g, is_cp, is_classical_g2g, decompose), _ATTENUATOR),
        ((is_valid_covariance, covariance_spectrum, symplectic_eigenvalues, is_symplectic), np.eye(2)),
    )
    for call in calls
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("name", list(_TOL_CALLS))
def test_tol_must_be_finite_and_nonnegative(name, tol):
    """One rule for every tolerance: a NaN, infinite or negative tol is
    refused, where it would otherwise give a made-up verdict; tol = 0 decides."""
    call, arg = _TOL_CALLS[name]
    with pytest.raises(ValueError) as raised:
        call(arg, tol=tol)
    assert str(raised.value) == f"tol must be a finite number >= 0, got {tol!r}"
    assert call(arg, tol=0.0) is not None


def test_symmetric_part_is_halved_before_it_is_summed():
    """0.5 sigma + 0.5 sigma.T stays finite for every finite sigma, where
    0.5 (sigma + sigma.T) overflows from about 9e307: a map with alpha =
    1.7e308 I keeps it, and an antisymmetric matrix of that size is still
    refused, with no warning. Halving is exact, so elsewhere the part and the
    verdict are bit for bit those of the unhalved sums."""
    big = 1.7e308 * np.eye(2)
    assert np.array_equal(GaussianMap(K=np.eye(2), alpha=big).alpha, big)
    with pytest.raises(ValueError, match="^sigma must be symmetric"):
        _check_symmetric(1.7e308 * standard_form(1), 1e-9)
    rng = np.random.default_rng(26)
    for d in (2, 4, 8):
        for size in (1e-10, 1e-9, 1e-8):
            sigma = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-3, 3)
            sigma = sigma + sigma.T
            sigma[0, -1] += size * np.abs(sigma).max()
            tol_scale = 1e-9 * max(1.0, np.abs(sigma).max())
            if np.abs(sigma - sigma.T).max() > tol_scale:
                with pytest.raises(ValueError):
                    _check_symmetric(sigma, 1e-9)
            else:
                assert np.array_equal(_check_symmetric(sigma, 1e-9), 0.5 * (sigma + sigma.T))
