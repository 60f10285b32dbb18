import numpy as np
import pytest

from gaussmap import (
    GaussianMap,
    GaussianState,
    apply_map,
    apply_map_char,
    char_function,
    compose,
    dilatation,
    is_valid_covariance,
    transposition,
    transposition_matrix,
    wigner_function,
)
from gaussmap.gaussian import apply_map_moments
from helpers import random_symplectic, random_valid_cov


def vacuum(n=1):
    return GaussianState(mean=np.zeros(2 * n), cov=np.eye(2 * n))


def random_map(n, rng, noise=True):
    k = rng.standard_normal((2 * n, 2 * n))
    if noise:
        a = rng.standard_normal((2 * n, 2 * n))
        alpha = a @ a.T
    else:
        alpha = np.zeros((2 * n, 2 * n))
    y0 = rng.standard_normal(2 * n)
    return GaussianMap(K=k, alpha=alpha, y0=y0)


def test_char_function_at_origin_is_one():
    assert char_function(vacuum(), np.zeros(2)) == pytest.approx(1.0)


def test_char_function_vacuum_decay():
    val = char_function(vacuum(), np.array([2.0, 0.0]))
    assert val == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_char_function_displaced_phase():
    state = GaussianState(mean=np.array([1.0, 0.0]), cov=np.eye(2))
    val = char_function(state, np.array([0.0, 2.0]))
    # k along p picks up no phase from a q displacement in this convention,
    # so the value stays real.
    assert val == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert abs(np.angle(val)) < 1e-12


def test_char_function_modulus_bounded():
    rng = np.random.default_rng(9)
    for n in (1, 2):
        state = GaussianState(mean=rng.standard_normal(2 * n), cov=random_valid_cov(n, rng))
        for _ in range(50):
            k = rng.standard_normal(2 * n) * 3.0
            assert abs(char_function(state, k)) <= 1.0 + 1e-12
        assert abs(char_function(state, np.zeros(2 * n))) == pytest.approx(1.0)


def test_wigner_vacuum_peak():
    assert wigner_function(vacuum(), np.zeros(2)) == pytest.approx(1.0 / np.pi, rel=1e-12)


def test_wigner_peak_value_general():
    rng = np.random.default_rng(17)
    state = GaussianState(mean=rng.standard_normal(2), cov=random_valid_cov(1, rng))
    peak = wigner_function(state, state.mean)
    expected = 1.0 / np.sqrt(np.linalg.det(np.pi * state.cov))
    assert peak == pytest.approx(expected, rel=1e-12)


def test_wigner_normalization_on_grid():
    state = GaussianState(mean=np.array([0.3, -0.2]), cov=np.diag([1.5, 0.8]))
    qs = np.linspace(-9.0, 9.0, 301)
    ps = np.linspace(-9.0, 9.0, 301)
    qq, pp = np.meshgrid(qs, ps, indexing="ij")
    pts = np.stack([qq.ravel(), pp.ravel()], axis=1)
    vals = np.array([wigner_function(state, r) for r in pts]).reshape(qq.shape)
    integral = np.trapezoid(np.trapezoid(vals, ps, axis=1), qs)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_apply_map_dilatation_on_vacuum():
    mean, cov = apply_map(dilatation(2.0, 1), vacuum())
    assert np.allclose(cov, 4.0 * np.eye(2))
    assert np.allclose(mean, 0.0)


def test_apply_map_transposition():
    rng = np.random.default_rng(2)
    state = GaussianState(mean=rng.standard_normal(2), cov=random_valid_cov(1, rng))
    t = transposition_matrix(1)
    mean, cov = apply_map(transposition(1), state)
    assert np.allclose(mean, t @ state.mean)
    assert np.allclose(cov, t @ state.cov @ t.T)


def test_apply_map_identity_fixed_point():
    state = GaussianState(mean=np.array([0.5, -1.0]), cov=np.diag([2.0, 1.0]))
    ident = GaussianMap(K=np.eye(2), alpha=np.zeros((2, 2)), y0=np.zeros(2))
    mean, cov = apply_map(ident, state)
    assert np.allclose(mean, state.mean)
    assert np.allclose(cov, state.cov)


def test_apply_map_dimension_mismatch_names_both_mode_counts():
    """apply_map and apply_map_moments share one rule: the moments must be
    of the map's size, else one ValueError gives both mode counts."""
    message = r"^dimension mismatch \(map has n = 1, state has n = 2\)$"
    with pytest.raises(ValueError, match=message):
        apply_map(dilatation(2.0, 1), vacuum(2))
    with pytest.raises(ValueError, match=message):
        apply_map_moments(dilatation(2.0, 1), np.zeros(4), np.eye(4))


def test_apply_map_moments_names_mean_and_cov_shapes_when_they_disagree():
    """A mean and a cov of different sizes have no one mode count, so the
    message gives both shapes; it never claims the map's own n for them."""
    with pytest.raises(ValueError) as raised:
        apply_map_moments(dilatation(2.0, 2), np.zeros(4), np.eye(2))
    assert str(raised.value) == (
        "dimension mismatch (map has n = 2, state has mean of shape (4,) and cov of shape (2, 2))"
    )
    with pytest.raises(ValueError) as raised:
        apply_map_moments(dilatation(2.0, 1), np.zeros(3), np.eye(3))
    assert str(raised.value) == (
        "dimension mismatch (map has n = 1, state has mean of shape (3,) and cov of shape (3, 3))"
    )


def test_apply_map_moments_near_the_largest_double():
    """The output covariance is formed under np.errstate, its symmetric part
    halved before it is summed: K = 1e154 I on the two-mode vacuum gives a
    finite 1e308 I, and noise of 1.7e308 I stays 1.7e308 I, with no warning
    (the suite turns a RuntimeWarning into an error). An output that is not
    finite, in its covariance or its mean, raises a ValueError naming max |K|."""
    _, cov = apply_map_moments(dilatation(1e154, 2), np.zeros(4), np.eye(4))
    assert np.array_equal(cov, np.diag(np.full(4, 1e154 * 1e154)))
    big = GaussianMap(K=np.eye(2), alpha=1.7e308 * np.eye(2))
    assert np.array_equal(apply_map(big, vacuum())[1], 1.7e308 * np.eye(2))
    for mean, cov in ((np.zeros(4), np.eye(4)), (np.full(4, 1e200), np.zeros((4, 4)))):
        with pytest.raises(ValueError) as raised:
            apply_map_moments(dilatation(1e155, 2), mean, cov)
        assert str(raised.value) == "output moments are not finite in double precision (max |K| = 1.000e+155)"
    with pytest.raises(ValueError, match="max \\|K\\| = 1.000e\\+00"):
        apply_map(big, GaussianState(mean=np.zeros(2), cov=1e308 * np.eye(2)))


def test_apply_map_char_identity_passthrough():
    rng = np.random.default_rng(31)
    state = GaussianState(mean=rng.standard_normal(2), cov=random_valid_cov(1, rng))
    ident = GaussianMap(K=np.eye(2), alpha=np.zeros((2, 2)), y0=np.zeros(2))
    chi = lambda k: char_function(state, k)
    for _ in range(20):
        k = rng.standard_normal(2)
        assert apply_map_char(ident, chi, k) == pytest.approx(
            char_function(state, k), rel=1e-12
        )


def test_apply_map_char_matches_moment_transport():
    rng = np.random.default_rng(13)
    gmap = dilatation(2.0, 1)
    state = vacuum()
    mean, cov = apply_map(gmap, state)
    moved = GaussianState(mean=mean, cov=cov)
    chi = lambda k: char_function(state, k)
    for _ in range(100):
        k = rng.standard_normal(2) * 2.0
        assert apply_map_char(gmap, chi, k) == pytest.approx(
            char_function(moved, k), rel=1e-10, abs=1e-12
        )


def test_apply_map_char_displacement_phase():
    gmap = GaussianMap(K=np.eye(2), alpha=np.zeros((2, 2)), y0=np.array([1.0, 0.0]))
    state = vacuum()
    val = apply_map_char(gmap, lambda k: char_function(state, k), np.array([1.0, 0.0]))
    assert val == pytest.approx(np.exp(-0.25) * np.exp(1j), rel=1e-12)


def test_char_transport_consistency_random():
    """Characteristic-function transport and moment transport are the same map.

    This is the identity that pins the sign and factor conventions, so it gets
    a large randomized sweep.
    """
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(1, 3))
        gmap = random_map(n, rng)
        state = GaussianState(
            mean=rng.standard_normal(2 * n), cov=random_valid_cov(n, rng)
        )
        mean, cov = apply_map(gmap, state)
        k = rng.standard_normal(2 * n)
        lhs = apply_map_char(gmap, lambda kk: char_function(state, kk), k)
        # The output moments need not be physical, so evaluate the Gaussian
        # characteristic form directly instead of constructing a state.
        rhs = np.exp(-0.25 * k @ cov @ k + 1j * (k @ mean))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(55)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        first = random_map(n, rng)
        second = random_map(n, rng)
        state = GaussianState(
            mean=rng.standard_normal(2 * n), cov=random_valid_cov(n, rng)
        )
        combined = compose(second, first)
        mid_mean, mid_cov = apply_map(first, state)
        # Intermediate moments may be unphysical; chain the affine action by
        # hand rather than passing through a validated state object.
        two_mean = second.K @ mid_mean + second.y0
        two_cov = second.K @ mid_cov @ second.K.T + second.alpha
        one_mean, one_cov = apply_map(combined, state)
        assert np.allclose(one_mean, two_mean, atol=1e-10)
        assert np.allclose(one_cov, two_cov, atol=1e-10)


def test_dilatation_identity_at_unit_scale():
    gmap = dilatation(1.0, 2)
    assert np.allclose(gmap.K, np.eye(4))
    assert np.allclose(gmap.alpha, 0.0)
    assert np.allclose(gmap.y0, 0.0)


def test_dilatation_scale_two():
    gmap = dilatation(2.0, 1)
    assert np.allclose(gmap.K, 2.0 * np.eye(2))


def test_dilatation_rejects_zero():
    with pytest.raises(ValueError):
        dilatation(0.0, 1)


def test_dilatation_covariance_scaling():
    rng = np.random.default_rng(71)
    for lam in (0.5, 1.5, 3.0):
        for _ in range(10):
            sigma = random_valid_cov(2, rng)
            state = GaussianState(mean=np.zeros(4), cov=sigma)
            _, cov = apply_map(dilatation(lam, 2), state)
            assert np.allclose(cov, lam * lam * sigma, atol=1e-12)


def test_transposition_full_one_mode():
    gmap = transposition(1)
    assert np.allclose(gmap.K, np.diag([1.0, -1.0]))
    assert np.allclose(gmap.alpha, 0.0)


def test_transposition_empty_selection_is_identity():
    gmap = transposition(2, modes=set())
    assert np.allclose(gmap.K, np.eye(4))


def test_transposition_out_of_range_mode():
    with pytest.raises(ValueError, match="^mode index 5 out of range 1..2$"):
        transposition(2, modes={5})


@pytest.mark.parametrize("mode", [1.5, 0, -1, None, "1"])
def test_transposition_refuses_a_mode_index_that_is_not_a_positive_integer(mode):
    """1.5 is refused, not truncated to mode 1."""
    with pytest.raises(ValueError) as raised:
        transposition(2, modes=[mode])
    assert str(raised.value) == f"mode index must be a positive integer, got {mode!r}"


def test_transposition_matrix_partial():
    # Mode indices are 1-based; transposing only the second mode flips its p.
    # An index of integral value and any integer type names the same mode.
    for modes in ({2}, [2.0], [np.int64(2)]):
        t = transposition_matrix(2, modes=modes)
        assert np.allclose(t, np.diag([1.0, 1.0, 1.0, -1.0]))


_NAN = float("nan")
_INF = float("inf")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"K": 2.0, "alpha": 1.0}, "K has shape (), expected a square matrix of nonzero even dimension"),
        ({"K": np.eye(3), "alpha": np.eye(3)}, "K has shape (3, 3), expected a square matrix"),
        ({"K": np.eye(2), "alpha": np.eye(4)}, "alpha has shape (4, 4), expected (2, 2)"),
        ({"K": np.eye(2), "alpha": np.eye(2), "y0": np.zeros(3)}, "y0 has shape (3,), expected (2,)"),
        ({"K": [[_NAN, 0], [0, 1]], "alpha": np.eye(2)}, "K has a NaN or infinite entry"),
        ({"K": np.eye(2), "alpha": [[_INF, 0], [0, 1]]}, "alpha has a NaN or infinite entry"),
        ({"K": np.eye(2), "alpha": np.eye(2), "y0": [0, -_INF]}, "y0 has a NaN or infinite entry"),
    ],
)
def test_gaussian_map_names_a_malformed_argument(kwargs, message):
    with pytest.raises(ValueError) as raised:
        GaussianMap(**kwargs)
    assert str(raised.value).startswith(message)


@pytest.mark.parametrize(
    "mean, cov, message",
    [
        ([0, _NAN], np.eye(2), "mean has a NaN or infinite entry"),
        ([0, 0], [[1, 0], [0, _INF]], "cov has a NaN or infinite entry"),
        (np.zeros(4), np.eye(2), "mean has shape (4,), expected (2,)"),
        (np.zeros(3), np.eye(3), "cov has shape (3, 3), expected a square matrix"),
        (np.zeros(2), 0.5 * np.eye(2), "covariance matrix is not a valid quantum covariance"),
    ],
)
def test_gaussian_state_names_a_malformed_argument(mean, cov, message):
    with pytest.raises(ValueError) as raised:
        GaussianState(mean=mean, cov=cov)
    assert str(raised.value).startswith(message)


def test_gaussian_state_and_map_flatten_vectors():
    """A column mean or y0 is read as the vector of its entries."""
    state = GaussianState(mean=[[0.5], [1.0]], cov=np.eye(2))
    assert state.mean.shape == (2,)
    gmap = GaussianMap(K=np.eye(2), alpha=np.zeros((2, 2)), y0=[[1.0], [2.0]])
    assert np.array_equal(gmap.y0, [1.0, 2.0])


def test_dilatation_and_compose_refuse_malformed_maps():
    for lam in (_NAN, _INF, -_INF):
        with pytest.raises(ValueError, match="^K has a NaN or infinite entry$"):
            dilatation(lam, 1)
    with pytest.raises(ValueError, match="^mode counts differ: 1 vs 2$"):
        compose(dilatation(2.0, 1), dilatation(2.0, 2))
    big = dilatation(1e200, 1)
    # K K overflows to inf; the map that would carry it is refused.
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="^K has a NaN or infinite entry$"):
        compose(big, big)


def test_quadrature_vectors_must_be_finite_and_of_the_state_size():
    state = vacuum(1)
    gmap = dilatation(2.0, 1)
    calls = (
        ("k", lambda v: char_function(state, v)),
        ("r", lambda v: wigner_function(state, v)),
        ("k", lambda v: apply_map_char(gmap, lambda q: char_function(state, q), v)),
    )
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} has a NaN or infinite entry$"):
            call([1.0, _NAN])
        with pytest.raises(ValueError, match=f"^{name} has shape \\(3,\\), expected \\(2,\\)$"):
            call(np.zeros(3))
