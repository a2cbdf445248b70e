import math

import numpy as np
import pytest

from trialopt.gp import (
    GpConditioningError,
    KernelParams,
    build_model,
    fit_hyperparameters,
    gp_predict_many,
    kernel,
    kernel_matrix,
    log_marginal_likelihood,
)

LOG2PI = math.log(2 * math.pi)


def dense_oracle(X, y, noise, params, x_star):
    """Explicit-inverse reference for mean, variance and log marginal likelihood."""
    K = np.array([[kernel(a, b, params) for b in X] for a in X])
    A = K + np.diag(noise)
    Ainv = np.linalg.inv(A)
    k_star = np.array([kernel(a, x_star, params) for a in X])
    mean = k_star @ Ainv @ y
    var = kernel(x_star, x_star, params) - k_star @ Ainv @ k_star
    sign, logdet = np.linalg.slogdet(A)
    logml = -0.5 * y @ Ainv @ y - 0.5 * logdet - 0.5 * len(y) * LOG2PI
    return mean, var, logml


def random_instance(rng, max_points=50):
    n = int(rng.integers(2, max_points + 1))
    d = int(rng.integers(1, 4))
    X = rng.random((n, d))
    params = KernelParams(float(rng.uniform(0.1, 2.0)),
                          tuple(rng.uniform(0.2, 1.5, d)))
    y = rng.standard_normal(n)
    noise = rng.uniform(1e-4, 0.05, n)
    return X, y, noise, params


def test_kernel_at_identical_points_is_sigma():
    params = KernelParams(1.7, (0.5, 1.0))
    x = np.array([0.2, 0.9])
    assert kernel(x, x, params) == pytest.approx(1.7, abs=1e-15)


def test_kernel_symmetry():
    rng = np.random.default_rng(0)
    params = KernelParams(0.8, (0.4, 0.7, 1.2))
    for _ in range(20):
        a, b = rng.random(3), rng.random(3)
        assert kernel(a, b, params) == pytest.approx(kernel(b, a, params), abs=1e-15)


def test_kernel_printed_form_no_half_factor():
    params = KernelParams(2.0, (1.0,))
    assert kernel([0.0], [1.0], params) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)


def test_one_point_noiseless_interpolation():
    params = KernelParams(0.9, (0.3,))
    model = build_model([[0.4]], [0.7], [0.0], params)
    (mean,), (var,) = gp_predict_many(model, np.array([[0.4]]))
    assert mean == pytest.approx(0.7, abs=1e-12)
    assert var == pytest.approx(0.0, abs=1e-12)


def test_one_point_shrinkage_closed_form():
    sigma, omega2, y = 0.85, 0.04, 0.6
    params = KernelParams(sigma, (0.5,))
    model = build_model([[0.3]], [y], [omega2], params)
    (mean,), (var,) = gp_predict_many(model, np.array([[0.3]]))
    assert mean == pytest.approx(sigma * y / (sigma + omega2), abs=1e-12)
    assert var == pytest.approx(sigma - sigma**2 / (sigma + omega2), abs=1e-12)
    # shrinkage: posterior mean lies between the prior mean 0 and the target
    assert 0.0 < mean < y


def test_empty_model_returns_prior():
    params = KernelParams(1.3, (0.5,))
    model = build_model(np.empty((0, 1)), [], [], params)
    (mean,), (var,) = gp_predict_many(model, np.array([[0.2]]))
    assert mean == 0.0
    assert var == pytest.approx(1.3)


def test_log_marginal_likelihood_unit_fixtures():
    # sigma + noise = 1 so K + Delta = [[1]]
    params = KernelParams(0.6, (1.0,))
    assert log_marginal_likelihood([[0.0]], [0.0], [0.4], params) == pytest.approx(
        -0.5 * LOG2PI, abs=1e-12
    )
    assert log_marginal_likelihood([[0.0]], [1.0], [0.4], params) == pytest.approx(
        -0.5 - 0.5 * LOG2PI, abs=1e-12
    )


def test_matches_dense_oracle_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(100):
        X, y, noise, params = random_instance(rng)
        model = build_model(X, y, noise, params)
        x_star = rng.random(X.shape[1])
        (pred_mean,), (pred_var,) = gp_predict_many(model, x_star.reshape(1, -1))
        mean, var, logml = dense_oracle(X, y, noise, params, x_star)
        assert pred_mean == pytest.approx(mean, abs=1e-8)
        assert pred_var == pytest.approx(max(var, 0.0), abs=1e-8)
        assert log_marginal_likelihood(X, y, noise, params) == pytest.approx(
            logml, abs=1e-8
        )


def test_posterior_variance_never_exceeds_prior():
    rng = np.random.default_rng(3)
    for _ in range(20):
        X, y, noise, params = random_instance(rng, max_points=20)
        model = build_model(X, y, noise, params)
        _, var = gp_predict_many(model, rng.random((50, X.shape[1])))
        assert np.all(var <= params.sigma + 1e-8)


def test_adding_observation_never_increases_variance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        X, y, noise, params = random_instance(rng, max_points=15)
        model = build_model(X, y, noise, params)
        x_new = rng.random((1, X.shape[1]))
        bigger = build_model(
            np.vstack([X, x_new]), np.append(y, rng.standard_normal()),
            np.append(noise, 0.01), params,
        )
        test_points = rng.random((30, X.shape[1]))
        _, var_before = gp_predict_many(model, test_points)
        _, var_after = gp_predict_many(bigger, test_points)
        assert np.all(var_after <= var_before + 1e-8)


def test_fit_recovers_known_lengthscale():
    rng = np.random.default_rng(42)
    X = rng.random((50, 1))
    true = KernelParams(1.0, (0.3,))
    K = kernel_matrix(X, X, true) + 1e-10 * np.eye(50)
    y = np.linalg.cholesky(K) @ rng.standard_normal(50)
    fitted = fit_hyperparameters(X, y, np.full(50, 1e-6))
    assert 0.15 <= fitted.lengthscales[0] <= 0.6


def test_fit_constant_targets_gives_small_sigma():
    rng = np.random.default_rng(5)
    X = rng.random((20, 1))
    c = -0.4
    noise = np.full(20, 1e-6)
    fitted = fit_hyperparameters(X, np.full(20, c), noise)
    model = build_model(X, np.full(20, c), noise, fitted)
    band = 3 * math.sqrt(fitted.sigma + noise.max())
    mean, _ = gp_predict_many(model, rng.random((40, 1)))
    assert np.all(np.abs(mean - c) <= band)
    assert fitted.sigma < 0.5


def test_fit_scale_equivariance_when_targets_double():
    rng = np.random.default_rng(42)
    X = rng.random((50, 1))
    true = KernelParams(1.0, (0.3,))
    K = kernel_matrix(X, X, true) + 1e-10 * np.eye(50)
    y = np.linalg.cholesky(K) @ rng.standard_normal(50)
    noise = np.full(50, 1e-6)
    base = fit_hyperparameters(X, y, noise)
    doubled = fit_hyperparameters(X, 2 * y, noise)
    ratio = doubled.sigma / base.sigma
    assert 4 / 1.5 <= ratio <= 4 * 1.5
    ls_ratio = doubled.lengthscales[0] / base.lengthscales[0]
    assert 1 / 1.2 <= ls_ratio <= 1.2


def test_warm_start_is_used():
    rng = np.random.default_rng(6)
    X = rng.random((10, 2))
    y = rng.standard_normal(10)
    noise = np.full(10, 0.01)
    warm = fit_hyperparameters(X, y, noise)
    again = fit_hyperparameters(X, y, noise, extra_starts=[warm])
    nll_warm = log_marginal_likelihood(X, y, noise, warm)
    nll_again = log_marginal_likelihood(X, y, noise, again)
    assert nll_again >= nll_warm - 1e-9


def test_duplicate_inputs_with_zero_noise_survive_via_jitter():
    params = KernelParams(1.0, (0.5,))
    X = np.array([[0.5], [0.5], [0.5]])
    model = build_model(X, [0.1, 0.1, 0.1], [0.0, 0.0, 0.0], params)
    assert model.jitter > 0
    (mean,), (var,) = gp_predict_many(model, np.array([[0.5]]))
    assert np.isfinite(mean) and np.isfinite(var)


def test_fit_requires_two_points():
    with pytest.raises(ValueError):
        fit_hyperparameters([[0.1]], [0.2], [0.01])


def test_kernel_params_must_be_positive():
    with pytest.raises(ValueError):
        KernelParams(0.0, (1.0,))
    with pytest.raises(ValueError):
        KernelParams(1.0, (-0.5,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernel_params_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        KernelParams(bad, (1.0,))
    with pytest.raises(ValueError, match="finite"):
        KernelParams(1.0, (0.5, bad))
