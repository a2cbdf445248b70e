"""The GP kernel, factorization and likelihood against their plain forms, bit
for bit.

The reference functions below are the straightforward formulation: squared
differences summed over a trailing (n, m, D) axis, ``scipy.linalg.cholesky``
with an explicit jitter matrix, and ``solve_triangular``. The optimiser
compares likelihood values, so any last-bit difference could change which
hyperparameters a fit returns and, through them, every run output.
"""

import math

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from trialopt import gp
from trialopt.gp import (
    GpConditioningError,
    KernelParams,
    build_model,
    fit_hyperparameters,
    gp_predict_many,
    kernel_matrix,
    log_marginal_likelihood,
)

LOG2PI = math.log(2.0 * math.pi)
LOG_BOX = ((-6.0, 2.0), (-2.0, 1.0))  # log10 sigma, log10 lengthscale


def ref_kernel_matrix(X, Y, params):
    ls = np.asarray(params.lengthscales, dtype=float)
    d2 = ((X[:, None, :] - Y[None, :, :]) / ls) ** 2
    return params.sigma * np.exp(-d2.sum(axis=-1))


def ref_factorize(K, noise_diag, sigma):
    n = K.shape[0]
    base = K + np.diag(noise_diag)
    for jit in gp._JITTERS:
        try:
            return cholesky(base + jit * sigma * np.eye(n), lower=True), jit
        except np.linalg.LinAlgError:
            continue
    raise GpConditioningError("not positive definite")


def ref_lml(X, y, d, params):
    L, _ = ref_factorize(ref_kernel_matrix(X, X, params), d, params.sigma)
    z = solve_triangular(L, y, lower=True)
    return float(-0.5 * z @ z - np.log(np.diag(L)).sum() - 0.5 * y.size * LOG2PI)


def ref_nll_evaluator(X, y, noise):
    def nll(theta):
        params = KernelParams(10.0 ** theta[0], tuple(10.0 ** theta[1:]))
        try:
            return -ref_lml(X, y, noise, params)
        except GpConditioningError:
            return math.inf

    return nll


class RefEvaluator:
    """The reference likelihood behind the fit's evaluator interface; a line
    function sets one coordinate of a copy of theta and evaluates in full."""

    def __init__(self, X, y, noise):
        self.nll = ref_nll_evaluator(X, y, noise)

    def __call__(self, theta):
        return self.nll(theta)

    def line(self, theta, j):
        def along(v):
            trial = np.array(theta, dtype=float)
            trial[j] = v
            return self.nll(trial)

        return along


def ref_predict_many(model, X):
    k_star = ref_kernel_matrix(model.inputs, X, model.params)
    v = solve_triangular(model.chol, k_star, lower=True)
    var = model.params.sigma - np.einsum("ij,ij->j", v, v)
    return k_star.T @ model.alpha, np.maximum(var, 0.0)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def same_bits(a, b):
    return np.array_equal(bits(a), bits(b))


def random_params(rng, d):
    return KernelParams(10.0 ** rng.uniform(*LOG_BOX[0]),
                        tuple(10.0 ** rng.uniform(*LOG_BOX[1], d)))


def random_theta(rng, d):
    return np.concatenate([rng.uniform(*LOG_BOX[0], 1), rng.uniform(*LOG_BOX[1], d)])


def instances(seed, count=12):
    """Training sets for D = 1..6 and n up to 60. Every third has repeated
    inputs and zero noise (needs jitter); every fifth has negative noise, so
    that every jitter level fails for most hyperparameters."""
    rng = np.random.default_rng(seed)
    for d in range(1, 7):
        for i in range(count):
            n = int(rng.integers(2, 61))
            X = rng.random((n, d))
            noise = 10.0 ** rng.uniform(-5, -1, n)
            if i % 3 == 0:
                X[n // 2:] = X[: n - n // 2]
                noise[:] = 0.0
            if i % 5 == 0:
                noise[:] = -rng.uniform(0.5, 5.0)
            yield rng, X, rng.standard_normal(n), noise


def test_kernel_matrix_bitwise():
    rng = np.random.default_rng(0)
    for d in range(1, 7):
        for _ in range(20):
            n, m = rng.integers(1, 61, 2)
            X, Y = rng.random((n, d)), rng.random((m, d))
            params = random_params(rng, d)
            assert same_bits(kernel_matrix(X, Y, params), ref_kernel_matrix(X, Y, params))


def test_log_marginal_likelihood_bitwise():
    outcomes = set()
    for rng, X, y, noise in instances(1):
        for _ in range(4):
            params = random_params(rng, X.shape[1])
            try:
                want = ref_lml(X, y, noise, params)
            except GpConditioningError:
                with pytest.raises(GpConditioningError):
                    log_marginal_likelihood(X, y, noise, params)
                outcomes.add("fails")
                continue
            assert same_bits(log_marginal_likelihood(X, y, noise, params), want)
            outcomes.add("ok")
    assert outcomes == {"ok", "fails"}


def test_factorization_and_jitter_bitwise():
    jitters = set()
    for rng, X, y, noise in instances(2):
        params = random_params(rng, X.shape[1])
        try:
            L, jit = ref_factorize(ref_kernel_matrix(X, X, params), noise, params.sigma)
        except GpConditioningError:
            with pytest.raises(GpConditioningError):
                build_model(X, y, noise, params)
            continue
        model = build_model(X, y, noise, params)
        assert model.jitter == jit
        assert same_bits(model.chol, L)
        jitters.add(jit > 0)
    assert jitters == {False, True}


def test_fit_evaluator_bitwise_across_the_search_box():
    values = set()
    for rng, X, y, noise in instances(3, count=6):
        ours = gp._NllEvaluator(X, y, noise)
        ref = ref_nll_evaluator(X, y, noise)
        for _ in range(25):
            theta = random_theta(rng, X.shape[1])
            want = ref(theta)
            assert same_bits(ours(theta), want)
            values.add(math.isfinite(want))
    assert values == {False, True}


def test_line_values_equal_the_full_evaluation_bitwise():
    """Each line function, evaluated several times in turn as a line search
    does, gives the full evaluation at theta with coordinate j set."""
    values = set()
    for rng, X, y, noise in instances(5, count=6):
        ours = gp._NllEvaluator(X, y, noise)
        ref = ref_nll_evaluator(X, y, noise)
        for _ in range(3):
            theta = random_theta(rng, X.shape[1])
            for j in range(theta.size):
                line = ours.line(theta, j)
                lo, hi = LOG_BOX[0] if j == 0 else LOG_BOX[1]
                for v in rng.uniform(lo, hi, 4):
                    trial = theta.copy()
                    trial[j] = v
                    want = ours(trial)
                    assert same_bits(line(v), want)
                    assert same_bits(want, ref(trial))
                    values.add(math.isfinite(want))
    assert values == {False, True}


def fit_fixtures():
    rng = np.random.default_rng(11)
    X1 = rng.random((20, 1))
    yield X1, np.sin(6 * X1[:, 0]), np.full(20, 1e-3), ()
    X2 = rng.random((35, 2))
    y2 = X2[:, 0] - X2[:, 1] ** 2 + 0.05 * rng.standard_normal(35)
    yield X2, y2, np.full(35, 2.5e-3), (KernelParams(0.3, (0.4, 0.7)),)
    X3 = np.repeat(rng.random((6, 3)), 2, axis=0)
    yield X3, rng.standard_normal(12), np.zeros(12), ()


def test_fit_returns_the_reference_evaluator_optimum(monkeypatch):
    for X, y, noise, warm in fit_fixtures():
        ours = fit_hyperparameters(X, y, noise, extra_starts=warm)
        with monkeypatch.context() as patch:
            patch.setattr(gp, "_NllEvaluator", RefEvaluator)
            want = fit_hyperparameters(X, y, noise, extra_starts=warm)
        assert same_bits(ours.sigma, want.sigma)
        assert same_bits(ours.lengthscales, want.lengthscales)


def test_non_finite_inputs_raise_value_error():
    rng = np.random.default_rng(4)
    X = rng.random((8, 2))
    y = rng.standard_normal(8)
    noise = np.full(8, 1e-3)
    params = KernelParams(1.0, (0.5, 0.5))
    for bad in (np.nan, np.inf):
        broken = noise.copy()
        broken[3] = bad
        with pytest.raises(ValueError):
            fit_hyperparameters(X, y, broken)
        with pytest.raises(ValueError):
            log_marginal_likelihood(X, y, broken, params)
        with pytest.raises(ValueError):
            ref_lml(X, y, broken, params)
    y_bad = y.copy()
    y_bad[0] = np.nan
    with pytest.raises(ValueError):
        fit_hyperparameters(X, y_bad, noise)
    with pytest.raises(ValueError):
        log_marginal_likelihood(X, y_bad, noise, params)
    with pytest.raises(ValueError):
        ref_lml(X, y_bad, noise, params)


def test_predict_matches_solve_triangular():
    rng = np.random.default_rng(8)
    for trial in range(200):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 50))
        X = rng.random((n, d))
        if trial % 4 == 0:
            X[n // 2:] = X[: n - n // 2]  # repeated inputs need jitter
        model = build_model(X, rng.standard_normal(n), rng.uniform(0, 0.01, n),
                            random_params(rng, d))
        Q = rng.random((int(rng.integers(0, 30)), d))
        mean, var = gp_predict_many(model, Q)
        want_mean, want_var = ref_predict_many(model, Q)
        assert mean.shape == var.shape == (Q.shape[0],)
        assert same_bits(mean, want_mean) and same_bits(var, want_var)


def test_predict_at_nan_input_raises_value_error():
    rng = np.random.default_rng(6)
    model = build_model(rng.random((6, 2)), rng.standard_normal(6), np.full(6, 1e-3),
                        KernelParams(1.0, (0.5, 0.5)))
    Q = rng.random((3, 2))
    Q[1, 0] = np.nan  # a NaN cross-covariance; an infinite input gives exp(-inf) = 0
    with pytest.raises(ValueError):
        gp_predict_many(model, Q)
    with pytest.raises(ValueError):
        ref_predict_many(model, Q)
