"""Gaussian process regression with per-observation noise.

The kernel is the squared exponential written as
``sigma * exp(-sum_j (x_j - x'_j)^2 / lambda_j^2)``: sigma enters linearly as
a variance and the exponent carries no 1/2 factor. Inputs are expected in the
unit cube, so the hyperparameter search bounds are dimension-free. The prior
mean is zero.

Speed-ups in this module keep every floating-point result bit-identical to
the plain formulation, because the optimiser compares likelihoods and the run
outputs depend on those comparisons:

- Squared distances are built dimension-first, as ``(D, n, m)`` differences
  summed over axis 0. numpy adds the D terms of each entry in order, as the
  reduction over a trailing ``(n, m, D)`` axis does. The differences are
  written C-ordered: from strided operands the subtraction and the axis-0
  sum run several times slower.
- A ``GpModel`` keeps its training inputs dimension-first, as a C-ordered
  ``(D, n, 1)`` array (the left operand of the prediction differences), and
  its lengthscales as an array; both are built on first use and read-only.
  A subtraction or division gives the same bits whatever the memory layout
  of its operands, so prediction from the cached arrays equals prediction
  from ``inputs`` and ``params``.
- Factorizations call LAPACK ``potrf`` (lower, ``clean=True``) and the
  likelihood and prediction solves call ``trtrs`` (lower, no transpose)
  directly, with the arguments ``scipy.linalg.cholesky(lower=True)`` and
  ``solve_triangular(lower=True)`` pass on to them for the Fortran-ordered
  factor ``potrf`` returns. The diagonal of the factor is read as
  ``L.diagonal()``.
- Noise and jitter ``j`` (as ``j * sigma``) are added to the diagonal only.
  The off-diagonal entries of Delta and of ``j * sigma * I`` are zeros, and
  ``K >= 0``, so adding them changes nothing.
- The fit descends one coordinate of ``theta = log10(sigma, lengthscales)``
  at a time, and ``_NllEvaluator.line`` builds once what stays fixed along
  that coordinate's golden-section search. Along sigma it keeps the
  unit-variance kernel ``E = exp(-s)``: ``E * sigma`` equals the in-place
  ``s *= sigma`` of a full evaluation. Along lengthscale d it keeps the
  (D, n, n) squared scaled differences, overwrites row d in place at each
  value and sums over axis 0: the same call on the same array as a full
  evaluation. Sigma stays the scalar ``10.0 ** theta[0]`` and each
  lengthscale an element of the array ``10.0 ** theta[1:]``, because
  numpy's array and scalar powers differ in the last bit on some values.

Finiteness is checked once per call, not per factorization attempt:
``fit_hyperparameters``, ``log_marginal_likelihood`` and ``build_model``
check the inputs, targets and noise, and ``KernelParams`` refuses non-finite
values, each raising ``ValueError``. From finite data and parameters every
kernel matrix is finite: a difference that overflows gives ``exp(-inf) = 0``.
``gp_predict_many`` checks its cross-covariance, which holds the query
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg import cho_solve, get_lapack_funcs

from .sobol import _sobol_raw

_LOG2PI = math.log(2.0 * math.pi)

# log10 search box for hyperparameters (inputs normalized to the unit cube)
_LOG_SIGMA_BOUNDS = (-6.0, 2.0)
_LOG_LENGTH_BOUNDS = (-2.0, 1.0)
_N_STARTS = 8
_N_DESCENTS = 3  # only the most promising starts get a full local search
_MAX_SWEEPS = 8
_JITTERS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)

_potrf, _trtrs = get_lapack_funcs(("potrf", "trtrs"), (np.empty(0),))


class GpConditioningError(RuntimeError):
    """K + Delta could not be factorized even after jitter escalation."""


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential hyperparameters: process variance and lengthscales."""

    sigma: float
    lengthscales: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "lengthscales", tuple(float(v) for v in self.lengthscales)
        )
        values = (self.sigma, *self.lengthscales)
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise ValueError("kernel parameters must be finite and strictly positive")


@dataclass(frozen=True)
class GpModel:
    """A fitted model: training data, hyperparameters and cached factorization.

    ``chol`` is the lower Cholesky factor of K + Delta (+ jitter I) and
    ``alpha`` solves (K + Delta) alpha = y. Immutable; safe for concurrent
    prediction.
    """

    inputs: np.ndarray
    targets: np.ndarray
    noise_diag: np.ndarray
    params: KernelParams
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float = 0.0

    @property
    def n_train(self) -> int:
        return self.inputs.shape[0]

    # built once per model and shared by every prediction, so read-only
    @cached_property
    def _columns(self) -> np.ndarray:
        """The training inputs dimension-first: (D, n, 1), C-ordered."""
        columns = self.inputs.T[:, :, None].copy()
        columns.flags.writeable = False
        return columns

    @cached_property
    def _lengthscales(self) -> np.ndarray:
        lengthscales = np.array(self.params.lengthscales, dtype=float)
        lengthscales.flags.writeable = False
        return lengthscales


def kernel(x: Sequence[float], y: Sequence[float], params: KernelParams) -> float:
    """Covariance between two points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ls = np.asarray(params.lengthscales, dtype=float)
    return float(params.sigma * np.exp(-np.sum(((x - y) / ls) ** 2)))


def _differences(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Coordinate differences X_i - Y_j, dimension-first: shape (D, n, m)."""
    return np.subtract(X.T[:, :, None], Y.T[:, None, :], order="C")


def _squared_terms(diff: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """The (D, n, m) terms (diff_j / ls_j)^2, computed in place of a new array."""
    scaled = diff / ls[:, None, None]
    return np.square(scaled, out=scaled)


def _exp_neg(s: np.ndarray) -> np.ndarray:
    """exp(-s), computed in place: the unit-variance kernel of the summed terms."""
    return np.exp(np.negative(s, out=s), out=s)


def _unit_kernel(diff: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """exp(-sum_j (diff_j / ls_j)^2): the kernel matrix at sigma = 1."""
    return _exp_neg(_squared_terms(diff, ls).sum(axis=0))


def kernel_matrix(X: np.ndarray, Y: np.ndarray, params: KernelParams) -> np.ndarray:
    """Cross-covariance matrix between two point sets of shape (n, D), (m, D)."""
    K = _unit_kernel(_differences(X, Y), np.asarray(params.lengthscales, dtype=float))
    K *= params.sigma
    return K


def _require_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def _factorize(base: np.ndarray, sigma: float):
    """Lower Cholesky factor of ``base`` = K + Delta with escalating jitter;
    returns (L, jitter). The caller has checked that ``base`` is finite."""
    n = base.shape[0]
    for jit in _JITTERS:
        a = base
        if jit:
            a = base.copy()
            a.flat[:: n + 1] += jit * sigma
        L, info = _potrf(a, lower=True, clean=True)
        if info == 0:
            return L, jit
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK potrf")
    raise GpConditioningError(
        f"covariance matrix of size {n} not positive definite after jitter "
        f"escalation to {_JITTERS[-1]:g}*sigma"
    )


def _add_noise(K: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """K + Delta, in place on the diagonal of the square C-ordered ``K``."""
    K.reshape(-1)[:: K.shape[0] + 1] += noise
    return K


def _lml(K: np.ndarray, y: np.ndarray, noise: np.ndarray, sigma: float) -> float:
    """Log marginal likelihood from the kernel matrix K, which becomes K + Delta;
    the caller has checked that the training data and noise are finite."""
    L, _ = _factorize(_add_noise(K, noise), sigma)
    # potrf succeeded, so L has a positive diagonal and trtrs cannot fail;
    # LAPACK rejects an empty system, whose solution is empty
    z = _trtrs(L, y, lower=True)[0] if y.size else y
    return float(-0.5 * z @ z - np.log(L.diagonal()).sum() - 0.5 * y.size * _LOG2PI)


def build_model(
    inputs: np.ndarray,
    targets: np.ndarray,
    noise_diag: np.ndarray,
    params: KernelParams,
) -> GpModel:
    """Assemble a GpModel, factorizing K + Delta once for reuse."""
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).reshape(-1)
    d = np.asarray(noise_diag, dtype=float).reshape(-1)
    if X.shape[0] != y.size or y.size != d.size:
        raise ValueError("inputs, targets and noise_diag sizes disagree")
    _require_finite(X, y, d)
    if X.shape[0] == 0:
        empty = np.empty((0, 0))
        return GpModel(X, y, d, params, empty, np.empty(0))
    K = kernel_matrix(X, X, params)
    L, jit = _factorize(_add_noise(K, d), params.sigma)
    alpha = cho_solve((L, True), y)
    return GpModel(X, y, d, params, L, alpha, jit)


def gp_predict_many(model: GpModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at each row of X (shape (m, D))."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    prior_var = model.params.sigma
    if model.n_train == 0:
        m = X.shape[0]
        return np.zeros(m), np.full(m, prior_var)
    diff = np.subtract(model._columns, X.T[:, None, :], order="C")
    k_star = _unit_kernel(diff, model._lengthscales)
    k_star *= prior_var
    mean = k_star.T @ model.alpha
    _require_finite(k_star)
    # LAPACK rejects an empty system: no query rows leave v empty
    v = _trtrs(model.chol, k_star, lower=True)[0] if k_star.size else k_star
    var = prior_var - np.einsum("ij,ij->j", v, v)
    return mean, np.maximum(var, 0.0)


def log_marginal_likelihood(
    inputs: np.ndarray,
    targets: np.ndarray,
    noise_diag: np.ndarray,
    params: KernelParams,
) -> float:
    """log p(y | X, theta) = -1/2 y'(K+D)^-1 y - 1/2 log|K+D| - (n/2) log 2pi."""
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).reshape(-1)
    d = np.asarray(noise_diag, dtype=float).reshape(-1)
    _require_finite(X, y, d)
    return _lml(kernel_matrix(X, X, params), y, d, params.sigma)


class _NllEvaluator:
    """Negative log marginal likelihood as a function of log10 parameters
    ``theta = (sigma, lengthscales...)``; inf where every jitter level fails.

    The training differences are built once per fit, and each line function
    builds once what does not change along its coordinate. The caller has
    checked that the training data and noise are finite.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, noise: np.ndarray):
        self._diff = _differences(X, X)
        self._y = y
        self._noise = noise

    def _nll(self, K: np.ndarray, sigma: float) -> float:
        try:
            return -_lml(K, self._y, self._noise, sigma)
        except GpConditioningError:
            return math.inf

    def __call__(self, theta: np.ndarray) -> float:
        sigma = 10.0 ** theta[0]
        K = _unit_kernel(self._diff, 10.0 ** theta[1:])
        K *= sigma
        return self._nll(K, sigma)

    def line(self, theta: np.ndarray, j: int):
        """The function ``v -> self(theta with theta[j] = v)``, bit for bit."""
        trial = np.array(theta, dtype=float)
        if j == 0:
            unit = _unit_kernel(self._diff, 10.0 ** trial[1:])

            def along_sigma(v: float) -> float:
                trial[0] = v
                sigma = 10.0 ** trial[0]
                return self._nll(unit * sigma, sigma)

            return along_sigma

        d = j - 1
        sigma = 10.0 ** trial[0]
        terms = _squared_terms(self._diff, 10.0 ** trial[1:])
        diff_d, term_d = self._diff[d], terms[d]

        def along_lengthscale(v: float) -> float:
            trial[j] = v
            np.divide(diff_d, (10.0 ** trial[1:])[d], out=term_d)
            np.square(term_d, out=term_d)
            K = _exp_neg(terms.sum(axis=0))
            K *= sigma
            return self._nll(K, sigma)

        return along_lengthscale


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fun, lo: float, hi: float, tol: float = 1e-3):
    """Golden-section minimum of a 1-D function on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    return (c, fc) if fc < fd else (d, fd)


def fit_hyperparameters(
    inputs: np.ndarray,
    targets: np.ndarray,
    noise_diag: np.ndarray,
    extra_starts: Sequence[KernelParams] = (),
) -> KernelParams:
    """Maximum-likelihood hyperparameters by multi-start bounded local search.

    Starts from a Sobol design over log-parameter space (plus any
    ``extra_starts``, e.g. the previous fit) and descends the negative log
    marginal likelihood one coordinate at a time with golden-section line
    searches. Returns the best parameters found; raises GpConditioningError
    if every start fails to factorize.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).reshape(-1)
    noise = np.asarray(noise_diag, dtype=float).reshape(-1)
    n, ndim = X.shape
    if n < 2:
        raise ValueError("need at least 2 observations to fit hyperparameters")
    _require_finite(X, y, noise)

    lb = np.array([_LOG_SIGMA_BOUNDS[0]] + [_LOG_LENGTH_BOUNDS[0]] * ndim)
    ub = np.array([_LOG_SIGMA_BOUNDS[1]] + [_LOG_LENGTH_BOUNDS[1]] * ndim)

    nll = _NllEvaluator(X, y, noise)
    starts = [lb + u * (ub - lb) for u in _sobol_raw(ndim + 1, _N_STARTS)]
    n_warm = len(extra_starts)
    for params in extra_starts:
        theta = np.log10([params.sigma, *params.lengthscales])
        starts.append(np.clip(theta, lb, ub))

    # rank all starts by raw likelihood; descend only from the best few
    # (warm starts always descend)
    scored = [(nll(np.asarray(t, dtype=float)), i) for i, t in enumerate(starts)]
    warm_idx = set(range(len(starts) - n_warm, len(starts)))
    chosen = {i for _, i in sorted(scored)[:_N_DESCENTS]} | warm_idx

    best_theta = None
    best_val = math.inf
    for idx in sorted(chosen):
        theta = np.array(starts[idx], dtype=float)
        val = scored[idx][0]
        for _ in range(_MAX_SWEEPS):
            before = val
            for j in range(ndim + 1):
                vj, fj = _golden_min(nll.line(theta, j), lb[j], ub[j])
                if fj < val:
                    theta[j] = vj
                    val = fj
            if before - val < 1e-9 * (1.0 + abs(val)):
                break
        if val < best_val:
            best_val = val
            best_theta = theta.copy()

    if best_theta is None or not math.isfinite(best_val):
        raise GpConditioningError("every hyperparameter start failed to factorize")
    return KernelParams(10.0 ** best_theta[0], tuple(10.0 ** best_theta[1:]))
