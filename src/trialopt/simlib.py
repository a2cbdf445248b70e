"""Built-in trial scenarios with independent power oracles.

Each scenario pairs a simulator (data generation plus analysis, returning
the rejection indicator of each replicate) with an oracle computing the
true rejection probability in closed form or by numeric integration, so
optimizer output can be verified against ground truth.

The clustered scenarios use a balanced continuous-outcome layout: therapists
are the intervention-arm clusters, doctors the control-arm clusters, with
half the doctors serving each arm. Caseloads are balanced and treated as
fractional (cluster residual means are simulated at variance sigma_W^2 per
caseload), which keeps every integer design point in a search box valid and
the oracles exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np
# the scipy.special functions behind scipy.stats' norm, t and chi2, called
# directly: the same values bit for bit, without importing scipy.stats
from scipy.special import gammaincinv, ndtr, ndtri, owens_t, stdtrit

from .domain import DesignPoint, DesignSpace, Hypothesis
from .montecarlo import Batch, TrialSimulator

Params = Mapping[str, float]
# design parameter name -> one value per design; a formula returns one column
# per objective label
Columns = Mapping[str, np.ndarray]
Formula = Callable[[Columns], Sequence[np.ndarray]]


class UnknownScenarioError(ValueError):
    """Requested scenario name is not registered."""


# ---------------------------------------------------------------------------
# probability helpers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _z_crit_two_sided(alpha: float) -> float:
    return float(ndtri(1.0 - alpha / 2.0))


@lru_cache(maxsize=256)
def _t_crit_two_sided(alpha: float, df: int) -> float:
    return float(stdtrit(df, 1.0 - alpha / 2.0))


@lru_cache(maxsize=8)
def _gl_unit_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def bvn_cdf(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) for a standard bivariate normal with correlation rho.

    Uses Owen's T function, accurate to ~1e-14. Exact zeros in h or k are
    nudged by 1e-13 to stay off the removable discontinuity in the formula.
    """
    if rho >= 1.0:
        return float(ndtr(min(h, k)))
    if rho <= -1.0:
        return float(max(0.0, ndtr(h) + ndtr(k) - 1.0))
    if rho == 0.0:
        return float(ndtr(h) * ndtr(k))
    if h == 0.0:
        h = 1e-13
    if k == 0.0:
        k = 1e-13
    r = math.sqrt(1.0 - rho * rho)
    delta = 0.5 if h * k < 0.0 else 0.0
    return float(
        0.5 * (ndtr(h) + ndtr(k))
        - owens_t(h, (k - rho * h) / (h * r))
        - owens_t(k, (h - rho * k) / (k * r))
        - delta
    )


def bvn_both_two_sided(crit: float, mu1: float, mu2: float, rho: float) -> float:
    """P(|Z1| > crit and |Z2| > crit) for (Z1, Z2) ~ BVN((mu1, mu2), 1, rho)."""
    def F(a, b):
        return bvn_cdf(a - mu1, b - mu2, rho)

    p1_in = ndtr(crit - mu1) - ndtr(-crit - mu1)
    p2_in = ndtr(crit - mu2) - ndtr(-crit - mu2)
    both_in = F(crit, crit) - F(-crit, crit) - F(crit, -crit) + F(-crit, -crit)
    return float(max(0.0, 1.0 - p1_in - p2_in + both_in))


def bvn_either_one_sided(crit: float, mu1: float, mu2: float, rho: float) -> float:
    """P(Z1 > crit or Z2 > crit) for (Z1, Z2) ~ BVN((mu1, mu2), 1, rho)."""
    return float(min(1.0, max(0.0, 1.0 - bvn_cdf(crit - mu1, crit - mu2, rho))))


def pooled_t_power(
    effect: float,
    var1: float,
    count1: int,
    var2: float,
    count2: int,
    alpha: float,
    nodes: int = 96,
) -> float:
    """Rejection probability of the pooled two-sample t-test on cluster means.

    Group g supplies ``count_g`` independent N(mean_g, var_g) values; the
    pooled statistic is compared with t_{1-alpha/2, count1+count2-2}. The
    power is computed exactly by integrating the conditional normal
    probability over the two within-group chi-square sums (Gauss-Legendre on
    the quantile scale). Coincides with the noncentral-t power when
    var1 == var2.
    """
    df = count1 + count2 - 2
    if df < 1:
        raise ValueError("need at least 3 cluster means in total")
    tcrit = _t_crit_two_sided(alpha, df)
    sd_num = math.sqrt(var1 / count1 + var2 / count2)
    scale = (1.0 / count1 + 1.0 / count2) / df
    u, w = _gl_unit_nodes(nodes)
    w1 = 2 * gammaincinv((count1 - 1) / 2, u) if count1 > 1 else np.zeros_like(u)
    w2 = 2 * gammaincinv((count2 - 1) / 2, u) if count2 > 1 else np.zeros_like(u)
    W1, W2 = np.meshgrid(w1, w2, indexing="ij")
    G = np.sqrt((var1 * W1 + var2 * W2) * scale)
    p = ndtr((-tcrit * G - effect) / sd_num) + ndtr(-((tcrit * G - effect) / sd_num))
    return float(w @ p @ w)


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A named simulator with its independent rejection-probability oracle.

    ``prepare`` and ``rejection_rate`` receive design parameters and
    hypothesis parameters as name->value mappings. ``prepare(x, hp)`` does
    the work that depends only on the point: it checks the layout, raising
    ValueError for a design the scenario cannot simulate, parses the
    parameters and computes constants such as critical values. It returns a
    ``Batch(shape, fill, decide)`` that depends on ``x`` and ``hp`` only
    through what ``prepare`` computed:

    - ``fill(rng, row)`` writes one replicate's random draws into ``row``, a
      float64 array of ``shape``, and must not keep ``rng``: the estimator
      reuses one generator and resets it between replicates;
    - ``decide(rows)`` analyses a block of m filled rows, shape
      ``(m, *shape)``, in array operations and returns the m rejection
      indicators. It must be row-wise: each row's decision from that row
      alone, by the same arithmetic whatever m is (reduce along the row's
      own axes only), and it must not change ``rows``.

    ``simulator(space)`` gives the scenario as a ``TrialSimulator``, the one
    simulator contract, a function of (point, hypothesis) returning a Batch;
    a custom trial plugs in through ``register_scenario`` or as such a function.

    ``objective_formulas`` maps formula ids to (labels, fn) pairs usable
    from configs; ``fn`` receives a name->column mapping, one array of m
    designs' values per design parameter, and returns one column per label.
    Formulas must be elementwise (each design's objectives from its own
    values only), so a column gives exactly the values a one-design call
    would.
    """

    name: str
    design_params: tuple[str, ...]
    optional_params: tuple[str, ...]
    hypothesis_params: tuple[str, ...]
    prepare: Callable[[Params, Params], Batch]
    rejection_rate: Callable[[Params, Params], float]
    objective_formulas: Mapping[str, tuple[tuple[str, ...], Formula]] = field(
        default_factory=dict
    )

    def simulator(self, space: DesignSpace) -> TrialSimulator:
        """This scenario as the TrialSimulator of a space: ``prepare`` at a
        point's design values and a hypothesis' parameters."""
        names = space.names

        def sim(point: DesignPoint, hypothesis: Hypothesis) -> Batch:
            return self.prepare(dict(zip(names, point.coords)), hypothesis.params)

        return sim

    def hypothesis_problems(self, params: Params) -> list[str]:
        """This scenario's hypothesis parameters in ``params`` that lie
        outside their ``HYPOTHESIS_RANGES``."""
        problems = []
        for name in self.hypothesis_params:
            if name in params and name in HYPOTHESIS_RANGES:
                inside, allowed = HYPOTHESIS_RANGES[name]
                if not inside(params[name]):
                    problems.append(f"parameter {name!r} = {params[name]!r} "
                                    f"must be {allowed}")
        return problems

    def space_problems(self, space: DesignSpace) -> list[str]:
        """Mismatches between a design space and this scenario's schema."""
        names = set(space.names)
        problems = []
        for p in self.design_params:
            if p not in names:
                problems.append(f"scenario {self.name!r} needs design parameter {p!r}")
        allowed = set(self.design_params) | set(self.optional_params)
        for name in names - allowed:
            problems.append(f"design parameter {name!r} unknown to scenario {self.name!r}")
        return problems


def _standard_normal(rng: np.random.Generator, row: np.ndarray) -> None:
    """The fill of every scenario whose draws are one standard normal vector."""
    rng.standard_normal(out=row)


# ---------------------------------------------------------------------------
# two-arm z-test on continuous outcomes
# ---------------------------------------------------------------------------

def _two_arm_normal_prepare(x: Params, hp: Params) -> Batch:
    n = int(round(x["n"]))
    if n < 2:
        raise ValueError("per-arm n must be >= 2")
    delta = float(hp["delta"])
    sigma = float(hp["sigma"])
    se = sigma * math.sqrt(2.0 / n)
    zc = _z_crit_two_sided(float(hp["alpha"]))

    def decide(z: np.ndarray) -> np.ndarray:
        # a row is n control then n treated draws; sigma * z is the value
        # rng.normal(0.0, sigma) gives (0.0 + sigma * z)
        control = (sigma * z[:, :n]).mean(axis=1)
        treated = (delta + sigma * z[:, n:]).mean(axis=1)
        return np.abs((treated - control) / se) > zc

    return Batch((2 * n,), _standard_normal, decide)


def _two_arm_normal_oracle(x: Params, hp: Params) -> float:
    n = int(round(x["n"]))
    zc = _z_crit_two_sided(float(hp["alpha"]))
    ncp = float(hp["delta"]) * math.sqrt(n / 2.0) / float(hp["sigma"])
    return float(ndtr(ncp - zc) + ndtr(-ncp - zc))


# ---------------------------------------------------------------------------
# two-arm test of proportions
# ---------------------------------------------------------------------------

_BINARY_EXACT_LIMIT = 200


def _two_arm_binary_prepare(x: Params, hp: Params) -> Batch:
    n = int(round(x["n"]))
    if n < 10:
        raise ValueError("per-arm n must be >= 10")
    p0 = float(hp["p0"])
    p1 = float(hp["p1"])
    zc = _z_crit_two_sided(float(hp["alpha"]))

    def fill(rng: np.random.Generator, row: np.ndarray) -> None:
        row[0] = rng.binomial(n, p0)
        row[1] = rng.binomial(n, p1)

    def decide(counts: np.ndarray) -> np.ndarray:
        # counts below 2**53 are exact in float64, so the sums, differences
        # and quotients round as the integer arithmetic does
        x0, x1 = counts[:, 0], counts[:, 1]
        pooled = (x0 + x1) / (2.0 * n)
        se = np.sqrt(2.0 * pooled * (1.0 - pooled) / n)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (se != 0.0) & (np.abs((x1 - x0) / n / se) > zc)

    return Batch((2,), fill, decide)


def _two_arm_binary_oracle(x: Params, hp: Params) -> float:
    # scipy.special has no binomial pmf; scipy.stats is imported here only,
    # as an oracle never runs during an optimization
    from scipy.stats import binom

    n = int(round(x["n"]))
    p0, p1 = float(hp["p0"]), float(hp["p1"])
    zc = _z_crit_two_sided(float(hp["alpha"]))
    if n <= _BINARY_EXACT_LIMIT:
        counts = np.arange(n + 1)
        pmf0 = binom.pmf(counts, n, p0)
        pmf1 = binom.pmf(counts, n, p1)
        X0, X1 = np.meshgrid(counts, counts, indexing="ij")
        pooled = (X0 + X1) / (2.0 * n)
        se = np.sqrt(2.0 * pooled * (1.0 - pooled) / n)
        with np.errstate(divide="ignore", invalid="ignore"):
            stat = np.where(se > 0, np.abs((X1 - X0) / n) / np.where(se > 0, se, 1.0), 0.0)
        reject = stat > zc
        return float(pmf0 @ reject @ pmf1)
    # normal approximation: pooled-variance critical region, alternative spread
    diff = p1 - p0
    pbar = 0.5 * (p0 + p1)
    se0 = math.sqrt(2.0 * pbar * (1.0 - pbar) / n)
    se1 = math.sqrt((p0 * (1.0 - p0) + p1 * (1.0 - p1)) / n)
    return float(ndtr((-zc * se0 - diff) / se1) + ndtr(-((zc * se0 - diff) / se1)))


# ---------------------------------------------------------------------------
# cluster randomized trial, single continuous endpoint
# ---------------------------------------------------------------------------

def _cluster_layout(x: Params) -> tuple[int, int, float, float, float]:
    """Validated (k, control clusters, doctors per therapist, caseloads)."""
    n = float(x["n"])
    k = int(round(x["k"]))
    j = int(round(x.get("j", 2 * k)))
    if k < 2:
        raise ValueError("need at least 2 therapist clusters")
    if n < 2 * k:
        raise ValueError("need at least 2 participants per therapist cluster")
    if j % 2 != 0 or j < 4:
        raise ValueError("doctor count j must be an even integer >= 4")
    n_control_clusters = j // 2
    doctors_per_therapist = (j / 2.0) / k
    if doctors_per_therapist < 1.0:
        raise ValueError("layout requires at least one doctor per therapist (j >= 2k)")
    m_intervention = n / k
    m_control = n / n_control_clusters
    return k, n_control_clusters, doctors_per_therapist, m_intervention, m_control


def _cluster_variances(x: Params, hp: Params) -> tuple[int, int, float, float]:
    k, n2, c, m_i, m_c = _cluster_layout(x)
    st2 = float(hp["sigma_t2"])
    sd2 = float(hp["sigma_d2"])
    sw2 = float(hp["sigma_w2"])
    v1 = st2 + sd2 / c + sw2 / m_i
    v2 = sd2 + sw2 / m_c
    return k, n2, v1, v2


def _cluster_rct_statistic(
    x: Params, hp: Params,
) -> tuple[tuple[int], Callable[[np.ndarray], np.ndarray], int]:
    """(shape, t(rows), df): the shape of one replicate's standard normal
    draws; the pooled t statistic on the cluster means of each row of a
    block of draws, NaN (which rejects at no level) where the pooled
    variance is not positive; and its degrees of freedom."""
    k, n2, c, m_i, m_c = _cluster_layout(x)
    beta0 = float(hp.get("beta0", 0.0))
    beta1 = float(hp["beta1"])
    st2 = float(hp["sigma_t2"])
    sd2 = float(hp["sigma_d2"])
    sw2 = float(hp["sigma_w2"])
    intervention_mean = beta0 + beta1
    sds = [math.sqrt(st2), math.sqrt(sd2 / c), math.sqrt(sw2 / m_i),
           math.sqrt(sd2), math.sqrt(sw2 / m_c)]
    # a row is one draw of the five normal vectors, in their order: three of
    # k for the intervention therapist-cluster means (therapist effect, own
    # doctors, residual mean), two of n2 for the control doctor-cluster
    # means; sd * z is the value rng.normal(0.0, sd) gives (0.0 + sd * z)
    scale = np.repeat(sds, [k, k, k, n2, n2])
    df = k + n2 - 2
    se_scale = 1.0 / k + 1.0 / n2

    def t(z: np.ndarray) -> np.ndarray:
        e = z * scale
        a = intervention_mean + e[:, :k] + e[:, k:2 * k] + e[:, 2 * k:3 * k]
        b = beta0 + e[:, 3 * k:3 * k + n2] + e[:, 3 * k + n2:]
        sp2 = ((k - 1) * a.var(axis=1, ddof=1) + (n2 - 1) * b.var(axis=1, ddof=1)) / df
        with np.errstate(divide="ignore", invalid="ignore"):
            stat = (a.mean(axis=1) - b.mean(axis=1)) / np.sqrt(sp2 * se_scale)
        stat[~(sp2 > 0.0)] = np.nan
        return stat

    return scale.shape, t, df


def _cluster_rct_prepare(x: Params, hp: Params) -> Batch:
    shape, t, df = _cluster_rct_statistic(x, hp)
    tc = _t_crit_two_sided(float(hp["alpha"]), df)
    return Batch(shape, _standard_normal, lambda z: np.abs(t(z)) > tc)


def _cluster_rct_oracle(x: Params, hp: Params) -> float:
    k, n2, v1, v2 = _cluster_variances(x, hp)
    return pooled_t_power(float(hp["beta1"]), v1, k, v2, n2, float(hp["alpha"]))


# ---------------------------------------------------------------------------
# correlated co-primary endpoints (both must reject)
# ---------------------------------------------------------------------------

def _arm_level_layout(x: Params) -> tuple[float, int, float, float]:
    """(n per arm or n1, therapists k, doctors per arm, control n)."""
    if "n1" in x:
        n1 = float(x["n1"])
        n0 = float(x["r"]) * n1
    else:
        n1 = float(x["n"])
        n0 = n1
    k = int(round(x["k"]))
    j = float(x.get("j", 2 * k))
    if k < 2:
        raise ValueError("need at least 2 therapist clusters")
    if j < 2:
        raise ValueError("need at least 2 doctors")
    if n1 < 2 * k:
        raise ValueError("need at least 2 participants per therapist cluster")
    if n0 < 2:
        raise ValueError("control arm needs at least 2 participants")
    return n1, k, j / 2.0, n0


def _endpoint_pair_moments(x: Params, hp: Params) -> tuple[float, float]:
    """(variance, covariance) of the two endpoint arm-mean differences."""
    n1, k, d_arm, n0 = _arm_level_layout(x)
    st2 = float(hp["sigma_t2"])
    sd2 = float(hp["sigma_d2"])
    sw2 = float(hp["sigma_w2"])
    var = st2 / k + 2.0 * sd2 / d_arm + sw2 * (1.0 / n1 + 1.0 / n0)
    cov = (float(hp["rho_t"]) * st2 / k
           + 2.0 * float(hp["rho_d"]) * sd2 / d_arm
           + float(hp["rho_w"]) * sw2 * (1.0 / n1 + 1.0 / n0))
    return var, cov


def _endpoint_pair_sampler(
    x: Params, hp: Params,
) -> tuple[tuple[int, int], Callable[[np.ndarray], np.ndarray]]:
    """(shape, diff(rows)): the shape ``(2k + 3, 2)`` of one replicate's
    standard normal draws, and the two endpoints' arm-mean differences
    (without effects) of each replicate in a block of draws, one pair a row.

    A replicate's draws become correlated endpoint pairs, each
    (z0, rho z0 + sqrt(1 - rho^2) z1) scaled by its standard deviation:
    k therapist effects, k cluster residual means, then one pair each for
    the intervention doctors, the control doctors and the control residual
    mean.
    """
    n1, k, d_arm, n0 = _arm_level_layout(x)
    st2 = float(hp["sigma_t2"])
    sd2 = float(hp["sigma_d2"])
    sw2 = float(hp["sigma_w2"])
    rho_t = float(hp["rho_t"])
    rho_d = float(hp["rho_d"])
    rho_w = float(hp["rho_w"])
    m_i = n1 / k
    blocks = [(st2, rho_t), (sw2 / m_i, rho_w), (sd2 / d_arm, rho_d),
              (sd2 / d_arm, rho_d), (sw2 / n0, rho_w)]
    counts = [k, k, 1, 1, 1]
    rho = np.repeat([r for _, r in blocks], counts)
    root = np.repeat([math.sqrt(max(0.0, 1.0 - r * r)) for _, r in blocks], counts)
    scale = np.repeat([math.sqrt(v) for v, _ in blocks], counts)[:, None]

    def diff(z: np.ndarray) -> np.ndarray:
        pairs = z.copy()
        pairs[:, :, 1] = rho * z[:, :, 0] + root * z[:, :, 1]
        pairs *= scale
        # each mean adds its k pairs in order, as over a separate (k, 2) array
        return (pairs[:, :k].mean(axis=1) + pairs[:, k:2 * k].mean(axis=1)
                + pairs[:, 2 * k] - pairs[:, 2 * k + 1] - pairs[:, 2 * k + 2])

    return (2 * k + 3, 2), diff


def _co_primary_prepare(x: Params, hp: Params) -> Batch:
    effects = np.array([float(hp["beta1_f"]), float(hp["beta1_d"])])
    var, _ = _endpoint_pair_moments(x, hp)
    shape, pair_diff = _endpoint_pair_sampler(x, hp)
    se = math.sqrt(var)
    zc = _z_crit_two_sided(float(hp["alpha"]))

    def decide(z: np.ndarray) -> np.ndarray:
        rejects = np.abs((effects + pair_diff(z)) / se) > zc
        return rejects[:, 0] & rejects[:, 1]

    return Batch(shape, _standard_normal, decide)


def _co_primary_oracle(x: Params, hp: Params) -> float:
    var, cov = _endpoint_pair_moments(x, hp)
    se = math.sqrt(var)
    rho = min(1.0, max(-1.0, cov / var))
    zc = _z_crit_two_sided(float(hp["alpha"]))
    return bvn_both_two_sided(zc, float(hp["beta1_f"]) / se, float(hp["beta1_d"]) / se, rho)


# ---------------------------------------------------------------------------
# small pilot: either endpoint, one-sided, nominal test size as design variable
# ---------------------------------------------------------------------------

def _pilot_either_prepare(x: Params, hp: Params) -> Batch:
    a = float(x["a"])
    if not 0.0 < a < 0.5:
        raise ValueError("nominal test size a must be in (0, 0.5)")
    effects = np.array([float(hp["beta1_f"]), float(hp["beta1_d"])])
    var, _ = _endpoint_pair_moments(x, hp)
    shape, pair_diff = _endpoint_pair_sampler(x, hp)
    se = math.sqrt(var)
    zc = float(ndtri(1.0 - a))

    def decide(z: np.ndarray) -> np.ndarray:
        rejects = (effects + pair_diff(z)) / se > zc
        return rejects[:, 0] | rejects[:, 1]

    return Batch(shape, _standard_normal, decide)


def _pilot_either_oracle(x: Params, hp: Params) -> float:
    a = float(x["a"])
    var, cov = _endpoint_pair_moments(x, hp)
    se = math.sqrt(var)
    rho = min(1.0, max(-1.0, cov / var))
    zc = float(ndtri(1.0 - a))
    return bvn_either_one_sided(zc, float(hp["beta1_f"]) / se, float(hp["beta1_d"]) / se, rho)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _providers(x: Columns) -> np.ndarray:
    return x["k"] + x.get("j", 2 * x["k"])


_CLUSTER_OBJECTIVES = {
    "participants_providers": (
        ("participants", "providers"),
        lambda x: (2.0 * x["n"], _providers(x)),
    ),
}

# hypothesis parameter -> (test, the allowed values in words), one entry per
# name the scenarios below declare in hypothesis_params; the effect sizes
# (delta, beta1, beta1_f, beta1_d) may take any finite value
_LEVEL = (lambda v: 0.0 < v < 1.0, "in (0, 1)")
_SD = (lambda v: v > 0.0, "> 0")
_VARIANCE = (lambda v: v >= 0.0, ">= 0")
_PROBABILITY = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_CORRELATION = (lambda v: -1.0 <= v <= 1.0, "in [-1, 1]")
HYPOTHESIS_RANGES = {
    "alpha": _LEVEL,
    "sigma": _SD,
    "sigma_t2": _VARIANCE, "sigma_d2": _VARIANCE, "sigma_w2": _VARIANCE,
    "p0": _PROBABILITY, "p1": _PROBABILITY,
    "rho_w": _CORRELATION, "rho_t": _CORRELATION, "rho_d": _CORRELATION,
}

SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> None:
    """Add a scenario to the registry (extension point for custom trials)."""
    SCENARIOS[scenario.name] = scenario


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise UnknownScenarioError(f"unknown scenario {name!r} (known: {known})") from None


register_scenario(Scenario(
    name="two_arm_normal",
    design_params=("n",),
    optional_params=(),
    hypothesis_params=("delta", "sigma", "alpha"),
    prepare=_two_arm_normal_prepare,
    rejection_rate=_two_arm_normal_oracle,
    objective_formulas={
        "per_arm_n": (("per_arm_n",), lambda x: (x["n"],)),
        "total_n": (("total_n",), lambda x: (2.0 * x["n"],)),
    },
))

register_scenario(Scenario(
    name="two_arm_binary",
    design_params=("n",),
    optional_params=(),
    hypothesis_params=("p0", "p1", "alpha"),
    prepare=_two_arm_binary_prepare,
    rejection_rate=_two_arm_binary_oracle,
    objective_formulas={
        "per_arm_n": (("per_arm_n",), lambda x: (x["n"],)),
        "total_n": (("total_n",), lambda x: (2.0 * x["n"],)),
    },
))

register_scenario(Scenario(
    name="cluster_rct",
    design_params=("n", "k"),
    optional_params=("j",),
    hypothesis_params=("beta1", "sigma_t2", "sigma_d2", "sigma_w2", "alpha"),
    prepare=_cluster_rct_prepare,
    rejection_rate=_cluster_rct_oracle,
    objective_formulas=_CLUSTER_OBJECTIVES,
))

register_scenario(Scenario(
    name="co_primary",
    design_params=("n", "k"),
    optional_params=("j",),
    hypothesis_params=("beta1_f", "beta1_d", "rho_w", "rho_t", "rho_d",
                       "sigma_t2", "sigma_d2", "sigma_w2", "alpha"),
    prepare=_co_primary_prepare,
    rejection_rate=_co_primary_oracle,
    objective_formulas=_CLUSTER_OBJECTIVES,
))

register_scenario(Scenario(
    name="pilot_either",
    design_params=("n1", "k", "r", "j", "a"),
    optional_params=(),
    hypothesis_params=("beta1_f", "beta1_d", "rho_w", "rho_t", "rho_d",
                       "sigma_t2", "sigma_d2", "sigma_w2"),
    prepare=_pilot_either_prepare,
    rejection_rate=_pilot_either_oracle,
    objective_formulas={
        "pilot_objectives": (
            ("participants", "therapists", "doctors"),
            lambda x: (x["n1"] * (1.0 + x["r"]), x["k"], x["j"]),
        ),
    },
))
