import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaincinv, ndtr, ndtri, stdtrit
from scipy.stats import chi2, nct, norm
from scipy.stats import t as student_t

import trialopt
from trialopt.domain import DesignPoint, DesignSpace, Dimension, Hypothesis
from trialopt.montecarlo import _BLOCK_DOUBLES, _CHUNK, Batch, mc_estimate
from trialopt.simlib import (
    HYPOTHESIS_RANGES,
    SCENARIOS,
    UnknownScenarioError,
    _arm_level_layout,
    _cluster_layout,
    _cluster_rct_statistic,
    _endpoint_pair_moments,
    _endpoint_pair_sampler,
    _gl_unit_nodes,
    _t_crit_two_sided,
    _z_crit_two_sided,
    bvn_cdf,
    bvn_both_two_sided,
    bvn_either_one_sided,
    get_scenario,
    pooled_t_power,
)

CLUSTER_HP = {"beta1": 1.10, "sigma_t2": 0.19, "sigma_d2": 0.37,
              "sigma_w2": 3.29, "alpha": 0.05}
CO_HP = {"beta1_f": 1.10, "beta1_d": 1.10, "rho_w": 0.9, "rho_t": 0.9,
         "rho_d": 0.9, "sigma_t2": 0.19, "sigma_d2": 0.37, "sigma_w2": 3.29,
         "alpha": 0.05}
PILOT_HP = {"beta1_f": 1.10, "beta1_d": 1.10, "rho_w": 0.9, "rho_t": 0.9,
            "rho_d": 0.9, "sigma_t2": 0.19, "sigma_d2": 0.37, "sigma_w2": 3.29}


def mc_check(scenario_name, x, hp, n_samples=20_000, seed=123):
    """MC estimate of the rejection rate vs the scenario oracle, within 3 SE."""
    scenario = get_scenario(scenario_name)
    sim = scenario.simulator(DesignSpace(tuple(Dimension(d, 0.0, 1e9) for d in x)))
    est = mc_estimate(sim, DesignPoint(tuple(x.values())), Hypothesis("h", hp),
                      n_samples, seed=seed)
    oracle = scenario.rejection_rate(x, hp)
    se = math.sqrt(max(oracle * (1 - oracle), 1e-12) / n_samples)
    assert abs(est.mean - oracle) < 3 * se, (
        f"{scenario_name} at {x}: mc={est.mean:.5f} oracle={oracle:.5f} se={se:.5f}"
    )


def z_power_two_sided(ncp, alpha):
    zc = norm.ppf(1 - alpha / 2)
    return norm.cdf(-zc - ncp) + norm.sf(zc - ncp)


# ---------------------------------------------------------------------------
# two_arm_normal
# ---------------------------------------------------------------------------

def test_two_arm_normal_oracle_values():
    s = get_scenario("two_arm_normal")
    assert s.rejection_rate({"n": 63}, {"delta": 0.5, "sigma": 1, "alpha": 0.05}) == (
        pytest.approx(0.8013023941055797, abs=1e-12)
    )
    # size is exact for the z-test
    for n in (10, 63, 150):
        assert s.rejection_rate({"n": n}, {"delta": 0.0, "sigma": 1, "alpha": 0.05}) == (
            pytest.approx(0.05, abs=1e-12)
        )


def test_two_arm_normal_mc_cross_validation():
    mc_check("two_arm_normal", {"n": 63},
             {"delta": 0.5, "sigma": 1.0, "alpha": 0.05})


# ---------------------------------------------------------------------------
# two_arm_binary
# ---------------------------------------------------------------------------

def test_two_arm_binary_pace_style_calculation():
    s = get_scenario("two_arm_binary")
    power = s.rejection_rate({"n": 135}, {"p0": 0.1, "p1": 0.25, "alpha": 0.05})
    assert power >= 0.90


def test_two_arm_binary_size_close_to_nominal():
    s = get_scenario("two_arm_binary")
    for n in (100, 150, 200):
        size = s.rejection_rate({"n": n}, {"p0": 0.2, "p1": 0.2, "alpha": 0.05})
        assert 0.8 * 0.05 <= size <= 1.2 * 0.05


def test_two_arm_binary_exact_oracle_vs_mc():
    mc_check("two_arm_binary", {"n": 50}, {"p0": 0.1, "p1": 0.3, "alpha": 0.05})


def test_two_arm_binary_approximation_continuity():
    s = get_scenario("two_arm_binary")
    hp = {"p0": 0.1, "p1": 0.22, "alpha": 0.05}
    exact = s.rejection_rate({"n": 200}, hp)
    approx = s.rejection_rate({"n": 201}, hp)
    assert abs(exact - approx) < 0.02


# ---------------------------------------------------------------------------
# pooled-t power and cluster_rct
# ---------------------------------------------------------------------------

def nct_two_sided(effect, var, count1, count2, alpha):
    """Closed-form noncentral-t power, valid when both groups share ``var``."""
    df = count1 + count2 - 2
    tcrit = student_t.ppf(1 - alpha / 2, df)
    delta = effect / math.sqrt(var * (1 / count1 + 1 / count2))
    return nct.sf(tcrit, df, delta) + nct.cdf(-tcrit, df, delta)


def test_pooled_t_power_matches_noncentral_t_when_variances_equal():
    for (v, k1, k2, eff, alpha) in [(0.69, 10, 10, 1.1, 0.05),
                                    (0.5, 5, 8, 0.7, 0.1),
                                    (1.2, 20, 12, 0.4, 0.05)]:
        quad = pooled_t_power(eff, v, k1, v, k2, alpha)
        closed = nct_two_sided(eff, v, k1, k2, alpha)
        assert quad == pytest.approx(closed, abs=2e-5)


def test_pooled_t_power_exact_size_when_variances_equal():
    assert pooled_t_power(0.0, 0.4, 8, 0.4, 8, 0.05) == pytest.approx(0.05, abs=2e-5)


def test_cluster_oracle_reduces_to_unclustered_t():
    # no between-cluster variation: power equals the noncentral t with the
    # residual variance alone (the df-corrected two-arm analog)
    s = get_scenario("cluster_rct")
    hp = dict(CLUSTER_HP, sigma_t2=0.0, sigma_d2=0.0)
    x = {"n": 200, "k": 10}
    m = x["n"] / x["k"]
    expected = nct_two_sided(hp["beta1"], hp["sigma_w2"] / m, 10, 10, hp["alpha"])
    assert s.rejection_rate(x, hp) == pytest.approx(expected, abs=2e-5)


def test_cluster_oracle_size():
    s = get_scenario("cluster_rct")
    # equal cluster-mean variances (sigma_t2 = 0, j = 2k): size is exactly alpha
    hp0 = dict(CLUSTER_HP, beta1=0.0, sigma_t2=0.0)
    assert s.rejection_rate({"n": 200, "k": 10}, hp0) == pytest.approx(0.05, abs=2e-5)
    # unequal variances: the pooled t-test has a small size distortion, which
    # the exact oracle reports rather than hiding
    hp1 = dict(CLUSTER_HP, beta1=0.0)
    size = s.rejection_rate({"n": 200, "k": 10}, hp1)
    assert abs(size - 0.05) < 0.01
    assert size != 0.05


def test_cluster_mc_cross_validation():
    mc_check("cluster_rct", {"n": 200, "k": 10}, CLUSTER_HP)


def test_cluster_mc_cross_validation_under_null():
    mc_check("cluster_rct", {"n": 150, "k": 5}, dict(CLUSTER_HP, beta1=0.0))


def test_cluster_oracle_monotone_in_effect_and_size():
    s = get_scenario("cluster_rct")
    powers = [s.rejection_rate({"n": 200, "k": 10}, dict(CLUSTER_HP, beta1=b))
              for b in (0.4, 0.7, 1.0, 1.3)]
    assert all(b > a for a, b in zip(powers, powers[1:]))
    powers = [s.rejection_rate({"n": n, "k": 10}, CLUSTER_HP)
              for n in (100, 200, 300, 400)]
    assert all(b > a for a, b in zip(powers, powers[1:]))


def test_cluster_layout_preconditions():
    s = get_scenario("cluster_rct")
    with pytest.raises(ValueError):
        s.rejection_rate({"n": 100, "k": 10, "j": 7}, CLUSTER_HP)  # odd j
    with pytest.raises(ValueError):
        s.rejection_rate({"n": 100, "k": 10, "j": 10}, CLUSTER_HP)  # j < 2k
    with pytest.raises(ValueError):
        s.rejection_rate({"n": 10, "k": 10}, CLUSTER_HP)  # < 2 per cluster


# ---------------------------------------------------------------------------
# bivariate normal helper
# ---------------------------------------------------------------------------

def bvn_cdf_quadrature(h, k, rho, nodes=200):
    """Independent reference: integrate phi(x) * Phi((k - rho x)/sqrt(1-rho^2))."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    lo = -9.0
    xs = 0.5 * (x + 1) * (h - lo) + lo
    ws = 0.5 * (h - lo) * w
    r = math.sqrt(1 - rho * rho)
    return float(ws @ (norm.pdf(xs) * norm.cdf((k - rho * xs) / r)))


def test_bvn_cdf_against_quadrature():
    rng = np.random.default_rng(2)
    for _ in range(100):
        h, k = rng.normal(0, 1.5, 2)
        rho = rng.uniform(-0.99, 0.99)
        assert bvn_cdf(h, k, rho) == pytest.approx(
            bvn_cdf_quadrature(h, k, rho), abs=1e-10
        )
    for h, k, rho in [(0.0, 1.0, 0.5), (0.0, -1.0, 0.5), (0.0, 0.0, 0.7),
                      (0.3, 0.4, 0.0)]:
        assert bvn_cdf(h, k, rho) == pytest.approx(
            bvn_cdf_quadrature(h, k, rho) if rho else norm.cdf(h) * norm.cdf(k),
            abs=1e-10,
        )
    # comonotone and antithetic limits have exact degenerate forms
    assert bvn_cdf(1.0, 2.0, 1.0) == pytest.approx(norm.cdf(1.0), abs=1e-14)
    assert bvn_cdf(0.5, -0.5, -1.0) == 0.0
    assert bvn_cdf(0.5, 0.5, -1.0) == pytest.approx(2 * norm.cdf(0.5) - 1, abs=1e-14)


# ---------------------------------------------------------------------------
# co_primary
# ---------------------------------------------------------------------------

def co_marginal_power(x, hp):
    s = get_scenario("co_primary")
    one = dict(hp, beta1_d=hp["beta1_f"], rho_w=1.0, rho_t=1.0, rho_d=1.0)
    return s.rejection_rate(x, one)


def test_co_primary_perfect_correlation_equals_marginal():
    s = get_scenario("co_primary")
    x = {"n": 200, "k": 10}
    hp = dict(CO_HP, rho_w=1.0, rho_t=1.0, rho_d=1.0)
    from trialopt.simlib import _endpoint_pair_moments
    var, _ = _endpoint_pair_moments(x, hp)
    marginal = z_power_two_sided(hp["beta1_f"] / math.sqrt(var), hp["alpha"])
    assert s.rejection_rate(x, hp) == pytest.approx(marginal, abs=1e-10)


def test_co_primary_independence_gives_product():
    s = get_scenario("co_primary")
    x = {"n": 200, "k": 10}
    hp = dict(CO_HP, rho_w=0.0, rho_t=0.0, rho_d=0.0, beta1_d=0.8)
    from trialopt.simlib import _endpoint_pair_moments
    var, cov = _endpoint_pair_moments(x, hp)
    assert cov == 0.0
    pf = z_power_two_sided(hp["beta1_f"] / math.sqrt(var), hp["alpha"])
    pd = z_power_two_sided(hp["beta1_d"] / math.sqrt(var), hp["alpha"])
    assert s.rejection_rate(x, hp) == pytest.approx(pf * pd, abs=1e-10)


def test_co_primary_below_min_marginal():
    s = get_scenario("co_primary")
    x = {"n": 240, "k": 8}
    from trialopt.simlib import _endpoint_pair_moments
    var, _ = _endpoint_pair_moments(x, CO_HP)
    pf = z_power_two_sided(CO_HP["beta1_f"] / math.sqrt(var), CO_HP["alpha"])
    pd = z_power_two_sided(CO_HP["beta1_d"] / math.sqrt(var), CO_HP["alpha"])
    assert s.rejection_rate(x, CO_HP) <= min(pf, pd) + 1e-12


def test_co_primary_mc_cross_validation():
    mc_check("co_primary", {"n": 200, "k": 10}, CO_HP)


def test_co_primary_mc_under_null():
    mc_check("co_primary", {"n": 150, "k": 6},
             dict(CO_HP, beta1_f=0.0, beta1_d=0.0))


# ---------------------------------------------------------------------------
# pilot_either
# ---------------------------------------------------------------------------

def test_pilot_union_size_independent_tests():
    s = get_scenario("pilot_either")
    hp0 = dict(PILOT_HP, beta1_f=0.0, beta1_d=0.0, rho_w=0.0, rho_t=0.0, rho_d=0.0)
    for a in (0.05, 0.1, 0.2):
        x = {"n1": 80, "k": 4, "r": 1.0, "j": 8, "a": a}
        assert s.rejection_rate(x, hp0) == pytest.approx(2 * a - a * a, abs=1e-10)


def test_pilot_union_perfect_correlation_equals_marginal():
    s = get_scenario("pilot_either")
    hp = dict(PILOT_HP, rho_w=1.0, rho_t=1.0, rho_d=1.0)
    x = {"n1": 80, "k": 4, "r": 1.0, "j": 8, "a": 0.2}
    from trialopt.simlib import _endpoint_pair_moments
    var, _ = _endpoint_pair_moments(x, hp)
    marginal = norm.sf(norm.ppf(1 - x["a"]) - hp["beta1_f"] / math.sqrt(var))
    assert s.rejection_rate(x, hp) == pytest.approx(marginal, abs=1e-10)


def test_pilot_union_at_least_max_marginal():
    s = get_scenario("pilot_either")
    x = {"n1": 70, "k": 5, "r": 1.2, "j": 9, "a": 0.1}
    from trialopt.simlib import _endpoint_pair_moments
    var, _ = _endpoint_pair_moments(x, PILOT_HP)
    zc = norm.ppf(1 - x["a"])
    pf = norm.sf(zc - PILOT_HP["beta1_f"] / math.sqrt(var))
    pd = norm.sf(zc - PILOT_HP["beta1_d"] / math.sqrt(var))
    assert s.rejection_rate(x, PILOT_HP) >= max(pf, pd) - 1e-12


def test_pilot_mc_cross_validation_both_hypotheses():
    x = {"n1": 80, "k": 4, "r": 1.0, "j": 9, "a": 0.15}
    mc_check("pilot_either", x, PILOT_HP)
    mc_check("pilot_either", x, dict(PILOT_HP, beta1_f=0.0, beta1_d=0.0))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_unknown_scenario_lists_known_names():
    with pytest.raises(UnknownScenarioError) as info:
        get_scenario("nonesuch")
    assert "nonesuch" in str(info.value)
    assert "cluster_rct" in str(info.value)


def test_scenario_space_schema_check():
    s = get_scenario("cluster_rct")
    good = DesignSpace((Dimension("n", 100, 500, "integer"),
                        Dimension("k", 3, 30, "integer")))
    assert s.space_problems(good) == []
    bad = DesignSpace((Dimension("m", 100, 500),))
    problems = s.space_problems(bad)
    assert any("needs design parameter" in p for p in problems)
    assert any("unknown to scenario" in p for p in problems)


def test_every_built_in_hypothesis_parameter_but_the_effects_has_a_range():
    effects = {"delta", "beta1", "beta1_f", "beta1_d"}
    for scenario in SCENARIOS.values():
        assert set(scenario.hypothesis_params) - effects <= set(HYPOTHESIS_RANGES)
    edges = {
        "alpha": ([1e-9, 0.5, 1 - 1e-9], [0.0, 1.0, -0.1]),
        "sigma": ([1e-9, 3.0], [0.0, -1.0]),
        "sigma_w2": ([0.0, 3.29], [-1e-12, -1.0]),
        "p0": ([0.0, 0.3, 1.0], [-1e-12, 1.5]),
        "rho_t": ([-1.0, 0.0, 1.0], [-1.5, 1.0000001]),
    }
    for name, (inside, outside) in edges.items():
        test, _ = HYPOTHESIS_RANGES[name]
        assert all(test(v) for v in inside), name
        assert not any(test(v) for v in outside), name


def test_hypothesis_problems_name_each_parameter_out_of_range():
    s = get_scenario("co_primary")
    hp = {"beta1_f": -5.0, "beta1_d": 0.3, "rho_w": 1.2, "rho_t": 0.1, "rho_d": -1.0,
          "sigma_t2": 0.0, "sigma_d2": -0.5, "sigma_w2": 3.0, "alpha": 0.05}
    assert s.hypothesis_problems(hp) == [
        "parameter 'rho_w' = 1.2 must be in [-1, 1]",
        "parameter 'sigma_d2' = -0.5 must be >= 0",
    ]
    # a parameter the scenario does not declare is not its to judge
    assert get_scenario("pilot_either").hypothesis_problems({"alpha": 7.0}) == []


def test_objective_formulas():
    s = get_scenario("cluster_rct")
    labels, fn = s.objective_formulas["participants_providers"]
    assert labels == ("participants", "providers")
    assert tuple(fn({"n": 100, "k": 10})) == (200.0, 30.0)
    p = get_scenario("pilot_either")
    labels, fn = p.objective_formulas["pilot_objectives"]
    assert tuple(fn({"n1": 80, "k": 4, "r": 0.5, "j": 10, "a": 0.1})) == (120.0, 4.0, 10.0)


# ---------------------------------------------------------------------------
# scipy.special forms in place of scipy.stats
# ---------------------------------------------------------------------------

ALPHAS = (0.01, 0.025, 0.05, 0.1, 0.2)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_normal_forms_match_scipy_stats_bitwise():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(0.0, 3.0, 20_000), rng.uniform(-40.0, 40.0, 5_000),
                        [0.0, -0.0, 1e-13, -1e-13, 8.3, -8.3, 38.5, -38.5]])
    assert same_bits(ndtr(x), norm.cdf(x))
    assert same_bits(ndtr(-x), norm.sf(x))
    # quantiles at 1 - alpha/2 (two-sided critical values) and 1 - a for the
    # pilot's nominal test size a in (0, 0.5)
    q = np.concatenate([1.0 - rng.uniform(0.0, 0.5, 20_000),
                        [1.0 - a / 2.0 for a in ALPHAS]])
    assert same_bits(ndtri(q), norm.ppf(q))
    for alpha in ALPHAS:
        assert same_bits(_z_crit_two_sided(alpha), norm.ppf(1.0 - alpha / 2.0))


def test_student_t_quantile_matches_scipy_stats_bitwise():
    df = np.arange(1, 400)
    for alpha in ALPHAS:
        q = 1.0 - alpha / 2.0
        assert same_bits(stdtrit(df, q), student_t.ppf(q, df))
        assert same_bits([_t_crit_two_sided(alpha, int(d)) for d in df[:50]],
                         student_t.ppf(q, df[:50]))


def test_chi2_quantile_matches_scipy_stats_bitwise():
    u, _ = _gl_unit_nodes(96)
    for df in range(1, 300):
        assert same_bits(2 * gammaincinv(df / 2, u), chi2.ppf(u, df)), df


def test_importing_cli_leaves_scipy_stats_unloaded():
    src = Path(trialopt.__file__).resolve().parents[1]
    code = "import sys, trialopt.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# prepared batches against the per-replicate simulators they replaced
# ---------------------------------------------------------------------------

def old_two_arm_normal(x, hp, rng):
    n = int(round(x["n"]))
    if n < 2:
        raise ValueError("per-arm n must be >= 2")
    delta = float(hp["delta"])
    sigma = float(hp["sigma"])
    control = rng.normal(0.0, sigma, n)
    treated = rng.normal(delta, sigma, n)
    z = (treated.mean() - control.mean()) / (sigma * math.sqrt(2.0 / n))
    return bool(abs(z) > _z_crit_two_sided(float(hp["alpha"])))


def old_two_arm_binary(x, hp, rng):
    n = int(round(x["n"]))
    if n < 10:
        raise ValueError("per-arm n must be >= 10")
    x0 = rng.binomial(n, float(hp["p0"]))
    x1 = rng.binomial(n, float(hp["p1"]))
    pooled = (x0 + x1) / (2.0 * n)
    se = math.sqrt(2.0 * pooled * (1.0 - pooled) / n)
    if se == 0.0:
        return False
    z = (x1 - x0) / n / se
    return bool(abs(z) > _z_crit_two_sided(float(hp["alpha"])))


def old_cluster_rct_t(x, hp, rng):
    """(t, df), t None when the pooled variance is not positive."""
    k, n2, c, m_i, m_c = _cluster_layout(x)
    beta0 = float(hp.get("beta0", 0.0))
    beta1 = float(hp["beta1"])
    st2 = float(hp["sigma_t2"])
    sd2 = float(hp["sigma_d2"])
    sw2 = float(hp["sigma_w2"])
    a = (beta0 + beta1
         + rng.normal(0.0, math.sqrt(st2), k)
         + rng.normal(0.0, math.sqrt(sd2 / c), k)
         + rng.normal(0.0, math.sqrt(sw2 / m_i), k))
    b = (beta0
         + rng.normal(0.0, math.sqrt(sd2), n2)
         + rng.normal(0.0, math.sqrt(sw2 / m_c), n2))
    df = k + n2 - 2
    sp2 = ((k - 1) * a.var(ddof=1) + (n2 - 1) * b.var(ddof=1)) / df
    if sp2 <= 0.0:
        return None, df
    return (a.mean() - b.mean()) / math.sqrt(sp2 * (1.0 / k + 1.0 / n2)), df


def old_cluster_rct(x, hp, rng):
    t, df = old_cluster_rct_t(x, hp, rng)
    return t is not None and bool(abs(t) > _t_crit_two_sided(float(hp["alpha"]), df))


def old_bivariate(rng, count, var, rho):
    z = rng.standard_normal((count, 2))
    out = np.empty_like(z)
    out[:, 0] = z[:, 0]
    out[:, 1] = rho * z[:, 0] + math.sqrt(max(0.0, 1.0 - rho * rho)) * z[:, 1]
    return out * math.sqrt(var)


def old_endpoint_pair_diff(x, hp, rng):
    n1, k, d_arm, n0 = _arm_level_layout(x)
    st2 = float(hp["sigma_t2"])
    sd2 = float(hp["sigma_d2"])
    sw2 = float(hp["sigma_w2"])
    rho_t = float(hp["rho_t"])
    rho_d = float(hp["rho_d"])
    rho_w = float(hp["rho_w"])
    m_i = n1 / k
    u = old_bivariate(rng, k, st2, rho_t)
    e_i = old_bivariate(rng, k, sw2 / m_i, rho_w)
    w_arm = old_bivariate(rng, 1, sd2 / d_arm, rho_d)[0]
    v_arm = old_bivariate(rng, 1, sd2 / d_arm, rho_d)[0]
    e_c = old_bivariate(rng, 1, sw2 / n0, rho_w)[0]
    return u.mean(axis=0) + e_i.mean(axis=0) + w_arm - v_arm - e_c


def old_co_primary(x, hp, rng):
    effects = np.array([float(hp["beta1_f"]), float(hp["beta1_d"])])
    var, _ = _endpoint_pair_moments(x, hp)
    z = (effects + old_endpoint_pair_diff(x, hp, rng)) / math.sqrt(var)
    zc = _z_crit_two_sided(float(hp["alpha"]))
    return bool(abs(z[0]) > zc and abs(z[1]) > zc)


def old_pilot_either(x, hp, rng):
    a = float(x["a"])
    if not 0.0 < a < 0.5:
        raise ValueError("nominal test size a must be in (0, 0.5)")
    effects = np.array([float(hp["beta1_f"]), float(hp["beta1_d"])])
    var, _ = _endpoint_pair_moments(x, hp)
    z = (effects + old_endpoint_pair_diff(x, hp, rng)) / math.sqrt(var)
    zc = float(ndtri(1.0 - a))
    return bool(z[0] > zc or z[1] > zc)


OLD_SIMULATORS = {
    "two_arm_normal": old_two_arm_normal,
    "two_arm_binary": old_two_arm_binary,
    "cluster_rct": old_cluster_rct,
    "co_primary": old_co_primary,
    "pilot_either": old_pilot_either,
}


def criterion_12_points():
    from test_acceptance import CROSS_VALIDATION_POINTS

    for name, (alt_hp, null_hp, points, null_point) in CROSS_VALIDATION_POINTS.items():
        for x, hp in [(x, alt_hp) for x in points] + [(null_point, null_hp)]:
            yield name, x, hp


# edge seeds of the 64-bit range, then the first few hundred
DRAW_SEEDS = [2**32 - 1, 2**32, 2**64 - 1] + list(range(500))


def filled_rows(batch, seeds):
    """One row per seed, filled from that seed's default_rng stream."""
    rows = np.empty((len(seeds), *batch.shape))
    for row, seed in zip(rows, seeds):
        batch.fill(np.random.default_rng(seed), row)
    return rows


def old_statistic(name, x, hp, seed):
    """The old simulator's statistic on one seed's stream: the cluster t (NaN
    where the pooled variance is not positive) or the pair differences."""
    rng = np.random.default_rng(seed)
    if name == "cluster_rct":
        t, _ = old_cluster_rct_t(x, hp, rng)
        return math.nan if t is None else t
    return old_endpoint_pair_diff(x, hp, rng)


def statistic(name, x, hp):
    """The batch form of ``old_statistic``: rows of draws -> one value a row."""
    if name == "cluster_rct":
        return _cluster_rct_statistic(x, hp)[1]
    return _endpoint_pair_sampler(x, hp)[1]


@pytest.mark.parametrize("name", sorted(OLD_SIMULATORS))
def test_prepared_draw_matches_old_simulator_bitwise(name):
    """Deciding the stacked rows of every seed gives each seed's old decision
    at every criterion-12 point; for the cluster and paired-endpoint
    scenarios the statistics also match, bit for bit."""
    for scenario_name, x, hp in criterion_12_points():
        if scenario_name != name:
            continue
        batch = get_scenario(name).prepare(x, hp)
        rows = filled_rows(batch, DRAW_SEEDS)
        before = rows.copy()
        old = OLD_SIMULATORS[name]
        want = [old(x, hp, np.random.default_rng(seed)) for seed in DRAW_SEEDS]
        assert batch.decide(rows).tolist() == want, (x, hp)
        assert same_bits(rows, before), "decide changed its rows"
        if name == "cluster_rct":
            shape, _, df = _cluster_rct_statistic(x, hp)
            assert shape == batch.shape
            assert df == old_cluster_rct_t(x, hp, np.random.default_rng(0))[1]
        if name in ("cluster_rct", "co_primary", "pilot_either"):
            got = statistic(name, x, hp)(rows)
            assert same_bits(got, [old_statistic(name, x, hp, seed) for seed in DRAW_SEEDS])


def test_cluster_statistic_is_nan_where_pooled_variance_vanishes():
    # no variance components: every cluster mean equals its arm mean
    hp = dict(CLUSTER_HP, sigma_t2=0.0, sigma_d2=0.0, sigma_w2=0.0)
    x = {"n": 100, "k": 5}
    batch = get_scenario("cluster_rct").prepare(x, hp)
    rows = filled_rows(batch, range(4))
    assert np.isnan(_cluster_rct_statistic(x, hp)[1](rows)).all()
    assert not batch.decide(rows).any()
    assert [old_cluster_rct(x, hp, np.random.default_rng(s)) for s in range(4)] == [False] * 4


@given(which=st.integers(0, 24), seed=st.integers(0, 2**64 - 1),
       cuts=st.lists(st.integers(1, 39), max_size=8))
def test_decisions_do_not_depend_on_how_rows_are_blocked(which, seed, cuts):
    """A block's decisions (and the cluster and paired statistics, bit for
    bit) equal those of any split of it into smaller blocks."""
    name, x, hp = list(criterion_12_points())[which]
    batch = get_scenario(name).prepare(x, hp)
    rows = filled_rows(batch, [(seed + i) % 2**64 for i in range(40)])
    bounds = [0, *sorted(set(cuts)), 40]
    parts = [rows[a:b] for a, b in zip(bounds, bounds[1:])]
    singles = [rows[i:i + 1] for i in range(40)]
    whole = batch.decide(rows).tolist()
    for split in (parts, singles):
        assert [d for part in split for d in batch.decide(part).tolist()] == whole
    if name in ("cluster_rct", "co_primary", "pilot_either"):
        stat = statistic(name, x, hp)
        whole = stat(rows)
        for split in (parts, singles):
            assert same_bits(np.concatenate([stat(part) for part in split]), whole)


def traced_peak(fn):
    """Bytes allocated at the peak of a call to ``fn``, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_rows_hold_one_capped_block():
    """At n = 5000 a row is 10,000 doubles, so a block is one row. Beyond
    what deriving the generator states takes (measured on a one-column
    simulator), the estimate holds its block and decide's temporaries, within
    three capped blocks, not the _CHUNK rows an uncapped block would take
    (80 MB here)."""
    sim = get_scenario("two_arm_normal").simulator(
        DesignSpace((Dimension("n", 2, 10_000, "integer"),)))
    hyp = Hypothesis("h", {"delta": 0.05, "sigma": 1.0, "alpha": 0.05})
    n_samples = 2 * _CHUNK + 5
    wide = traced_peak(lambda: mc_estimate(sim, DesignPoint((5000.0,)), hyp,
                                           n_samples, seed=1))

    def one_column(point, hyp):
        return Batch((1,), lambda rng, row: None, lambda rows: np.ones(len(rows), dtype=bool))

    plain = traced_peak(lambda: mc_estimate(one_column, DesignPoint((5000.0,)),
                                            hyp, n_samples, seed=1))
    assert wide - plain <= 3 * _BLOCK_DOUBLES * 8, (wide, plain)


PILOT_X = {"n1": 80, "k": 4, "r": 1.0, "j": 9, "a": 0.15}


@pytest.mark.parametrize("name, x, hp, message", [
    ("two_arm_normal", {"n": 1}, {"delta": 0.5, "sigma": 1.0, "alpha": 0.05},
     "per-arm n must be >= 2"),
    ("two_arm_binary", {"n": 9}, {"p0": 0.1, "p1": 0.25, "alpha": 0.05},
     "per-arm n must be >= 10"),
    ("cluster_rct", {"n": 100, "k": 1}, CLUSTER_HP, "at least 2 therapist clusters"),
    ("cluster_rct", {"n": 10, "k": 10}, CLUSTER_HP, "at least 2 participants"),
    ("cluster_rct", {"n": 100, "k": 10, "j": 21}, CLUSTER_HP, "even integer >= 4"),
    ("cluster_rct", {"n": 100, "k": 2, "j": 2}, CLUSTER_HP, "even integer >= 4"),
    ("cluster_rct", {"n": 100, "k": 10, "j": 10}, CLUSTER_HP, "at least one doctor"),
    ("co_primary", {"n": 100, "k": 1}, CO_HP, "at least 2 therapist clusters"),
    ("co_primary", {"n": 100, "k": 2, "j": 1}, CO_HP, "at least 2 doctors"),
    ("co_primary", {"n": 10, "k": 10}, CO_HP, "at least 2 participants"),
    ("pilot_either", dict(PILOT_X, a=0.5), PILOT_HP, r"a must be in \(0, 0.5\)"),
    ("pilot_either", dict(PILOT_X, a=0.0), PILOT_HP, r"a must be in \(0, 0.5\)"),
    ("pilot_either", dict(PILOT_X, k=1), PILOT_HP, "at least 2 therapist clusters"),
    ("pilot_either", dict(PILOT_X, j=1), PILOT_HP, "at least 2 doctors"),
    ("pilot_either", dict(PILOT_X, n1=7), PILOT_HP, "at least 2 participants"),
    ("pilot_either", dict(PILOT_X, n1=8, r=0.2), PILOT_HP, "control arm needs"),
])
def test_prepare_raises_what_the_old_simulator_raised(name, x, hp, message):
    with pytest.raises(ValueError, match=message):
        OLD_SIMULATORS[name](x, hp, np.random.default_rng(0))
    with pytest.raises(ValueError, match=message):
        get_scenario(name).prepare(x, hp)
