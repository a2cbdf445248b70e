import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trialopt.domain import DesignPoint, DesignSpace, Dimension, Hypothesis, mc_variance_of
from trialopt import montecarlo
from trialopt.montecarlo import (
    _BLOCK_DOUBLES,
    _CHUNK,
    Batch,
    McEstimate,
    SimulationError,
    _pcg64_states,
    _replicate_seeds,
    derive_replicate_seed,
    mc_estimate,
)

POINT = DesignPoint((1.0,))
HYP = Hypothesis("h", {})


def every_row(rows):
    """A ``decide`` that rejects in every replicate."""
    return np.ones(len(rows), dtype=bool)


def always_true(point, hyp):
    return Batch((1,), lambda rng, row: None, every_row)


def one_uniform(rng, row):
    row[0] = rng.random()


def fair_coin(point, hyp):
    return Batch((1,), one_uniform, lambda rows: rows[:, 0] < 0.5)


def test_constant_simulator():
    est = mc_estimate(always_true, POINT, HYP, 100, seed=1)
    assert est.mean == 1.0
    assert est.successes == 100
    assert est.variance > 0


def test_fair_coin_large_n():
    est = mc_estimate(fair_coin, POINT, HYP, 100_000, seed=7)
    assert abs(est.mean - 0.5) < 3 * np.sqrt(0.25 / 100_000)


def test_two_arm_ztest_matches_analytic_power():
    from trialopt.simlib import get_scenario
    scenario = get_scenario("two_arm_normal")
    sim = scenario.simulator(DesignSpace((Dimension("n", 10, 200, "integer"),)))
    hyp = Hypothesis("alt", {"delta": 0.5, "sigma": 1.0, "alpha": 0.05})
    est = mc_estimate(sim, DesignPoint((63.0,)), hyp, 100_000, seed=11)
    oracle = scenario.rejection_rate({"n": 63}, hyp.params)
    assert oracle == pytest.approx(0.8013023941055797, abs=1e-12)
    assert abs(est.mean - oracle) < 3 * np.sqrt(oracle * (1 - oracle) / 100_000)


def test_seed_derivation_deterministic_and_distinct():
    s = 123456789
    assert derive_replicate_seed(s, 0, 0) == derive_replicate_seed(s, 0, 0)
    assert derive_replicate_seed(s, 0, 0) != derive_replicate_seed(s, 0, 1)
    assert derive_replicate_seed(s, 0, 0) != derive_replicate_seed(s, 1, 0)
    with pytest.raises(ValueError):
        derive_replicate_seed(s, -1, 0)


def test_seed_derivation_no_collisions_in_a_million():
    s = 42
    seeds = {derive_replicate_seed(s, e, r) for e in range(1000) for r in range(1000)}
    assert len(seeds) == 1_000_000


def test_interval_coverage_calibration():
    # 1000 estimates at N=1000 of a q=0.3 Bernoulli; 1.96-SE coverage ~95%
    q = 0.3

    def sim(point, hyp):
        return Batch((1,), one_uniform, lambda rows: rows[:, 0] < q)

    hits = 0
    for i in range(1000):
        est = mc_estimate(sim, POINT, HYP, 1000, seed=900, eval_index=i)
        half = 1.96 * np.sqrt(est.variance)
        hits += est.mean - half <= q <= est.mean + half
    assert 0.93 <= hits / 1000 <= 0.97


def test_worker_invariance():
    for workers in (1, 4, 16):
        est = mc_estimate(fair_coin, POINT, HYP, 5000, seed=3, workers=workers)
        base = mc_estimate(fair_coin, POINT, HYP, 5000, seed=3, workers=1)
        assert est == base


def test_se_scaling_on_clamped_formula():
    # at a fixed empirical rate the clamped variance scales exactly as 1/N
    assert mc_variance_of(30, 100) / mc_variance_of(120, 400) == pytest.approx(4.0)
    # when the clamp binds (all successes) the scaling is faster than 1/N
    assert mc_variance_of(100, 100) / mc_variance_of(400, 400) > 4.0


def test_simulator_failure_reports_replicate_and_seed():
    def flaky(point, hyp):
        def fill(rng, row):
            if rng.random() < 0.01:
                raise RuntimeError("boom")

        return Batch((1,), fill, every_row)

    with pytest.raises(SimulationError) as info:
        mc_estimate(flaky, POINT, HYP, 2000, seed=5)
    err = info.value
    assert err.replicate_index >= 0
    assert err.seed == derive_replicate_seed(5, 0, err.replicate_index)
    # the stored seed reproduces the failure
    rng = np.random.default_rng(err.seed)
    with pytest.raises(RuntimeError):
        flaky(POINT, HYP).fill(rng, np.empty(1))


def test_simulator_failure_deterministic_across_workers():
    def flaky(point, hyp):
        def fill(rng, row):
            if rng.random() < 0.005:
                raise RuntimeError("boom")

        return Batch((1,), fill, every_row)

    indices = set()
    for workers in (1, 4):
        with pytest.raises(SimulationError) as info:
            mc_estimate(flaky, POINT, HYP, 4000, seed=5, workers=workers)
        indices.add(info.value.replicate_index)
    assert len(indices) == 1


def test_rejects_zero_samples():
    with pytest.raises(ValueError):
        mc_estimate(always_true, POINT, HYP, 0, seed=1)


# ---------------------------------------------------------------------------
# the reused generator draws each replicate's default_rng stream
# ---------------------------------------------------------------------------

def pcg64_state(rng):
    state = rng.bit_generator.state
    return state["state"]["state"], state["state"]["inc"], state["has_uint32"]


def state_and_inc(words):
    """(state, inc) of each row of ``_pcg64_states``' words, low word first."""
    return [(int(s_hi) << 64 | int(s_lo), int(i_hi) << 64 | int(i_lo))
            for s_lo, s_hi, i_lo, i_hi in words.tolist()]


EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


def test_edge_seed_states_equal_default_rng():
    got = state_and_inc(_pcg64_states(np.array(EDGE_SEEDS, dtype=np.uint64)))
    want = [pcg64_state(np.random.default_rng(s))[:2] for s in EDGE_SEEDS]
    assert got == want


@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_array_states_equal_default_rng(seeds):
    seeds = seeds + EDGE_SEEDS
    words = _pcg64_states(np.array(seeds, dtype=np.uint64))
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    assert state_and_inc(words) == [pcg64_state(np.random.default_rng(s))[:2] for s in seeds]


def test_state_set_for_each_replicate_equals_default_rng():
    """Every replicate starts from its default_rng state, across chunk
    boundaries that blocks of 303 rows do not share, although each replicate
    leaves a uint32 buffered (the last of a chunk too)."""
    states, left = [], []

    def record(point, hyp):
        def fill(rng, row):
            states.append(pcg64_state(rng))
            rng.integers(0, 2**31 - 1, size=1, dtype=np.int32)
            left.append(rng.bit_generator.state["has_uint32"])

        return Batch((_BLOCK_DOUBLES // 303,), fill, every_row)

    n = 2 * _CHUNK + 7
    est = mc_estimate(record, POINT, HYP, n, seed=2**40 + 3, eval_index=17)
    assert est.successes == n
    assert left == [1] * n
    assert states == [
        pcg64_state(np.random.default_rng(derive_replicate_seed(2**40 + 3, 17, i)))
        for i in range(n)
    ]


def test_a_wrong_word_order_is_refused_before_any_draw(monkeypatch):
    derived = montecarlo._pcg64_states
    fills = []

    def lo_hi_swapped(seeds):
        return np.ascontiguousarray(derived(seeds)[:, [1, 0, 3, 2]])

    def counted(point, hyp):
        return Batch((1,), lambda rng, row: fills.append(rng.random()), every_row)

    monkeypatch.setattr(montecarlo, "_pcg64_states", lo_hi_swapped)
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
        mc_estimate(counted, POINT, HYP, 100, seed=3)
    assert fills == []


@given(master=st.integers(-2**70, 2**70), eval_index=st.integers(0, 2**32 - 1),
       chunk=st.integers(0, 2**32 // _CHUNK - 1), size=st.integers(1, _CHUNK))
def test_vectorised_seeds_equal_scalar_reference(master, eval_index, chunk, size):
    start = chunk * _CHUNK
    stop = min(start + size, 2**32)
    got = _replicate_seeds(master, eval_index, start, stop).tolist()
    assert got == [derive_replicate_seed(master, eval_index, i) for i in range(start, stop)]


def test_buffered_uint32_does_not_leak_into_the_next_replicate():
    draws = []

    def odd_int32(point, hyp):
        def fill(rng, row):
            # three 32-bit draws leave half of a 64-bit output buffered
            draws.append(rng.integers(0, 2**31 - 1, size=3, dtype=np.int32).tolist()
                         + [rng.random()])

        return Batch((1,), fill, every_row)

    mc_estimate(odd_int32, POINT, HYP, 50, seed=9)
    for i, got in enumerate(draws):
        rng = np.random.default_rng(derive_replicate_seed(9, 0, i))
        want = rng.integers(0, 2**31 - 1, size=3, dtype=np.int32).tolist() + [rng.random()]
        assert got == want, i


def test_estimate_across_chunks_equals_per_replicate_default_rng_loop():
    def sim(point, hyp):
        def fill(rng, row):
            row[:] = rng.normal(0.3, 1.0, 4)

        return Batch((4,), fill, lambda rows: rows.mean(axis=1) > 0.25)

    def reject(rng):
        return bool(rng.normal(0.3, 1.0, 4).mean() > 0.25)

    n = 2 * _CHUNK + 452
    est = mc_estimate(sim, POINT, HYP, n, seed=31, eval_index=5)
    successes = sum(reject(np.random.default_rng(derive_replicate_seed(31, 5, i)))
                    for i in range(n))
    assert est.successes == successes


# ---------------------------------------------------------------------------
# the batch contract
# ---------------------------------------------------------------------------

def test_fill_failure_reports_replicate_and_seed():
    def batch_of(point, hyp):
        def fill(rng, row):
            row[0] = rng.random()
            if row[0] < 0.002:
                raise RuntimeError("boom")

        return Batch((1,), fill, lambda rows: rows[:, 0] < 0.5)

    first = next(i for i in range(3000)
                 if np.random.default_rng(derive_replicate_seed(5, 2, i)).random() < 0.002)
    with pytest.raises(SimulationError) as info:
        mc_estimate(batch_of, POINT, HYP, 3000, seed=5, eval_index=2)
    assert info.value.replicate_index == first
    assert info.value.seed == derive_replicate_seed(5, 2, first)
    assert f"replicate {first} " in str(info.value)


def test_prepare_failure_is_reported_at_replicate_zero():
    def batch_of(point, hyp):
        raise ValueError("layout cannot be simulated")

    with pytest.raises(SimulationError, match="layout cannot be simulated") as info:
        mc_estimate(batch_of, POINT, HYP, 100, seed=8, eval_index=4)
    assert info.value.replicate_index == 0
    assert info.value.seed == derive_replicate_seed(8, 4, 0)


def test_decide_failure_is_reported_at_the_first_replicate_of_its_block():
    def batch_of(point, hyp):
        def decide(rows):
            if len(rows) < _CHUNK:
                raise FloatingPointError("short block")
            return rows[:, 0] > 0.5

        return Batch((1,), lambda rng, row: None, decide)

    # blocks of _CHUNK one-value rows: the third block is the first short one
    with pytest.raises(SimulationError) as info:
        mc_estimate(batch_of, POINT, HYP, 2 * _CHUNK + 10, seed=6)
    assert info.value.replicate_index == 2 * _CHUNK
    assert info.value.seed == derive_replicate_seed(6, 0, 2 * _CHUNK)


def test_a_simulator_returning_no_batch_fails_at_replicate_zero():
    def per_replicate(point, hyp, rng=None):  # the old contract: one outcome a call
        return True

    with pytest.raises(SimulationError, match="must return a Batch") as info:
        mc_estimate(per_replicate, POINT, HYP, 100, seed=8, eval_index=4)
    assert info.value.replicate_index == 0
    assert info.value.seed == derive_replicate_seed(8, 4, 0)


def test_one_chunk_of_generator_states_is_held_at_a_time():
    """A chunk's generator states are freed before the next chunk's are
    derived, so past one chunk the peak does not grow with the sample count."""
    from test_simlib import traced_peak

    def peak(n_samples):
        return traced_peak(lambda: mc_estimate(fair_coin, POINT, HYP, n_samples, seed=1))

    one_chunk, three_chunks = peak(_CHUNK), peak(2 * _CHUNK + 5)
    assert three_chunks <= 500_000, three_chunks
    assert three_chunks - one_chunk <= 50_000, (one_chunk, three_chunks)
