"""Property tests: the Pareto filter and nondominated mask against the
pairwise definition, hypervolume against a count of unit cells, the batch
staircase sweep and batch hypervolume improvement against plain Python
sweeps, and the normal CDF/quantile forms against ``scipy.stats.norm``; the
last three bit for bit. Also: a set's cached volume is the +inf row of any
batch, bit for bit, and the arrays cached on sets, design spaces and GP
models are read-only."""

import itertools

import numpy as np
import pytest
from scipy.stats import norm

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trialopt.acquisition import (  # noqa: E402
    feasibility_quantile,
    prob_feasible_after,
    quantile_update,
)
from trialopt.domain import DesignPoint, DesignSpace, Dimension  # noqa: E402
from trialopt.gp import KernelParams, build_model  # noqa: E402
from trialopt.pareto import (  # noqa: E402
    ApproximationSet,
    HviCalculator,
    _stairs_of,
    _sweep,
    _volume_with,
    hypervolume,
    nondominated_mask,
    pareto_filter,
)


def ref_nondominated(rows):
    """Indices of the rows no other row dominates, pair by pair; of equal
    rows only the first."""
    return [i for i, r in enumerate(rows)
            if not any(o != r and all(a <= b for a, b in zip(o, r)) for o in rows)
            and r not in rows[:i]]


def ref_volume(rows, ref):
    """Volume dominated by the in-box rows: 1-D ref - min, 2-D a sweep of the
    filtered rows sorted by the first objective, 3-D slices along the third
    objective between the filtered rows' levels, each slice such a sweep."""
    rows = [r for r in rows if all(v < b for v, b in zip(r, ref))]
    rows = [rows[i] for i in ref_nondominated(rows)]
    if not rows:
        return 0.0
    if len(ref) == 1:
        return ref[0] - min(r[0] for r in rows)

    def sweep(front):
        total, prev = 0.0, ref[1]
        for f1, f2 in sorted(front[i] for i in ref_nondominated(front)):
            if f2 < prev:
                total += (ref[0] - f1) * (prev - f2)
                prev = f2
        return total

    if len(ref) == 2:
        return sweep(rows)
    levels = sorted({r[2] for r in rows}) + [ref[2]]
    total = 0.0
    for z, top in zip(levels, levels[1:]):
        total += sweep([r[:2] for r in rows if r[2] <= z]) * (top - z)
    return total


def ref_hvi(aset, candidate):
    """One-candidate hypervolume improvement in plain Python: zero for a
    candidate outside the box or weakly dominated by a member, else the
    volume of the set with the candidate added less the set's own (1-D:
    the best in-box member less the candidate)."""
    ref = tuple(float(v) for v in aset.reference)
    rows = [obj for _, obj in aset.members]
    cand = tuple(float(v) for v in candidate)
    if any(c >= r for c, r in zip(cand, ref)):
        return 0.0
    for obj in rows:
        if all(o <= c for o, c in zip(obj, cand)):
            return 0.0
    if len(ref) == 1:
        inside = [r[0] for r in rows if r[0] < ref[0]]
        return max(0.0, min(inside, default=ref[0]) - cand[0])
    return max(0.0, ref_volume(rows + [cand], ref) - ref_volume(rows, ref))


def same_bits(a, b):
    """Bitwise equality, with every NaN equal."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))
                and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


@st.composite
def hvi_cases(draw):
    """A set on a grid of thirds (ties, duplicates, members on and outside the
    box, sums that round, possibly empty) and candidates that include
    members, points a member dominates, points sharing one coordinate with a
    member, points on the box boundary and points outside it."""
    n_obj = draw(st.integers(1, 3))
    grid = st.integers(0, 24).map(lambda v: v / 3)
    row = st.tuples(*[grid] * n_obj)
    ref = draw(st.tuples(*[st.integers(9, 24).map(lambda v: v / 3)] * n_obj))
    members = draw(st.lists(row, max_size=8))
    floats = st.floats(-1.0, 9.0, allow_nan=False)
    kinds = [row, st.tuples(*[floats] * n_obj), st.just(ref)]
    if members:
        member = st.sampled_from(members)
        offsets = st.tuples(*[st.sampled_from((0.0, 0.5, 1.0))] * n_obj)
        kinds.append(member)
        kinds.append(st.tuples(member, offsets)
                     .map(lambda mo: tuple(m + o for m, o in zip(*mo))))
        kinds.append(st.tuples(member, st.tuples(*[floats] * n_obj), st.integers(0, n_obj - 1))
                     .map(lambda mfi: tuple(m if j == mfi[2] else f
                                            for j, (m, f) in enumerate(zip(*mfi[:2])))))
    cands = draw(st.lists(st.one_of(*kinds), min_size=1, max_size=12))
    aset = ApproximationSet(tuple((DesignPoint(r), r) for r in members), ref)
    return aset, np.array(cands, dtype=float)


@given(hvi_cases())
def test_batch_hvi_matches_one_candidate_sweep(case):
    aset, cands = case
    calc = HviCalculator(aset)
    batch = calc(cands)
    assert batch.shape == (cands.shape[0],)
    for row, got in zip(cands, batch):
        want = ref_hvi(aset, row)
        assert same_bits(got, want)
        single = calc(row[None])
        assert single.shape == (1,)
        assert same_bits(single[0], want)


def test_batch_hvi_2d_rounding_fuzz():
    """Real-valued sets, some filtered to a staircase, and candidates that
    share a coordinate with a member: here a different order of the same
    products changes the last bits."""
    rng = np.random.default_rng(3)
    for trial in range(60):
        objs = rng.uniform(0.0, 11.0, (int(rng.integers(1, 12)), 2))
        objs[1::3, 0] = objs[::3, 0][: len(objs[1::3])]
        members = [(DesignPoint(tuple(o)), tuple(o)) for o in objs]
        if trial % 2:
            members = pareto_filter(members)
        aset = ApproximationSet(tuple(members), (10.0, 10.0))
        cands = rng.uniform(0.0, 11.0, (120, 2))
        cands[::3, 0] = rng.choice(objs[:, 0], 40)
        cands[1::3, 1] = rng.choice(objs[:, 1], 40)
        got = HviCalculator(aset)(cands)
        for row, value in zip(cands, got):
            assert same_bits(value, ref_hvi(aset, row))


def test_batch_hvi_3d_rounding_fuzz():
    """Real-valued 3-D sets, some holding dominated members, and candidates
    that share coordinates with members, dominate them or are dominated by
    them: here splitting a slice, or adding the slices in another order,
    changes the last bits."""
    rng = np.random.default_rng(4)
    for trial in range(60):
        objs = rng.uniform(0.0, 11.0, (int(rng.integers(1, 10)), 3))
        objs[1::3, 2] = objs[::3, 2][: len(objs[1::3])]
        members = [(DesignPoint(tuple(o)), tuple(o)) for o in objs]
        if trial % 2:
            members = pareto_filter(members)
        aset = ApproximationSet(tuple(members), (10.0, 10.0, 10.0))
        cands = rng.uniform(0.0, 11.0, (40, 3))
        cands[::2, 2] = rng.choice(objs[:, 2], 20)
        cands[::3, :2] = objs[rng.integers(0, len(objs), 14), :2] - rng.uniform(0.0, 1.0, (14, 2))
        offsets = rng.uniform(0.0, 1.0, (10, 3)) * (rng.random((10, 3)) < 0.6)
        cands[1::4] = objs[rng.integers(0, len(objs), 10)] + offsets
        got = HviCalculator(aset)(cands)
        for row, value in zip(cands, got):
            assert same_bits(value, ref_hvi(aset, row))


def test_batch_hvi_of_non_finite_candidates_matches_sweep():
    members = ((1.0, 4.0), (2.0, 2.0), (4.0, 1.0))
    aset = ApproximationSet(tuple((DesignPoint(r), r) for r in members), (5.0, 5.0))
    cands = np.array([[np.nan, 0.5], [0.5, np.nan], [-np.inf, 0.5], [0.5, 0.5]])
    got = HviCalculator(aset)(cands)
    for row, value in zip(cands, got):
        assert same_bits(value, ref_hvi(aset, row))


def loop_sweep(rows, cand, ref):
    """Staircase area of sorted 2-D rows with one candidate merged in after
    the rows lexicographically below it, one step at a time."""
    c = tuple(cand)
    steps = [r for r in rows if r < c] + [c] + [r for r in rows if not r < c]
    total, prev = 0.0, ref[1]
    for f1, f2 in steps:
        if f2 < prev:
            total += (ref[0] - f1) * (prev - f2)
            prev = f2
    return total


@st.composite
def sweep_cases(draw):
    """Sorted in-box rows (possibly none, dominated or repeated), on a grid
    of thirds or real-valued, and in-box candidates that include members,
    points tied with a member in one coordinate, and +inf rows."""
    ref = (draw(st.integers(9, 24)) / 3, draw(st.integers(9, 24)) / 3)
    grid = st.integers(0, 8).map(lambda v: v / 3)
    real = st.floats(0.0, 2.999, allow_nan=False)
    value = st.one_of(grid, real)
    rows = sorted(draw(st.lists(st.tuples(value, value), max_size=10)))
    kinds = [st.tuples(value, value), st.just((np.inf, np.inf))]
    if rows:
        member = st.sampled_from(rows)
        kinds += [member,
                  st.tuples(member, value).map(lambda mv: (mv[0][0], mv[1])),
                  st.tuples(member, value).map(lambda mv: (mv[1], mv[0][1]))]
    cands = draw(st.lists(st.one_of(*kinds), min_size=1, max_size=12))
    return rows, cands, ref


@given(sweep_cases())
def test_batch_sweep_matches_loop_sweep(case):
    rows, cands, ref = case
    box = np.array(ref)
    got = _sweep(_stairs_of(np.array(rows, dtype=float).reshape(-1, 2), box),
                 np.array(cands, dtype=float), box)
    assert got.shape == (len(cands),)
    for c, value in zip(cands, got):
        assert same_bits(value, loop_sweep(rows, c, ref))


def test_batch_sweep_rounding_fuzz():
    """Real-valued staircases with 0-20 steps, where adding a row's products
    in another order (or pairwise) changes the last bits."""
    rng = np.random.default_rng(5)
    ref = (10.0, 10.0)
    for trial in range(200):
        k = int(rng.integers(0, 21))
        rows = sorted(map(tuple, rng.uniform(0.0, 10.0, (k, 2)).tolist()))
        cands = rng.uniform(0.0, 10.0, (30, 2))
        if rows:
            cands[::3, 0] = rng.choice([r[0] for r in rows], 10)
            cands[1::3, 1] = rng.choice([r[1] for r in rows], 10)
        cands[-1] = np.inf
        box = np.array(ref)
        got = _sweep(_stairs_of(np.array(rows).reshape(-1, 2), box), cands, box)
        for c, value in zip(cands, got):
            assert same_bits(value, loop_sweep(rows, c, ref))


def test_cached_front_and_space_arrays_are_read_only():
    members = ((1.0, 4.0), (2.0, 2.0), (4.0, 1.0))
    aset = ApproximationSet(tuple((DesignPoint(r), r) for r in members), (5.0, 5.0))
    ref, front = aset._front
    assert aset._front[1] is front  # built once
    assert HviCalculator(aset)._front is front
    space = DesignSpace((Dimension("n", 10, 200, "integer"), Dimension("r", 0.5, 2.0)))
    arrays = [ref, front, space.lower, space.upper, space.integer_mask]
    assert space.lower is space.lower
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0
    assert space.snap([33.6, 3.0]).tolist() == [34.0, 2.0]
    assert front.tolist() == [list(m) for m in members]


@given(hvi_cases())
def test_cached_volume_equals_the_inf_row_of_a_batch_bitwise(case):
    """The set's volume, swept once and cached, is what a +inf row appended
    to any batch of candidates gives: each row is swept on its own."""
    aset, cands = case
    ref = np.array(aset.reference)
    inf = np.full((1, ref.size), np.inf)
    volume = hypervolume(aset)
    assert isinstance(volume, float)
    assert same_bits(volume, aset._volume)
    assert same_bits(volume, _volume_with(aset, inf)[0])
    if ref.size > 1:
        outside = ~(cands < ref).all(axis=1)
        rows = np.where(outside[:, None], np.inf, cands)
        assert same_bits(volume, _volume_with(aset, np.vstack([rows, inf]))[-1])


def test_cached_hvi_and_gp_arrays_are_read_only():
    members = ((1.0, 4.0, 2.0), (2.0, 2.0, 1.0), (4.0, 1.0, 3.0))
    aset = ApproximationSet(tuple((DesignPoint(r), r) for r in members), (5.0, 5.0, 5.0))
    flat = ApproximationSet(tuple((DesignPoint(r), r[:2]) for r in members), (5.0, 5.0))
    space = DesignSpace((Dimension("n", 10, 200, "integer"), Dimension("r", 0.5, 2.0)))
    model = build_model(np.array([[0.1, 0.2], [0.7, 0.4]]), np.array([0.1, -0.2]),
                        np.full(2, 1e-3), KernelParams(0.5, (0.3, 0.6)))
    assert aset._columns is aset._columns  # built once
    assert aset._columns.shape == (3, 3, 1) and aset._columns.flags.c_contiguous
    assert flat._stairs.tolist() == [5 + 5j, 1 + 4j, 2 + 2j, 4 + 1j, 5 + 5j]
    assert model._columns.shape == (2, 2, 1) and model._columns.flags.c_contiguous
    assert model._columns[:, :, 0].T.tolist() == model.inputs.tolist()
    assert model._lengthscales.tolist() == [0.3, 0.6]
    assert space.span.tolist() == [190.0, 1.5]
    for arr in (aset._columns, flat._stairs, space.span, model._columns,
                model._lengthscales):
        with pytest.raises(ValueError):
            arr[0] = 0


small_grid_rows = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(0, 4).map(float)] * d), max_size=12))


@given(small_grid_rows)
def test_pareto_filter_and_mask_match_pairwise_definition(rows):
    keep = ref_nondominated(rows)
    if rows:
        assert nondominated_mask(np.array(rows)).tolist() == [
            i in keep for i in range(len(rows))]
    points = [(DesignPoint((float(i),)), r) for i, r in enumerate(rows)]
    kept = pareto_filter(points)
    want = sorted((points[i] for i in keep), key=lambda m: m[1][0])
    assert len(kept) == len(want)
    for (p, obj), (q, want_obj) in zip(kept, want):
        assert p is q and obj == want_obj  # the first of equal rows survives


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(*[st.integers(0, 7).map(float)] * d), max_size=10),
    st.tuples(*[st.integers(1, 6).map(float)] * d))))
def test_hypervolume_counts_unit_cells_on_integer_grids(case):
    rows, ref = case
    cells = sum(
        any(all(v <= c for v, c in zip(r, cell)) for r in rows)
        for cell in itertools.product(*[range(int(b)) for b in ref])
    )
    for members in (rows, [obj for _, obj in pareto_filter(
            [(DesignPoint((float(i),)), r) for i, r in enumerate(rows)])]):
        aset = ApproximationSet(tuple((DesignPoint(r), r) for r in members), ref)
        assert hypervolume(aset) == cells


def ref_quantile_update(m, s2, omega2_plan, p):
    m = np.asarray(m, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    omega2 = np.asarray(omega2_plan, dtype=float)
    denom = omega2 + s2
    safe = np.where(denom > 0, denom, 1.0)
    s2_plus = np.where(denom > 0, s2 * s2 / safe, 0.0)
    m_plus = m + norm.ppf(p) * np.sqrt(np.where(denom > 0, omega2 * s2 / safe, 0.0))
    return m_plus, s2_plus


def ref_prob_feasible_after(m_plus, s2_plus):
    m_plus = np.asarray(m_plus, dtype=float)
    s = np.sqrt(np.asarray(s2_plus, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s > 0, norm.cdf(-m_plus / np.where(s > 0, s, 1.0)),
                        (m_plus <= 0).astype(float))


means = st.one_of(st.floats(-50.0, 50.0), st.sampled_from((0.0, -0.0, np.inf, -np.inf)))
variances = st.one_of(st.floats(0.0, 10.0), st.sampled_from((0.0, 1e-300, np.inf)))
levels = st.one_of(st.floats(0.5, 0.999999), st.sampled_from((0.5, 0.9, 0.975)))


@given(st.lists(st.tuples(means, variances, variances), min_size=1, max_size=8), levels)
def test_quantile_update_and_feasibility_match_scipy_stats_norm(rows, p):
    m, s2, omega2 = (np.array(c) for c in zip(*rows))
    with np.errstate(invalid="ignore", over="ignore"):
        m_plus, s2_plus = quantile_update(m, s2, omega2, p)
        want_m, want_s2 = ref_quantile_update(m, s2, omega2, p)
        assert same_bits(m_plus, want_m) and same_bits(s2_plus, want_s2)
        assert same_bits(prob_feasible_after(m_plus, s2_plus),
                         ref_prob_feasible_after(want_m, want_s2))
        assert same_bits(feasibility_quantile(m, s2, p), m + norm.ppf(p) * np.sqrt(s2))
        for i in range(len(rows)):
            one_m, one_s2 = quantile_update(m[i], s2[i], omega2[i], p)
            assert isinstance(one_m, float)
            assert same_bits(one_m, want_m[i]) and same_bits(one_s2, want_s2[i])
            one = prob_feasible_after(one_m, one_s2)
            assert isinstance(one, float)
            assert same_bits(one, ref_prob_feasible_after(want_m[i], want_s2[i]))


def test_degenerate_variances_match_scipy_stats_norm():
    m = np.array([0.3, -0.3, 0.0, np.inf, -np.inf, 0.2])
    s2 = np.array([0.0, 0.0, 0.0, 1.0, 1.0, np.inf])
    omega2 = np.array([0.0, 0.1, 0.0, 0.1, 0.0, 0.1])
    with np.errstate(invalid="ignore"):
        got = quantile_update(m, s2, omega2, 0.975)
        want = ref_quantile_update(m, s2, omega2, 0.975)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert same_bits(prob_feasible_after(*got), ref_prob_feasible_after(*want))
