"""Correlation, cosine similarity, cohort aggregation, pair sampling."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postsched import (
    UndefinedMetricError,
    WeeklyGrid,
    cohort_aggregate,
    correlation,
    cosine_similarity,
    pairwise_distribution,
    temporal,
)
from postsched.analysis import city_cohorts
from postsched.ingest import UserTable
from postsched.temporal import ScheduleTable


class TestCorrelation:
    def test_identical_series(self):
        s = np.array([1.0, 3.0, 2.0, 5.0])
        assert correlation(s, s) == pytest.approx(1.0)

    def test_perfect_antiphase(self):
        assert correlation([1, 0, 1, 0], [0, 1, 0, 1]) == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        assert correlation([1, 2, 3], [1, 2, 4]) == pytest.approx(0.98198050606, abs=1e-9)

    def test_zero_variance_undefined(self):
        with pytest.raises(UndefinedMetricError):
            correlation([1, 1, 1], [1, 2, 3])
        with pytest.raises(UndefinedMetricError):
            correlation([1, 2, 3], [5, 5, 5])

    def test_affine_invariance_property(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            s = rng.random(48)
            s[0] += 1.0
            a = float(rng.uniform(0.1, 10))
            b = float(rng.uniform(-5, 5))
            assert abs(correlation(s, a * s + b) - 1.0) <= 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(103)
        x, y = rng.random(32), rng.random(32)
        assert correlation(x, y) == pytest.approx(correlation(y, x), abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            correlation([1, 2], [1, 2, 3])


class TestCosine:
    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_scale_invariance(self):
        s = np.array([2.0, 1.0, 4.0])
        assert cosine_similarity(s, 3 * s) == pytest.approx(1.0)

    def test_hand_value(self):
        assert cosine_similarity([1, 1], [1, 0]) == pytest.approx(1 / np.sqrt(2))

    def test_zero_vector_undefined(self):
        with pytest.raises(UndefinedMetricError):
            cosine_similarity([0, 0], [1, 2])

    def test_symmetry(self):
        rng = np.random.default_rng(107)
        x, y = rng.random(16), rng.random(16)
        assert cosine_similarity(x, y) == pytest.approx(
            cosine_similarity(y, x), abs=1e-15)


class TestCohortAggregate:
    def grid(self):
        return WeeklyGrid()

    def test_single_user_is_their_normalized_series(self):
        g = self.grid()
        s = np.zeros((1, 672))
        s[0, 10] = 4.0
        cohort = cohort_aggregate(s, [0], 0, g, "city")
        assert cohort.series[10] == 1.0
        assert cohort.rows.tolist() == [0]

    def test_identical_users_keep_series(self):
        g = self.grid()
        s = np.random.default_rng(5).random(672)
        cohort = cohort_aggregate([s, s], [0, 0], 0, g)
        assert np.allclose(cohort.series, s / s.sum())

    def test_hour_offset_shifts_four_buckets(self):
        g = self.grid()
        s = np.zeros((1, 672))
        s[0, 10] = 1.0
        # User at UTC+1; the cohort is at UTC. An event in the user's local
        # bucket 10 happened at UTC bucket 6.
        cohort = cohort_aggregate(s, [60], 0, g)
        assert cohort.series[6] == 1.0

    def test_shift_roundtrip(self):
        # A series that sums to 1 exactly, so renormalizing keeps its bits.
        g = self.grid()
        rng = np.random.default_rng(7)
        s = np.zeros(672)
        s[rng.choice(672, 64, replace=False)] = 1 / 64
        there = cohort_aggregate(s[None], [0], -300, g)
        back = cohort_aggregate(there.series[None], [-300], 0, g)
        assert np.array_equal(back.series, s)
        assert not np.array_equal(there.series, s)

    def test_offset_off_the_bucket_grid_rejected(self):
        with pytest.raises(ValueError):
            cohort_aggregate(np.ones((1, 672)), [10], 0, self.grid())

    def test_empty_cohort_undefined(self):
        with pytest.raises(UndefinedMetricError):
            cohort_aggregate(np.zeros((0, 672)), [], 0, self.grid())

    def test_zero_mass_undefined(self):
        with pytest.raises(UndefinedMetricError):
            cohort_aggregate(np.zeros((1, 672)), [0], 0, self.grid())

    def test_mass_weighted_mixing(self):
        g = self.grid()
        rng = np.random.default_rng(11)
        sa = rng.random((3, 672)) * 5
        sb = rng.random((4, 672)) * 2
        union = np.vstack([sa, sb])
        agg_a = cohort_aggregate(sa, np.zeros(3, dtype=int), 0, g)
        agg_b = cohort_aggregate(sb, np.zeros(4, dtype=int), 0, g)
        agg_u = cohort_aggregate(union, np.zeros(7, dtype=int), 0, g)
        mix = sa.sum() * agg_a.series + sb.sum() * agg_b.series
        assert np.allclose(agg_u.series, mix / mix.sum(), atol=1e-12)


def reference_cohorts(s1, users, grid, min_cohort):
    """The cohorts of ``s1`` by per-user dicts, one ``np.roll`` per member in
    id order and a ``Counter`` tie-break: {label: (rows, offset, series)},
    or the user named by an off-grid offset."""
    row_of = {u: i for i, u in enumerate(s1.users.tolist())}
    tz = dict(zip(users.users.tolist(), users.tz_offset_min.tolist()))
    city_members = {}
    for user, city in zip(users.users.tolist(), users.city.tolist()):
        if city and user in row_of:
            city_members.setdefault(city, []).append(user)
    cohort_sets = {"ALL": sorted(row_of)}
    for city, members in sorted(city_members.items()):
        if len(members) >= min_cohort:
            cohort_sets[city] = sorted(members)
    cohorts = {}
    for label, members in cohort_sets.items():
        offsets = {m: tz.get(m, 0) for m in members}
        cohort_tz = Counter(offsets.values()).most_common(1)[0][0]
        acc = np.zeros(grid.buckets_per_week)
        for m in members:
            diff_s = (offsets[m] - cohort_tz) * 60
            if diff_s % grid.bucket_width_s:
                return m
            acc += np.roll(s1.probabilities[row_of[m]],
                           -(diff_s // grid.bucket_width_s))
        cohorts[label] = ([row_of[m] for m in members], cohort_tz,
                          acc / acc.sum())
    return cohorts


NAMES = [f"u{i:02d}" for i in range(24)]
UNLISTED = "not in users.tsv"


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([1, 7, 24, 168, 672]),
       s1_order=st.permutations(NAMES), n_s1=st.integers(1, len(NAMES)),
       cities=st.lists(st.sampled_from([UNLISTED, None, "", "Oslo", "Lima",
                                        "New York, NY"]),
                       min_size=len(NAMES), max_size=len(NAMES)),
       pool=st.lists(st.sampled_from([0, 0, 60, -300, 330, 15, 1440, -10080]),
                     min_size=1, max_size=3),
       picks=st.lists(st.integers(0, 2), min_size=len(NAMES),
                      max_size=len(NAMES)),
       min_cohort=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_city_cohorts_equal_a_per_user_reference(n, s1_order, n_s1, cities, pool,
                                                 picks, min_cohort, seed):
    """S1 rows in random order, users missing from users.tsv and listed
    users without an S1 row; cities with None and ""; offsets on the bucket
    grid and off it. The series match to the bit."""
    grid = WeeklyGrid(n)
    rng = np.random.default_rng(seed)
    probs = rng.random((n_s1, n)) ** 3
    probs[rng.random(probs.shape) < 0.3] = 0.0
    probs[:, rng.integers(n)] += 1e-3
    probs /= probs.sum(axis=1, keepdims=True)
    # Rows a few ulps off a unit sum, as a hand-edited file may hold.
    probs *= 1 + rng.integers(-64, 65, size=(n_s1, 1)) * 2.0**-52
    probs[probs == 0.0] = -0.0
    s1 = ScheduleTable(s1_order[:n_s1], ["S1"] * n_s1, probs)
    listed = [i for i, city in enumerate(cities) if city != UNLISTED]
    users = UserTable.from_columns(
        ["TW"] * len(listed), [NAMES[i] for i in listed],
        [pool[picks[i] % len(pool)] for i in listed], [cities[i] for i in listed])
    want = reference_cohorts(s1, users, grid, min_cohort)
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"user {want!r} has tz offset"):
            city_cohorts(s1, users, grid, min_cohort)
        return
    got = city_cohorts(s1, users, grid, min_cohort)
    assert [c.label for c in got] == sorted(want)
    for cohort in got:
        rows, tz, series = want[cohort.label]
        assert cohort.rows.tolist() == rows
        assert cohort.tz_offset_min == tz
        assert cohort.series.tobytes() == series.tobytes()


class TestPairwiseDistribution:
    def test_point_mass_at_one(self):
        s = np.array([1.0, 2.0, 3.0])
        dist = pairwise_distribution([s], [s], "correlation", 200, seed=1)
        assert dist.counts[-1] == 200
        assert dist.n_valid == 200

    def test_orthogonal_cosine_point_mass_at_zero(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        dist = pairwise_distribution([a], [b], "cosine", 100, seed=2)
        # 0.0 falls in the bin immediately right of the midpoint edge.
        mid = len(dist.counts) // 2
        assert dist.counts[mid] == 100

    def test_seed_determinism(self):
        rng = np.random.default_rng(13)
        cohort = [rng.random(48) for _ in range(10)]
        d1 = pairwise_distribution(cohort, cohort, "correlation", 500, seed=77)
        d2 = pairwise_distribution(cohort, cohort, "correlation", 500, seed=77)
        assert np.array_equal(d1.counts, d2.counts)
        d3 = pairwise_distribution(cohort, cohort, "correlation", 500, seed=78)
        assert not np.array_equal(d1.counts, d3.counts)

    def test_undefined_pairs_skipped_and_counted(self):
        flat = np.ones(8)
        spiky = np.arange(8.0)
        dist = pairwise_distribution([flat, spiky], [spiky], "correlation",
                                     400, seed=3)
        assert dist.n_undefined > 0
        assert dist.n_valid + dist.n_undefined == 400

    def test_all_undefined_raises(self):
        flat = np.ones(8)
        with pytest.raises(UndefinedMetricError):
            pairwise_distribution([flat], [flat], "correlation", 50, seed=4)

    def test_empty_cohort_rejected(self):
        with pytest.raises(UndefinedMetricError):
            pairwise_distribution([], [np.ones(4)], "cosine", 10, seed=5)

    def test_histogram_mass_equals_samples(self):
        rng = np.random.default_rng(17)
        c1 = [rng.random(32) for _ in range(5)]
        c2 = [rng.random(32) for _ in range(7)]
        dist = pairwise_distribution(c1, c2, "cosine", 1000, seed=6)
        assert dist.n_valid == 1000
        assert dist.counts.sum() == dist.n_valid


def loop_distribution(series1, series2, metric, sample_budget, seed):
    """The sampled metric values, clipped, and the undefined count, one
    scalar metric call per draw."""
    fn = {"correlation": correlation, "cosine": cosine_similarity}[metric]
    rng = np.random.default_rng(seed)
    left = rng.integers(0, len(series1), size=sample_budget)
    right = rng.integers(0, len(series2), size=sample_budget)
    values, undefined = [], 0
    for i, j in zip(left, right):
        try:
            values.append(fn(series1[i], series2[j]))
        except UndefinedMetricError:
            undefined += 1
    return np.clip(np.array(values, dtype=np.float64), -1.0, 1.0), undefined


class TestPairwiseAgainstLoop:
    """Scoring each distinct pair once gives the values, counts and
    undefined count of one scalar call per draw, to the bit."""

    @staticmethod
    def cohort(rng, n_rows, n):
        rows = rng.random((n_rows, n)) ** 3
        rows /= rows.sum(axis=1, keepdims=True)
        kind = rng.random(n_rows)
        rows[kind < 0.15] = 1.0 / n   # flat: correlation undefined
        rows[(kind >= 0.15) & (kind < 0.25)] = 0.0  # zero: both undefined
        return rows

    @pytest.mark.parametrize("chunk", [None, 1])
    @pytest.mark.parametrize("metric", ["correlation", "cosine"])
    def test_matches_loop_bit_for_bit(self, monkeypatch, metric, chunk):
        if chunk is not None:
            monkeypatch.setattr(temporal, "CHUNK_ROWS", chunk)
        seen = []
        real_histogram = np.histogram

        def spy(values, *args, **kwargs):
            seen.append(np.array(values))
            return real_histogram(values, *args, **kwargs)
        monkeypatch.setattr(np, "histogram", spy)

        rng = np.random.default_rng(211)
        for case in range(40):
            n = int(rng.choice([3, 24, 168]))
            n1, n2 = (1, int(rng.integers(1, 9))) if case % 4 == 0 else \
                rng.integers(1, 12, size=2)
            c1, c2 = self.cohort(rng, n1, n), self.cohort(rng, n2, n)
            # Budgets below and above the number of distinct pairs.
            budget = int(rng.choice([1, max(1, n1 * n2 // 2), 5 * n1 * n2 + 3]))
            seed = int(rng.integers(1000))
            want, undefined = loop_distribution(c1, c2, metric, budget, seed)
            seen.clear()
            if not len(want):
                with pytest.raises(UndefinedMetricError):
                    pairwise_distribution(c1, c2, metric, budget, seed)
                continue
            dist = pairwise_distribution(c1, c2, metric, budget, seed)
            (got,) = seen
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(dist.counts,
                                  real_histogram(want, bins=dist.bin_edges)[0])
            assert dist.n_undefined == undefined
            assert dist.n_sampled == budget

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distribution([np.ones(3)], [np.arange(4.0)], "cosine", 5,
                                  seed=1)

    @pytest.mark.parametrize("cohorts", [
        (np.arange(4.0), [np.arange(4.0)]),         # a bare series
        ([np.ones(3)], [np.arange(4.0)]),           # two widths
        (np.ones((1, 2, 4)), [np.arange(4.0)]),     # a stack of matrices
    ], ids=["1-D", "widths", "3-D"])
    def test_shape_error_names_the_matrix_rule(self, cohorts):
        with pytest.raises(ValueError, match="^each cohort must be a members "
                                             "x buckets matrix"):
            pairwise_distribution(*cohorts, "cosine", 5, seed=1)
