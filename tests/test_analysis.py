"""Correlation, cosine similarity, cohort aggregation, pair sampling."""

import numpy as np
import pytest

from postsched import (
    UndefinedMetricError,
    WeeklyGrid,
    cohort_aggregate,
    correlation,
    cosine_similarity,
    pairwise_distribution,
    temporal,
)
from postsched.analysis import shift_to_offset


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
        s = np.zeros(672)
        s[10] = 4.0
        cohort = cohort_aggregate({"u1": s}, {"u1": 0}, 0, g, "city")
        assert cohort.series[10] == 1.0

    def test_identical_users_keep_series(self):
        g = self.grid()
        s = np.random.default_rng(5).random(672)
        cohort = cohort_aggregate({"u1": s, "u2": s}, {"u1": 0, "u2": 0}, 0, g)
        assert np.allclose(cohort.series, s / s.sum())

    def test_hour_offset_shifts_four_buckets(self):
        g = self.grid()
        s = np.zeros(672)
        s[10] = 1.0
        # User at UTC+1; the cohort is at UTC. An event in the user's local
        # bucket 10 happened at UTC bucket 6.
        cohort = cohort_aggregate({"u1": s}, {"u1": 60}, 0, g)
        assert cohort.series[6] == 1.0

    def test_shift_roundtrip(self):
        g = self.grid()
        rng = np.random.default_rng(7)
        s = rng.random(672)
        out = shift_to_offset(shift_to_offset(s, 0, -300, g), -300, 0, g)
        assert np.array_equal(out, s)

    def test_empty_cohort_undefined(self):
        with pytest.raises(UndefinedMetricError):
            cohort_aggregate({}, {}, 0, self.grid())

    def test_zero_mass_undefined(self):
        with pytest.raises(UndefinedMetricError):
            cohort_aggregate({"u1": np.zeros(672)}, {"u1": 0}, 0, self.grid())

    def test_mass_weighted_mixing(self):
        g = self.grid()
        rng = np.random.default_rng(11)
        sa = {f"a{i}": rng.random(672) * 5 for i in range(3)}
        sb = {f"b{i}": rng.random(672) * 2 for i in range(4)}
        union = dict(sa) | dict(sb)
        offs = {u: 0 for u in union}
        agg_a = cohort_aggregate(sa, offs, 0, g)
        agg_b = cohort_aggregate(sb, offs, 0, g)
        agg_u = cohort_aggregate(union, offs, 0, g)
        mass_a = sum(v.sum() for v in sa.values())
        mass_b = sum(v.sum() for v in sb.values())
        mix = mass_a * agg_a.series + mass_b * agg_b.series
        assert np.allclose(agg_u.series, mix / mix.sum(), atol=1e-12)


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
