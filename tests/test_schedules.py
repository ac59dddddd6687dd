"""Personalized schedule derivation, baselines, weights, and ranking."""

import numpy as np
import pytest

from postsched import (
    ActionProfile,
    EmptyHistoryError,
    NoSignalError,
    PairTable,
    TimeWindow,
    VisibilityModel,
    WeeklyGrid,
    afd_baseline,
    compute_weights,
    first_degree,
    mfu_baseline,
    second_degree,
    top_k_times,
    uniform_schedule,
    visible_posts,
    weighted_first_degree,
    weighted_second_degree,
)
from postsched.temporal import KIND_AUDIENCE, KIND_CREATED, KIND_DELAYED, Schedule


def prof(values, kind=KIND_DELAYED):
    return ActionProfile(np.asarray(values, dtype=float), kind)


class TestFirstDegree:
    def test_single_member(self):
        s = first_degree({"b0": prof([2, 0])})
        assert np.array_equal(s.probabilities, [1.0, 0.0])
        assert s.provenance == "S1"

    def test_two_members_sum_then_normalize(self):
        s = first_degree({"b0": prof([1, 0]), "b1": prof([0, 3])})
        assert np.allclose(s.probabilities, [0.25, 0.75])

    def test_empty_audience_no_signal(self):
        with pytest.raises(NoSignalError):
            first_degree({})

    def test_inactive_audience_no_signal(self):
        with pytest.raises(NoSignalError):
            first_degree({"b0": prof([0, 0])})


class TestVisiblePosts:
    def test_follows_nobody_gives_beta(self):
        v = visible_posts([], VisibilityModel(), 4)
        assert np.array_equal(v.values, np.ones(4))

    def test_hand_rescale(self):
        v = visible_posts([prof([2, 0], KIND_CREATED)], VisibilityModel(), 2)
        assert np.array_equal(v.values, [3.0, 1.0])

    def test_alpha_zero_constant_beta(self):
        v = visible_posts([prof([5, 1], KIND_CREATED)],
                          VisibilityModel(alpha=0.0, beta=2.5), 2)
        assert np.array_equal(v.values, [2.5, 2.5])

    def test_zero_mean_profile_contributes_nothing(self):
        v = visible_posts([prof([0, 0], KIND_CREATED)], VisibilityModel(), 2)
        assert np.array_equal(v.values, [1.0, 1.0])

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            VisibilityModel(beta=0.0)


class TestSecondDegree:
    def test_hand_division(self):
        s = second_degree({"b0": prof([1, 1])}, {"b0": prof([2, 1], "visible_posts")})
        assert np.allclose(s.probabilities, [1 / 3, 2 / 3])
        assert s.provenance == "S2"

    def test_member_with_zero_reactions_contributes_zero(self):
        s = second_degree(
            {"b0": prof([0, 0]), "b1": prof([1, 0])},
            {"b0": prof([1, 1], "visible_posts"),
             "b1": prof([1, 1], "visible_posts")})
        assert np.array_equal(s.probabilities, [1.0, 0.0])

    def test_duplicate_members_cancel_in_normalization(self):
        single = second_degree({"b0": prof([1, 2])},
                               {"b0": prof([2, 4], "visible_posts")})
        double = second_degree(
            {"b0": prof([1, 2]), "b1": prof([1, 2])},
            {"b0": prof([2, 4], "visible_posts"),
             "b1": prof([2, 4], "visible_posts")})
        assert np.allclose(single.probabilities, double.probabilities)

    def test_rates_clamped_to_one(self):
        # 5 reactions against visibility 1: an invalid probability without
        # the clamp. Both buckets saturate, so the schedule is uniform.
        s = second_degree({"b0": prof([5, 2])},
                          {"b0": prof([1.0, 1.0], "visible_posts")})
        assert np.allclose(s.probabilities, [0.5, 0.5])


class TestWeights:
    def window(self):
        return TimeWindow.from_days(0, 63)

    def test_share_of_reactions(self):
        pairs = PairTable.from_columns(["a0"] * 12, ["b1"] * 3 + ["b2"] * 9,
                                       [100] * 12, [200] * 12)
        w = compute_weights("a0", pairs, self.window())
        assert w["b1"] == pytest.approx(0.25)
        assert w["b2"] == pytest.approx(0.75)
        assert sum(w.values()) == pytest.approx(1.0)

    def test_single_source(self):
        pairs = PairTable.from_columns(["a0"], ["b1"], [100], [200])
        assert compute_weights("a0", pairs) == {"b1": 1.0}

    def test_empty_history(self):
        with pytest.raises(EmptyHistoryError):
            compute_weights("a0", PairTable.from_columns(["other"], ["b1"],
                                                         [100], [200]))

    def test_window_filters_pairs(self):
        outside = PairTable.from_columns(["a0"], ["b1"], [self.window().end + 1],
                                         [self.window().end + 2])
        with pytest.raises(EmptyHistoryError):
            compute_weights("a0", outside, self.window())


class TestWeightedSchedules:
    def test_uniform_weights_match_unweighted(self):
        delayed = {"b0": prof([1, 0]), "b1": prof([0, 3])}
        s1 = first_degree(delayed)
        s1w = weighted_first_degree(delayed, {"b0": 0.5, "b1": 0.5})
        assert np.all(np.abs(s1.probabilities - s1w.probabilities) <= 1e-9)

    def test_hand_weighted_sum(self):
        delayed = {"b0": prof([1, 0]), "b1": prof([0, 1])}
        s = weighted_first_degree(delayed, {"b0": 0.9, "b1": 0.1})
        assert np.allclose(s.probabilities, [0.9, 0.1])
        assert s.provenance == "S1w"

    def test_zero_weight_member_ignored(self):
        delayed = {"b0": prof([1, 0]), "b1": prof([0, 1])}
        s = weighted_first_degree(delayed, {"b0": 1.0})
        assert np.array_equal(s.probabilities, [1.0, 0.0])

    def test_weighted_second_degree(self):
        delayed = {"b0": prof([1, 1]), "b1": prof([2, 0])}
        visible = {"b0": prof([2, 1], "visible_posts"),
                   "b1": prof([4, 1], "visible_posts")}
        s = weighted_second_degree(delayed, visible, {"b0": 1.0, "b1": 0.0})
        assert np.allclose(s.probabilities, [1 / 3, 2 / 3])
        assert s.provenance == "S2w"

    def test_all_zero_weights_no_signal(self):
        delayed = {"b0": prof([1, 0])}
        with pytest.raises(NoSignalError):
            weighted_first_degree(delayed, {})


class TestDoublingInvariance:
    def test_schedules_invariant_under_audience_doubling(self):
        # Valid in the clamp-inactive regime (reaction rates <= 1/2).
        rng = np.random.default_rng(59)
        for _ in range(200):
            n = int(rng.integers(2, 16))
            m = int(rng.integers(1, 6))
            delayed = {f"b{j}": prof(rng.random(n)) for j in range(m)}
            visible = {f"b{j}": prof(rng.random(n) * 3 + 2.5, "visible_posts")
                       for j in range(m)}
            weights = {f"b{j}": float(w)
                       for j, w in enumerate(rng.dirichlet(np.ones(m)))}
            doubled = {b: prof(2 * p.values) for b, p in delayed.items()}
            for fn in (
                lambda d: first_degree(d),
                lambda d: second_degree(d, visible),
                lambda d: weighted_first_degree(d, weights),
                lambda d: weighted_second_degree(d, visible, weights),
            ):
                try:
                    base = fn(delayed).probabilities
                except NoSignalError:
                    continue
                assert np.all(np.abs(base - fn(doubled).probabilities) <= 1e-9)


class TestBaselines:
    def test_mfu_point_mass(self):
        c = np.zeros(8)
        c[5] = 3
        s = mfu_baseline([prof(c, KIND_CREATED)])
        assert s.probabilities[5] == 1.0
        assert s.provenance == "MFU"

    def test_mfu_two_users_equal_counts(self):
        s = mfu_baseline([prof([2, 0, 0], KIND_CREATED),
                          prof([0, 2, 0], KIND_CREATED)])
        assert np.allclose(s.probabilities, [0.5, 0.5, 0.0])

    def test_mfu_empty_cohort(self):
        with pytest.raises(NoSignalError):
            mfu_baseline([])
        with pytest.raises(NoSignalError):
            mfu_baseline([prof([0, 0], KIND_CREATED)])

    def test_afd_single_user_equals_their_s1(self):
        q = prof([1, 3], KIND_AUDIENCE)
        s = afd_baseline([q])
        assert np.allclose(s.probabilities, [0.25, 0.75])
        assert s.provenance == "AFD"

    def test_afd_hand_sum(self):
        s = afd_baseline([prof([1, 0], KIND_AUDIENCE),
                          prof([1, 2], KIND_AUDIENCE)])
        assert np.allclose(s.probabilities, [0.5, 0.5])

    def test_afd_empty(self):
        with pytest.raises(NoSignalError):
            afd_baseline([])


class TestTopKTimes:
    def test_uniform_ties_break_by_index(self):
        g = WeeklyGrid()
        ranked = top_k_times(uniform_schedule(672), 3, g)
        assert [b for b, _ in ranked.entries] == [0, 1, 2]

    def test_ranked_by_probability(self):
        g = WeeklyGrid(4)
        s = Schedule(np.array([0.1, 0.7, 0.2, 0.0]), "S1")
        ranked = top_k_times(s, 2, g)
        assert [b for b, _ in ranked.entries] == [1, 2]

    def test_weekday_filter_excludes_weekend_buckets(self):
        g = WeeklyGrid()
        p = np.zeros(672)
        p[500] = 0.9  # Saturday bucket
        p[10] = 0.1
        s = Schedule(p, "S1")
        ranked = top_k_times(s, 672, g, day_filter="weekday")
        buckets = {b for b, _ in ranked.entries}
        assert 500 not in buckets
        assert all(b < 480 for b in buckets)
        assert ranked.entries[0][0] == 10

    def test_k_larger_than_buckets(self):
        g = WeeklyGrid(4)
        ranked = top_k_times(uniform_schedule(4), 10, g)
        assert len(ranked) == 4

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k_times(uniform_schedule(4), 0, WeeklyGrid(4))

    def test_probabilities_non_increasing(self):
        rng = np.random.default_rng(61)
        g = WeeklyGrid()
        for _ in range(20):
            q = rng.random(672)
            s = Schedule(q / q.sum(), "S1")
            ranked = top_k_times(s, 32, g, "weekday")
            probs = [p for _, p in ranked.entries]
            assert all(a >= b for a, b in zip(probs, probs[1:]))
