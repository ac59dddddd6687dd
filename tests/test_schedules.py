"""Personalized schedule derivation, baselines, weights, and ranking."""

from collections import namedtuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postsched import (
    Adjacency,
    PairTable,
    TimeWindow,
    VisibilityModel,
    WeeklyGrid,
    audience_reaction_profile,
    cohort_sum,
    compute_weights,
    normalize_rows,
    temporal,
    top_k_times,
    visible_posts,
)

Row = namedtuple("Row", "probabilities provenance")


def normalized(sums, kind):
    """The ``kind`` schedule of one row of sums, or None when the row has no
    signal and ``normalize_rows`` drops it."""
    table = normalize_rows(np.asarray(sums)[None], ["t"], kind)
    return Row(table.probabilities[0], table.provenance[0]) if len(table) else None


def schedule(kind, delayed, visible=None, weights=None, n=2):
    """One target's ``kind`` schedule over an audience of every member of
    ``delayed``; ``visible`` and ``weights`` are keyed by member, and a member
    missing from ``weights`` has weight 0."""
    names = list(delayed)
    rows = np.array(list(delayed.values()), dtype=float).reshape(len(names), n)
    audience = Adjacency.from_edges(1, [0] * len(names), range(len(names)))
    v = None if visible is None else np.array([visible[b] for b in names], float)
    w = None if weights is None else np.array([weights.get(b, 0.0) for b in names])
    return normalized(audience_reaction_profile(rows, audience, w, v)[0], kind)


def first_degree(delayed):
    return schedule("S1", delayed)


def second_degree(delayed, visible):
    return schedule("S2", delayed, visible)


def weighted_first_degree(delayed, weights):
    return schedule("S1w", delayed, weights=weights)


def weighted_second_degree(delayed, visible, weights):
    return schedule("S2w", delayed, visible, weights)


def visible_of(creations, model):
    """Visibility row of one member following every row of ``creations``."""
    created = np.array(creations, dtype=float)
    followed = Adjacency.from_edges(1, [0] * len(creations), range(len(creations)))
    return visible_posts(created, followed, model)[0]


def weights_of(user, pairs, window=None):
    """compute_weights for ``user`` with every reactor in ``pairs`` in the
    audience, counting the pairs inside ``window``, as a reactor -> weight
    dict."""
    reactors = sorted(set(pairs.users[pairs.reactor].tolist()))
    if window is not None:
        pairs = pairs.select(window.mask(pairs.post_time))
    audience = Adjacency.from_edges(1, [0] * len(reactors), range(len(reactors)))
    author = np.where(pairs.users[pairs.author] == user, 0, -1)
    reactor = np.searchsorted(reactors, pairs.users[pairs.reactor].astype(str))
    return dict(zip(reactors, compute_weights(author, reactor, audience).tolist()))


def baseline(kind, profiles):
    """The ``kind`` baseline of one cohort holding every profile."""
    rows = np.array(profiles, dtype=float)
    return normalized(cohort_sum(rows, [0] * len(rows), 1)[0], kind)


class TestFirstDegree:
    def test_single_member(self):
        s = first_degree({"b0": [2, 0]})
        assert np.array_equal(s.probabilities, [1.0, 0.0])
        assert s.provenance == "S1"

    def test_two_members_sum_then_normalize(self):
        s = first_degree({"b0": [1, 0], "b1": [0, 3]})
        assert np.allclose(s.probabilities, [0.25, 0.75])

    def test_empty_audience_no_signal(self):
        assert first_degree({}) is None

    def test_inactive_audience_no_signal(self):
        assert first_degree({"b0": [0, 0]}) is None

    def test_sums_per_target_in_member_order(self):
        # Two targets share member 1; each row sums only its own members.
        delayed = np.array([[1.0, 0.0], [0.0, 2.0], [4.0, 4.0]])
        audience = Adjacency.from_edges(2, [1, 0, 1, 0], [2, 1, 1, 0])
        q = audience_reaction_profile(delayed, audience)
        assert np.array_equal(q, [[1.0, 2.0], [4.0, 6.0]])


class TestVisiblePosts:
    def test_follows_nobody_gives_beta(self):
        v = visible_posts(np.zeros((0, 4)), Adjacency.from_edges(1, [], []),
                          VisibilityModel())
        assert np.array_equal(v[0], np.ones(4))

    def test_hand_rescale(self):
        v = visible_of([[2, 0]], VisibilityModel())
        assert np.array_equal(v, [3.0, 1.0])

    def test_alpha_zero_constant_beta(self):
        v = visible_of([[5, 1]], VisibilityModel(alpha=0.0, beta=2.5))
        assert np.array_equal(v, [2.5, 2.5])

    def test_zero_mean_profile_contributes_nothing(self):
        v = visible_of([[0, 0]], VisibilityModel())
        assert np.array_equal(v, [1.0, 1.0])

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            VisibilityModel(beta=0.0)


class TestSecondDegree:
    def test_hand_division(self):
        s = second_degree({"b0": [1, 1]}, {"b0": [2, 1]})
        assert np.allclose(s.probabilities, [1 / 3, 2 / 3])
        assert s.provenance == "S2"

    def test_member_with_zero_reactions_contributes_zero(self):
        s = second_degree({"b0": [0, 0], "b1": [1, 0]},
                          {"b0": [1, 1], "b1": [1, 1]})
        assert np.array_equal(s.probabilities, [1.0, 0.0])

    def test_duplicate_members_cancel_in_normalization(self):
        single = second_degree({"b0": [1, 2]}, {"b0": [2, 4]})
        double = second_degree({"b0": [1, 2], "b1": [1, 2]},
                               {"b0": [2, 4], "b1": [2, 4]})
        assert np.allclose(single.probabilities, double.probabilities)

    def test_rates_clamped_to_one(self):
        # 5 reactions against visibility 1: an invalid probability without
        # the clamp. Both buckets saturate, so the schedule is uniform.
        s = second_degree({"b0": [5, 2]}, {"b0": [1.0, 1.0]})
        assert np.allclose(s.probabilities, [0.5, 0.5])

    def test_rejects_non_positive_visibility(self):
        with pytest.raises(ValueError):
            second_degree({"b0": [1, 1]}, {"b0": [1.0, 0.0]})


class TestWeights:
    def window(self):
        return TimeWindow.from_days(0, 63)

    def test_share_of_reactions(self):
        pairs = PairTable.from_columns(["a0"] * 12, ["b1"] * 3 + ["b2"] * 9,
                                       [100] * 12, [200] * 12)
        w = weights_of("a0", pairs, self.window())
        assert w["b1"] == pytest.approx(0.25)
        assert w["b2"] == pytest.approx(0.75)
        assert sum(w.values()) == pytest.approx(1.0)

    def test_single_source(self):
        pairs = PairTable.from_columns(["a0"], ["b1"], [100], [200])
        assert weights_of("a0", pairs) == {"b1": 1.0}

    def test_empty_history(self):
        # A target that never received a reaction gets zero weights, so its
        # weighted sums carry no mass.
        w = weights_of("a0", PairTable.from_columns(["other"], ["b1"], [100], [200]))
        assert w == {"b1": 0.0}

    def test_window_filters_pairs(self):
        outside = PairTable.from_columns(["a0"], ["b1"], [self.window().end + 1],
                                         [self.window().end + 2])
        assert weights_of("a0", outside, self.window()) == {"b1": 0.0}

    def test_reactions_from_outside_the_audience_count_in_the_total(self):
        audience = Adjacency.from_edges(2, [0, 1], [0, 0])
        # Target 0 received from member 0 once and from an outsider once;
        # target 1 only from member 0.
        w = compute_weights([0, 0, 1], [0, -1, 0], audience)
        assert w.tolist() == [0.5, 1.0]


class TestWeightedSchedules:
    def test_uniform_weights_match_unweighted(self):
        delayed = {"b0": [1, 0], "b1": [0, 3]}
        s1 = first_degree(delayed)
        s1w = weighted_first_degree(delayed, {"b0": 0.5, "b1": 0.5})
        assert np.all(np.abs(s1.probabilities - s1w.probabilities) <= 1e-9)

    def test_hand_weighted_sum(self):
        delayed = {"b0": [1, 0], "b1": [0, 1]}
        s = weighted_first_degree(delayed, {"b0": 0.9, "b1": 0.1})
        assert np.allclose(s.probabilities, [0.9, 0.1])
        assert s.provenance == "S1w"

    def test_zero_weight_member_ignored(self):
        delayed = {"b0": [1, 0], "b1": [0, 1]}
        s = weighted_first_degree(delayed, {"b0": 1.0})
        assert np.array_equal(s.probabilities, [1.0, 0.0])

    def test_weighted_second_degree(self):
        delayed = {"b0": [1, 1], "b1": [2, 0]}
        visible = {"b0": [2, 1], "b1": [4, 1]}
        s = weighted_second_degree(delayed, visible, {"b0": 1.0, "b1": 0.0})
        assert np.allclose(s.probabilities, [1 / 3, 2 / 3])
        assert s.provenance == "S2w"

    def test_all_zero_weights_no_signal(self):
        delayed = {"b0": [1, 0]}
        assert weighted_first_degree(delayed, {}) is None


class TestDoublingInvariance:
    def test_schedules_invariant_under_audience_doubling(self):
        # Valid in the clamp-inactive regime (reaction rates <= 1/2).
        rng = np.random.default_rng(59)
        for _ in range(200):
            n = int(rng.integers(2, 16))
            m = int(rng.integers(1, 6))
            delayed = {f"b{j}": rng.random(n) for j in range(m)}
            visible = {f"b{j}": rng.random(n) * 3 + 2.5 for j in range(m)}
            weights = {f"b{j}": float(w)
                       for j, w in enumerate(rng.dirichlet(np.ones(m)))}
            doubled = {b: 2 * p for b, p in delayed.items()}
            for kind, v, w in (("S1", None, None), ("S2", visible, None),
                               ("S1w", None, weights), ("S2w", visible, weights)):
                base = schedule(kind, delayed, v, w, n)
                if base is None:
                    assert schedule(kind, doubled, v, w, n) is None
                    continue
                twice = schedule(kind, doubled, v, w, n).probabilities
                assert np.all(np.abs(base.probabilities - twice) <= 1e-9)


class TestBaselines:
    def test_mfu_point_mass(self):
        c = np.zeros(8)
        c[5] = 3
        s = baseline("MFU", [c])
        assert s.probabilities[5] == 1.0
        assert s.provenance == "MFU"

    def test_mfu_two_users_equal_counts(self):
        s = baseline("MFU", [[2, 0, 0], [0, 2, 0]])
        assert np.allclose(s.probabilities, [0.5, 0.5, 0.0])

    def test_mfu_empty_cohort(self):
        assert baseline("MFU", np.zeros((0, 2))) is None
        assert baseline("MFU", [[0, 0]]) is None

    def test_afd_single_user_equals_their_s1(self):
        s = baseline("AFD", [[1, 3]])
        assert np.allclose(s.probabilities, [0.25, 0.75])
        assert s.provenance == "AFD"

    def test_afd_hand_sum(self):
        s = baseline("AFD", [[1, 0], [1, 2]])
        assert np.allclose(s.probabilities, [0.5, 0.5])

    def test_afd_empty(self):
        assert baseline("AFD", np.zeros((0, 2))) is None

    def test_cohorts_sum_their_own_rows(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        sums = cohort_sum(rows, [1, 0, 1], 3)
        assert np.array_equal(sums, [[0.0, 1.0], [3.0, 2.0], [0.0, 0.0]])


class TestTopKTimes:
    def test_uniform_ties_break_by_index(self):
        g = WeeklyGrid()
        ranked = top_k_times(np.full(672, 1 / 672), 3, g)
        assert ranked.tolist() == [0, 1, 2]

    def test_ranked_by_probability(self):
        g = WeeklyGrid(4)
        ranked = top_k_times(np.array([0.1, 0.7, 0.2, 0.0]), 2, g)
        assert ranked.tolist() == [1, 2]

    def test_weekday_filter_excludes_weekend_buckets(self):
        g = WeeklyGrid()
        p = np.zeros(672)
        p[500] = 0.9  # Saturday bucket
        p[10] = 0.1
        ranked = top_k_times(p, 672, g, day_filter="weekday")
        buckets = set(ranked.tolist())
        assert 500 not in buckets
        assert all(b < 480 for b in buckets)
        assert ranked[0] == 10

    def test_k_larger_than_buckets(self):
        g = WeeklyGrid(4)
        ranked = top_k_times(np.full(4, 0.25), 10, g)
        assert len(ranked) == 4
        assert top_k_times(np.full((3, 672), 1 / 672), 600, WeeklyGrid(),
                           "weekday").shape == (3, 480)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k_times(np.full(4, 0.25), 0, WeeklyGrid(4))

    def test_length_must_match_grid(self):
        with pytest.raises(ValueError):
            top_k_times(np.full((2, 5), 0.2), 1, WeeklyGrid(4))

    def test_probabilities_non_increasing(self):
        rng = np.random.default_rng(61)
        g = WeeklyGrid()
        for _ in range(20):
            q = rng.random(672)
            p = q / q.sum()
            ranked = top_k_times(p, 32, g, "weekday")
            probs = p[ranked].tolist()
            assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_stack_matches_lexsort_per_row(self):
        # A stack ranks each row as a lexsort on (-probability, bucket)
        # would, ties included, whatever the stack's shape.
        rng = np.random.default_rng(67)
        g = WeeklyGrid(48)
        q = rng.integers(0, 4, size=(500, 48)).astype(float)  # many ties
        q[:, 0] += 1.0
        p = q / q.sum(axis=1, keepdims=True)
        for day_filter in ("all", "weekday", "weekend"):
            idx = np.flatnonzero(g.day_mask(day_filter))
            ranked = top_k_times(p, 7, g, day_filter)
            for row, got in zip(p, ranked):
                want = idx[np.lexsort((idx, -row[idx]))][:7]
                assert got.tolist() == want.tolist()
            stacked = top_k_times(p.reshape(5, 100, 48), 7, g, day_filter)
            assert np.array_equal(stacked.reshape(500, -1), ranked)


@st.composite
def edge_sums(draw):
    """A random graph of ``rows`` targets over ``cols`` members, with
    repeated edges, self-loops and targets without edges, and member rows of
    values whose sums round differently in another order."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                    st.integers(0, cols - 1)), max_size=30))
    pairs += [(i, i) for i in range(min(rows, cols))
              if draw(st.booleans())]
    value = st.one_of(st.sampled_from([0.0, 1.0, 1e-17, 3.0, 1e16, 0.1]),
                      st.floats(0, 1e6))
    n = draw(st.integers(1, 4))
    values = np.array(draw(st.lists(value, min_size=cols * n,
                                    max_size=cols * n))).reshape(cols, n)
    edges = Adjacency.from_edges(rows, [r for r, _ in pairs],
                                 [c for _, c in pairs])
    return edges, values


def sequential_sum(n_rows, edges, row_of_edge):
    """Row r sums ``row_of_edge(e)`` over the edges e out of r, one Python
    float at a time in ascending edge order."""
    out = [[0.0] * n_rows[1] for _ in range(n_rows[0])]
    for e in range(len(edges)):
        r = int(edges.row[e])
        for j, x in enumerate(row_of_edge(e)):
            out[r][j] += x
    return np.array(out).reshape(n_rows)


class TestEdgeSumsAreSequential:
    """Every sum over edges equals one that adds each edge's row in edge
    order, bit for bit, whatever the chunk size."""

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    @settings(max_examples=60)
    @given(case=edge_sums(), weighted=st.booleans(), divided=st.booleans(),
           data=st.data())
    def test_audience_reaction_profile(self, chunk, case, weighted, divided,
                                       data):
        audience, delayed = case
        cols, n = delayed.shape
        visible = (np.array(data.draw(st.lists(
            st.floats(0.25, 1e3), min_size=cols * n, max_size=cols * n)))
            .reshape(cols, n) if divided else None)
        weights = (np.array(data.draw(st.lists(
            st.floats(0, 1), min_size=len(audience), max_size=len(audience))))
            if weighted else None)

        def row_of_edge(e):
            b = int(audience.col[e])
            x = delayed[b].tolist()
            if divided:
                x = [min(d / v, 1.0) for d, v in zip(x, visible[b].tolist())]
            if weighted:
                x = [d * float(weights[e]) for d in x]
            return x

        want = sequential_sum((audience.n_rows, n), audience, row_of_edge)
        with mock.patch.object(temporal, "CHUNK_ROWS", chunk):
            got = audience_reaction_profile(delayed, audience, weights, visible)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    @settings(max_examples=60)
    @given(case=edge_sums())
    def test_visible_posts(self, chunk, case):
        followed, created = case
        n = created.shape[1]
        mean = created.sum(axis=-1) / n
        model = VisibilityModel(alpha=0.75, beta=0.5)

        def row_of_edge(e):
            c = int(followed.col[e])
            if not mean[c] > 0:
                return [0.0] * n  # adds +0.0, which changes no sum
            return [x / float(mean[c]) for x in created[c].tolist()]

        want = sequential_sum((followed.n_rows, n), followed, row_of_edge)
        want = want * model.alpha + model.beta
        with mock.patch.object(temporal, "CHUNK_ROWS", chunk):
            got = visible_posts(created, followed, model)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    @settings(max_examples=60)
    @given(case=edge_sums(), data=st.data())
    def test_cohort_sum(self, chunk, case, data):
        _, values = case
        n_cohorts = data.draw(st.integers(1, 4))
        cohort = data.draw(st.lists(st.integers(0, n_cohorts - 1),
                                    min_size=len(values), max_size=len(values)))
        want = [[0.0] * values.shape[1] for _ in range(n_cohorts)]
        for i, c in enumerate(cohort):
            for j, x in enumerate(values[i].tolist()):
                want[c][j] += x
        with mock.patch.object(temporal, "CHUNK_ROWS", chunk):
            got = cohort_sum(values, cohort, n_cohorts)
        assert got.tobytes() == np.array(want).tobytes()
