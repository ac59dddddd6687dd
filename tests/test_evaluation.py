"""Reactions-per-message and reaction-gain evaluation."""

import numpy as np
import pytest

from postsched import PairTable, TimeWindow, WeeklyGrid, evaluate_schedules
from postsched.evaluation import (
    UserEvalData,
    build_eval_data,
    reaction_gain,
    rpm_at_rank,
    rpm_overall,
    write_gain_csv,
    write_gain_tsv,
)
from postsched.ingest import PostRecord, PostTable, UserMeta
from postsched.schedules import RankedTimes
from postsched.temporal import Schedule

MONDAY = 1420416000


def data(post_buckets, pair_buckets=(), pair_delays=()):
    return UserEvalData(np.asarray(post_buckets, dtype=np.int64),
                        np.asarray(pair_buckets, dtype=np.int64),
                        np.asarray(pair_delays, dtype=np.int64))


def tables(posts, pairs):
    """Column tables of PostRecords and (author, reactor, post_time,
    reaction_time) rows."""
    columns = list(zip(*pairs)) if pairs else [[], [], [], []]
    return PostTable.from_records(posts), PairTable.from_columns(*columns)


def ranked(*buckets):
    n = len(buckets)
    return RankedTimes(tuple((b, (n - i) / n) for i, b in enumerate(buckets)))


class TestRpm:
    def test_two_posts_three_and_five_reactions(self):
        d = data([7, 7], [7] * 8, [100] * 8)
        assert rpm_at_rank(d, ranked(7), 1) == 4.0

    def test_post_with_no_reactions(self):
        d = data([7])
        assert rpm_at_rank(d, ranked(7), 1) == 0.0

    def test_no_posts_in_bucket_undefined(self):
        d = data([3])
        assert rpm_at_rank(d, ranked(7), 1) is None

    def test_rank_beyond_ranking_undefined(self):
        d = data([7])
        assert rpm_at_rank(d, ranked(7), 2) is None

    def test_reactions_beyond_attribution_ignored(self):
        d = data([7], [7, 7], [100, 25 * 3600])
        assert rpm_at_rank(d, ranked(7), 1) == 1.0

    def test_overall(self):
        d = data([1] * 10, [1] * 20, [50] * 20)
        assert rpm_overall(d) == 2.0

    def test_overall_no_posts_excluded(self):
        assert rpm_overall(data([])) is None

    def test_single_bucket_overall_equals_rank(self):
        d = data([4, 4, 4], [4] * 6, [10] * 6)
        assert rpm_overall(d) == rpm_at_rank(d, ranked(4), 1)


class TestReactionGain:
    def test_ratio(self):
        assert reaction_gain(4.0, 2.0) == 2.0

    def test_equal_is_one(self):
        assert reaction_gain(1.5, 1.5) == 1.0

    def test_zero_bucket_rpm(self):
        assert reaction_gain(0.0, 2.0) == 0.0

    def test_zero_overall_rejected(self):
        with pytest.raises(ValueError):
            reaction_gain(1.0, 0.0)


class TestBuildEvalData:
    def test_window_and_leakage_filter(self):
        window = TimeWindow.from_days(MONDAY, 56)
        grid = WeeklyGrid()
        posts = [
            PostRecord("TW", "u1", "p1", MONDAY + 100),
            PostRecord("TW", "u1", "p2", MONDAY - 100),  # before window
        ]
        pairs = [
            ("u1", "b", MONDAY + 100, MONDAY + 200),
            ("u1", "b", MONDAY - 100, MONDAY + 50),   # post outside
            ("u1", "b", window.end - 10, window.end + 50),  # reaction outside
        ]
        users = [UserMeta("u1", 0, None, "TW")]
        d = build_eval_data(*tables(posts, pairs), users, window, grid)["u1"]
        assert d.n_posts == 1
        assert d.pair_delays.size == 1

    def test_buckets_use_author_timezone(self):
        window = TimeWindow.from_days(MONDAY, 56)
        grid = WeeklyGrid()
        posts = [PostRecord("TW", "u1", "p1", MONDAY)]
        users = [UserMeta("u1", 60, None, "TW")]
        d = build_eval_data(*tables(posts, []), users, window, grid)["u1"]
        assert d.post_buckets[0] == 4


class TestEvaluateSchedules:
    def _flat_user(self, grid, window, rpm_by_bucket):
        """Posts once per bucket occurrence; reactions per rpm_by_bucket."""
        posts = []
        pairs = []
        t = window.start
        i = 0
        while t <= window.end:
            bucket = grid.bucket_index(t)
            posts.append(PostRecord("TW", "u1", f"p{i}", t))
            for _ in range(rpm_by_bucket.get(bucket, 0)):
                pairs.append(("u1", "b", t, t + 60))
            t += grid.bucket_width_s
            i += 1
        return posts, pairs

    def test_uniform_behavior_gives_unit_gain(self):
        grid = WeeklyGrid(672)
        window = TimeWindow.from_days(MONDAY, 14)
        rpm = {b: 2 for b in range(672)}
        posts, pairs = self._flat_user(grid, window, rpm)
        users = [UserMeta("u1", 0, None, "TW")]
        sched = Schedule(np.full(672, 1 / 672), "S1")
        report = evaluate_schedules({"S1": {"u1": sched}}, *tables(posts, pairs),
                                    users, window, grid, k=8)
        for rank in range(1, 9):
            row = report.row("S1", rank)
            assert row.rg_avg == pytest.approx(1.0)
            assert row.n_users == 1

    def test_peaked_behavior_orders_gains(self):
        grid = WeeklyGrid(672)
        window = TimeWindow.from_days(MONDAY, 14)
        rpm = {b: 1 for b in range(672)}
        rpm[10] = 9
        posts, pairs = self._flat_user(grid, window, rpm)
        users = [UserMeta("u1", 0, None, "TW")]
        p = np.ones(672)
        p[10] = 100.0
        sched = Schedule(p / p.sum(), "S1")
        report = evaluate_schedules({"S1": {"u1": sched}}, *tables(posts, pairs),
                                    users, window, grid, k=4)
        assert report.row("S1", 1).rg_avg > 1.0
        assert report.row("S1", 2).rg_avg < 1.0

    def test_zero_rpm_users_excluded_and_counted(self):
        grid = WeeklyGrid(672)
        window = TimeWindow.from_days(MONDAY, 7)
        posts = [PostRecord("TW", "u1", "p1", MONDAY + 900 * 5)]
        users = [UserMeta("u1", 0, None, "TW")]
        sched = Schedule(np.full(672, 1 / 672), "S1")
        report = evaluate_schedules({"S1": {"u1": sched}}, *tables(posts, []),
                                    users, window, grid, k=2)
        assert report.excluded_zero_rpm["S1"] == 1
        assert report.row("S1", 1).n_users == 0
        assert report.row("S1", 1).rg_avg is None

    def test_average_over_contributing_users(self):
        grid = WeeklyGrid(672)
        window = TimeWindow.from_days(MONDAY, 7)
        # u1 gains 2x in bucket 0; u2 posts only in bucket 1 so it cannot
        # contribute at rank 1 of a bucket-0-first schedule.
        posts = [PostRecord("TW", "u1", "p1", MONDAY),
                 PostRecord("TW", "u1", "p2", MONDAY + 900),
                 PostRecord("TW", "u2", "p3", MONDAY + 900)]
        pairs = [("u1", "b", MONDAY, MONDAY + 10),
                 ("u1", "b", MONDAY, MONDAY + 20),
                 ("u2", "b", MONDAY + 900, MONDAY + 910)]
        users = [UserMeta("u1", 0, None, "TW"), UserMeta("u2", 0, None, "TW")]
        p = np.zeros(672)
        p[0] = 0.9
        p[1] = 0.1
        sched = Schedule(p, "S1")
        report = evaluate_schedules({"S1": {"u1": sched, "u2": sched}},
                                    *tables(posts, pairs), users, window, grid, k=2)
        r1 = report.row("S1", 1)
        assert r1.n_users == 1  # only u1 posted in bucket 0
        assert r1.rg_avg == pytest.approx(2.0 / 1.0)
        r2 = report.row("S1", 2)
        assert r2.n_users == 2

    def test_report_writers(self, tmp_path):
        grid = WeeklyGrid(672)
        window = TimeWindow.from_days(MONDAY, 7)
        posts = [PostRecord("TW", "u1", "p1", MONDAY)]
        pairs = [("u1", "b", MONDAY, MONDAY + 10)]
        users = [UserMeta("u1", 0, None, "TW")]
        sched = Schedule(np.full(672, 1 / 672), "S1")
        report = evaluate_schedules({"S1": {"u1": sched}}, *tables(posts, pairs),
                                    users, window, grid, k=3)
        tsv = tmp_path / "gain.tsv"
        csv = tmp_path / "gain.csv"
        write_gain_tsv(report, tsv)
        write_gain_csv(report, csv)
        lines = tsv.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].split("\t")[0] == "S1"
        header = csv.read_text().split("\n")[0]
        assert header == "schedule,rank,rg_avg,users,posts"
