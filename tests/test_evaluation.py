"""Reactions-per-message and reaction-gain evaluation."""

import numpy as np
import pytest

from postsched import PairTable, TimeWindow, WeeklyGrid, evaluate_schedules
from postsched.evaluation import (
    GainReport,
    GainRow,
    build_eval_data,
    write_gain_csv,
    write_gain_tsv,
)
from postsched.ingest import PostTable, UserTable
from postsched.temporal import EPOCH_TO_MONDAY, WEEK_SECONDS, ScheduleTable

MONDAY = 1420416000
FILL = 100  # a bucket that no one-user schedule below ranks first


def tables(posts, pairs):
    """Column tables of (network, author, post_id, created_at) rows and of
    (author, reactor, post_time, reaction_time) rows."""
    def columns(rows):
        return list(zip(*rows)) if rows else [[], [], [], []]
    return PostTable.from_columns(*columns(posts)), PairTable.from_columns(*columns(pairs))


def table(schedules, kind="S1"):
    """A schedule table of a user -> probabilities dict."""
    return ScheduleTable(list(schedules), [kind] * len(schedules),
                         np.array(list(schedules.values()), dtype=float))


def tz_table(offsets):
    """A UserTable of a user -> tz offset dict."""
    return UserTable.from_columns(["TW"] * len(offsets), list(offsets),
                                  list(offsets.values()), [None] * len(offsets))


def one_user(post_buckets, reactions=(), ranking=(7,), k=1, grid=WeeklyGrid()):
    """Gain report of one user u1, who posted once per entry of
    ``post_buckets`` in the first week and received one reaction per
    (bucket, delay) in ``reactions``, on an S1 schedule that ranks the
    buckets of ``ranking`` first, in that order."""
    window = TimeWindow.from_days(MONDAY, 56)
    width = grid.bucket_width_s
    posts = [("TW", "u1", f"p{i}", MONDAY + b * width)
             for i, b in enumerate(post_buckets)]
    pairs = [("u1", "b", MONDAY + b * width, MONDAY + b * width + delay)
             for b, delay in reactions]
    p = np.zeros(grid.buckets_per_week)
    p[list(ranking)] = np.arange(len(ranking), 0, -1)
    return evaluate_schedules({"S1": table({"u1": p / p.sum()})},
                              *tables(posts, pairs),
                              tz_table({"u1": 0}), window, grid,
                              k=k, day_filter="all")


class TestRpm:
    # Each case pads the user with posts in an unranked bucket (FILL) so
    # that the overall RPM is 1: the rank-1 gain then equals the RPM there.
    def test_two_posts_three_and_five_reactions(self):
        report = one_user([7, 7] + [FILL] * 6, [(7, 100)] * 8)
        assert report.row("S1", 1).rg_avg == 4.0
        assert report.row("S1", 1).n_posts == 2

    def test_post_with_no_reactions(self):
        report = one_user([7, FILL], [(FILL, 100)] * 2)
        assert report.row("S1", 1).rg_avg == 0.0

    def test_no_posts_in_bucket_undefined(self):
        row = one_user([3], [(3, 100)]).row("S1", 1)
        assert row.rg_avg is None
        assert row.n_users == 0

    def test_rank_beyond_ranking_undefined(self):
        # One bucket per week: rank 2 exists in no ranking.
        report = one_user([0], [(0, 100)], ranking=(0,), k=2, grid=WeeklyGrid(1))
        assert report.row("S1", 1).rg_avg == 1.0
        assert report.row("S1", 2).rg_avg is None
        assert report.row("S1", 2).n_users == 0

    def test_reactions_beyond_attribution_ignored(self):
        report = one_user([7, FILL], [(7, 100), (7, 25 * 3600), (FILL, 100)])
        assert report.row("S1", 1).rg_avg == 1.0

    def test_overall(self):
        # 22 attributed reactions over 11 posts: overall RPM 2.0, which the
        # rank-1 bucket's RPM of 4 is divided by.
        report = one_user([1] * 10 + [7], [(1, 50)] * 18 + [(7, 50)] * 4)
        assert report.row("S1", 1).rg_avg == 4.0 / 2.0

    def test_overall_no_posts_excluded(self):
        # Reactions to u1 but no post by u1 in the window: no RPM at all,
        # so u1 is neither scored nor counted as a zero-RPM user.
        report = one_user([], [(7, 100)])
        assert report.row("S1", 1).n_users == 0
        assert report.excluded_zero_rpm["S1"] == 0

    def test_single_bucket_overall_equals_rank(self):
        report = one_user([4, 4, 4], [(4, 10)] * 6, ranking=(4,))
        assert report.row("S1", 1).rg_avg == 1.0


class TestReactionGain:
    def test_ratio(self):
        # RPM 4 at rank 1 over an overall RPM of 4 / 2.
        assert one_user([7, FILL], [(7, 100)] * 4).row("S1", 1).rg_avg == 2.0

    def test_equal_is_one(self):
        assert one_user([7, 7], [(7, 100)] * 3).row("S1", 1).rg_avg == 1.0

    def test_zero_bucket_rpm(self):
        report = one_user([7, FILL], [(FILL, 100)] * 4)
        assert report.row("S1", 1).rg_avg == 0.0

    def test_zero_overall_rejected(self):
        report = one_user([7])
        assert report.excluded_zero_rpm["S1"] == 1
        assert report.row("S1", 1).rg_avg is None
        assert report.row("S1", 1).n_users == 0


class TestBuildEvalData:
    def test_window_and_leakage_filter(self):
        window = TimeWindow.from_days(MONDAY, 56)
        grid = WeeklyGrid()
        posts = [
            ("TW", "u1", "p1", MONDAY + 100),
            ("TW", "u1", "p2", MONDAY - 100),  # before window
        ]
        pairs = [
            ("u1", "b", MONDAY + 100, MONDAY + 200),
            ("u1", "b", MONDAY - 100, MONDAY + 50),   # post outside
            ("u1", "b", window.end - 10, window.end + 50),  # reaction outside
        ]
        users = tz_table({"u1": 0})
        d = build_eval_data(*tables(posts, pairs), users, window, grid)
        posted = d.posts.row_sums > 0
        assert d.users[posted].tolist() == ["u1"]
        assert (d.posts.row_sums[posted].tolist()
                == d.reactions.row_sums[posted].tolist() == [1])

    def test_buckets_use_author_timezone(self):
        window = TimeWindow.from_days(MONDAY, 56)
        grid = WeeklyGrid()
        posts = [("TW", "u1", "p1", MONDAY)]
        users = tz_table({"u1": 60})
        d = build_eval_data(*tables(posts, []), users, window, grid)
        assert d.posts.at(0, 4) == 1

    def test_attribution_limit_is_exclusive(self):
        window = TimeWindow.from_days(MONDAY, 56)
        posts = [("TW", "u1", "p1", MONDAY)]
        pairs = [("u1", "b", MONDAY, MONDAY + 24 * 3600 - 1),
                 ("u1", "b", MONDAY, MONDAY + 24 * 3600),
                 ("u2", "b", MONDAY, MONDAY + 10)]  # u2 posted nothing
        d = build_eval_data(*tables(posts, pairs), tz_table({}), window,
                            WeeklyGrid())
        assert d.users[d.posts.row_sums > 0].tolist() == ["u1"]
        assert d.reactions.at(d.users.tolist().index("u1"), 0) == 1


class TestEvaluateSchedules:
    def _flat_user(self, grid, window, rpm_by_bucket):
        """Posts once per bucket occurrence; reactions per rpm_by_bucket."""
        posts = []
        pairs = []
        t = window.start
        i = 0
        while t <= window.end:
            bucket = grid.bucket_index(t)
            posts.append(("TW", "u1", f"p{i}", t))
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
        users = tz_table({"u1": 0})
        sched = np.full(672, 1 / 672)
        report = evaluate_schedules({"S1": table({"u1": sched})}, *tables(posts, pairs),
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
        users = tz_table({"u1": 0})
        p = np.ones(672)
        p[10] = 100.0
        sched = p / p.sum()
        report = evaluate_schedules({"S1": table({"u1": sched})}, *tables(posts, pairs),
                                    users, window, grid, k=4)
        assert report.row("S1", 1).rg_avg > 1.0
        assert report.row("S1", 2).rg_avg < 1.0

    def test_zero_rpm_users_excluded_and_counted(self):
        grid = WeeklyGrid(672)
        window = TimeWindow.from_days(MONDAY, 7)
        posts = [("TW", "u1", "p1", MONDAY + 900 * 5)]
        users = tz_table({"u1": 0})
        sched = np.full(672, 1 / 672)
        report = evaluate_schedules({"S1": table({"u1": sched})}, *tables(posts, []),
                                    users, window, grid, k=2)
        assert report.excluded_zero_rpm["S1"] == 1
        assert report.row("S1", 1).n_users == 0
        assert report.row("S1", 1).rg_avg is None

    def test_average_over_contributing_users(self):
        grid = WeeklyGrid(672)
        window = TimeWindow.from_days(MONDAY, 7)
        # u1 gains 2x in bucket 0; u2 posts only in bucket 1 so it cannot
        # contribute at rank 1 of a bucket-0-first schedule.
        posts = [("TW", "u1", "p1", MONDAY),
                 ("TW", "u1", "p2", MONDAY + 900),
                 ("TW", "u2", "p3", MONDAY + 900)]
        pairs = [("u1", "b", MONDAY, MONDAY + 10),
                 ("u1", "b", MONDAY, MONDAY + 20),
                 ("u2", "b", MONDAY + 900, MONDAY + 910)]
        users = tz_table({"u1": 0, "u2": 0})
        p = np.zeros(672)
        p[0] = 0.9
        p[1] = 0.1
        sched = p
        report = evaluate_schedules({"S1": table({"u1": sched, "u2": sched})},
                                    *tables(posts, pairs), users, window, grid, k=2)
        r1 = report.row("S1", 1)
        assert r1.n_users == 1  # only u1 posted in bucket 0
        assert r1.rg_avg == pytest.approx(2.0 / 1.0)
        r2 = report.row("S1", 2)
        assert r2.n_users == 2

    def test_report_writers(self, tmp_path):
        grid = WeeklyGrid(672)
        window = TimeWindow.from_days(MONDAY, 7)
        posts = [("TW", "u1", "p1", MONDAY)]
        pairs = [("u1", "b", MONDAY, MONDAY + 10)]
        users = tz_table({"u1": 0})
        sched = np.full(672, 1 / 672)
        report = evaluate_schedules({"S1": table({"u1": sched})}, *tables(posts, pairs),
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

class TestBaselines:
    def test_each_user_scored_on_their_timezone_row(self):
        grid = WeeklyGrid(672)
        window = TimeWindow.from_days(MONDAY, 7)
        # u1 (UTC+1) posts at local bucket 4, u2 (no metadata: UTC) at 0 and
        # u3 (UTC+5:30) at 22, each once and with one reaction.
        names = ("u1", "u2", "u3")
        posts = [("TW", u, f"p{u}", MONDAY) for u in names]
        pairs = [(u, "b", MONDAY, MONDAY + 10) for u in names]
        users = tz_table({"u1": 60, "u3": 330})
        first = {4: np.eye(672)[4], 0: np.eye(672)[0]}
        mfu = ScheduleTable(["tz:0", "tz:60"], ["MFU", "MFU"],
                            np.array([first[0], first[4]]))
        afd = ScheduleTable(["tz:-300"], ["AFD"], np.array([first[0]]))
        s1 = table({u: np.full(672, 1 / 672) for u in reversed(names)})
        report = evaluate_schedules({"S1": s1}, *tables(posts, pairs), users,
                                    window, grid, k=1,
                                    baselines={"MFU": mfu, "AFD": afd})
        # The users of S1 are scored on the baselines. u1 and u2 hit their
        # only posting bucket at rank 1 of MFU; u3's timezone has no MFU row,
        # so u3 is left out of it. No user is in the AFD cohort, so AFD is
        # left out of the report. S1 ranks bucket 0 first, where only u2
        # posted.
        assert report.row("MFU", 1) == GainRow("MFU", 1, 1.0, 2, 2)
        assert report.row("S1", 1) == GainRow("S1", 1, 1.0, 1, 1)
        assert {r.schedule for r in report.rows} == {"MFU", "S1"}


def brute_gain_report(kinds, baselines, baseline_users, posts, pairs, tz,
                      window, n_buckets, k, day_filter, attribution_s=86400):
    """The gain report by plain loops over raw rows: ``posts`` are (author,
    time), ``pairs`` (author, reactor, post_time, reaction_time), ``kinds``
    and ``baselines`` kind -> {key: probability list}, baselines keyed by
    ``tz:<offset>``."""
    width = WEEK_SECONDS // n_buckets

    def bucket(t, user):
        return (t + tz.get(user, 0) * 60 + EPOCH_TO_MONDAY) % WEEK_SECONDS // width

    def inside(t):
        return window.start <= t <= window.end

    posted, reacted = {}, {}
    for author, t in posts:
        if inside(t):
            counts = posted.setdefault(author, {})
            counts[bucket(t, author)] = counts.get(bucket(t, author), 0) + 1
    for author, _, post_t, react_t in pairs:
        if inside(post_t) and inside(react_t) and react_t - post_t < attribution_s:
            counts = reacted.setdefault(author, {})
            counts[bucket(post_t, author)] = counts.get(bucket(post_t, author), 0) + 1
    days = {"all": range(7), "weekday": range(5), "weekend": range(5, 7)}[day_filter]
    allowed = [b for b in range(n_buckets) if b * width // 86400 in days]

    assigned = dict(kinds)
    for kind, per_tz in baselines.items():
        mine = {u: per_tz[f"tz:{tz.get(u, 0)}"] for u in baseline_users
                if f"tz:{tz.get(u, 0)}" in per_tz}
        if mine:
            assigned[kind] = mine
    rows, excluded = [], {}
    for kind in sorted(assigned):
        gains = [[] for _ in range(k)]
        posts_at = [0] * k
        excluded[kind] = 0
        for user in sorted(assigned[kind]):
            if user not in posted:
                continue
            overall = sum(reacted.get(user, {}).values()) / sum(posted[user].values())
            if overall == 0:
                excluded[kind] += 1
                continue
            probs = assigned[kind][user]
            ranking = sorted(allowed, key=lambda b: (-probs[b], b))[:k]
            for rank, b in enumerate(ranking):
                n = posted[user].get(b, 0)
                if n:
                    gains[rank].append(reacted.get(user, {}).get(b, 0) / n / overall)
                    posts_at[rank] += n
        rows += [GainRow(kind, r + 1, float(np.mean(g)) if g else None, len(g),
                         posts_at[r]) for r, g in enumerate(gains)]
    return GainReport(tuple(rows), k, day_filter, excluded)


def random_case(rng):
    """A small random population with every edge case evaluation has: users
    without metadata, zero-RPM users, reactions to users without in-window
    posts, reactions exactly at the 24 h limit, tied probabilities, and k
    beyond the filtered buckets."""
    n_buckets = int(rng.choice([7, 14, 28, 56]))
    window = TimeWindow.from_days(MONDAY + int(rng.integers(0, 86400)),
                                  int(rng.integers(3, 15)))
    names = [f"u{i:02d}" for i in range(int(rng.integers(1, 12)))]
    tz = {u: int(rng.choice([-300, 0, 60, 330])) for u in names
          if rng.random() < 0.7}
    posts, pairs = [], []
    for u in names:
        for _ in range(int(rng.integers(0, 10))):
            t = int(rng.integers(window.start - 2 * 86400, window.end + 2 * 86400))
            posts.append((u, t))
            for _ in range(int(rng.integers(0, 4)) * (rng.random() < 0.6)):
                delay = int(rng.choice([0, 86399, 86400, 86401,
                                        int(rng.integers(0, 3 * 86400))]))
                pairs.append((u, f"r{rng.integers(0, 5)}", t, t + delay))
    for _ in range(int(rng.integers(0, 4))):  # no post in the posts table
        t = int(rng.integers(window.start, window.end))
        pairs.append((str(rng.choice(names + ["x"])), "r0", t, t + 60))

    def schedules(keys):
        out = {}
        for key in rng.permutation(keys).tolist():  # rows in any order
            q = rng.integers(0, 3, size=n_buckets).astype(float)
            q[rng.integers(0, n_buckets)] += 1.0
            out[key] = (q / q.sum()).tolist()
        return out

    pool = names + ["ghost"]
    kinds = {kind: schedules([u for u in pool if rng.random() < 0.6])
             for kind in ("S1", "S2w") if rng.random() < 0.8}
    labels = [f"tz:{off}" for off in (-300, 0, 60, 330)]
    baselines = {kind: schedules([l for l in labels if rng.random() < 0.6])
                 for kind in ("AFD", "MFU")}
    # The baselines score the users of the personalized kinds.
    baseline_users = sorted({u for rows in kinds.values() for u in rows})
    k = int(rng.integers(1, n_buckets + 4))
    day_filter = str(rng.choice(["all", "weekday", "weekend"]))
    return (kinds, baselines, baseline_users, posts, pairs, tz, window,
            n_buckets, k, day_filter)


def test_gain_report_matches_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(250):
        case = random_case(rng)
        (kinds, baselines, baseline_users, posts, pairs, tz, window,
         n_buckets, k, day_filter) = case
        post_table = PostTable.from_columns(
            ["TW"], [a for a, _ in posts], [f"p{i}" for i in range(len(posts))],
            [t for _, t in posts])
        pair_table = PairTable.from_columns(*(list(c) for c in zip(*pairs))) \
            if pairs else PairTable.from_columns([], [], [], [])
        users = tz_table(tz)

        def as_tables(by_kind):
            return {kind: ScheduleTable(list(rows), [kind] * len(rows),
                                        np.array(list(rows.values())).reshape(
                                            len(rows), n_buckets))
                    for kind, rows in by_kind.items()}

        got = evaluate_schedules(as_tables(kinds), post_table, pair_table, users,
                                 window, WeeklyGrid(n_buckets), k=k,
                                 day_filter=day_filter,
                                 baselines=as_tables(baselines))
        assert got == brute_gain_report(*case)
