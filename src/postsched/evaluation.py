"""Held-out scoring of posting schedules with a reaction-gain metric.

A schedule ranks a user's weekly buckets. Over a disjoint evaluation window
each rank is scored by reactions-per-message (RPM): reactions received
within 24 hours of posts created in that rank's bucket, divided by the
posts created there. ReactionGain is the ratio of a rank's RPM to the
user's overall RPM; values above 1 mean posting at that rank beats the
user's average. Per-rank population means (with contributor counts) make
up the gain report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ingest import PairTable, PostTable, UserMeta, group_by_user
from .schedules import RankedTimes, top_k_times
from .temporal import Schedule, TimeWindow, WeeklyGrid

ATTRIBUTION_WINDOW_S = 24 * 3600

DEFAULT_RANKS = 32


@dataclass(frozen=True)
class UserEvalData:
    """A user's evaluation-window events, pre-bucketized in local time.

    Only events timestamped inside the evaluation window are admitted, so
    derivation-window history can never leak into the metrics.
    """

    post_buckets: np.ndarray   # bucket of each post the user created
    pair_buckets: np.ndarray   # bucket of the reacted-to post, one per reaction received
    pair_delays: np.ndarray    # post-to-reaction delay of each such reaction

    @property
    def n_posts(self) -> int:
        return int(self.post_buckets.size)


def build_eval_data(posts: PostTable, pairs: PairTable,
                    users: list[UserMeta], window: TimeWindow,
                    grid: WeeklyGrid) -> dict[str, UserEvalData]:
    """Index in-window posts and received reactions per author."""
    tz = {u.user: u.tz_offset_min for u in users}
    post_rows = group_by_user(posts.users, posts.author,
                              window.mask(posts.created_at))
    pair_rows = group_by_user(
        pairs.users, pairs.author,
        window.mask(pairs.post_time) & window.mask(pairs.reaction_time))
    delay = pairs.delay

    none = np.empty(0, dtype=np.int64)
    data = {}
    for user in set(post_rows) | set(pair_rows):
        off = tz.get(user, 0)
        rows = pair_rows.get(user, none)
        pb = grid.bucket_indices(posts.created_at[post_rows.get(user, none)], off)
        rb = grid.bucket_indices(pairs.post_time[rows], off)
        data[user] = UserEvalData(pb, rb, delay[rows])
    return data


def _rpm_in_bucket(data: UserEvalData, bucket: int,
                   attribution_s: int) -> float | None:
    posts = int((data.post_buckets == bucket).sum())
    if posts == 0:
        return None
    reactions = int(((data.pair_buckets == bucket)
                     & (data.pair_delays < attribution_s)).sum())
    return reactions / posts


def rpm_at_rank(data: UserEvalData, ranked: RankedTimes, rank: int,
                attribution_s: int = ATTRIBUTION_WINDOW_S) -> float | None:
    """Reactions-per-message in the rank-th recommended bucket.

    Returns None (undefined) when the user created no posts in that bucket
    during the window, or when the ranking has fewer than ``rank`` entries;
    such users are excluded from that rank's average.
    """
    if rank < 1 or rank > len(ranked):
        return None
    return _rpm_in_bucket(data, ranked.bucket(rank), attribution_s)


def rpm_overall(data: UserEvalData,
                attribution_s: int = ATTRIBUTION_WINDOW_S) -> float | None:
    """All attributed reactions over all posts, across every bucket.

    None when the user created no posts in the window (the user is excluded
    from evaluation entirely).
    """
    if data.n_posts == 0:
        return None
    reactions = int((data.pair_delays < attribution_s).sum())
    return reactions / data.n_posts


def reaction_gain(rpm_bucket: float, rpm_user: float) -> float:
    """RPM at a rank over the user's overall RPM; requires overall RPM > 0."""
    if rpm_user <= 0:
        raise ValueError("overall RPM must be positive")
    return rpm_bucket / rpm_user


@dataclass(frozen=True)
class GainRow:
    schedule: str
    rank: int
    rg_avg: float | None  # None when no user posted in that rank's bucket
    n_users: int
    n_posts: int


@dataclass(frozen=True)
class GainReport:
    rows: tuple[GainRow, ...]
    k: int
    day_filter: str
    excluded_zero_rpm: Mapping[str, int]  # per schedule: users with posts but RPM 0

    def row(self, schedule: str, rank: int) -> GainRow:
        for r in self.rows:
            if r.schedule == schedule and r.rank == rank:
                return r
        raise KeyError((schedule, rank))


def evaluate_schedules(schedules_by_kind: Mapping[str, Mapping[str, Schedule]],
                       posts: PostTable, pairs: PairTable,
                       users: list[UserMeta], window: TimeWindow,
                       grid: WeeklyGrid, k: int = DEFAULT_RANKS,
                       day_filter: str = "weekday",
                       attribution_s: int = ATTRIBUTION_WINDOW_S) -> GainReport:
    """Average ReactionGain per rank for each schedule kind.

    Users are excluded per rank when they created no posts in that rank's
    bucket, and excluded from a schedule entirely (and counted) when their
    overall RPM is zero despite having posts.
    """
    eval_data = build_eval_data(posts, pairs, users, window, grid)
    rows: list[GainRow] = []
    excluded: dict[str, int] = {}
    for kind in sorted(schedules_by_kind):
        per_user = schedules_by_kind[kind]
        gains: list[list[float]] = [[] for _ in range(k)]
        posts_at: list[int] = [0] * k
        n_zero = 0
        for user in sorted(per_user):
            data = eval_data.get(user)
            if data is None:
                continue
            overall = rpm_overall(data, attribution_s)
            if overall is None:
                continue
            if overall == 0:
                n_zero += 1
                continue
            ranked = top_k_times(per_user[user], k, grid, day_filter)
            for rank in range(1, min(k, len(ranked)) + 1):
                rpm_k = rpm_at_rank(data, ranked, rank, attribution_s)
                if rpm_k is None:
                    continue
                gains[rank - 1].append(reaction_gain(rpm_k, overall))
                posts_at[rank - 1] += int(
                    (data.post_buckets == ranked.bucket(rank)).sum())
        for rank in range(1, k + 1):
            vals = gains[rank - 1]
            rows.append(GainRow(kind, rank,
                                float(np.mean(vals)) if vals else None,
                                len(vals), posts_at[rank - 1]))
        excluded[kind] = n_zero
    return GainReport(tuple(rows), k, day_filter, excluded)


def write_gain_tsv(report: GainReport, path) -> None:
    """Headerless TSV: schedule, rank, rg_avg (NA when undefined), users, posts."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in report.rows:
            rg = "NA" if r.rg_avg is None else f"{r.rg_avg:.17g}"
            fh.write(f"{r.schedule}\t{r.rank}\t{rg}\t{r.n_users}\t{r.n_posts}\n")


def write_gain_csv(report: GainReport, path) -> None:
    """Plot-ready long-format CSV with a header row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("schedule,rank,rg_avg,users,posts\n")
        for r in report.rows:
            rg = "" if r.rg_avg is None else f"{r.rg_avg:.17g}"
            fh.write(f"{r.schedule},{r.rank},{rg},{r.n_users},{r.n_posts}\n")
