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

from .ingest import (
    PairTable,
    PostTable,
    SparseCounts,
    UserTable,
    float_texts,
    share_users,
    weekly_counts,
    write_columns,
)
from .schedules import baseline_rows, top_k_times
from .temporal import Chosen, ScheduleTable, TimeWindow, WeeklyGrid

ATTRIBUTION_WINDOW_S = 24 * 3600

DEFAULT_RANKS = 32


@dataclass(frozen=True)
class EvalData:
    """Evaluation-window histograms: sparse counts whose rows are the codes
    of ``users``, bucketed in the user's local time.

    Only events timestamped inside the evaluation window are admitted, so
    derivation-window history can never leak into the metrics.
    """

    users: np.ndarray         # code -> user id, in ascending order
    posts: SparseCounts       # posts the user created, per bucket
    reactions: SparseCounts   # attributed reactions received, per bucket of their post


def build_eval_data(posts: PostTable, pairs: PairTable,
                    users: UserTable, window: TimeWindow,
                    grid: WeeklyGrid) -> EvalData:
    """Count in-window posts and attributed received reactions per author.

    A user without a post in the window has an empty row and no RPM. A
    reaction counts when its post and the reaction itself fall in the
    window and it came less than ``ATTRIBUTION_WINDOW_S`` after the post.
    Users without metadata are bucketed at UTC.
    """
    posts, pairs, users = share_users(posts, pairs, users)
    post_rows = np.flatnonzero(window.mask(posts.created_at))
    pair_rows = np.flatnonzero(window.mask(pairs.post_time)
                               & window.mask(pairs.reaction_time)
                               & (pairs.delay < ATTRIBUTION_WINDOW_S))
    return EvalData(users.users,
                    weekly_counts(users, posts.author[post_rows],
                                  posts.created_at[post_rows], grid),
                    weekly_counts(users, pairs.author[pair_rows],
                                  pairs.post_time[pair_rows], grid))


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


def evaluate_schedules(tables: Mapping[str, ScheduleTable],
                       posts: PostTable, pairs: PairTable,
                       users: UserTable, window: TimeWindow,
                       grid: WeeklyGrid, k: int = DEFAULT_RANKS,
                       day_filter: str = "weekday",
                       baselines: Mapping[str, ScheduleTable] | None = None
                       ) -> GainReport:
    """Average ReactionGain per rank for each schedule kind.

    ``tables`` maps a kind to schedules keyed by user. ``baselines`` maps a
    kind to timezone baselines keyed by :func:`cohort_label`; every user of
    ``tables`` is scored on the baseline row of their timezone (UTC without
    metadata), and a baseline kind without a row for any of them is left out.

    RPM at rank r is attributed reactions over posts in the rank-r bucket,
    and the gain is that over the user's overall RPM. Users are excluded per
    rank when they created no posts in that rank's bucket, and excluded
    from a kind entirely (and counted) when their overall RPM is zero
    despite having posts. A user without posts in the window is skipped.
    """
    *shared, posts, pairs, users = share_users(*tables.values(), posts, pairs,
                                               users)
    data = build_eval_data(posts, pairs, users, window, grid)
    scored = {kind: Chosen.of(table) for kind, table in zip(tables, shared)}
    owned = np.zeros(len(users.users), dtype=bool)
    for table in shared:
        owned[table.owner] = True
    owners = np.flatnonzero(owned)
    offsets = users.tz_offset_min[owners]
    for kind, table in (baselines or {}).items():
        at = baseline_rows(table, offsets)
        if (at >= 0).any():
            scored[kind] = Chosen(users.users, owners[at >= 0], table, at[at >= 0])

    rows: list[GainRow] = []
    excluded: dict[str, int] = {}
    for kind in sorted(scored):
        chosen = scored[kind]
        ranked = top_k_times(chosen.candidates.probabilities, k, grid, day_filter)
        order = np.argsort(chosen.owner, kind="stable")
        posted_any = data.posts.row_sums[chosen.owner[order]] > 0
        user, at = chosen.owner[order][posted_any], chosen.choice[order][posted_any]
        overall = data.reactions.row_sums[user] / data.posts.row_sums[user]
        zero = overall == 0
        excluded[kind] = int(zero.sum())
        user, at, overall = user[~zero], at[~zero], overall[~zero]
        buckets = ranked[at]
        posted = data.posts.at(user[:, None], buckets)
        rpm = np.divide(data.reactions.at(user[:, None], buckets), posted,
                        out=np.zeros(posted.shape), where=posted > 0)
        gain = rpm / overall[:, None]
        for rank in range(1, k + 1):
            if rank > ranked.shape[-1]:
                rows.append(GainRow(kind, rank, None, 0, 0))
                continue
            defined = posted[:, rank - 1] > 0
            vals = gain[defined, rank - 1]
            rows.append(GainRow(kind, rank,
                                float(np.mean(vals)) if vals.size else None,
                                int(vals.size),
                                int(posted[:, rank - 1].sum())))
    return GainReport(tuple(rows), k, day_filter, excluded)


def _gain_columns(report: GainReport, undefined: str) -> list:
    """The report's columns, with ``undefined`` for an rg_avg of None."""
    rows = report.rows
    texts = float_texts([0.0 if r.rg_avg is None else r.rg_avg for r in rows])
    texts[[r.rg_avg is None for r in rows]] = undefined
    return [[r.schedule for r in rows], [r.rank for r in rows], texts,
            [r.n_users for r in rows], [r.n_posts for r in rows]]


def write_gain_tsv(report: GainReport, path) -> None:
    """Headerless TSV: schedule, rank, rg_avg (NA when undefined), users, posts."""
    write_columns(path, _gain_columns(report, "NA"))


def write_gain_csv(report: GainReport, path) -> None:
    """Plot-ready long-format CSV with a header row."""
    write_columns(path, _gain_columns(report, ""), ",",
                  "schedule,rank,rg_avg,users,posts")
