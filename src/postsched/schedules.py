"""Personalized posting schedules and timezone-cohort baselines.

Four personalized schedules are derived per user from the delayed reaction
profiles of their audience:

    S1   sum of audience delayed-reaction profiles, normalized
    S2   sum of per-member reaction probabilities (delayed reactions over
         posts visible to the member), normalized
    S1w / S2w  the same sums with each member weighted by their share of
         the user's historically received reactions

plus two non-personalized baselines aggregated over a timezone cohort:

    MFU  most frequently used posting buckets (aggregate created posts)
    AFD  aggregate of the cohort's first-degree audience-reaction profiles

A population is a users x buckets matrix and a graph an :class:`Adjacency`
of index arrays, so each of these is one sum of matrix rows over edges.
Every sum adds its rows in ascending edge order, so a user's result does
not depend on who else is in the population. Ranking a stack of schedules
is one sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import temporal
from .ingest import SparseCounts
from .temporal import ScheduleTable, WeeklyGrid

@dataclass(frozen=True)
class VisibilityModel:
    """Linear map from aggregate rescaled post creation to posts actually
    visible to a member: v = alpha * sum(rescaled created) + beta.

    beta > 0 keeps every visibility element strictly positive, guarding the
    division in the second-degree schedule.
    """

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not self.beta > 0:
            raise ValueError("beta must be > 0")


@dataclass(frozen=True)
class Adjacency:
    """Edges ``row[i] -> col[i]`` out of ``n_rows`` rows, as index arrays
    sorted by (row, col)."""

    n_rows: int
    row: np.ndarray
    col: np.ndarray

    @classmethod
    def from_edges(cls, n_rows: int, row, col) -> "Adjacency":
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        order = np.lexsort((col, row))
        return cls(n_rows, row[order], col[order])

    def __len__(self) -> int:
        return int(self.col.size)


def _sum_over_edges(edges: Adjacency, n_buckets: int,
                    rows_of: Callable[[slice], Iterable[np.ndarray]],
                    out: np.ndarray | None = None) -> np.ndarray:
    """Row r of the result sums, over the edges out of r in order, one row
    each; ``rows_of`` returns the rows of a slice of the edges. The rows are
    added into ``out`` if given, else into zeros."""
    if out is None:
        out = np.zeros((edges.n_rows, n_buckets))
    step = temporal.CHUNK_ROWS
    for lo in range(0, len(edges), step):
        chunk = slice(lo, lo + step)
        # One row at a time in edge order, so a sum does not depend on the
        # chunking; np.add.reduceat does not keep the order, and np.add.at
        # keeps it at about three times the cost.
        for r, x in zip(edges.row[chunk].tolist(), rows_of(chunk)):
            out[r] += x
        del x  # a view that would keep this chunk's rows beside the next's
    return out


def audience_reaction_profile(delayed: np.ndarray, audience: Adjacency,
                              weights: np.ndarray | None = None,
                              visible: np.ndarray | None = None,
                              out: np.ndarray | None = None) -> np.ndarray:
    """Sum the audience's delayed reaction profiles, one row per target.

    Row t of the result sums, over the audience edges (t, b) in ascending b,
    member b's row of ``delayed``. With ``visible`` (posts visible to each
    member, rows as in ``delayed``) that row becomes the member's reaction
    probability, ``min(delayed / visible, 1)``: clamped, since sparse data can
    push the ratio above a valid probability. With ``weights`` (one per edge)
    it is scaled by the edge's weight. The personalized schedules normalize
    these sums:

        S1 = (None, None)    S2 = (None, visible)
        S1w = (weights, None)    S2w = (weights, visible)

    With ``out``, the rows are added into it one edge at a time, so the
    audience can come in blocks of members in ascending order: a target's
    sum is then the one its whole audience gives, bit for bit.
    """
    if visible is not None and np.any(visible <= 0):
        raise ValueError("visible-posts profile must be strictly positive")

    def rows_of(chunk: slice) -> np.ndarray:
        members = audience.col[chunk]
        rows = delayed[members]
        if visible is not None:
            rows /= visible[members]
            np.minimum(rows, 1.0, out=rows)
        if weights is not None:
            rows *= weights[chunk, None]
        return rows

    return _sum_over_edges(audience, delayed.shape[-1], rows_of, out)


def visible_posts(created: SparseCounts | np.ndarray, followed: Adjacency,
                  model: VisibilityModel,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Posts visible to each member per bucket, from the creation profiles of
    the users they follow.

    Row r of the result is built from the rows of ``created`` (sparse counts,
    or a dense matrix read as the counts of its non-zero cells) that r's
    edges in ``followed`` point to: each is rescaled by its own mean (rows
    with zero mean contribute nothing), they are summed, and the sum is
    mapped through the visibility model. Every element is >= beta > 0. The
    result is written into ``out``, a members x buckets matrix, if given.
    """
    created = SparseCounts.of(created)
    n = created.shape[-1]
    mean = created.row_sums / n
    posting = mean[followed.col] > 0
    creators = Adjacency(followed.n_rows, followed.row[posting],
                         followed.col[posting])

    def rows_of(chunk: slice):
        # Many members follow one author: each distinct row is made dense
        # and rescaled once, and the chunk's edges take views of it.
        authors, at = np.unique(creators.col[chunk], return_inverse=True)
        rows = created.rows(authors)
        rows /= mean[authors, None]
        return map(rows.__getitem__, at.tolist())

    if out is not None:
        out.fill(0.0)
    acc = _sum_over_edges(creators, n, rows_of, out)
    acc *= model.alpha
    acc += model.beta
    return acc


def compute_weights(author: np.ndarray, reactor: np.ndarray,
                    audience: Adjacency) -> np.ndarray:
    """Audience weights, one per edge (t, b): b's share of the reactions t
    has received.

    Each received reaction is given by its post's author, as a row of
    ``audience``, and its reactor, as a column; -1 marks a user outside
    them. A reaction from outside the audience still counts toward its
    author's total. Weights come from the same window as the profiles to
    avoid evaluation leakage. A target that received no reaction gets zero
    weights.
    """
    if not len(audience):
        return np.zeros(0)
    author = np.asarray(author, dtype=np.int64)
    reactor = np.asarray(reactor, dtype=np.int64)
    mine = author >= 0
    total = np.bincount(author[mine], minlength=audience.n_rows)
    known = mine & (reactor >= 0)
    width = max(int(audience.col.max()), int(reactor.max(initial=-1))) + 1
    key = author[known] * width + reactor[known]
    edge = audience.row * width + audience.col  # ascending, as edges are sorted
    at = np.searchsorted(edge, key).clip(max=edge.size - 1)
    count = np.bincount(at[edge[at] == key], minlength=edge.size)
    received = total[audience.row]
    return np.divide(count, received, out=np.zeros(edge.size),
                     where=received > 0)


def cohort_sum(values: np.ndarray, cohort, n_cohorts: int) -> np.ndarray:
    """Sum the rows of ``values`` per cohort, in ascending row order; row i
    belongs to cohort ``cohort[i]``. MFU normalizes the sums of created-post
    rows, and AFD those of first-degree audience-reaction rows."""
    members = Adjacency.from_edges(n_cohorts, cohort, np.arange(len(values)))
    return _sum_over_edges(members, values.shape[-1],
                           lambda chunk: values[members.col[chunk]])


def cohort_label(tz_offset_min: int) -> str:
    """Row label of a timezone cohort's baseline schedules, e.g. ``tz:-300``."""
    return f"tz:{tz_offset_min}"


def baseline_rows(baselines: ScheduleTable, offsets: np.ndarray) -> np.ndarray:
    """The row of ``baselines``, a table keyed by :func:`cohort_label`, of
    the timezone cohort at each of ``offsets``; -1 where it has none."""
    row = {label: i for i, label in enumerate(baselines.labels.tolist())}
    cohorts, at = np.unique(offsets, return_inverse=True)
    return np.array([row.get(cohort_label(o), -1) for o in cohorts.tolist()],
                    dtype=np.int64)[at]


def top_k_times(probabilities: np.ndarray, k: int, grid: WeeklyGrid,
                day_filter: str = "all") -> np.ndarray:
    """Best posting buckets of one schedule or a stack of them (buckets on
    the last axis): the indices of the highest-probability buckets after the
    day filter, best first, ties broken by ascending index. The result has
    shape (..., min(k, filtered buckets)); the probability at a rank is a
    gather, ``np.take_along_axis(probabilities, result, axis=-1)``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = np.asarray(probabilities, dtype=np.float64)
    if p.shape[-1] != grid.buckets_per_week:
        raise ValueError("schedule length does not match grid")
    idx = np.flatnonzero(grid.day_mask(day_filter))
    # A stable sort keeps equal probabilities in ascending bucket order.
    order = np.argsort(-p[..., idx], axis=-1, kind="stable")[..., :k]
    return idx[order]
