"""Cohort comparison of audience reaction behavior.

Per-user behavior series (first-degree schedules) are compared with Pearson
correlation and cosine similarity, aggregated into city or network cohorts
shifted to a common local time, and summarized as metric histograms over
seeded samples of user pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import temporal
from .errors import UndefinedMetricError
from .ingest import UserTable, share_users
from .temporal import ScheduleTable, WeeklyGrid

METRICS = ("correlation", "cosine")

# Most bins a metric histogram may have (bin width >= 0.001), which bounds
# the memory of its edges and counts.
MAX_HISTOGRAM_BINS = 2000

# Most pairs one metric histogram may draw, which bounds the memory of the
# draws and their scores (about 64 MB at this budget).
MAX_SAMPLE_BUDGET = 10**6


def correlation(s1, s2) -> float:
    """Pearson correlation between two equal-length series.

    Undefined (raises) when either series has zero variance.
    """
    return _score(s1, s2, "correlation", "correlation undefined for constant series")


def cosine_similarity(s1, s2) -> float:
    """Dot product over norms; in [0, 1] for non-negative series.

    Undefined (raises) when either vector is zero.
    """
    return _score(s1, s2, "cosine", "cosine similarity undefined for zero vector")


def _score(s1, s2, metric: str, undefined: str) -> float:
    """The metric of two series, as :func:`pairwise_distribution` scores a
    pair of rows; raises UndefinedMetricError(``undefined``) where it has
    none."""
    a = np.asarray(s1, dtype=np.float64)
    b = np.asarray(s2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("series must be 1-D and equal length")
    rows = np.stack([a, b])
    centre, factor = _row_terms(rows, metric)
    if not factor.all():
        raise UndefinedMetricError(undefined)
    return float(_pair_scores(rows, rows, centre, centre, factor, factor,
                              np.array([0]), np.array([1]), metric)[0])


@dataclass(frozen=True)
class Cohort:
    """A labelled user group with its normalized aggregate behavior series;
    ``rows`` holds its members' rows in the matrix summed, such as S1's."""

    label: str
    rows: np.ndarray
    series: np.ndarray
    tz_offset_min: int

    def __post_init__(self) -> None:
        s = np.array(self.series, dtype=np.float64)
        s.setflags(write=False)
        object.__setattr__(self, "series", s)


def cohort_aggregate(series, offsets, cohort_offset_min: int, grid: WeeklyGrid,
                     label: str = "", rows=None) -> Cohort:
    """Sum the rows of ``series``, a members x buckets matrix, in order and
    in the cohort's local time, and renormalize. Row i is shifted from the
    tz offset ``offsets[i]`` to the cohort's, a whole number of buckets away
    (an hour is 4 buckets on the default grid). ``rows`` says where the rows
    came from, by default their positions in ``series``. Undefined for an
    empty cohort or an all-zero aggregate.
    """
    shifted = np.array(series, dtype=np.float64)
    if not len(shifted):
        raise UndefinedMetricError("empty cohort")
    shift, off_grid = np.divmod((np.asarray(offsets) - cohort_offset_min) * 60,
                                grid.bucket_width_s)
    if off_grid.any():
        raise ValueError("offset difference is not a whole number of buckets")
    for k in set(shift.tolist()) - {0}:
        shifted[shift == k] = np.roll(shifted[shift == k], -k, axis=1)
    acc = shifted.sum(axis=0)
    total = acc.sum()
    if total <= 0:
        raise UndefinedMetricError(f"cohort {label!r} aggregate has no mass")
    return Cohort(label, np.arange(len(shifted)) if rows is None else rows,
                  acc / total, cohort_offset_min)


def city_cohorts(s1: ScheduleTable, users: UserTable, grid: WeeklyGrid,
                 min_cohort: int) -> list[Cohort]:
    """The cohorts of the schedules ``s1``, in label order: ``ALL`` of every
    user with a row, and each city of ``users`` with at least ``min_cohort``
    listed members that have one. A cohort sums its members' rows in
    ascending user id, at their most common tz offset (a tie goes to the
    one met first in that order). Raises ValueError naming the user for a
    city named ``ALL`` or an offset off the cohort's bucket grid."""
    if (reserved := np.flatnonzero(users.city == "ALL")).size:
        raise ValueError(f"user {users.users[reserved[0]]!r} is in city "
                         "'ALL', the label of the cohort of every user")
    s1, users = share_users(s1, users)
    order = np.argsort(s1.owner, kind="stable")
    owner = s1.owner[order]
    offsets, city = users.tz_offset_min[owner], users.city[owner]
    has_city = np.flatnonzero(city.astype(bool))
    labels, code = np.unique(city[has_city], return_inverse=True)
    members = [has_city[code == k] for k in range(len(labels))]
    cohorts = []
    for label, at in [("ALL", np.arange(len(owner))), *zip(labels, members)]:
        if not len(at) or (label != "ALL" and len(at) < min_cohort):
            continue
        off = offsets[at]
        _, first, counts = np.unique(off, return_index=True, return_counts=True)
        tz = int(off[first[counts == counts.max()].min()])
        if (bad := np.flatnonzero((off - tz) * 60 % grid.bucket_width_s)).size:
            raise ValueError(
                f"user {users.users[owner[at[bad[0]]]]!r} has tz offset "
                f"{off[bad[0]]} min, which is not a whole number of "
                f"{grid.bucket_width_s // 60}-minute buckets from cohort "
                f"{label!r} at {tz} min")
        cohorts.append(cohort_aggregate(s1.probabilities[order[at]], off, tz,
                                        grid, label, order[at]))
    return sorted(cohorts, key=lambda cohort: cohort.label)


@dataclass(frozen=True)
class MetricDistribution:
    """Histogram of a pairwise metric over [-1, 1].

    ``counts`` sums to the number of valid sampled pairs; pairs where the
    metric was undefined are skipped and counted separately.
    """

    metric: str
    bin_edges: np.ndarray
    counts: np.ndarray
    n_sampled: int
    n_undefined: int

    @property
    def n_valid(self) -> int:
        return int(self.counts.sum())


def histogram_bins(bin_width: float) -> int:
    """Number of bins of width ``bin_width`` over [-1, 1]. Raises ValueError
    unless the width divides [-1, 1] evenly into 1 to ``MAX_HISTOGRAM_BINS``
    bins."""
    ratio = 2.0 / bin_width if bin_width > 0 else 0.0
    n_bins = round(ratio) if math.isfinite(ratio) else 0
    if (not 1 <= n_bins <= MAX_HISTOGRAM_BINS
            or abs(n_bins * bin_width - 2.0) > 1e-12):
        raise ValueError("bin_width must divide [-1, 1] evenly into at most "
                         f"{MAX_HISTOGRAM_BINS} bins")
    return n_bins


def _row_terms(rows: np.ndarray, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """What a metric takes from each row on its own: the centre subtracted
    from the row (its mean, or 0 for cosine), and the row's factor of the
    denominator (the centred row's squared norm, or the norm for cosine).
    The metric is undefined where the factor is 0."""
    centre = (rows.mean(axis=1) if metric == "correlation"
              else np.zeros(len(rows)))
    d = rows - centre[:, None]
    # One dot product per row, as the pairs are scored below.
    factor = np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]
    return centre, factor if metric == "correlation" else np.sqrt(factor)


def _pair_scores(s1, s2, centre1, centre2, factor1, factor2, i, j,
                 metric: str) -> np.ndarray:
    """The metric of each pair of rows ``(s1[i[p]], s2[j[p]])`` from their
    :func:`_row_terms`, whose factors must be non-zero."""
    dots = np.empty(len(i))
    step = temporal.CHUNK_ROWS
    for lo in range(0, len(i), step):
        a = s1[i[lo:lo + step]] - centre1[i[lo:lo + step], None]
        b = s2[j[lo:lo + step]] - centre2[j[lo:lo + step], None]
        # One dot product per pair; np.einsum differs from @ in the last bit.
        dots[lo:lo + step] = np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
    if metric == "correlation":
        return dots / np.sqrt(factor1[i] * factor2[j])
    return dots / (factor1[i] * factor2[j])


def pairwise_distribution(series1: Sequence[np.ndarray],
                          series2: Sequence[np.ndarray], metric: str,
                          sample_budget: int, seed: int,
                          bin_width: float = 0.05) -> MetricDistribution:
    """Histogram a metric over seeded uniform pair samples from two cohorts.

    Pairs are drawn with replacement (one member from each cohort) so large
    cohorts can be summarized with a fixed budget; a fixed seed gives
    bit-identical histograms across runs. Each distinct drawn pair is scored
    once, as :func:`correlation` or :func:`cosine_similarity` scores it.
    Undefined when either cohort is empty or no sampled pair
    yields a defined metric.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    if not len(series1) or not len(series2):
        raise UndefinedMetricError("both cohorts must be non-empty")
    if not 1 <= sample_budget <= MAX_SAMPLE_BUDGET:
        raise ValueError(f"sample_budget must be in [1, {MAX_SAMPLE_BUDGET}]")
    n_bins = histogram_bins(bin_width)
    s1 = np.asarray(series1, dtype=np.float64)
    s2 = np.asarray(series2, dtype=np.float64)
    if s1.ndim != 2 or s2.ndim != 2 or s1.shape[1] != s2.shape[1]:
        raise ValueError("each cohort must be a members x buckets matrix, "
                         "both of one width")
    rng = np.random.default_rng(seed)
    left = rng.integers(0, len(s1), size=sample_budget)
    right = rng.integers(0, len(s2), size=sample_budget)

    centre1, factor1 = _row_terms(s1, metric)
    centre2, factor2 = _row_terms(s2, metric)
    pairs, pair_of_draw = np.unique(left * len(s2) + right, return_inverse=True)
    i, j = np.divmod(pairs, len(s2))
    defined = (factor1[i] != 0.0) & (factor2[j] != 0.0)
    pair_scores = np.zeros(len(pairs))
    pair_scores[defined] = _pair_scores(s1, s2, centre1, centre2, factor1,
                                        factor2, i[defined], j[defined], metric)
    valid = defined[pair_of_draw]
    values = pair_scores[pair_of_draw[valid]]
    if not len(values):
        raise UndefinedMetricError("no sampled pair had a defined metric")
    edges = np.linspace(-1.0, 1.0, n_bins + 1)
    counts, _ = np.histogram(np.clip(values, -1.0, 1.0), bins=edges)
    return MetricDistribution(metric, edges, counts, sample_budget,
                              sample_budget - len(values))
