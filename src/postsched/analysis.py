"""Cohort comparison of audience reaction behavior.

Per-user behavior series (first-degree schedules) are compared with Pearson
correlation and cosine similarity, aggregated into city or network cohorts
shifted to a common local time, and summarized as metric histograms over
seeded samples of user pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import temporal
from .errors import UndefinedMetricError
from .temporal import WeeklyGrid

METRICS = ("correlation", "cosine")

# Most bins a metric histogram may have (bin width >= 0.001), which bounds
# the memory of its edges and counts.
MAX_HISTOGRAM_BINS = 2000


def correlation(s1, s2) -> float:
    """Pearson correlation between two equal-length series.

    Undefined (raises) when either series has zero variance.
    """
    a = np.asarray(s1, dtype=np.float64)
    b = np.asarray(s2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("series must be 1-D and equal length")
    da = a - a.mean()
    db = b - b.mean()
    va = float(da @ da)
    vb = float(db @ db)
    if va == 0.0 or vb == 0.0:
        raise UndefinedMetricError("correlation undefined for constant series")
    return float((da @ db) / np.sqrt(va * vb))


def cosine_similarity(s1, s2) -> float:
    """Dot product over norms; in [0, 1] for non-negative series.

    Undefined (raises) when either vector is zero.
    """
    a = np.asarray(s1, dtype=np.float64)
    b = np.asarray(s2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("series must be 1-D and equal length")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise UndefinedMetricError("cosine similarity undefined for zero vector")
    return float((a @ b) / (na * nb))


def shift_to_offset(values, from_offset_min: int, to_offset_min: int,
                    grid: WeeklyGrid) -> np.ndarray:
    """Re-express a local-time weekly series in another timezone's local time.

    The offset difference must be a whole number of buckets (true for the
    default grid, since real timezone offsets are multiples of 15 minutes).
    """
    diff_s = (from_offset_min - to_offset_min) * 60
    if diff_s % grid.bucket_width_s != 0:
        raise ValueError("offset difference is not a whole number of buckets")
    return np.roll(np.asarray(values, dtype=np.float64),
                   -(diff_s // grid.bucket_width_s))


@dataclass(frozen=True)
class Cohort:
    """A labelled user group with its normalized aggregate behavior series."""

    label: str
    members: tuple[str, ...]
    series: np.ndarray
    tz_offset_min: int

    def __post_init__(self) -> None:
        s = np.array(self.series, dtype=np.float64)
        s.setflags(write=False)
        object.__setattr__(self, "series", s)


def cohort_aggregate(series_by_user: Mapping[str, np.ndarray],
                     offsets: Mapping[str, int], cohort_offset_min: int,
                     grid: WeeklyGrid, label: str = "") -> Cohort:
    """Sum member series in the cohort's local time and renormalize.

    Each member's series is shifted from their own timezone to the cohort's
    before summing (an hour of offset difference is 4 buckets on the default
    grid). Undefined for an empty cohort or an all-zero aggregate.
    """
    if not series_by_user:
        raise UndefinedMetricError("empty cohort")
    acc = np.zeros(grid.buckets_per_week)
    for user in sorted(series_by_user):
        acc += shift_to_offset(series_by_user[user],
                               offsets.get(user, 0), cohort_offset_min, grid)
    total = acc.sum()
    if total <= 0:
        raise UndefinedMetricError(f"cohort {label!r} aggregate has no mass")
    return Cohort(label, tuple(sorted(series_by_user)), acc / total,
                  cohort_offset_min)


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
    """What a metric takes from each row on its own, row by row as
    :func:`correlation` and :func:`cosine_similarity` compute it: the centre
    subtracted from the row (its mean, or 0 for cosine), and the row's
    factor of the denominator (the centred row's squared norm, or the norm
    for cosine). The metric is undefined where the factor is 0."""
    centre = np.zeros(len(rows))
    factor = np.empty(len(rows))
    for r, row in enumerate(rows):
        if metric == "correlation":
            centre[r] = row.mean()
            d = row - centre[r]
            factor[r] = d @ d
        else:
            factor[r] = np.linalg.norm(row)
    return centre, factor


def pairwise_distribution(series1: Sequence[np.ndarray],
                          series2: Sequence[np.ndarray], metric: str,
                          sample_budget: int, seed: int,
                          bin_width: float = 0.05) -> MetricDistribution:
    """Histogram a metric over seeded uniform pair samples from two cohorts.

    Pairs are drawn with replacement (one member from each cohort) so large
    cohorts can be summarized with a fixed budget; a fixed seed gives
    bit-identical histograms across runs. Each distinct drawn pair is scored
    once, to the bit as :func:`correlation` or :func:`cosine_similarity`
    scores it. Undefined when either cohort is empty or no sampled pair
    yields a defined metric.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    if not len(series1) or not len(series2):
        raise UndefinedMetricError("both cohorts must be non-empty")
    if sample_budget < 1:
        raise ValueError("sample_budget must be >= 1")
    n_bins = histogram_bins(bin_width)
    s1 = np.asarray(series1, dtype=np.float64)
    s2 = np.asarray(series2, dtype=np.float64)
    if s1.ndim != 2 or s2.ndim != 2 or s1.shape[1] != s2.shape[1]:
        raise ValueError("series must be 1-D and equal length")
    rng = np.random.default_rng(seed)
    left = rng.integers(0, len(s1), size=sample_budget)
    right = rng.integers(0, len(s2), size=sample_budget)

    centre1, factor1 = _row_terms(s1, metric)
    centre2, factor2 = _row_terms(s2, metric)
    pairs, pair_of_draw = np.unique(left * len(s2) + right, return_inverse=True)
    i, j = np.divmod(pairs, len(s2))
    defined = (factor1[i] != 0.0) & (factor2[j] != 0.0)
    i, j = i[defined], j[defined]
    dots = np.empty(len(i))
    step = temporal.CHUNK_ROWS
    for lo in range(0, len(i), step):
        a = s1[i[lo:lo + step]] - centre1[i[lo:lo + step], None]
        b = s2[j[lo:lo + step]] - centre2[j[lo:lo + step], None]
        # One dot product per pair; np.einsum differs from @ in the last bit.
        dots[lo:lo + step] = np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
    if metric == "correlation":
        scores = dots / np.sqrt(factor1[i] * factor2[j])
    else:
        scores = dots / (factor1[i] * factor2[j])

    pair_scores = np.zeros(len(pairs))
    pair_scores[defined] = scores
    valid = defined[pair_of_draw]
    values = pair_scores[pair_of_draw[valid]]
    if not len(values):
        raise UndefinedMetricError("no sampled pair had a defined metric")
    edges = np.linspace(-1.0, 1.0, n_bins + 1)
    counts, _ = np.histogram(np.clip(values, -1.0, 1.0), bins=edges)
    return MetricDistribution(metric, edges, counts, sample_budget,
                              sample_budget - len(values))
