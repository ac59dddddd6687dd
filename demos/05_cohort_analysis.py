#!/usr/bin/env python3
"""Comparing audience behavior across cohorts.

Two synthetic cities share a morning/evening rhythm but sit five timezones
apart, and one of them skews much more heavily toward evenings. Aggregating
each cohort in its own local time lines the rhythms up; correlation then
measures how similar the shapes are, while cosine similarity measures raw
overlap. Pair-sampled distributions summarize whole cohorts the same way.
"""

import numpy as np

from postsched import (
    WeeklyGrid,
    cohort_aggregate,
    correlation,
    cosine_similarity,
    pairwise_distribution,
)

rng = np.random.default_rng(77)
grid = WeeklyGrid()
N = grid.buckets_per_week


def daily_rhythm(evening_bias, jitter):
    """A week of activity with 09:00 and 20:00 humps in local time."""
    series = np.zeros(N)
    for day in range(7):
        base = day * 96
        series[base + 36] += 1.0 + jitter * rng.random()          # 09:00
        series[base + 80] += evening_bias + jitter * rng.random()  # 20:00
    return series


EAST, WEST = 0, -300  # five hours apart
# A cohort is a members x buckets matrix with one tz offset per row.
east_users = np.array([daily_rhythm(0.8, 0.3) for _ in range(40)])
west_users = np.array([daily_rhythm(2.5, 0.3) for _ in range(40)])
east_offsets = np.full(len(east_users), EAST)
west_offsets = np.full(len(west_users), WEST)

east = cohort_aggregate(east_users, east_offsets, EAST, grid, "east-city")
west = cohort_aggregate(west_users, west_offsets, WEST, grid, "west-city")

r = correlation(east.series, west.series)
c = cosine_similarity(east.series, west.series)
print(f"cohort-level (each in its own local time): corr={r:.3f} cosine={c:.3f}")

# Aggregating the west cohort in the east city's clock instead rotates its
# rhythm by 20 buckets, so the 09:00 hump lands mid-afternoon.
west_misaligned = cohort_aggregate(west_users, west_offsets, EAST, grid,
                                   "west-in-east-clock")
print(f"west aggregated in east's clock:           corr="
      f"{correlation(east.series, west_misaligned.series):.3f}")

for metric in ("correlation", "cosine"):
    dist = pairwise_distribution(east_users, west_users, metric,
                                 sample_budget=4000, seed=7)
    centers = (dist.bin_edges[:-1] + dist.bin_edges[1:]) / 2
    mean = float((centers * dist.counts).sum() / dist.n_valid)
    top = centers[int(np.argmax(dist.counts))]
    print(f"pairwise {metric:<11}: mean {mean:.3f}, mode bin {top:+.3f}, "
          f"{dist.n_valid} valid pairs")
