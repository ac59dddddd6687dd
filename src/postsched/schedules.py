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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import EmptyHistoryError, NoSignalError
from .ingest import PairTable
from .temporal import (
    ActionProfile,
    KIND_AUDIENCE,
    KIND_VISIBLE,
    Schedule,
    TimeWindow,
    WeeklyGrid,
    normalize_to_schedule,
)

PROVENANCES = ("S1", "S2", "S1w", "S2w", "MFU", "AFD", "uniform")


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
class RankedTimes:
    """Buckets ordered by schedule probability, best first.

    Probabilities are non-increasing; ties are broken by ascending bucket
    index so rankings are deterministic.
    """

    entries: tuple[tuple[int, float], ...]
    day_filter: str = "all"

    def __post_init__(self) -> None:
        probs = [p for _, p in self.entries]
        if any(a < b for a, b in zip(probs, probs[1:])):
            raise ValueError("entries must be sorted by non-increasing probability")

    def bucket(self, rank: int) -> int:
        """Bucket index at a 1-based rank."""
        return self.entries[rank - 1][0]

    def __len__(self) -> int:
        return len(self.entries)


def _sum_profiles(profiles: Iterable[np.ndarray]) -> np.ndarray | None:
    total = None
    for v in profiles:
        total = v.copy() if total is None else total + v
    return total


def audience_reaction_profile(delayed_by_member: Mapping[str, ActionProfile],
                              weights: Mapping[str, float] | None = None,
                              ) -> ActionProfile:
    """Aggregate audience delayed-reaction profiles, optionally weighted.

    Members missing from ``weights`` contribute nothing (weight 0). Raises
    :class:`NoSignalError` for an empty audience.
    """
    if not delayed_by_member:
        raise NoSignalError("empty audience")
    if weights is None:
        vals = _sum_profiles(p.values for p in delayed_by_member.values())
    else:
        vals = _sum_profiles(weights.get(b, 0.0) * p.values
                             for b, p in delayed_by_member.items())
    return ActionProfile(vals, KIND_AUDIENCE)


def first_degree(delayed_by_member: Mapping[str, ActionProfile]) -> Schedule:
    """Schedule from the summed delayed reaction profiles of the audience."""
    return normalize_to_schedule(audience_reaction_profile(delayed_by_member), "S1")


def weighted_first_degree(delayed_by_member: Mapping[str, ActionProfile],
                          weights: Mapping[str, float]) -> Schedule:
    q = audience_reaction_profile(delayed_by_member, weights)
    return normalize_to_schedule(q, "S1w")


def visible_posts(creation_profiles: Iterable[ActionProfile],
                  model: VisibilityModel, n_buckets: int) -> ActionProfile:
    """Posts visible to a member per bucket, from the creation profiles of
    the users they follow.

    Each creation profile is rescaled by its own mean (profiles with zero
    mean contribute nothing), summed, then mapped through the visibility
    model. Every element is >= beta > 0.
    """
    v = np.full(n_buckets, model.beta, dtype=np.float64)
    acc = np.zeros(n_buckets)
    for c in creation_profiles:
        mean = c.total / len(c)
        if mean > 0:
            acc += c.values / mean
    v += model.alpha * acc
    return ActionProfile(v, KIND_VISIBLE)


def _reaction_rates(delayed: ActionProfile, visible: ActionProfile) -> np.ndarray:
    """Per-bucket probability that the member reacts: delayed reactions over
    visible posts, clamped to 1 since sparse data can push the ratio above
    a valid probability."""
    if np.any(visible.values <= 0):
        raise ValueError("visible-posts profile must be strictly positive")
    return np.minimum(delayed.values / visible.values, 1.0)


def second_degree(delayed_by_member: Mapping[str, ActionProfile],
                  visible_by_member: Mapping[str, ActionProfile]) -> Schedule:
    """Schedule from expected reaction counts: the sum over members of their
    per-bucket reaction probabilities."""
    if not delayed_by_member:
        raise NoSignalError("empty audience")
    q = _sum_profiles(_reaction_rates(p, visible_by_member[b])
                      for b, p in delayed_by_member.items())
    return normalize_to_schedule(ActionProfile(q, KIND_AUDIENCE), "S2")


def weighted_second_degree(delayed_by_member: Mapping[str, ActionProfile],
                           visible_by_member: Mapping[str, ActionProfile],
                           weights: Mapping[str, float]) -> Schedule:
    if not delayed_by_member:
        raise NoSignalError("empty audience")
    q = _sum_profiles(weights.get(b, 0.0) * _reaction_rates(p, visible_by_member[b])
                      for b, p in delayed_by_member.items())
    return normalize_to_schedule(ActionProfile(q, KIND_AUDIENCE), "S2w")


def compute_weights(user: str, pairs: PairTable,
                    window: TimeWindow | None = None) -> dict[str, float]:
    """Audience weights: each member's share of the reactions the user has
    received.

    Weights are derived from the same window as the profiles to avoid
    evaluation leakage. Raises :class:`EmptyHistoryError` when the user
    never received a reaction.
    """
    received = pairs.users[pairs.author] == user
    if window is not None:
        received &= window.mask(pairs.post_time)
    reactors, counts = np.unique(pairs.reactor[received], return_counts=True)
    total = int(counts.sum())
    if total == 0:
        raise EmptyHistoryError(f"user {user!r} has no received reactions")
    return {b: int(c) / total
            for b, c in zip(pairs.users[reactors].tolist(), counts)}


def mfu_baseline(creation_profiles: Iterable[ActionProfile]) -> Schedule:
    """Most-frequently-used buckets of a timezone cohort, as a schedule."""
    vals = _sum_profiles(c.values for c in creation_profiles)
    if vals is None:
        raise NoSignalError("empty cohort")
    return normalize_to_schedule(ActionProfile(vals, KIND_AUDIENCE), "MFU")


def afd_baseline(audience_profiles: Iterable[ActionProfile]) -> Schedule:
    """Aggregate first-degree baseline: the cohort's summed audience-reaction
    profiles, restricted to users that have one."""
    vals = _sum_profiles(q.values for q in audience_profiles)
    if vals is None:
        raise NoSignalError("empty cohort")
    return normalize_to_schedule(ActionProfile(vals, KIND_AUDIENCE), "AFD")


def uniform_schedule(n_buckets: int) -> Schedule:
    return Schedule(np.full(n_buckets, 1.0 / n_buckets), "uniform")


def top_k_times(schedule: Schedule, k: int, grid: WeeklyGrid,
                day_filter: str = "all") -> RankedTimes:
    """Best posting buckets: highest-probability buckets after the day
    filter, ties broken by ascending index; at most k entries."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(schedule) != grid.buckets_per_week:
        raise ValueError("schedule length does not match grid")
    idx = np.nonzero(grid.day_mask(day_filter))[0]
    probs = schedule.probabilities[idx]
    order = np.lexsort((idx, -probs))[:k]
    entries = tuple((int(idx[i]), float(probs[i])) for i in order)
    return RankedTimes(entries, day_filter)
