"""End-to-end schedule derivation over a whole event log.

Glues the modules together: per-user profiles from the derivation window,
delayed reaction profiles through the network delay kernel, the four
personalized schedules per user, timezone-cohort baselines, and the
fallback chain for users without enough signal:

    S1w -> S1 -> AFD(tz) -> MFU(tz) -> uniform

The chosen schedule's provenance travels with it, so downstream artifacts
record which rule actually produced each recommendation.
"""

from __future__ import annotations

from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .delays import DelayKernel
from .errors import EmptyHistoryError, NoSignalError
from .ingest import (
    PairTable,
    PostTable,
    SocialGraph,
    UserMeta,
    build_profiles,
    group_by_user,
)
from .schedules import (
    RankedTimes,
    VisibilityModel,
    afd_baseline,
    audience_reaction_profile,
    compute_weights,
    first_degree,
    mfu_baseline,
    second_degree,
    top_k_times,
    uniform_schedule,
    visible_posts,
    weighted_first_degree,
    weighted_second_degree,
)
from .temporal import ActionProfile, Schedule, TimeWindow, WeeklyGrid, delayed_profile

PERSONALIZED_KINDS = ("S1", "S2", "S1w", "S2w")
BASELINE_KINDS = ("MFU", "AFD")


@dataclass(frozen=True)
class DerivedSchedules:
    """Everything the derivation stage produces for one network."""

    personalized: dict[str, dict[str, Schedule]]  # kind -> user -> schedule
    baselines: dict[int, dict[str, Schedule]]     # tz offset -> kind -> schedule
    recommended: dict[str, Schedule]              # fallback chain result per user
    audience_profiles: dict[str, ActionProfile]   # raw Q(u) per user (feeds AFD)
    tz_of: dict[str, int]
    unknown_tz: frozenset[str]

    def baseline_for(self, user: str, kind: str) -> Schedule | None:
        per_kind = self.baselines.get(self.tz_of.get(user, 0), {})
        return per_kind.get(kind)

    def expand_baselines(self, users: Iterable[str]) -> dict[str, dict[str, Schedule]]:
        """Per-user view of the tz-level baselines, for evaluation."""
        out: dict[str, dict[str, Schedule]] = {k: {} for k in BASELINE_KINDS}
        for u in users:
            for kind in BASELINE_KINDS:
                s = self.baseline_for(u, kind)
                if s is not None:
                    out[kind][u] = s
        return out


def derive_schedules(posts: PostTable, pairs: PairTable,
                     graph: SocialGraph, users: list[UserMeta],
                     grid: WeeklyGrid, kernel: DelayKernel,
                     window: TimeWindow,
                     model: VisibilityModel = VisibilityModel(),
                     targets: Iterable[str] | None = None,
                     workers: int = 1) -> DerivedSchedules:
    """Derive all schedules from one derivation window.

    ``targets`` restricts which users get personalized schedules (default:
    every known user). Audience members' delayed profiles and visibility
    profiles are computed once and shared across targets; per-target work
    is read-only and parallelized over ``workers`` threads with the output
    assembled in sorted order, so results do not depend on worker count.
    """
    profiles = build_profiles(posts, pairs, users, grid, window)
    tz_of = {u.user: u.tz_offset_min for u in users}
    n = grid.buckets_per_week

    delayed: dict[str, ActionProfile] = {}
    for user, prof in profiles.reactions.items():
        if prof.total > 0:
            delayed[user] = delayed_profile(prof, kernel)

    if targets is None:
        target_list = sorted(set(tz_of) | graph.users | set(profiles.created))
    else:
        target_list = sorted(set(targets))

    # Visibility profiles for every audience member that has reactions.
    members_needing_v = sorted(
        {b for u in target_list for b in graph.audience(u) if b in delayed})
    visible: dict[str, ActionProfile] = {}
    for b in members_needing_v:
        creators = [profiles.created[a] for a in sorted(graph.followed(b))
                    if a in profiles.created]
        visible[b] = visible_posts(creators, model, n)

    received = group_by_user(pairs.users, pairs.author,
                             window.mask(pairs.post_time) & pairs.known_reactor)
    none = np.empty(0, dtype=np.int64)

    def derive_one(user: str):
        aud = sorted(graph.audience(user))
        delayed_map = {b: delayed[b] for b in aud if b in delayed}
        visible_map = {b: visible[b] for b in delayed_map}
        try:
            weights = compute_weights(user, pairs.select(received.get(user, none)),
                                      window)
        except EmptyHistoryError:
            weights = None
        out: dict[str, Schedule] = {}
        q_profile = None
        if delayed_map:
            q_profile = audience_reaction_profile(delayed_map)
            for kind, fn in (
                ("S1", lambda: first_degree(delayed_map)),
                ("S2", lambda: second_degree(delayed_map, visible_map)),
            ):
                try:
                    out[kind] = fn()
                except NoSignalError:
                    pass
            if weights is not None:
                for kind, fn in (
                    ("S1w", lambda: weighted_first_degree(delayed_map, weights)),
                    ("S2w", lambda: weighted_second_degree(
                        delayed_map, visible_map, weights)),
                ):
                    try:
                        out[kind] = fn()
                    except NoSignalError:
                        pass
        return user, out, q_profile

    personalized: dict[str, dict[str, Schedule]] = {k: {} for k in PERSONALIZED_KINDS}
    audience_profiles: dict[str, ActionProfile] = {}
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(derive_one, target_list))
    else:
        results = [derive_one(u) for u in target_list]
    for user, out, q_profile in results:
        for kind, sched in out.items():
            personalized[kind][user] = sched
        if q_profile is not None and q_profile.total > 0:
            audience_profiles[user] = q_profile

    # Timezone-cohort baselines. Users without metadata fall into UTC.
    cohort_users: dict[int, list[str]] = defaultdict(list)
    for user in sorted(set(tz_of) | set(profiles.created) | set(audience_profiles)):
        cohort_users[tz_of.get(user, 0)].append(user)
    baselines: dict[int, dict[str, Schedule]] = {}
    for off, cohort in cohort_users.items():
        per_kind: dict[str, Schedule] = {}
        try:
            per_kind["MFU"] = mfu_baseline(
                profiles.created[u] for u in cohort if u in profiles.created)
        except NoSignalError:
            pass
        try:
            per_kind["AFD"] = afd_baseline(
                audience_profiles[u] for u in cohort if u in audience_profiles)
        except NoSignalError:
            pass
        baselines[off] = per_kind

    recommended: dict[str, Schedule] = {}
    for user in target_list:
        sched = personalized["S1w"].get(user) or personalized["S1"].get(user)
        if sched is None:
            per_kind = baselines.get(tz_of.get(user, 0), {})
            sched = per_kind.get("AFD") or per_kind.get("MFU") or uniform_schedule(n)
        recommended[user] = sched

    return DerivedSchedules(personalized, baselines, recommended,
                            audience_profiles, tz_of, profiles.unknown_tz)


def write_schedules(path, rows: Iterable[tuple[str, Schedule]]) -> None:
    """Persist schedules as: user <tab> provenance <tab> comma-joined probs."""
    with open(path, "w", encoding="utf-8") as fh:
        for user, sched in rows:
            probs = ",".join(f"{p:.17g}" for p in sched.probabilities)
            fh.write(f"{user}\t{sched.provenance}\t{probs}\n")


def read_schedules(path) -> dict[str, dict[str, Schedule]]:
    """Inverse of :func:`write_schedules`, keyed kind -> user."""
    out: dict[str, dict[str, Schedule]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            user, prov, probs = line.split("\t")
            sched = Schedule(np.array([float(x) for x in probs.split(",")]), prov)
            out.setdefault(prov, {})[user] = sched
    return out


def write_ranked_times(path, rows: Iterable[tuple[str, RankedTimes]],
                       grid: WeeklyGrid) -> None:
    """Persist rankings as: user, rank, bucket, local time label, probability."""
    with open(path, "w", encoding="utf-8") as fh:
        for user, ranked in rows:
            for rank, (bucket, prob) in enumerate(ranked.entries, start=1):
                label = grid.bucket_label(bucket)
                fh.write(f"{user}\t{rank}\t{bucket}\t{label}\t{prob:.17g}\n")


def rank_all(schedules: Mapping[str, Schedule], k: int, grid: WeeklyGrid,
             day_filter: str = "weekday") -> list[tuple[str, RankedTimes]]:
    return [(user, top_k_times(schedules[user], k, grid, day_filter))
            for user in sorted(schedules)]
