"""End-to-end schedule derivation over a whole event log.

Glues the modules together: users x buckets profiles from the derivation
window, delayed reaction profiles through the network delay kernel, the
four personalized schedules per user, timezone-cohort baselines, and the
fallback chain for users without enough signal:

    S1w -> S1 -> AFD(tz) -> MFU(tz) -> uniform

The chosen schedule's provenance travels with it, so downstream artifacts
record which rule actually produced each recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .delays import DelayKernel
from .ingest import (
    PairTable,
    PostTable,
    SocialGraph,
    UserMeta,
    build_profiles,
    lookup,
)
from .schedules import (
    Adjacency,
    RankedTimes,
    VisibilityModel,
    audience_reaction_profile,
    cohort_sum,
    compute_weights,
    top_k_times,
    uniform_schedule,
    visible_posts,
)
from .temporal import (
    Schedule,
    TimeWindow,
    WeeklyGrid,
    delayed_profile,
    normalize_to_schedule,
)

PERSONALIZED_KINDS = ("S1", "S2", "S1w", "S2w")


@dataclass(frozen=True)
class DerivedSchedules:
    """Everything the derivation stage produces for one network."""

    personalized: dict[str, dict[str, Schedule]]  # kind -> user -> schedule
    baselines: dict[int, dict[str, Schedule]]     # tz offset -> kind -> schedule
    recommended: dict[str, Schedule]              # fallback chain result per user
    audience_profiles: dict[str, np.ndarray]      # raw Q(u) per user (feeds AFD)
    tz_of: dict[str, int]
    unknown_tz: frozenset[str]


def expand_baselines(baselines: Mapping[int, Mapping[str, Schedule]],
                     tz_of: Mapping[str, int], users: Iterable[str]
                     ) -> dict[str, dict[str, Schedule]]:
    """Per-user view of timezone baselines, kind -> user -> schedule. A user
    without metadata takes the UTC cohort's; a kind no user has is left out."""
    out: dict[str, dict[str, Schedule]] = {}
    for user in users:
        for kind, sched in baselines.get(tz_of.get(user, 0), {}).items():
            out.setdefault(kind, {})[user] = sched
    return out


def _edges(sources: list[str], neighbours: Callable[[str], Iterable[str]],
           row_of: Mapping[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """The edges from each source to those of its neighbours that have a
    row, as the source's position and the neighbour's row."""
    src: list[int] = []
    dst: list[int] = []
    for i, user in enumerate(sources):
        for other in neighbours(user):
            if other in row_of:
                src.append(i)
                dst.append(row_of[other])
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


def _schedules(sums: np.ndarray, keys: list, kind: str) -> dict:
    """The rows of ``sums`` that carry mass, normalized and keyed."""
    return {key: normalize_to_schedule(row, kind)
            for key, row in zip(keys, sums) if row.any()}


def derive_schedules(posts: PostTable, pairs: PairTable,
                     graph: SocialGraph, users: list[UserMeta],
                     grid: WeeklyGrid, kernel: DelayKernel,
                     window: TimeWindow,
                     model: VisibilityModel = VisibilityModel(),
                     targets: Iterable[str] | None = None) -> DerivedSchedules:
    """Derive all schedules from one derivation window.

    ``targets`` restricts which users get personalized schedules (default:
    every known user). Profiles are users x buckets matrices. The delay
    transform runs once, on the rows of the targets' audience members who
    reacted in the window, and each personalized kind is one sum over the
    audience edges, so a target's schedules do not depend on the other
    targets.
    """
    profiles = build_profiles(posts, pairs, users, grid, window)
    tz_of = {u.user: u.tz_offset_min for u in users}
    names = profiles.users.tolist()
    row_of = {u: i for i, u in enumerate(names)}
    if targets is None:
        target_list = sorted(set(names) | graph.users)
    else:
        target_list = sorted(set(targets))

    # Audience edges to the members who reacted in the window. Senders are
    # the targets with such members; both are numbered in name order.
    target_at, member_row = _edges(target_list, graph.audience, row_of)
    reacted = profiles.reactions.any(axis=1)[member_row]
    senders, target_at = np.unique(target_at[reacted], return_inverse=True)
    members, member_at = np.unique(member_row[reacted], return_inverse=True)
    audience = Adjacency.from_edges(len(senders), target_at, member_at)
    sender_names = [target_list[t] for t in senders]
    member_names = [names[m] for m in members]
    followed = Adjacency.from_edges(
        len(members), *_edges(member_names, graph.followed, row_of))

    received = window.mask(pairs.post_time) & pairs.known_reactor
    author = lookup(pairs.users, {u: i for i, u in enumerate(sender_names)})
    reactor = lookup(pairs.users, {u: i for i, u in enumerate(member_names)})
    weights = compute_weights(author[pairs.author[received]],
                              reactor[pairs.reactor[received]], audience)
    reactions = profiles.reactions[members]
    created, unknown_tz = profiles.created, profiles.unknown_tz
    del profiles  # frees the reaction counts of everyone else
    delayed = delayed_profile(reactions, kernel)
    del reactions
    visible = visible_posts(created, followed, model)

    first_degree = audience_reaction_profile(delayed, audience)
    first_degree.setflags(write=False)
    personalized = {"S1": _schedules(first_degree, sender_names, "S1")}
    for kind, w, v in (("S2", None, visible), ("S1w", weights, None),
                       ("S2w", weights, visible)):
        personalized[kind] = _schedules(
            audience_reaction_profile(delayed, audience, w, v), sender_names, kind)

    # Timezone-cohort baselines. Users without metadata fall into UTC. Every
    # sender has a member who reacted, so its S1 sum carries mass.
    offsets = sorted({tz_of.get(u, 0) for u in set(names) | set(sender_names)})
    cohort = {off: i for i, off in enumerate(offsets)}
    baselines: dict[int, dict[str, Schedule]] = {off: {} for off in offsets}
    for kind, rows, of in (("MFU", created, names),
                           ("AFD", first_degree, sender_names)):
        sums = cohort_sum(rows, [cohort[tz_of.get(u, 0)] for u in of],
                          len(offsets))
        for off, sched in _schedules(sums, offsets, kind).items():
            baselines[off][kind] = sched

    n = grid.buckets_per_week
    recommended: dict[str, Schedule] = {}
    for user in target_list:
        sched = personalized["S1w"].get(user) or personalized["S1"].get(user)
        if sched is None:
            per_kind = baselines.get(tz_of.get(user, 0), {})
            sched = per_kind.get("AFD") or per_kind.get("MFU") or uniform_schedule(n)
        recommended[user] = sched

    return DerivedSchedules(personalized, baselines, recommended,
                            dict(zip(sender_names, first_degree)), tz_of,
                            unknown_tz)


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
