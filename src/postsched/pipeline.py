"""End-to-end schedule derivation over a whole event log.

Glues the modules together: users x buckets profiles from the derivation
window, delayed reaction profiles through the network delay kernel, the
four personalized schedule tables, timezone-cohort baselines, and the
fallback chain for users without enough signal:

    S1w -> S1 -> AFD(tz) -> MFU(tz) -> uniform

Each row of a schedule table carries its provenance, so downstream
artifacts record which rule actually produced each recommendation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .delays import DelayKernel
from .errors import PostschedError
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
    VisibilityModel,
    audience_reaction_profile,
    cohort_label,
    cohort_sum,
    compute_weights,
    visible_posts,
)
from .temporal import (
    UNIT_SUM_TOL,
    ScheduleTable,
    TimeWindow,
    WeeklyGrid,
    delayed_profile,
    invalid_rows,
    normalize_rows,
)

PERSONALIZED_KINDS = ("S1", "S2", "S1w", "S2w")


@dataclass(frozen=True)
class DerivedSchedules:
    """Everything the derivation stage produces for one network."""

    personalized: dict[str, ScheduleTable]  # kind -> a row per user with signal
    baselines: ScheduleTable     # AFD/MFU rows per tz cohort, by (offset, kind)
    recommended: ScheduleTable   # fallback chain result, a row per target
    audience_profiles: np.ndarray  # raw Q(u), rows as personalized["S1"] (feeds AFD)
    unknown_tz: frozenset[str]


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
        target_list = sorted(set(names).union(graph.users.tolist()))
    else:
        target_list = sorted(set(targets))
    row = lookup(graph.users, row_of)

    # Audience edges to the members who reacted in the window. Senders are
    # the targets with such members; both are numbered in name order.
    target_of = lookup(graph.users, {u: i for i, u in enumerate(target_list)})
    target_at, member_row = target_of[graph.src], row[graph.dst]
    edge = (target_at >= 0) & (member_row >= 0)
    target_at, member_row = target_at[edge], member_row[edge]
    reacted = profiles.reactions.any(axis=1)[member_row]
    senders, target_at = np.unique(target_at[reacted], return_inverse=True)
    members, member_at = np.unique(member_row[reacted], return_inverse=True)
    audience = Adjacency.from_edges(len(senders), target_at, member_at)
    sender_names = [target_list[t] for t in senders]
    member_names = [names[m] for m in members]
    # The edges into each member from the authors with a profile row.
    member_of = lookup(graph.users, {u: i for i, u in enumerate(member_names)})
    follower_at, author_row = member_of[graph.dst], row[graph.src]
    edge = (follower_at >= 0) & (author_row >= 0)
    followed = Adjacency.from_edges(len(members), follower_at[edge],
                                    author_row[edge])

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
    personalized = {"S1": normalize_rows(first_degree, sender_names, "S1")}
    for kind, w, v in (("S2", None, visible), ("S1w", weights, None),
                       ("S2w", weights, visible)):
        personalized[kind] = normalize_rows(
            audience_reaction_profile(delayed, audience, w, v), sender_names, kind)
    del delayed, visible

    # Timezone-cohort baselines, one AFD and one MFU row per cohort. Users
    # without metadata fall into UTC. Every sender has a member who reacted,
    # so its S1 sum carries mass.
    offsets = sorted({tz_of.get(u, 0) for u in set(names) | set(sender_names)})
    cohort = {off: i for i, off in enumerate(offsets)}
    sums = np.stack([cohort_sum(rows, [cohort[tz_of.get(u, 0)] for u in of],
                                len(offsets))
                     for rows, of in ((first_degree, sender_names),
                                      (created, names))], axis=1)
    del created
    n = grid.buckets_per_week
    baselines = normalize_rows(
        sums.reshape(-1, n), np.repeat([cohort_label(off) for off in offsets], 2),
        np.tile(["AFD", "MFU"], len(offsets)))

    # The fallback chain. Each target takes its row from the first rule that
    # has one for it, as an index into the stack of every candidate row; row
    # 0 is the uniform schedule.
    cohorts = [cohort_label(tz_of.get(u, 0)) for u in target_list]
    afd, mfu = (baselines.select(baselines.provenance == kind)
                for kind in ("AFD", "MFU"))
    candidates = [ScheduleTable([None], ["uniform"], np.full((1, n), 1.0 / n))]
    choice = np.zeros(len(target_list), dtype=np.int64)
    for table, keys in ((personalized["S1w"], target_list),
                        (personalized["S1"], target_list),
                        (afd, cohorts), (mfu, cohorts)):
        rows = table.rows_of(keys)
        take = (choice == 0) & (rows >= 0)
        choice[take] = sum(map(len, candidates)) + rows[take]
        candidates.append(table)
    recommended = ScheduleTable(
        target_list, np.concatenate([t.provenance for t in candidates])[choice],
        np.concatenate([t.probabilities for t in candidates])[choice])

    return DerivedSchedules(personalized, baselines, recommended, first_degree,
                            unknown_tz)


def _once_per_distinct_row(render: Callable[[int], object],
                           *arrays: np.ndarray) -> Iterator:
    """``render(i)`` for each row i of ``arrays``, computed once for all the
    rows that are equal in every array.

    Rows are grouped by their bytes, not by value: 0.0 == -0.0, but the two
    print apart. A result is kept only until the last row that repeats it,
    and that of a row which occurs once is not kept at all. The counts are
    keyed by the hash of a row's bytes so that they hold no copy of a row;
    two distinct rows with one hash only keep a result for longer.
    """
    def key(i: int) -> bytes:
        return b"".join(a[i].tobytes() for a in arrays)

    n_rows = len(arrays[0])
    left = Counter(hash(key(i)) for i in range(n_rows))
    kept: dict[bytes, object] = {}
    for i in range(n_rows):
        k = key(i)
        result = kept.pop(k) if k in kept else render(i)
        left[hash(k)] -= 1
        if left[hash(k)]:
            kept[k] = result
        yield result


def write_schedules(path, *tables: ScheduleTable) -> None:
    """Persist the rows of ``tables``, in order, as: user <tab> provenance
    <tab> comma-joined probabilities."""
    with open(path, "w", encoding="utf-8") as fh:
        for table in tables:
            probs = table.probabilities
            fmt = ",".join(["%.17g"] * probs.shape[1])
            # One row at a time: converting the whole matrix to Python
            # floats at once would hold all of it twice.
            texts = _once_per_distinct_row(
                lambda i: fmt % tuple(probs[i].tolist()), probs)
            for user, prov, text in zip(table.users.tolist(),
                                        table.provenance.tolist(), texts):
                fh.write(f"{user}\t{prov}\t{text}\n")


def read_schedules(path, n_buckets: int) -> dict[str, ScheduleTable]:
    """Inverse of :func:`write_schedules`, one table per provenance.

    Every row must hold ``n_buckets`` probabilities that are finite, >= 0
    and sum to 1; a malformed line raises :class:`PostschedError` naming the
    file and line.
    """
    users: list[str] = []
    provenance: list[str] = []
    rows: list[np.ndarray] = []
    lines: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise PostschedError(f"{path}:{lineno}: expected 3 tab-separated "
                                     f"fields, got {len(fields)}")
            values = fields[2].split(",")
            if len(values) != n_buckets:
                raise PostschedError(f"{path}:{lineno}: expected {n_buckets} "
                                     f"probabilities, got {len(values)}")
            try:
                rows.append(np.fromiter(map(float, values), np.float64, n_buckets))
            except ValueError as exc:
                raise PostschedError(f"{path}:{lineno}: {exc}") from None
            users.append(fields[0])
            provenance.append(fields[1])
            lines.append(lineno)
    probabilities = np.array(rows).reshape(len(rows), n_buckets)
    bad = np.flatnonzero(invalid_rows(probabilities))
    if bad.size:
        raise PostschedError(f"{path}:{lines[bad[0]]}: probabilities must be "
                             f"finite, >= 0 and sum to 1 within {UNIT_SUM_TOL}")
    return ScheduleTable(users, provenance, probabilities).by_provenance()


def write_ranked_times(path, table: ScheduleTable, buckets: np.ndarray,
                       grid: WeeklyGrid) -> None:
    """Persist rankings as: user, rank, bucket, local time label, probability.

    ``buckets`` holds the ranked buckets of each row of ``table``, best
    first, as :func:`~postsched.schedules.top_k_times` returns them.
    """
    labels = [grid.bucket_label(b) for b in range(grid.buckets_per_week)]
    probs = np.take_along_axis(table.probabilities, buckets, axis=-1)

    def lines(i: int) -> list[str]:
        """A row's lines, each without the user in front."""
        return [f"\t{rank}\t{b}\t{labels[b]}\t{p:.17g}\n"
                for rank, (b, p) in enumerate(
                    zip(buckets[i].tolist(), probs[i].tolist()), start=1)]

    with open(path, "w", encoding="utf-8") as fh:
        for user, text in zip(table.users.tolist(),
                              _once_per_distinct_row(lines, buckets, probs)):
            fh.write("".join([f"{user}{line}" for line in text]))
