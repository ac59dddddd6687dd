"""End-to-end schedule derivation over a whole event log.

Glues the modules together: sparse users x buckets profiles from the
derivation window, delayed reaction profiles through the network delay
kernel, the four personalized schedule tables, timezone-cohort baselines,
and the fallback chain for users without enough signal:

    S1w -> S1 -> AFD(tz) -> MFU(tz) -> uniform

Each row of a schedule table carries its provenance, so downstream
artifacts record which rule actually produced each recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import temporal
from .delays import DelayKernel
from .errors import PostschedError
from .ingest import (
    PairTable,
    PostTable,
    SocialGraph,
    UserTable,
    build_profiles,
    float_texts,
    index_of,
)
from .schedules import (
    Adjacency,
    VisibilityModel,
    audience_reaction_profile,
    baseline_rows,
    cohort_label,
    cohort_sum,
    compute_weights,
    visible_posts,
)
from .temporal import (
    CHUNK_ROWS,
    UNIT_SUM_TOL,
    Chosen,
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
    chosen: Chosen               # fallback chain result, a row per target
    unknown_tz: frozenset[str]

    @property
    def recommended(self) -> ScheduleTable:
        """The fallback chain result as a table, a row per target."""
        return self.chosen.table()


def derive_schedules(posts: PostTable, pairs: PairTable,
                     graph: SocialGraph, users: UserTable,
                     grid: WeeklyGrid, kernel: DelayKernel,
                     window: TimeWindow,
                     model: VisibilityModel = VisibilityModel(),
                     targets: Iterable[str] | None = None) -> DerivedSchedules:
    """Derive all schedules from one derivation window.

    ``targets`` restricts which users get personalized schedules (default:
    every known user). Profiles are sparse users x buckets counts, and each
    personalized kind is one sum over the audience edges, so a target's
    schedules do not depend on the other targets. The audience members who
    reacted in the window are taken in ascending blocks of
    ``temporal.CHUNK_ROWS``: a block's reaction rows are made dense and
    delayed, the posts visible to it are built from the rows its members
    follow, and its audience edges are added into the four sums. Each sum
    adds a target's edges in ascending member order, so the block size
    changes no bit, and no users x buckets matrix is ever held.
    """
    profiles = build_profiles(posts, pairs, users, grid, window)
    names = profiles.users
    if targets is None:
        targets = set(names.tolist()).union(graph.users.tolist())
    targets = np.array(sorted(set(targets)), dtype=object)
    row = index_of(names, graph.users)

    # Audience edges to the members who reacted in the window. Senders are
    # the targets with such members; both are numbered in name order.
    target_at, member_row = index_of(targets, graph.users)[graph.src], row[graph.dst]
    edge = (target_at >= 0) & (member_row >= 0)
    target_at, member_row = target_at[edge], member_row[edge]
    reacted = (profiles.reactions.row_sums > 0)[member_row]
    senders, target_at = np.unique(target_at[reacted], return_inverse=True)
    members, member_at = np.unique(member_row[reacted], return_inverse=True)
    audience = Adjacency.from_edges(len(senders), target_at, member_at)
    sender_names, member_names = targets[senders], names[members]
    # The edges into each member from the authors with a profile row.
    follower_at = index_of(member_names, graph.users)[graph.dst]
    author_row = row[graph.src]
    edge = (follower_at >= 0) & (author_row >= 0)
    followed = Adjacency.from_edges(len(members), follower_at[edge],
                                    author_row[edge])

    received = window.mask(pairs.post_time) & pairs.known_reactor
    author = index_of(sender_names, pairs.users)
    reactor = index_of(member_names, pairs.users)
    weights = compute_weights(author[pairs.author[received]],
                              reactor[pairs.reactor[received]], audience)

    n = grid.buckets_per_week
    sums = {kind: np.zeros((len(senders), n)) for kind in PERSONALIZED_KINDS}
    # The audience edges in member order, to find a block's by bisection.
    by_member = np.argsort(audience.col, kind="stable")
    member_of = audience.col[by_member]
    step = temporal.CHUNK_ROWS  # read now, as delayed_profile reads it
    # One pair of buffers serves every block. A block's reaction rows are
    # not read once they are delayed, so their buffer takes its visible posts.
    buffers = np.empty((2, min(step, len(members)), n))
    for lo in range(0, len(members), step):
        block = members[lo:lo + step]
        # This block's edges in (target, member) order, members from 0.
        e = np.sort(by_member[slice(*np.searchsorted(member_of, [lo, lo + step]))])
        edges = Adjacency(len(senders), audience.row[e], audience.col[e] - lo)
        f = slice(*np.searchsorted(followed.row, [lo, lo + step]))
        follows = Adjacency(block.size, followed.row[f] - lo, followed.col[f])
        reactions, delayed = buffers[:, :block.size]
        delayed_profile(profiles.reactions.rows(block, out=reactions), kernel,
                        out=delayed)
        visible = visible_posts(profiles.created, follows, model, out=reactions)
        for kind, w, v in (("S1", None, None), ("S2", None, visible),
                           ("S1w", weights[e], None), ("S2w", weights[e], visible)):
            audience_reaction_profile(delayed, edges, w, v, out=sums[kind])
    first_degree = sums["S1"]
    first_degree.setflags(write=False)
    personalized = {kind: normalize_rows(sums[kind], sender_names, kind)
                    for kind in PERSONALIZED_KINDS}

    # Timezone-cohort baselines, one AFD and one MFU row per cohort. Every
    # sender has a member who reacted, so its S1 sum carries mass. MFU sums
    # the created counts of each cohort's users; they are whole numbers, so
    # a bincount sums them exactly.
    offsets, cohort = np.unique(
        users.offsets(np.concatenate([sender_names, names])), return_inverse=True)
    user_row, bucket = np.divmod(profiles.created.keys, n)
    mfu = np.bincount(cohort[len(senders):][user_row] * n + bucket,
                      profiles.created.counts, minlength=len(offsets) * n)
    cohort_sums = np.stack(
        [cohort_sum(first_degree, cohort[:len(senders)], len(offsets)),
         mfu.reshape(-1, n)], axis=1)
    baselines = normalize_rows(
        cohort_sums.reshape(-1, n),
        np.repeat([cohort_label(off) for off in offsets.tolist()], 2),
        np.tile(["AFD", "MFU"], len(offsets)))

    # The fallback chain. Each target takes its row from the first rule that
    # has one for it, as an index into the stack of every candidate row; row
    # 0 is the uniform schedule. Only the rows that some target takes are
    # kept as candidates.
    s1w, s1 = personalized["S1w"], personalized["S1"]
    afd, mfu = (baselines.select(baselines.provenance == kind)
                for kind in ("AFD", "MFU"))
    offsets = users.offsets(targets)
    stack = [ScheduleTable([None], ["uniform"], np.full((1, n), 1.0 / n))]
    choice = np.zeros(len(targets), dtype=np.int64)
    for table, rows in ((s1w, index_of(s1w.users, targets)),
                        (s1, index_of(s1.users, targets)),
                        (afd, baseline_rows(afd, offsets)),
                        (mfu, baseline_rows(mfu, offsets))):
        take = (choice == 0) & (rows >= 0)
        choice[take] = sum(map(len, stack)) + rows[take]
        stack.append(table)
    used, choice = np.unique(choice, return_inverse=True)
    candidates = ScheduleTable(
        *(np.concatenate([getattr(t, column) for t in stack])[used]
          for column in ("users", "provenance", "probabilities")))
    chosen = Chosen(targets, candidates, choice)

    return DerivedSchedules(personalized, baselines, chosen, profiles.unknown_tz)


def write_schedules(path, *tables: ScheduleTable | Chosen) -> None:
    """Persist the rows of ``tables``, in order, as: user <tab> provenance
    <tab> comma-joined probabilities. The rows of a :class:`Chosen` are
    written from the text of its candidates, each formatted once."""
    with open(path, "w", encoding="utf-8") as fh:
        for table in map(Chosen.of, tables):
            prov = table.candidates.provenance.tolist()
            p = table.candidates.probabilities
            # CHUNK_ROWS rows at a time bounds the formatter's temporaries.
            texts = [",".join(row) for lo in range(0, len(p), CHUNK_ROWS)
                     for row in float_texts(p[lo:lo + CHUNK_ROWS]).tolist()]
            fh.writelines(f"{user}\t{prov[c]}\t{texts[c]}\n" for user, c in
                          zip(table.users.tolist(), table.choice.tolist()))


def read_schedules(path, n_buckets: int) -> dict[str, ScheduleTable]:
    """Inverse of :func:`write_schedules`, one table per provenance.

    Every row must hold ``n_buckets`` probabilities that are finite, >= 0
    and sum to 1, and a user may have one row per provenance; a malformed or
    repeated line raises :class:`PostschedError` naming the file and line.
    """
    users: list[str] = []
    provenance: list[str] = []
    rows: list[np.ndarray] = []
    line_of: dict[tuple[str, str], int] = {}  # (user, provenance) -> line
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise PostschedError(f"{path}:{lineno}: expected 3 tab-separated "
                                     f"fields, got {len(fields)}")
            if line_of.setdefault((fields[0], fields[1]), lineno) != lineno:
                raise PostschedError(f"{path}:{lineno}: user {fields[0]!r} is "
                                     f"listed more than once under {fields[1]}")
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
    probabilities = np.array(rows).reshape(len(rows), n_buckets)
    bad = np.flatnonzero(invalid_rows(probabilities))
    if bad.size:
        raise PostschedError(f"{path}:{list(line_of.values())[bad[0]]}: probabilities "
                             f"must be finite, >= 0 and sum to 1 within {UNIT_SUM_TOL}")
    return ScheduleTable(users, provenance, probabilities).by_provenance()


def write_ranked_times(path, table: ScheduleTable | Chosen,
                       buckets: np.ndarray, grid: WeeklyGrid) -> None:
    """Persist rankings as: user, rank, bucket, local time label, probability.

    ``buckets`` holds the ranked buckets of each row of ``table``, or of
    each candidate of a :class:`Chosen`, best first, as
    :func:`~postsched.schedules.top_k_times` returns them.
    """
    chosen = Chosen.of(table)
    labels = [grid.bucket_label(b) for b in range(grid.buckets_per_week)]
    texts = float_texts(np.take_along_axis(chosen.candidates.probabilities,
                                           buckets, axis=-1))
    # The lines of each candidate, each without the user in front, so that
    # a user's text is ``user + user.join(lines)``.
    lines = [[f"\t{rank}\t{b}\t{labels[b]}\t{p}\n"
              for rank, (b, p) in enumerate(zip(bs, ps), start=1)]
             for bs, ps in zip(buckets.tolist(), texts.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        if buckets.shape[-1]:
            fh.writelines(user + user.join(lines[c]) for user, c in
                          zip(map(str, chosen.users.tolist()),
                              chosen.choice.tolist()))
