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
    rows_by_code,
    share_users,
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

# The schedule writers' file buffer. A row of 672 probabilities is about
# 15 KB and does not fit the default 8 KB buffer, which then writes a
# user's prefix and the shared row in two system calls.
_WRITE_BUFFER = 1 << 18


@dataclass(frozen=True)
class DerivedSchedules:
    """Everything the derivation stage produces for one network."""

    personalized: dict[str, ScheduleTable]  # kind -> a row per user with signal
    baselines: ScheduleTable     # AFD/MFU rows per tz cohort, by (offset, kind)
    chosen: Chosen               # fallback chain result, a row per target
    unknown_tz: np.ndarray       # codes into chosen.users bucketed at UTC

    @property
    def recommended(self) -> ScheduleTable:
        """The fallback chain result as a table, a row per target."""
        return self.chosen.table()


def derive_schedules(posts: PostTable, pairs: PairTable,
                     graph: SocialGraph, users: UserTable,
                     grid: WeeklyGrid, kernel: DelayKernel,
                     window: TimeWindow,
                     model: VisibilityModel = VisibilityModel(),
                     targets: np.ndarray | None = None) -> DerivedSchedules:
    """Derive all schedules from one derivation window.

    The tables are re-coded onto one vocabulary of users (see
    :func:`~postsched.ingest.share_users`), and ``targets``, codes into it,
    restricts which users get schedules (default: every user with a profile
    or an edge). Profiles are sparse users x buckets counts, and each
    personalized kind is one sum over the audience edges, so a target's
    schedules do not depend on the other targets. The audience members who
    reacted in the window are taken in ascending blocks of
    ``temporal.CHUNK_ROWS``: a block's reaction rows are made dense and
    delayed, the posts visible to it are built from the rows its members
    follow, and its audience edges are added into the four sums. Each sum
    adds a target's edges in ascending member order, so the block size
    changes no bit, and no users x buckets matrix is ever held.
    """
    posts, pairs, graph, users = share_users(posts, pairs, graph, users)
    profiles = build_profiles(posts, pairs, users, grid, window)
    n_users = len(users.users)
    is_target = np.zeros(n_users, dtype=bool)
    if targets is None:
        for codes in (profiles.profiled, graph.src, graph.dst):
            is_target[codes] = True
    else:
        is_target[targets] = True
    targets = np.flatnonzero(is_target)

    # Audience edges to the members who reacted in the window. Senders are
    # the targets with such members; both are numbered in code order.
    edge = is_target[graph.src] & (profiles.reactions.row_sums > 0)[graph.dst]
    senders, target_at = np.unique(graph.src[edge], return_inverse=True)
    members, member_at = np.unique(graph.dst[edge], return_inverse=True)
    audience = Adjacency.from_edges(len(senders), target_at, member_at)
    # The edges into each member from the authors it follows.
    member_row = rows_by_code(members, n_users)
    follows = member_row[graph.dst] >= 0
    followed = Adjacency.from_edges(len(members), member_row[graph.dst][follows],
                                    graph.src[follows])

    received = window.mask(pairs.post_time) & pairs.known_reactor
    weights = compute_weights(rows_by_code(senders, n_users)[pairs.author[received]],
                              member_row[pairs.reactor[received]], audience)

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
    personalized = {kind: normalize_rows(sums[kind], users.users, kind, senders)
                    for kind in PERSONALIZED_KINDS}

    # Timezone-cohort baselines, one AFD and one MFU row per cohort of the
    # users' offsets; a cohort without a sender or a post has neither. Every
    # sender has a member who reacted, so its S1 sum carries mass. MFU sums
    # the created counts of each cohort's users; they are whole numbers, so
    # a bincount sums them exactly.
    offsets, cohort = np.unique(users.tz_offset_min, return_inverse=True)
    user, bucket = np.divmod(profiles.created.keys, n)
    mfu = np.bincount(cohort[user] * n + bucket, profiles.created.counts,
                      minlength=len(offsets) * n)
    cohort_sums = np.stack(
        [cohort_sum(first_degree, cohort[senders], len(offsets)),
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
    offsets = users.tz_offset_min[targets]
    stack = [ScheduleTable([None], ["uniform"], np.full((1, n), 1.0 / n))]
    choice = np.zeros(len(targets), dtype=np.int64)
    for table, rows in ((s1w, rows_by_code(s1w.owner, n_users)[targets]),
                        (s1, rows_by_code(s1.owner, n_users)[targets]),
                        (afd, baseline_rows(afd, offsets)),
                        (mfu, baseline_rows(mfu, offsets))):
        take = (choice == 0) & (rows >= 0)
        choice[take] = sum(map(len, stack)) + rows[take]
        stack.append(table)
    used, choice = np.unique(choice, return_inverse=True)
    candidates = ScheduleTable(
        *(np.concatenate([getattr(t, column) for t in stack])[used]
          for column in ("labels", "provenance", "probabilities")))
    chosen = Chosen(users.users, targets, candidates, choice)

    return DerivedSchedules(personalized, baselines, chosen, profiles.unknown_tz)


def write_schedules(path, *tables: ScheduleTable | Chosen) -> None:
    """Persist the rows of ``tables``, in order, as: user <tab> provenance
    <tab> comma-joined probabilities. The rows of a :class:`Chosen` are
    written from the bytes of its candidates, each formatted and joined once."""
    with open(path, "wb", buffering=_WRITE_BUFFER) as fh:
        for table in map(Chosen.of, tables):
            prov = table.candidates.provenance.tolist()
            p = table.candidates.probabilities
            # CHUNK_ROWS rows at a time bounds the formatter's temporaries.
            rows = [b",".join(row.tolist()) + b"\n"
                    for lo in range(0, len(p), CHUNK_ROWS)
                    for row in float_texts(p[lo:lo + CHUNK_ROWS])]
            fh.writelines(text for user, c in zip(table.users[table.owner].tolist(),
                                                  table.choice.tolist())
                          for text in (f"{user}\t{prov[c]}\t".encode(), rows[c]))


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
    labels = [grid.bucket_label(b).encode() for b in range(grid.buckets_per_week)]
    texts = float_texts(np.take_along_axis(chosen.candidates.probabilities,
                                           buckets, axis=-1))
    # The lines of each candidate, each without the user in front, so that
    # a user's bytes are ``user + user.join(lines)``.
    lines = [[b"\t%d\t%d\t%s\t%s\n" % (rank, b, labels[b], p)
              for rank, (b, p) in enumerate(zip(bs, ps), start=1)]
             for bs, ps in zip(buckets.tolist(), texts.tolist())]
    users = (str(u).encode() for u in chosen.users[chosen.owner].tolist())
    with open(path, "wb", buffering=_WRITE_BUFFER) as fh:
        if buckets.shape[-1]:
            fh.writelines(user + user.join(lines[c])
                          for user, c in zip(users, chosen.choice.tolist()))
