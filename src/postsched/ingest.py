"""Event-log ingestion: TSV parsing, reaction joining, per-user profiles.

Canonical inputs are headerless UTF-8 TSV files with LF line endings;
'#'-prefixed lines are comments and blank lines are skipped:

    posts.tsv      network <tab> author <tab> post_id <tab> epoch_seconds
    reactions.tsv  network <tab> post_id <tab> reactor <tab> epoch_seconds
    edges.tsv      network <tab> src <tab> dst     (dst is in src's audience)
    users.tsv      user <tab> tz_offset_minutes <tab> city <tab> network

Timestamps are ASCII decimal integers, ``-?[0-9]+``, within the signed
64-bit range. Timezone offsets follow the same grammar and lie within
UTC-12:00 .. UTC+14:00 (-720 .. 840 minutes). The reactor column may hold
"-" when the source data does not identify who reacted; such rows support
delay estimation and analysis but not schedule derivation. Malformed lines
are counted, never silently dropped.

Posts and reactions load into column tables (:class:`PostTable`,
:class:`ReactionTable`) whose user ids are interned as integer codes into a
``users`` vocabulary and whose times are int64 arrays. :func:`join_reactions`
turns the two into one :class:`PairTable`, which every later stage reads.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import IngestError
from .temporal import MAX_TZ_OFFSET_MIN, TimeWindow, WeeklyGrid

NETWORKS = ("TW", "FB", "FP", "GP")

#: Networks whose relationship is mutual, so the edge file must be symmetric.
BIDIRECTIONAL_NETWORKS = ("FB",)

MISSING_ID = "-"

DEFAULT_MAX_MALFORMED_FRAC = 0.01

# ``int()`` alone would also take "1_000", "+5", padded whitespace and
# non-ASCII digits.
_TIMESTAMP = re.compile(r"-?[0-9]+")
_TIMESTAMP_COLUMN = re.compile(r"-?[0-9]+(?:\t-?[0-9]+)*")
_INT64 = np.iinfo(np.int64)

# Timezone offsets in minutes, UTC-12:00 .. UTC+14:00.
_TZ_OFFSETS = range(-12 * 60, 14 * 60 + 1)

# Posts and reactions are parsed in blocks of whole lines of about this many
# characters, which bounds the memory taken by per-field strings.
_BLOCK_CHARS = 1 << 20


@dataclass(frozen=True)
class PostRecord:
    """One post as a row; the synthetic generator's output unit."""

    network: str
    author: str
    post_id: str
    created_at: int


@dataclass(frozen=True)
class ReactionRecord:
    """One reaction as a row; the synthetic generator's output unit."""

    network: str
    post_id: str
    reactor: str
    reacted_at: int


@dataclass(frozen=True)
class UserMeta:
    user: str
    tz_offset_min: int
    city: str | None
    network: str

    def __post_init__(self) -> None:
        if not -MAX_TZ_OFFSET_MIN <= self.tz_offset_min <= MAX_TZ_OFFSET_MIN:
            raise ValueError(f"tz offset {self.tz_offset_min} out of range")


@dataclass(frozen=True)
class LoadReport:
    path: str
    parsed: int
    malformed: int
    skipped_network: int = 0


def _intern(names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Vocabulary of distinct names, in first-seen order, and the int64 code
    of each input name into it."""
    index = {name: i for i, name in enumerate(dict.fromkeys(names))}
    codes = np.fromiter(map(index.__getitem__, names), np.int64, len(names))
    return np.array(list(index), dtype=object), codes


@dataclass(frozen=True)
class PostTable:
    """Posts as columns; ``author`` holds codes into ``users``."""

    networks: frozenset[str]
    users: np.ndarray        # code -> user id
    author: np.ndarray       # int64 user codes
    post_id: Sequence[str]
    created_at: np.ndarray   # int64 epoch seconds

    def __len__(self) -> int:
        return int(self.created_at.size)

    @classmethod
    def from_columns(cls, networks: Iterable[str], authors: Sequence[str],
                     post_ids: Iterable[str], created_at) -> "PostTable":
        """Table from plain columns; ``networks`` holds the network names
        present, one per row or each once, and author ids are interned."""
        users, author = _intern(authors)
        return cls(frozenset(networks), users, author, list(post_ids),
                   np.asarray(created_at, dtype=np.int64))

    @classmethod
    def from_records(cls, records: Iterable[PostRecord]) -> "PostTable":
        rows = list(records)
        return cls.from_columns([r.network for r in rows], [r.author for r in rows],
                                [r.post_id for r in rows],
                                [r.created_at for r in rows])


@dataclass(frozen=True)
class ReactionTable:
    """Reactions as columns; ``reactor`` holds codes into ``users``."""

    networks: frozenset[str]
    users: np.ndarray        # code -> user id
    post_id: Sequence[str]
    reactor: np.ndarray      # int64 user codes
    reacted_at: np.ndarray   # int64 epoch seconds

    def __len__(self) -> int:
        return int(self.reacted_at.size)

    @classmethod
    def from_columns(cls, networks: Iterable[str], post_ids: Iterable[str],
                     reactors: Sequence[str], reacted_at) -> "ReactionTable":
        """Table from plain columns, as :meth:`PostTable.from_columns`."""
        users, reactor = _intern(reactors)
        return cls(frozenset(networks), users, list(post_ids), reactor,
                   np.asarray(reacted_at, dtype=np.int64))

    @classmethod
    def from_records(cls, records: Iterable[ReactionRecord]) -> "ReactionTable":
        rows = list(records)
        return cls.from_columns([r.network for r in rows], [r.post_id for r in rows],
                                [r.reactor for r in rows],
                                [r.reacted_at for r in rows])


@dataclass(frozen=True)
class PairTable:
    """Joined (post, reaction) pairs as columns; ``author`` and ``reactor``
    hold codes into ``users``. A delay is never negative, because
    negative-delay reactions are rejected at join time."""

    users: np.ndarray          # code -> user id
    author: np.ndarray         # int64 user codes
    reactor: np.ndarray        # int64 user codes
    post_time: np.ndarray      # int64 epoch seconds
    reaction_time: np.ndarray  # int64 epoch seconds

    def __post_init__(self) -> None:
        if np.any(self.reaction_time < self.post_time):
            raise ValueError("reaction precedes post; negative delays are rejected")

    def __len__(self) -> int:
        return int(self.post_time.size)

    @property
    def delay(self) -> np.ndarray:
        return self.reaction_time - self.post_time

    @property
    def known_reactor(self) -> np.ndarray:
        """Mask of the pairs whose reactor is identified (not ``MISSING_ID``)."""
        return self.users[self.reactor] != MISSING_ID

    def select(self, rows) -> "PairTable":
        """The pairs at ``rows``, an index array or a boolean mask."""
        return PairTable(self.users, self.author[rows], self.reactor[rows],
                         self.post_time[rows], self.reaction_time[rows])

    @classmethod
    def from_columns(cls, authors: Sequence[str], reactors: Sequence[str],
                     post_time, reaction_time) -> "PairTable":
        """Table from plain columns; author and reactor ids share one
        vocabulary."""
        users, codes = _intern([*authors, *reactors])
        n = len(authors)
        return cls(users, codes[:n], codes[n:],
                   np.asarray(post_time, dtype=np.int64),
                   np.asarray(reaction_time, dtype=np.int64))


def lookup(users: np.ndarray, index: Mapping[str, int]) -> np.ndarray:
    """``index[users[code]]`` for every code of a vocabulary, -1 for a user
    that ``index`` lacks."""
    return np.array([index.get(u, -1) for u in users.tolist()], dtype=np.int64)


class SocialGraph:
    """Audience and followed-set adjacency.

    ``audience(u)`` is the set of users who can react to u's posts;
    ``followed(u)`` the set whose posts u can react to. The two mappings are
    transposes of each other by construction.
    """

    __slots__ = ("_out", "_in", "_n_edges")

    def __init__(self, edges: Iterable[tuple[str, str]]):
        out: dict[str, set[str]] = defaultdict(set)
        inn: dict[str, set[str]] = defaultdict(set)
        n = 0
        for src, dst in edges:
            if dst not in out[src]:
                out[src].add(dst)
                inn[dst].add(src)
                n += 1
        self._out = {u: frozenset(v) for u, v in out.items()}
        self._in = {u: frozenset(v) for u, v in inn.items()}
        self._n_edges = n

    def audience(self, user: str) -> frozenset[str]:
        return self._out.get(user, frozenset())

    def followed(self, user: str) -> frozenset[str]:
        return self._in.get(user, frozenset())

    @property
    def out_edges(self) -> Mapping[str, frozenset[str]]:
        return self._out

    @property
    def in_edges(self) -> Mapping[str, frozenset[str]]:
        return self._in

    @property
    def users(self) -> frozenset[str]:
        return frozenset(self._out) | frozenset(self._in)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def transposed(self) -> "SocialGraph":
        g = SocialGraph(())
        g._out, g._in, g._n_edges = self._in, self._out, self._n_edges
        return g

    def is_symmetric(self) -> bool:
        return self._out == self._in


def _blocks(path) -> Iterator[list[str]]:
    """The data lines of a TSV file, without comments and blank lines, read
    in blocks of about ``_BLOCK_CHARS`` characters so that the per-line
    strings of a large file never exist all at once."""
    with open(path, encoding="utf-8") as fh:
        try:
            while text := fh.read(_BLOCK_CHARS):
                text += fh.readline()
                yield [line for line in text.split("\n") if line and line[0] != "#"]
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _check_lines(lines: Iterable[str], n_fields: int, parse_row,
                 network: str | None, network_field: int):
    """Check and parse lines one at a time. Returns the parsed records and
    the counts of malformed lines and of lines of another network."""
    records = []
    malformed = 0
    skipped = 0
    for line in lines:
        fields = line.split("\t")
        if len(fields) != n_fields:
            malformed += 1
            continue
        if fields[network_field] not in NETWORKS:
            malformed += 1
            continue
        if network is not None and fields[network_field] != network:
            skipped += 1
            continue
        try:
            records.append(parse_row(fields))
        except ValueError:
            malformed += 1
    return records, malformed, skipped


def _report(path, parsed: int, malformed: int, skipped: int,
            max_malformed_frac: float) -> LoadReport:
    total = parsed + malformed
    if total and malformed / total > max_malformed_frac:
        raise IngestError(
            f"{path}: {malformed} of {total} lines malformed, above the "
            f"{max_malformed_frac:.2%} limit"
        )
    return LoadReport(str(path), parsed, malformed, skipped)


def _load_tsv(path, n_fields: int, parse_row, network: str | None,
              network_field: int, max_malformed_frac: float):
    records, malformed, skipped = _check_lines(
        chain.from_iterable(_blocks(path)), n_fields, parse_row, network,
        network_field)
    return records, _report(path, len(records), malformed, skipped,
                            max_malformed_frac)


def _timestamp(text: str) -> int:
    if not _TIMESTAMP.fullmatch(text):
        raise ValueError(f"bad timestamp {text!r}")
    value = int(text)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"timestamp {text} out of the int64 range")
    return value


def _tz_offset(text: str) -> int:
    if not _TIMESTAMP.fullmatch(text) or int(text) not in _TZ_OFFSETS:
        raise ValueError(f"tz offset {text!r} is not a whole number of minutes "
                         f"in [{_TZ_OFFSETS[0]}, {_TZ_OFFSETS[-1]}]")
    return int(text)


def _event_row(f: list[str]) -> tuple[str, str, str, int]:
    return f[0], f[1], f[2], _timestamp(f[3])


def _split_clean(lines: list[str], network: str | None):
    """Columns of event lines that all pass every check, split at once; None
    when some line fails one. Lines of a network other than ``network`` are
    dropped."""
    if not lines:
        return [], [], [], np.empty(0, dtype=np.int64)
    if set(map(str.count, lines, repeat("\t"))) != {3}:
        return None
    tokens = "\t".join(lines).split("\t")
    nets, first, second, stamps = (tokens[i::4] for i in range(4))
    present = set(nets)
    if not present.issubset(NETWORKS):
        return None
    if not _TIMESTAMP_COLUMN.fullmatch("\t".join(stamps)):
        return None
    try:
        times = np.array(stamps, dtype=np.int64)
    except OverflowError:
        return None
    if network is not None and present != {network}:
        keep = [n == network for n in nets]
        nets, first, second = (list(compress(c, keep)) for c in (nets, first, second))
        times = times[np.array(keep, dtype=bool)]
    return nets, first, second, times


def _load_events(path, network: str | None, max_malformed_frac: float):
    """Networks present, two id columns and int64 times of a posts or
    reactions file, with its report. A block of lines that all pass the
    checks is split by columns; any other block is checked line by line,
    so the counts are exact either way."""
    networks: set[str] = set()
    first: list[str] = []
    second: list[str] = []
    times = [np.empty(0, dtype=np.int64)]
    malformed = 0
    skipped = 0
    for lines in _blocks(path):
        columns = _split_clean(lines, network)
        if columns is None:
            rows, bad, other = _check_lines(lines, 4, _event_row, network, 0)
            malformed += bad
            skipped += other
            columns = tuple(zip(*rows)) if rows else ((), (), (), ())
        else:
            skipped += len(lines) - len(columns[3])
        networks.update(columns[0])
        first += columns[1]
        second += columns[2]
        times.append(np.asarray(columns[3], dtype=np.int64))
    report = _report(path, len(first), malformed, skipped, max_malformed_frac)
    return (networks, first, second, np.concatenate(times)), report


def load_posts(path, network: str | None = None,
               max_malformed_frac: float = DEFAULT_MAX_MALFORMED_FRAC
               ) -> tuple[PostTable, LoadReport]:
    (nets, authors, post_ids, times), report = _load_events(
        path, network, max_malformed_frac)
    return PostTable.from_columns(nets, authors, post_ids, times), report


def load_reactions(path, network: str | None = None,
                   max_malformed_frac: float = DEFAULT_MAX_MALFORMED_FRAC
                   ) -> tuple[ReactionTable, LoadReport]:
    (nets, post_ids, reactors, times), report = _load_events(
        path, network, max_malformed_frac)
    return ReactionTable.from_columns(nets, post_ids, reactors, times), report


def load_users(path, network: str | None = None,
               max_malformed_frac: float = DEFAULT_MAX_MALFORMED_FRAC):
    def row(f):
        city = f[2] if f[2] and f[2] != MISSING_ID else None
        return UserMeta(f[0], _tz_offset(f[1]), city, f[3])
    return _load_tsv(path, 4, row, network, 3, max_malformed_frac)


def load_graph(path, network: str | None = None, bidirectional: bool = False,
               max_malformed_frac: float = DEFAULT_MAX_MALFORMED_FRAC):
    """Load edges.tsv into a :class:`SocialGraph`.

    With ``bidirectional=True`` (e.g. mutual-friend networks) the loader
    verifies that every edge is listed in both directions.
    """
    def row(f):
        return (f[1], f[2])
    edges, report = _load_tsv(path, 3, row, network, 0, max_malformed_frac)
    graph = SocialGraph(edges)
    if bidirectional and not graph.is_symmetric():
        raise IngestError(f"{path}: bidirectional network with asymmetric edges")
    return graph, report


@dataclass(frozen=True)
class JoinResult:
    pairs: PairTable
    n_dangling: int
    n_negative_delay: int

    @property
    def n_joined(self) -> int:
        return len(self.pairs)


def join_reactions(posts: PostTable, reactions: ReactionTable) -> JoinResult:
    """Join reactions to their posts, producing delay pairs.

    One pair per reaction whose post_id resolves and whose delay is >= 0,
    in reaction order. Dangling references and negative delays (clock skew,
    perturbation artifacts) are dropped and counted separately, so that
    ``n_joined + n_dangling + n_negative_delay == len(reactions)``.
    """
    networks = posts.networks | reactions.networks
    if len(networks) > 1:
        raise IngestError(f"join requires a single network, got {sorted(networks)}")
    index = dict(zip(posts.post_id, range(len(posts))))
    if len(index) < len(posts):
        seen: set[str] = set()
        for pid in posts.post_id:
            if pid in seen:
                raise IngestError(f"duplicate post_id {pid!r}")
            seen.add(pid)
    post_row = np.fromiter(map(index.get, reactions.post_id, repeat(-1)),
                           np.int64, len(reactions))
    resolved = np.flatnonzero(post_row >= 0)
    post_row = post_row[resolved]
    in_order = reactions.reacted_at[resolved] >= posts.created_at[post_row]
    joined, post_row = resolved[in_order], post_row[in_order]

    codes = {name: i for i, name in enumerate(posts.users)}
    reactor_code = np.fromiter(
        (codes.setdefault(name, len(codes)) for name in reactions.users),
        np.int64, len(reactions.users))
    pairs = PairTable(np.array(list(codes), dtype=object),
                      posts.author[post_row],
                      reactor_code[reactions.reactor[joined]],
                      posts.created_at[post_row],
                      reactions.reacted_at[joined])
    return JoinResult(pairs, len(reactions) - resolved.size,
                      resolved.size - joined.size)


@dataclass(frozen=True)
class UserProfiles:
    """Created-post and self-reaction counts over one window, as
    users x buckets matrices whose rows follow the sorted ``users``."""

    users: np.ndarray       # row -> user id, in ascending order
    created: np.ndarray     # posts authored per row and local bucket
    reactions: np.ndarray   # reactions performed per row and local bucket
    unknown_tz: frozenset[str]  # users bucketized at UTC for lack of metadata


def build_profiles(posts: PostTable, pairs: PairTable, users: list[UserMeta],
                   grid: WeeklyGrid, window: TimeWindow) -> UserProfiles:
    """Aggregate in-window events into per-user weekly profiles.

    Created-post profiles count a user's authored posts; self-reaction
    profiles count the reactions the user performed (as reactor), at the
    reaction's own timestamp. The rows cover every user with metadata or
    with in-window events; users without events get zero rows. Users with
    events but no timezone metadata default to UTC and are flagged in
    ``unknown_tz``.
    """
    tz = {u.user: u.tz_offset_min for u in users}
    post_rows = np.flatnonzero(window.mask(posts.created_at))
    react_rows = np.flatnonzero(window.mask(pairs.reaction_time)
                                & pairs.known_reactor)
    active = (set(posts.users[np.unique(posts.author[post_rows])].tolist())
              | set(pairs.users[np.unique(pairs.reactor[react_rows])].tolist()))
    names = np.array(sorted(set(tz) | active), dtype=object)
    created = weekly_counts(names, tz, posts.users, posts.author[post_rows],
                            posts.created_at[post_rows], grid)
    reactions = weekly_counts(names, tz, pairs.users, pairs.reactor[react_rows],
                              pairs.reaction_time[react_rows], grid)
    return UserProfiles(names, created, reactions, frozenset(active - set(tz)))


def weekly_counts(rows: np.ndarray, tz: Mapping[str, int],
                  vocabulary: np.ndarray, codes: np.ndarray, times: np.ndarray,
                  grid: WeeklyGrid) -> np.ndarray:
    """Events per row and local weekly bucket, as a float64 matrix whose rows
    follow ``rows``, an array of user ids. Event i is by the user
    ``vocabulary[codes[i]]`` at ``times[i]``, bucketed at the user's ``tz``
    offset (UTC without one); the events of users without a row are
    dropped."""
    n = grid.buckets_per_week
    names = rows.tolist()
    row = lookup(vocabulary, {u: i for i, u in enumerate(names)})[codes]
    row, times = row[row >= 0], times[row >= 0]
    offset = np.array([tz.get(u, 0) for u in names], dtype=np.int64)
    out = np.zeros((len(names), n))
    np.add.at(out.reshape(-1), row * n + grid.bucket_indices(times, offset[row]),
              1.0)
    return out


@dataclass(frozen=True)
class ColumnMap:
    """0-based column indices of a foreign dataset layout; None = absent.

    The published event datasets in this domain ship anonymized ids and
    timestamps but no fixed byte-level schema, so the adapter is driven by
    an explicit mapping instead of guessing.
    """

    post_id: int = 0
    author: int | None = 1
    created_at: int = 2
    reaction_post_id: int = 0
    reacted_at: int = 1
    reactor: int | None = None


@dataclass(frozen=True)
class AdapterReport:
    posts_written: int
    reactions_written: int
    skipped: int
    analysis_only: bool  # True when reactor ids are absent from the source


def adapt_open_dataset(posts_in, reactions_in, posts_out, reactions_out,
                       network: str, colmap: ColumnMap = ColumnMap()) -> AdapterReport:
    """Rewrite a foreign post/reaction dump into the canonical TSV format.

    Rows that cannot be mapped are skipped and counted. When the source has
    no reactor column the canonical rows carry "-" and the result is marked
    analysis-only: delay estimation and cohort analysis work, schedule
    derivation does not.
    """
    if network not in NETWORKS:
        raise ValueError(f"unknown network {network!r}")
    skipped = 0

    def rows(path, needed):
        nonlocal skipped
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                f = line.split("\t")
                if len(f) <= needed:
                    skipped += 1
                    continue
                yield f

    n_posts = 0
    max_post_col = max(colmap.post_id, colmap.created_at,
                       colmap.author if colmap.author is not None else 0)
    with open(posts_out, "w", encoding="utf-8") as out:
        for f in rows(posts_in, max_post_col):
            author = f[colmap.author] if colmap.author is not None else MISSING_ID
            try:
                ts = int(f[colmap.created_at])
            except ValueError:
                skipped += 1
                continue
            out.write(f"{network}\t{author}\t{f[colmap.post_id]}\t{ts}\n")
            n_posts += 1

    n_reactions = 0
    max_react_col = max(colmap.reaction_post_id, colmap.reacted_at,
                        colmap.reactor if colmap.reactor is not None else 0)
    with open(reactions_out, "w", encoding="utf-8") as out:
        for f in rows(reactions_in, max_react_col):
            reactor = f[colmap.reactor] if colmap.reactor is not None else MISSING_ID
            try:
                ts = int(f[colmap.reacted_at])
            except ValueError:
                skipped += 1
                continue
            out.write(f"{network}\t{f[colmap.reaction_post_id]}\t{reactor}\t{ts}\n")
            n_reactions += 1

    return AdapterReport(n_posts, n_reactions, skipped,
                         analysis_only=colmap.reactor is None or colmap.author is None)
