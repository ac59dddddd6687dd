"""Event-log ingestion: TSV parsing, reaction joining, per-user profiles.

Canonical inputs are headerless UTF-8 TSV files with LF line endings (CRLF
and lone CR are read as LF); '#'-prefixed lines are comments and blank lines
are skipped:

    posts.tsv      network <tab> author <tab> post_id <tab> epoch_seconds
    reactions.tsv  network <tab> post_id <tab> reactor <tab> epoch_seconds
    edges.tsv      network <tab> src <tab> dst     (dst is in src's audience)
    users.tsv      user <tab> tz_offset_minutes <tab> city <tab> network

Timestamps are ASCII decimal integers, ``-?[0-9]+``, within the signed
64-bit range. Timezone offsets follow the same grammar and lie within
UTC-12:00 .. UTC+14:00 (-720 .. 840 minutes). The author and reactor
columns may hold "-" when the source data does not identify who posted or
reacted. "-" is then nobody: its rows join and support delay estimation and
analysis, but it gets no profile row, no schedule and no baseline count, so
a log of "-" reactors cannot drive schedule derivation. A line holding
a NUL byte is malformed, and so is one with an id or a city longer than
``MAX_ID_BYTES``, or with an empty author, post_id, reactor, src, dst or
users.tsv user: an empty id names nobody, not even "-". Malformed lines
are counted, never silently dropped. A user is listed at most once in
users.tsv; a city of "-" or "" is none.

Every input loads into columns, checked and split a block of lines at a
time with numpy, never one Python object per row, by one parser that a
field spec per file drives. Posts and reactions load into tables whose user
ids are int64 codes into a sorted ``users`` vocabulary, whose post ids are
a fixed-width bytes (``S``) column and whose times are int64 arrays.
:func:`join_reactions` joins them on sorted post-id keys into the
:class:`PairTable` that later stages read. The follower graph loads as a
:class:`SocialGraph` of edge code columns, and users.tsv as a
:class:`UserTable` of a value per code. :func:`share_users` re-codes tables
onto one vocabulary, so that a code is one user in all of them; ids come
back as text only where they are written.
Text goes out a column at a time too: :func:`float_texts` is the one place
that prints a float64, and :func:`write_columns` writes the narrow tables.
A float64 becomes the bytes of its ``%.17g`` text in numpy when its
magnitude is in [1e-280, 1e280): 17 digits from a double-double product by
a power of ten, laid out in a fixed-width ``S`` slot. Python's ``%`` still
prints zeros, subnormals and other values outside that range, infinities,
NaNs and the rare value within ``_HALF_MARGIN`` of a rounding half.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

from .errors import IngestError
from .temporal import TZ_OFFSETS, TimeWindow, WeeklyGrid

NETWORKS = ("TW", "FB", "FP", "GP")

MISSING_ID = "-"

DEFAULT_MAX_MALFORMED_FRAC = 0.01

_INT64 = np.iinfo(np.int64)

# Significant digits of -2**63, the longest int64: no valid timestamp has more.
_INT64_DIGITS = len(str(-_INT64.min))

# An id column is as wide as its longest id, so one long id would widen
# every row; a line with a longer id or city is malformed.
MAX_ID_BYTES = 255

# The network names as a sorted bytes column, for a vectorized lookup, and
# as str in the same order.
_NETWORK_KEYS = np.array(sorted(n.encode() for n in NETWORKS))
_NETWORK_NAMES = np.array([n.decode() for n in _NETWORK_KEYS], dtype=object)

# The kind of each field of an input file, in file order: the network
# ("net"), a non-empty id of at most MAX_ID_BYTES bytes ("id"), text of at
# most that many bytes that may be empty ("text", a city), a ``-?[0-9]+``
# timestamp within int64 ("stamp"), or such a number within
# temporal.TZ_OFFSETS ("tz").
_EVENTS = ("net", "id", "id", "stamp")   # posts.tsv and reactions.tsv
_EDGES = ("net", "id", "id")
_USERS = ("id", "tz", "text", "net")

# Zero bytes before and after the lines of a block, so that a window of a
# field's last _INT64_DIGITS bytes or of its first MAX_ID_BYTES bytes never
# runs off the block.
_LEAD, _TAIL = _INT64_DIGITS, MAX_ID_BYTES

# Input files are read in blocks of whole lines of about this many bytes,
# which bounds the memory taken by the per-block temporaries.
_BLOCK_BYTES = 1 << 20

# The longest text of "%.17g", as of -2.2250738585072014e-308.
_FLOAT_WIDTH = 24

# float_texts formats this many distinct values at a time, which bounds
# its temporaries at a few MB.
_FLOAT_BLOCK = 1 << 14

# A double-double product of a value by a power of ten is within 5e-15 of
# the exact product (see _scaled). A value whose 18th digit onwards is
# this near a half could round either way, so Python prints it.
_HALF_MARGIN = 2.0**-32

# "00" .. "99" as two ASCII bytes each.
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)),
                             dtype=np.uint16)

# Text tables are written in blocks of this many lines. A block's cells and
# lines are Python strings; blocks of 1 << 16 lines took 12 MB more at the
# peak of writing the synth files.
_WRITE_ROWS = 1 << 14


@dataclass(frozen=True)
class LoadReport:
    path: str
    parsed: int
    malformed: int
    skipped_network: int = 0


def encode_ids(ids) -> np.ndarray:
    """Ids as a fixed-width column of their UTF-8 bytes. An ``S`` array drops
    trailing NUL bytes, so an id holding a NUL character is refused."""
    if isinstance(ids, np.ndarray) and ids.dtype.kind == "S":
        return ids
    column = [i.encode() for i in ids]
    if any(b"\0" in i for i in column):
        raise ValueError("an id holds a NUL character")
    return np.array(column, dtype=np.bytes_)


def _pow10(s: int) -> tuple[float, float]:
    """10**s as a double-double ``hi + lo``, each part correctly rounded
    from the exact value, so the pair is within 2**-106 of 10**s relative."""
    if s >= 0:
        hi = float(10**s)
        return hi, float(10**s - int(hi))
    hi = 1 / 10**-s
    num, den = hi.as_integer_ratio()
    return hi, (den - num * 10**-s) / (den * 10**-s)


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each double into two of 26 significant bits."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**s`` as ``hi + lo`` with ``|lo| <= ulp(hi) / 2``: Dekker's
    exact product of ``a`` by the high part of 10**s, plus ``a`` times its
    low part. For a product below about 1e17 the pair is within 5e-15 of
    the exact one: 10**s is carried to 2**-106 relative (1.3e-15), and the
    low product and its sum round by at most 1.2e-15 and 1.8e-15."""
    low = int(s.min(initial=0))
    table = np.zeros((s.max(initial=0) - low + 1, 2))
    for k in np.flatnonzero(np.bincount(s - low)).tolist():
        table[k] = _pow10(k + low)
    p_hi, p_lo = table[s - low].T
    product = a * p_hi
    (ah, al), (bh, bl) = _halves(a), _halves(p_hi)
    error = ((ah * bh - product) + ah * bl + al * bh) + al * bl + a * p_lo
    hi = product + error
    return hi, error - (hi - product)


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each positive double of ``a`` rounded half-even to 17 significant
    digits, as ``digits * 10**(e - 16)`` with 1e16 <= ``digits`` < 1e17, and
    whether the rounding is sure: it is not within _HALF_MARGIN of a half."""
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 16 - e)
    # log10 can be a unit off next to a power of ten; the scaled value then
    # lies outside [1e16, 1e17). hi alone can round onto either end (as
    # 9.999999999999999e-05 does onto 1e16), so lo's sign tells.
    shift = (((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
             - ((hi < 1e16) | ((hi == 1e16) & (lo < 0))))
    off = np.flatnonzero(shift)
    if off.size:
        e[off] += shift[off]
        hi[off], lo[off] = _scaled(a[off], 16 - e[off])
    # hi is a whole number above 2**53, so the fraction is lo's.
    floor = np.floor(lo)
    fraction = lo - floor
    digits = hi.astype(np.int64) + floor.astype(np.int64) + (fraction > 0.5)
    sure = ((np.abs(fraction - 0.5) >= _HALF_MARGIN)
            & (digits >= 10**16) & (digits <= 10**17))
    carry = digits == 10**17
    digits[carry] = 10**16
    return digits, e + carry, sure


def _place_texts(digits: np.ndarray, e: np.ndarray,
                 negative: np.ndarray) -> np.ndarray:
    """Each ``digits * 10**(e - 16)`` as ``%.17g`` prints it, a row of
    _FLOAT_WIDTH bytes each: fixed-point when -4 <= e < 17, else with an
    exponent, the trailing zeros of its digits dropped, NUL after the text."""
    n = len(digits)
    top, bottom = np.divmod(digits, 10**8)
    top, bottom = top.astype(np.uint32), bottom.astype(np.uint32)
    pairs = np.empty((n, 9), dtype=np.uint16)
    pairs[:, 0] = _DIGIT_PAIRS[top // 10**8]
    for j, unit in enumerate((10**6, 10**4, 100, 1), start=1):
        pairs[:, j] = _DIGIT_PAIRS[top // unit % 100]
        pairs[:, j + 4] = _DIGIT_PAIRS[bottom // unit % 100]
    chars = pairs.view(np.uint8)[:, 1:]  # 17 ASCII digits, the first not 0
    sig = 17 - np.argmax(chars[:, ::-1] != ord("0"), axis=1)
    # The point follows digit ``point``; -1 puts "0." and -e - 1 zeros
    # before the digits. A whole number keeps its zeros and has no point.
    fixed = (e >= -4) & (e < 17)
    point = np.where(fixed, np.maximum(e, -1), 0)
    shown = np.maximum(sig, point + 1)
    short = np.flatnonzero(shown < 17)
    chars[short] *= np.arange(17) < shown[short, None]
    dotted = shown - 1 > point
    # Digit i goes to place first + i, or first + i + 1 once past the point.
    first = negative + np.where(point < 0, -e, 0)
    slots = np.zeros((n, _FLOAT_WIDTH), dtype=np.uint8)
    # Texts of one layout (sign, point, first place and whether a point is
    # shown) take their bytes from the same places: a slice copy each.
    layout = ((first * 18 + point + 1) * 2 + negative) * 2 + dotted
    for key in _distinct(layout).tolist():
        rows = np.flatnonzero(layout == key)
        f, p, minus, dot, exp = (int(column[rows[0]]) for column in
                                 (first, point, negative, dotted, e))
        head = b"-" * minus + (b"0." + b"0" * (-exp - 1) if p < 0 else b"")
        slots[rows, :len(head)] = list(head)
        if p >= 0:
            slots[rows, f:f + p + 1] = chars[rows, :p + 1]
            slots[rows, f + p + 1] = ord(".") * dot
        slots[rows, f + p + 2:f + 18] = chars[rows, p + 1:]
    # e, its sign and two or three digits.
    ex = np.flatnonzero(~fixed)
    mag = np.abs(e[ex])
    three = mag >= 100
    hundreds, tens, ones = (mag // 100 + ord("0"), mag // 10 % 10 + ord("0"),
                            mag % 10 + ord("0"))
    end = first + shown + dotted
    at = (ex * _FLOAT_WIDTH + end[ex])[:, None] + np.arange(5)
    slots.reshape(-1)[at] = np.stack([
        np.full(ex.size, ord("e")), np.where(e[ex] < 0, ord("-"), ord("+")),
        np.where(three, hundreds, tens), np.where(three, tens, ones),
        np.where(three, ones, 0)], axis=1)
    return slots


def float_texts(values) -> np.ndarray:
    """Each float64 of ``values`` as the bytes that ``"%.17g"`` prints for
    it, which round-trip it, in an ``S`` array of its shape.

    Each distinct bit pattern is formatted once, so 0.0 and -0.0, though
    equal, print apart. numpy makes the text of a value whose magnitude is
    in [1e-280, 1e280): its 17 digits come from a double-double product
    (:func:`_significands`) and are laid out in a fixed-width slot
    (:func:`_place_texts`) whose trailing NULs an ``S`` array drops.
    Python's ``%`` prints the rest: zeros, subnormals and other values
    outside that range, infinities, NaNs, and a value within _HALF_MARGIN
    of a rounding half, where the product cannot tell the side."""
    values = np.asarray(values, dtype=np.float64)
    bits, at = np.unique(values.view(np.int64), return_inverse=True)
    x = bits.view(np.float64)
    slots = np.zeros((x.size, _FLOAT_WIDTH), dtype=np.uint8)
    for lo in range(0, x.size, _FLOAT_BLOCK):
        mag = np.abs(x[lo:lo + _FLOAT_BLOCK])
        at_scale = np.flatnonzero((mag >= 1e-280) & (mag < 1e280))
        digits, e, sure = _significands(mag[at_scale])
        rows = lo + at_scale[sure]
        slots[rows] = _place_texts(digits[sure], e[sure], np.signbit(x[rows]))
    texts = slots.view(f"S{_FLOAT_WIDTH}").reshape(-1)
    rest = np.flatnonzero(slots[:, 0] == 0)  # no text starts with NUL
    texts[rest] = [b"%.17g" % v for v in x[rest].tolist()]
    return texts[at.reshape(values.shape)]


def _cells(column, lo: int, hi: int):
    """Rows lo..hi of a column as str: a str repeats in every row, a bytes
    column is UTF-8 and a float column is :func:`float_texts`."""
    if isinstance(column, str):
        return repeat(column)
    part = column[lo:hi]
    if isinstance(part, np.ndarray):
        if part.dtype.kind == "f":
            part = float_texts(part)
        if part.dtype.kind == "S":
            return map(bytes.decode, part.tolist())
        part = part.tolist()
    return map(str, part)


def write_columns(path, columns: list, sep: str = "\t",
                  header: str | None = None) -> None:
    """Write ``header``, if given, as the first line, then one line per row
    of ``columns``, its cells joined by ``sep``. A column is an array or a
    sequence, all of one length, or a str for a field the same in every row.
    Each block of rows is joined into one string before it is written."""
    n = max((len(c) for c in columns if not isinstance(c, str)), default=0)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for lo in range(0, n, _WRITE_ROWS):
            cells = [_cells(c, lo, lo + _WRITE_ROWS) for c in columns]
            fh.write("\n".join(map(sep.join, zip(*cells))) + "\n")


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array in ascending order, as
    ``np.unique`` returns them; that one imports numpy.ma on first use."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def present_codes(codes: np.ndarray, n: int) -> np.ndarray:
    """The distinct codes below ``n`` in ``codes``, in ascending order."""
    return np.flatnonzero(np.bincount(codes, minlength=n))


def rows_by_code(codes: np.ndarray, n: int) -> np.ndarray:
    """For each code below ``n``, the row of a table whose row i has the
    distinct code ``codes[i]``; -1 for a code without a row."""
    rows = np.full(n, -1, dtype=np.int64)
    rows[codes] = np.arange(len(codes))
    return rows


def share_users(*tables):
    """``tables`` re-coded, each by its ``recoded(users, code)``, onto one
    vocabulary: the distinct ids of all their ``users``, ascending, so that
    code order is id order. Tables that share one already are returned."""
    vocabularies = [table.users for table in tables]
    if all(v is vocabularies[0] for v in vocabularies):
        return tables
    ids = np.concatenate(vocabularies)
    # A stable sort merges the vocabularies, each already ascending, as runs.
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    first = np.ones(ids.size, dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    code = np.empty(ids.size, dtype=np.int64)
    code[order] = np.cumsum(first) - 1
    users = ids[first]
    ends = np.cumsum([len(v) for v in vocabularies])
    return tuple(table.recoded(users, code[end - len(v):end])
                 for table, v, end in zip(tables, vocabularies, ends))


def _intern(names: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted vocabulary of the distinct names in a bytes column, as str, and
    the int64 code of each name into it. UTF-8 byte order is code-point
    order, so the vocabulary sorts as str does."""
    # The rows of one user often come together, as in a file sorted by
    # author, so only the first row of each run of equal ids is sorted.
    head = np.flatnonzero(np.append(names.size > 0, names[1:] != names[:-1]))
    vocab, codes = np.unique(names[head], return_inverse=True)
    codes = np.repeat(codes.astype(np.int64), np.diff(np.append(head, names.size)))
    return np.array([name.decode() for name in vocab.tolist()], dtype=object), codes


@dataclass(frozen=True)
class PostTable:
    """Posts as columns; ``author`` holds codes into ``users``."""

    networks: frozenset[str]
    users: np.ndarray        # code -> user id
    author: np.ndarray       # int64 user codes
    post_id: np.ndarray      # UTF-8 bytes, fixed width (S)
    created_at: np.ndarray   # int64 epoch seconds

    def __len__(self) -> int:
        return int(self.created_at.size)

    @classmethod
    def from_columns(cls, networks: Iterable[str], authors, post_ids,
                     created_at) -> "PostTable":
        """Table from plain columns; ``networks`` holds the network names
        present, one per row or each once, author ids are interned, and each
        id column is a bytes column or a sequence of str."""
        users, author = _intern(encode_ids(authors))
        return cls(frozenset(networks), users, author, encode_ids(post_ids),
                   np.asarray(created_at, dtype=np.int64))

    def recoded(self, users: np.ndarray, code: np.ndarray) -> "PostTable":
        return replace(self, users=users, author=code[self.author])


@dataclass(frozen=True)
class ReactionTable:
    """Reactions as columns; ``reactor`` holds codes into ``users``."""

    networks: frozenset[str]
    users: np.ndarray        # code -> user id
    post_id: np.ndarray      # UTF-8 bytes, fixed width (S)
    reactor: np.ndarray      # int64 user codes
    reacted_at: np.ndarray   # int64 epoch seconds

    def __len__(self) -> int:
        return int(self.reacted_at.size)

    @classmethod
    def from_columns(cls, networks: Iterable[str], post_ids, reactors,
                     reacted_at) -> "ReactionTable":
        """Table from plain columns, as :meth:`PostTable.from_columns`."""
        users, reactor = _intern(encode_ids(reactors))
        return cls(frozenset(networks), users, encode_ids(post_ids), reactor,
                   np.asarray(reacted_at, dtype=np.int64))

    def recoded(self, users: np.ndarray, code: np.ndarray) -> "ReactionTable":
        return replace(self, users=users, reactor=code[self.reactor])


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

    def recoded(self, users: np.ndarray, code: np.ndarray) -> "PairTable":
        return replace(self, users=users, author=code[self.author],
                       reactor=code[self.reactor])

    @classmethod
    def from_columns(cls, authors, reactors, post_time,
                     reaction_time) -> "PairTable":
        """Table from plain columns; author and reactor ids share one
        vocabulary, and each id column is a bytes column or a sequence of
        str."""
        authors = encode_ids(authors)
        users, codes = _intern(np.concatenate([authors, encode_ids(reactors)]))
        return cls(users, codes[:authors.size], codes[authors.size:],
                   np.asarray(post_time, dtype=np.int64),
                   np.asarray(reaction_time, dtype=np.int64))


@dataclass(frozen=True)
class UserTable:
    """users.tsv as columns of a value per code of ``users``. A user who is
    not listed, such as another table's user after :func:`share_users`, is
    at UTC with no city, and :meth:`recoded` alone says so."""

    networks: frozenset[str]
    users: np.ndarray          # code -> user id, ascending and distinct
    listed: np.ndarray         # bool per code: the user has a line
    tz_offset_min: np.ndarray  # int64 minutes east of UTC per code
    city: np.ndarray           # city name per code, None where there is none

    def recoded(self, users: np.ndarray, code: np.ndarray) -> "UserTable":
        n = len(users)
        columns = (np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64),
                   np.full(n, None, dtype=object))
        for column, values in zip(columns, (self.listed, self.tz_offset_min,
                                            self.city)):
            column[code] = values
        return UserTable(self.networks, users, *columns)

    @classmethod
    def from_columns(cls, networks: Iterable[str], users, tz_offset_min,
                     city) -> "UserTable":
        """Table from plain columns of one value per listed user; ``networks``
        holds the network of each, and ``users`` is a bytes column or a
        sequence of str. Raises ValueError for a user listed more than once,
        whatever the networks, as either line could win."""
        networks = list(networks)
        names, codes = _intern(encode_ids(users))
        if names.size < codes.size:  # named at the first of its lines in the file
            user = codes[np.argmax(np.bincount(codes)[codes] > 1)]
            nets = dict.fromkeys(n for n, c in zip(networks, codes.tolist())
                                 if c == user)
            raise ValueError(f"user {names[user]!r} is listed more than once for "
                             f"network{'s' * (len(nets) > 1)} {' and '.join(nets)}")
        order = np.argsort(codes)
        return cls(frozenset(networks), names, np.ones(names.size, dtype=bool),
                   np.asarray(tz_offset_min, dtype=np.int64)[order],
                   np.array(list(city), dtype=object)[order])


@dataclass(frozen=True)
class SocialGraph:
    """The follower graph as edge columns: edge i puts user
    ``users[dst[i]]`` in the audience of ``users[src[i]]``, so dst can react
    to src's posts. ``users`` holds every user on an edge, and maybe others,
    in ascending order, and ``src`` and ``dst`` are int64 codes into it;
    each distinct edge is held once, in ascending (src, dst) order. The
    columns depend only on the set of edges, not on their order or repeats.
    """

    users: np.ndarray  # code -> user id, ascending
    src: np.ndarray    # int64 user codes
    dst: np.ndarray    # int64 user codes

    @classmethod
    def from_columns(cls, src, dst) -> "SocialGraph":
        """Graph of the edges (src[i], dst[i]); each column is a bytes column
        or a sequence of str."""
        src, dst = encode_ids(src), encode_ids(dst)
        users, codes = _intern(np.concatenate([src, dst]))
        n = len(users)
        keys = _distinct(codes[:src.size] * n + codes[src.size:])
        return cls(users, *np.divmod(keys, n))

    def recoded(self, users: np.ndarray, code: np.ndarray) -> "SocialGraph":
        return SocialGraph(users, code[self.src], code[self.dst])

    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    def is_symmetric(self) -> bool:
        n = len(self.users)
        return np.array_equal(np.sort(self.dst * n + self.src),
                              self.src * n + self.dst)


def _padded(lines) -> bytes:
    """Pieces of whole lines joined into one block, between ``_LEAD`` and
    ``_TAIL`` zero bytes: the one copy a block is padded with."""
    return b"".join([bytes(_LEAD), *lines, bytes(_TAIL)])


def _blocks(path) -> Iterator[bytes]:
    """A file as :func:`_padded` blocks of whole lines of about
    ``_BLOCK_BYTES`` bytes, so that a large file is never held at once. A
    line ends at LF or CR."""
    with open(path, "rb") as fh:
        head: list[bytes] = []  # the start of a line that no chunk has ended
        while chunk := fh.read(_BLOCK_BYTES):
            end = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1
            if end:
                yield _padded([*head, memoryview(chunk)[:end]])
                head = []
            head.append(chunk[end:])
        if any(head):
            yield _padded(head)


def _report(path, parsed: int, malformed: int, skipped: int,
            max_malformed_frac: float) -> LoadReport:
    total = parsed + malformed
    if total and malformed / total > max_malformed_frac:
        raise IngestError(
            f"{path}: {malformed} of {total} lines malformed, above the "
            f"{max_malformed_frac:.2%} limit"
        )
    return LoadReport(str(path), parsed, malformed, skipped)


def _field(buf: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The byte fields ``buf[start[i]:stop[i]]``, each at most ``_TAIL``
    bytes, as a fixed-width S column: the rows of a uint8 matrix,
    left-aligned and padded with zeros. ``buf`` ends in ``_TAIL`` zeros."""
    length = stop - start
    width = max(int(length.max(initial=0)), 1)
    out = np.lib.stride_tricks.sliding_window_view(buf, width)[start]
    out *= np.arange(width) < length[:, None]
    return out.view(f"S{width}").reshape(-1)


def _stamps(buf: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """int64 values of the fields ``buf[start[i]:stop[i]]``, and the mask of
    those that are ``-?[0-9]+`` within int64; the value of a field outside
    the mask means nothing. ``buf`` starts with ``_LEAD`` zeros."""
    # Made first: made after the temporaries below, it sat among the holes
    # they leave, and the peak RSS of `postsched all` rose by 1.5 MB.
    value = np.empty(start.size, dtype=np.uint64)
    negative = (stop > start) & (buf[start] == ord("-"))
    first = start + negative
    n_digits = stop - first
    # A field of more digits than an int64 has is read from its last ones,
    # and is in range only if all before them are zeros (checked below).
    long = np.flatnonzero(n_digits > _INT64_DIGITS)
    n_digits[long] = _INT64_DIGITS
    # The last ``width`` bytes of each field, with "0" before its digits.
    width = int(n_digits.clip(1).max(initial=1))
    digits = np.lib.stride_tricks.sliding_window_view(buf, width)[stop - width]
    digits[np.arange(width) < (width - n_digits)[:, None]] = ord("0")
    digits -= ord("0")   # a byte below "0" wraps past 9
    # Horner's rule a column at a time: a uint64 copy of ``digits`` was the
    # largest temporary of a block.
    v = np.zeros(start.size, dtype=np.uint64)
    for column in digits.T:
        v *= np.uint64(10)
        v += column
    # -2**63 is in range, 2**63 is not; -v wraps to the bits of the int64.
    valid = ((n_digits >= 1) & (digits <= 9).all(axis=1)
             & (v <= negative.astype(np.uint64) + np.uint64(_INT64.max)))
    if long.size:   # buf[first:stop - 19] of each long field holds only zeros
        bounds = np.column_stack([first[long], stop[long] - _INT64_DIGITS])
        valid[long] &= ~np.logical_or.reduceat(buf != ord("0"), bounds.reshape(-1))[::2]
    value[:] = np.where(negative, -v, v)
    return value.view(np.int64), valid


def _split_block(block: bytes, spec: tuple[str, ...], network: str | None):
    """The data lines of a block, checked and split at once with numpy.

    ``spec`` gives the kind of each field (see ``_EVENTS``). Each line is
    checked in this order: as many fields as ``spec`` and no NUL byte, then
    a known network, then the network asked for (a line of another is
    skipped), then every other field as its kind says. Returns the network
    of each line that passes, as a uint8 index into ``_NETWORK_NAMES``, the
    columns of its other fields in file order (bytes for "id" and "text",
    int64 otherwise), and the counts of malformed and of skipped lines. The
    block is :func:`_padded`, holds no CR and is valid UTF-8; every field is
    read from it in place.
    """
    buf = np.frombuffer(block, dtype=np.uint8)
    text = buf[_LEAD:buf.size - _TAIL]
    newline = np.flatnonzero(text == ord("\n")) + _LEAD
    start = np.concatenate([[_LEAD], newline + 1])
    stop = np.append(newline, _LEAD + text.size)
    data = stop > start
    data[data] = buf[start[data]] != ord("#")
    tab = np.flatnonzero(text == ord("\t")) + _LEAD
    line_of_tab = np.searchsorted(newline, tab)
    shaped = data & (np.bincount(line_of_tab, minlength=start.size) == len(spec) - 1)
    shaped[np.searchsorted(newline, np.flatnonzero(text == 0) + _LEAD)] = False
    line = np.flatnonzero(shaped)
    # Field j of row i is buf[bound[i, j] + 1:bound[i, j + 1]].
    bound = np.column_stack([start[line] - 1,
                             tab[shaped[line_of_tab]].reshape(-1, len(spec) - 1),
                             stop[line]])
    n_data = int(data.sum())
    del newline, line_of_tab, tab, start, stop  # before the larger temporaries below
    # Each width is checked before its field is taken, so that no long
    # field widens a column.
    net = spec.index("net")
    bound = bound[bound[:, net + 1] - bound[:, net] <= _NETWORK_KEYS.itemsize + 1]
    nets = _field(buf, bound[:, net] + 1, bound[:, net + 1])
    which = np.searchsorted(_NETWORK_KEYS, nets).clip(0, _NETWORK_KEYS.size - 1)
    known = _NETWORK_KEYS[which] == nets
    mine = known if network is None else known & (nets == network.encode())
    skipped = int(known.sum() - mine.sum())
    bound, which = bound[mine], which[mine]
    # Field j is one byte shorter than the gap between its bounds: an id or
    # a text is at most MAX_ID_BYTES long, and an id is not empty.
    gap = np.diff(bound, axis=1)
    texts = [j for j, kind in enumerate(spec) if kind in ("id", "text")]
    ids = [j for j, kind in enumerate(spec) if kind == "id"]
    fits = ((gap[:, texts].max(axis=1) <= MAX_ID_BYTES + 1)
            & (gap[:, ids].min(axis=1) > 1))
    bound, which = bound[fits], which[fits]
    numbers, passed = {}, np.ones(len(bound), dtype=bool)
    for j, kind in enumerate(spec):
        if kind in ("stamp", "tz"):
            numbers[j], valid = _stamps(buf, bound[:, j] + 1, bound[:, j + 1])
            if kind == "tz":
                valid &= (numbers[j] >= TZ_OFFSETS[0]) & (numbers[j] <= TZ_OFFSETS[-1])
            passed &= valid
    bound = bound[passed]
    columns = [numbers[j][passed] if j in numbers
               else _field(buf, bound[:, j] + 1, bound[:, j + 1])
               for j, kind in enumerate(spec) if kind != "net"]
    return (which[passed].astype(np.uint8), columns,
            n_data - skipped - len(bound), skipped)


def _load(path, spec: tuple[str, ...], network: str | None,
          max_malformed_frac: float):
    """The network of each line of a file that passes, the columns of its
    other fields and the file's report; each block is checked and split by
    :func:`_split_block`."""
    splits = []
    for block in _blocks(path):
        if not block.isascii():
            try:
                block.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None
        # A CR ends a line like an LF does, as blank lines are skipped.
        block = block.replace(b"\r", b"\n")
        splits.append(_split_block(block, spec, network))
    # An empty file has no block; the columns of an empty one have its dtypes.
    which, columns, malformed, skipped = zip(
        *splits or [_split_block(_padded([]), spec, network)])
    which = np.concatenate(which)
    report = _report(path, which.size, sum(malformed), sum(skipped),
                     max_malformed_frac)
    return which, [np.concatenate(column) for column in zip(*columns)], report


def _present(which: np.ndarray) -> np.ndarray:
    """The names of the networks in ``which``, a column of network indices."""
    return _NETWORK_NAMES[present_codes(which, _NETWORK_NAMES.size)]


def load_posts(path, network: str | None = None,
               max_malformed_frac: float = DEFAULT_MAX_MALFORMED_FRAC
               ) -> tuple[PostTable, LoadReport]:
    which, (authors, post_ids, times), report = _load(
        path, _EVENTS, network, max_malformed_frac)
    return PostTable.from_columns(_present(which), authors, post_ids, times), report


def load_reactions(path, network: str | None = None,
                   max_malformed_frac: float = DEFAULT_MAX_MALFORMED_FRAC
                   ) -> tuple[ReactionTable, LoadReport]:
    which, (post_ids, reactors, times), report = _load(
        path, _EVENTS, network, max_malformed_frac)
    return ReactionTable.from_columns(_present(which), post_ids, reactors,
                                      times), report


def load_users(path, network: str | None = None,
               max_malformed_frac: float = DEFAULT_MAX_MALFORMED_FRAC
               ) -> tuple[UserTable, LoadReport]:
    which, (names, offsets, city), report = _load(
        path, _USERS, network, max_malformed_frac)
    cities, codes = _intern(city)
    cities[(cities == "") | (cities == MISSING_ID)] = None
    try:
        users = UserTable.from_columns(_NETWORK_NAMES[which], names, offsets,
                                       cities[codes])
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from None
    return users, report


def load_graph(path, network: str | None = None, bidirectional: bool = False,
               max_malformed_frac: float = DEFAULT_MAX_MALFORMED_FRAC):
    """Load edges.tsv into a :class:`SocialGraph`.

    With ``bidirectional=True`` (e.g. mutual-friend networks) the loader
    verifies that every edge is listed in both directions.
    """
    _, (src, dst), report = _load(path, _EDGES, network, max_malformed_frac)
    graph = SocialGraph.from_columns(src, dst)
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
    in reaction order, over the users of both tables re-coded onto one
    vocabulary (:func:`share_users`). Dangling references and negative
    delays (clock skew, perturbation artifacts) are dropped and counted
    separately, so that ``n_joined + n_dangling + n_negative_delay ==
    len(reactions)``.
    """
    networks = posts.networks | reactions.networks
    if len(networks) > 1:
        raise IngestError(f"join requires a single network, got {sorted(networks)}")
    posts, reactions = share_users(posts, reactions)
    # In a stable sort, equal keys keep their file order, so the first
    # duplicate in the file is the earliest row that follows an equal key.
    order = np.argsort(posts.post_id, kind="stable")
    keys = posts.post_id[order]
    repeated = order[1:][keys[1:] == keys[:-1]]
    if repeated.size:
        pid = posts.post_id[repeated.min()].decode()
        raise IngestError(f"duplicate post_id {pid!r}")
    slot = np.searchsorted(keys, reactions.post_id).clip(0, max(keys.size - 1, 0))
    resolved = (np.flatnonzero(keys[slot] == reactions.post_id) if keys.size
                else np.empty(0, dtype=np.int64))
    post_row = order[slot[resolved]]
    in_order = reactions.reacted_at[resolved] >= posts.created_at[post_row]
    joined, post_row = resolved[in_order], post_row[in_order]
    pairs = PairTable(posts.users, posts.author[post_row],
                      reactions.reactor[joined], posts.created_at[post_row],
                      reactions.reacted_at[joined])
    return JoinResult(pairs, len(reactions) - resolved.size,
                      resolved.size - joined.size)


@dataclass(frozen=True)
class SparseCounts:
    """Counts over a rows x buckets grid, holding only the cells that have
    one: the distinct keys ``row * buckets + bucket`` in ascending order, each
    with its float64 count. Event counts are whole numbers, so every sum of
    them is exact in float64, whatever its order."""

    shape: tuple[int, int]  # (rows, buckets)
    keys: np.ndarray        # int64, ascending and distinct
    counts: np.ndarray      # float64, one per key

    @classmethod
    def of(cls, values) -> "SparseCounts":
        """``values`` itself, or a dense rows x buckets matrix as the counts
        of its non-zero cells."""
        if isinstance(values, cls):
            return values
        values = np.asarray(values, dtype=np.float64)
        keys = np.flatnonzero(values).astype(np.int64)
        return cls(values.shape, keys, values.reshape(-1)[keys])

    @cached_property
    def row_sums(self) -> np.ndarray:
        """The sum of each row, its cells added in bucket order."""
        return np.bincount(self.keys // self.shape[1], self.counts,
                           minlength=self.shape[0])

    def rows(self, index, out: np.ndarray | None = None) -> np.ndarray:
        """The rows at ``index``, an int array, as a dense matrix; written
        into ``out``, a C-contiguous matrix of that shape, if given."""
        index = np.asarray(index, dtype=np.int64)
        n = self.shape[1]
        lo, hi = (np.searchsorted(self.keys, index * n + b) for b in (0, n))
        length = hi - lo
        # The positions in ``keys`` of each row's cells, row after row.
        at = np.arange(length.sum()) + np.repeat(lo - np.cumsum(length) + length,
                                                 length)
        if out is None:
            out = np.zeros((index.size, n))
        else:
            out.fill(0.0)
        out.reshape(-1)[np.repeat(np.arange(index.size) * n, length)
                        + self.keys[at] % n] = self.counts[at]
        return out

    def at(self, row, bucket) -> np.ndarray:
        """The counts at the cells (row, bucket), whose index arrays
        broadcast together; 0 for a cell without one."""
        key = np.asarray(row, dtype=np.int64) * self.shape[1] + bucket
        if not self.keys.size:
            return np.zeros(key.shape)
        i = np.searchsorted(self.keys, key).clip(max=self.keys.size - 1)
        return np.where(self.keys[i] == key, self.counts[i], 0.0)


@dataclass(frozen=True)
class UserProfiles:
    """Created-post and self-reaction counts over one window, as sparse
    counts whose rows are the codes of ``users``."""

    users: np.ndarray          # code -> user id, in ascending order
    profiled: np.ndarray       # the codes of the profiled users, ascending
    created: SparseCounts      # posts authored per code and local bucket
    reactions: SparseCounts    # reactions performed per code and local bucket
    unknown_tz: np.ndarray     # codes bucketized at UTC for lack of metadata


def build_profiles(posts: PostTable, pairs: PairTable, users: UserTable,
                   grid: WeeklyGrid, window: TimeWindow) -> UserProfiles:
    """Aggregate in-window events into per-user weekly profiles.

    Created-post profiles count a user's authored posts; self-reaction
    profiles count the reactions the user performed (as reactor), at the
    reaction's own timestamp. The ``profiled`` users are every user with
    metadata or with in-window events, but never ``MISSING_ID``, whose
    events are dropped; the rows of users without events are empty. Users
    with events but no timezone metadata default to UTC and are flagged in
    ``unknown_tz``.
    """
    posts, pairs, users = share_users(posts, pairs, users)
    n = len(users.users)
    somebody = users.users != MISSING_ID
    post_rows = np.flatnonzero(window.mask(posts.created_at))
    post_rows = post_rows[somebody[posts.author[post_rows]]]
    react_rows = np.flatnonzero(window.mask(pairs.reaction_time))
    react_rows = react_rows[somebody[pairs.reactor[react_rows]]]
    created = weekly_counts(users, posts.author[post_rows],
                            posts.created_at[post_rows], grid)
    reactions = weekly_counts(users, pairs.reactor[react_rows],
                              pairs.reaction_time[react_rows], grid)
    active = (created.row_sums > 0) | (reactions.row_sums > 0)
    return UserProfiles(users.users,
                        np.flatnonzero(active | (users.listed & somebody)),
                        created, reactions,
                        np.flatnonzero(active & ~users.listed))


def weekly_counts(users: UserTable, codes: np.ndarray, times: np.ndarray,
                  grid: WeeklyGrid) -> SparseCounts:
    """Events per user code and local weekly bucket, as sparse counts over
    the codes of ``users``. Event i is by the user of code ``codes[i]`` at
    ``times[i]``, bucketed at that user's offset in ``users``."""
    n = grid.buckets_per_week
    keys, counts = np.unique(
        codes * n + grid.bucket_indices(times, users.tz_offset_min[codes]),
        return_counts=True)
    return SparseCounts((len(users.users), n), keys, counts.astype(np.float64))


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

    Rows that cannot be mapped are skipped and counted: a row with too few
    fields, a timestamp that is not an integer, or an empty field at a
    mapped id column, which would make the canonical line malformed. When
    the source has no author or no reactor column the canonical rows carry
    "-" in it and the result is marked analysis-only: delay estimation and
    cohort analysis work, schedule derivation does not.
    """
    if network not in NETWORKS:
        raise ValueError(f"unknown network {network!r}")
    skipped = 0

    def rewrite(path_in, path_out, columns, stamp) -> int:
        """Write network, the fields at ``columns`` ("-" for None) and the
        integer at ``stamp`` of each data line of ``path_in``; return how
        many lines were written."""
        nonlocal skipped
        needed = max(c for c in (*columns, stamp) if c is not None)
        written = 0
        with open(path_out, "w", encoding="utf-8") as out, \
                open(path_in, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                f = line.split("\t")
                if len(f) <= needed:
                    skipped += 1
                    continue
                try:
                    ts = int(f[stamp])
                except ValueError:
                    skipped += 1
                    continue
                ids = [MISSING_ID if c is None else f[c] for c in columns]
                if "" in ids:
                    skipped += 1
                    continue
                out.write("\t".join([network, *ids, str(ts)]) + "\n")
                written += 1
        return written

    n_posts = rewrite(posts_in, posts_out, (colmap.author, colmap.post_id),
                      colmap.created_at)
    n_reactions = rewrite(reactions_in, reactions_out,
                          (colmap.reaction_post_id, colmap.reactor),
                          colmap.reacted_at)
    return AdapterReport(n_posts, n_reactions, skipped,
                         analysis_only=colmap.reactor is None or colmap.author is None)
