"""Canonical TSV parsing, joining, graph loading, and profile building."""

import math
import re
import tempfile
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from postsched import (
    IngestError,
    PairTable,
    SocialGraph,
    TimeWindow,
    UserTable,
    WeeklyGrid,
    build_profiles,
    join_reactions,
    load_graph,
    load_posts,
    load_reactions,
    load_users,
)
from postsched import ingest
from postsched.ingest import (
    AdapterReport,
    ColumnMap,
    LoadReport,
    PostTable,
    ReactionTable,
    SparseCounts,
    adapt_open_dataset,
    share_users,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def post_table(posts):
    """PostTable of (network, author, post_id, created_at) rows."""
    return PostTable.from_columns(*(zip(*posts) if posts else ([],) * 4))


def reaction_table(reactions):
    """ReactionTable of (network, post_id, reactor, reacted_at) rows."""
    return ReactionTable.from_columns(*(zip(*reactions) if reactions else ([],) * 4))


def join(posts, reactions):
    return join_reactions(post_table(posts), reaction_table(reactions))


def post_rows(table):
    """(author, post_id, created_at) per row of a PostTable."""
    return list(zip(table.users[table.author].tolist(),
                    [p.decode() for p in table.post_id.tolist()],
                    table.created_at.tolist()))


def tz_table(offsets):
    """A UserTable of a user -> tz offset dict."""
    return UserTable.from_columns(["TW"] * len(offsets), list(offsets),
                                  list(offsets.values()), [None] * len(offsets))


def profiles(posts, pairs, users, grid, window):
    return build_profiles(post_table(posts), pairs, users, grid, window)


NO_PAIRS = PairTable.from_columns([], [], [], [])


class TestLoaders:
    def test_wellformed_post(self, tmp_path):
        p = write(tmp_path / "posts.tsv", "TW\tu1\tp1\t1420000000\n")
        posts, report = load_posts(p)
        assert post_rows(posts) == [("u1", "p1", 1420000000)]
        assert posts.networks == {"TW"}
        assert report.parsed == 1 and report.malformed == 0

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "posts.tsv", "")
        posts, report = load_posts(p)
        assert post_rows(posts) == [] and report.malformed == 0

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        p = write(tmp_path / "posts.tsv",
                  "# header comment\n\nTW\tu1\tp1\t100\n")
        posts, report = load_posts(p)
        assert len(posts) == 1 and report.malformed == 0

    def test_wrong_field_count_is_malformed(self, tmp_path):
        p = write(tmp_path / "posts.tsv",
                  "TW\tu1\tp1\t100\n" * 99 + "TW\tu1\tp2\n")
        posts, report = load_posts(p)
        assert report.malformed == 1
        assert len(posts) == 99

    def test_bad_timestamp_is_malformed(self, tmp_path):
        p = write(tmp_path / "posts.tsv",
                  "TW\tu1\tp1\t100\n" * 99 + "TW\tu1\tp2\tnoon\n")
        _, report = load_posts(p)
        assert report.malformed == 1

    @pytest.mark.parametrize("stamp", [
        "1_000", " 12", "12 ", "+5", "\u0661\u0662", "\uff11\uff12",
        "9223372036854775808",
    ], ids=["underscore", "leading-space", "trailing-space", "plus-sign",
            "arabic-indic-digits", "fullwidth-digits", "beyond-int64"])
    def test_timestamp_grammar_is_strict(self, tmp_path, stamp):
        p = write(tmp_path / "posts.tsv",
                  "TW\tu1\tp1\t100\n" * 99 + f"TW\tu1\tp2\t{stamp}\n")
        posts, report = load_posts(p)
        assert report.malformed == 1
        assert len(posts) == 99

    def test_reaction_timestamp_grammar_is_strict(self, tmp_path):
        p = write(tmp_path / "reactions.tsv",
                  "TW\tp1\tu1\t100\n" * 99 + "TW\tp1\tu1\t1_000\n")
        reactions, report = load_reactions(p)
        assert report.malformed == 1
        assert len(reactions) == 99

    def test_timestamp_extremes_parse_exactly(self, tmp_path):
        stamps = ["-9223372036854775808", "9223372036854775807", "-0", "007"]
        p = write(tmp_path / "posts.tsv", "".join(
            f"TW\tu1\tp{i}\t{t}\n" for i, t in enumerate(stamps)))
        posts, report = load_posts(p)
        assert report.malformed == 0
        assert posts.created_at.tolist() == [int(t) for t in stamps]

    def test_malformed_fraction_fatal(self, tmp_path):
        p = write(tmp_path / "posts.tsv", "TW\tu1\tp1\t100\njunk\n")
        with pytest.raises(IngestError):
            load_posts(p)
        posts, report = load_posts(p, max_malformed_frac=0.5)
        assert len(posts) == 1 and report.malformed == 1

    def test_network_filter(self, tmp_path):
        p = write(tmp_path / "posts.tsv", "TW\tu1\tp1\t100\nFB\tu2\tp2\t100\n")
        posts, report = load_posts(p, network="FB")
        assert len(posts) == 1 and posts.networks == {"FB"}
        assert report.skipped_network == 1

    def test_unknown_network_is_malformed(self, tmp_path):
        p = write(tmp_path / "posts.tsv", "XX\tu1\tp1\t100\n")
        with pytest.raises(IngestError):
            load_posts(p)

    def test_users_file(self, tmp_path):
        p = write(tmp_path / "users.tsv",
                  "u1\t-300\tNYC\tTW\nu2\t0\t-\tTW\n")
        users, _ = load_users(p)
        assert users.networks == {"TW"}
        assert users.users.tolist() == ["u1", "u2"]
        assert users.tz_offset_min.tolist() == [-300, 0]
        assert users.city.tolist() == ["NYC", None]

    def test_user_tz_out_of_range_is_malformed(self, tmp_path):
        p = write(tmp_path / "users.tsv", "u1\t9999\tNYC\tTW\n")
        with pytest.raises(IngestError):
            load_users(p)

    @pytest.mark.parametrize("offset", [
        "1_0", " 7", "7 ", "+5", "\u0663", "99999999999999999999", "-721",
        "841",
    ], ids=["underscore", "leading-space", "trailing-space", "plus-sign",
            "arabic-indic-digit", "beyond-int64", "below-utc-12",
            "above-utc+14"])
    def test_tz_offset_grammar_and_range_are_strict(self, tmp_path, offset):
        p = write(tmp_path / "users.tsv",
                  "".join(f"u{i}\t0\t-\tTW\n" for i in range(99))
                  + f"x\t{offset}\t-\tTW\n")
        users, report = load_users(p)
        assert report.malformed == 1
        assert users.users.tolist() == sorted(f"u{i}" for i in range(99))

    @pytest.mark.parametrize("offset", [-720, 840])
    def test_tz_offset_range_ends_accepted(self, tmp_path, offset):
        p = write(tmp_path / "users.tsv", f"u1\t{offset}\t-\tTW\n")
        users, report = load_users(p)
        assert report.malformed == 0
        assert users.users.tolist() == ["u1"]
        assert users.tz_offset_min.tolist() == [offset]

    @pytest.mark.parametrize("second", ["u1\t0\tNYC\tTW", "u1\t60\tLA\tTW"],
                             ids=["same-line", "other-tz"])
    def test_repeated_user_is_fatal(self, tmp_path, second):
        p = write(tmp_path / "users.tsv", f"u1\t0\tNYC\tTW\nu2\t0\t-\tTW\n{second}\n")
        with pytest.raises(IngestError, match=r"users\.tsv: user 'u1' is listed "
                                              r"more than once for network TW"):
            load_users(p, "TW")

    def test_same_user_on_two_networks(self, tmp_path):
        # Filtered by network, each line stands alone. Unfiltered, either
        # offset could win, so the file is refused.
        p = write(tmp_path / "users.tsv", "u1\t0\tNYC\tTW\nu1\t60\tLA\tFB\n")
        for network, offset in (("TW", 0), ("FB", 60)):
            users, _ = load_users(p, network)
            assert users.networks == {network}
            assert users.tz_offset_min.tolist() == [offset]
        with pytest.raises(IngestError, match=r"users\.tsv: user 'u1' is listed "
                                              r"more than once for networks TW "
                                              r"and FB"):
            load_users(p, None)

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            load_posts(tmp_path / "absent.tsv")

    @pytest.mark.parametrize("load, text", [
        (load_posts, "TW\tu1\tp1\t12\nTW\t\tp2\t12\nTW\tu1\t\t12\n"),
        (load_reactions, "TW\tp1\tu1\t12\nTW\tp1\t\t12\nTW\t\tu1\t12\n"),
        (load_graph, "TW\tu1\tb\nTW\t\tb\nTW\tu1\t\n"),
        (load_users, "u1\t0\t\tTW\n\t0\tNYC\tTW\n"),
    ], ids=["posts", "reactions", "edges", "users"])
    def test_empty_id_is_malformed(self, tmp_path, load, text):
        # An empty id names nobody, so it is neither a user "" nor "-"; an
        # empty city is still no city.
        table, report = load(write(tmp_path / "in.tsv", text),
                             max_malformed_frac=1.0)
        assert (report.parsed, report.malformed) == (1, text.count("\n") - 1)
        assert "" not in table.users.tolist()
        assert "u1" in table.users.tolist()
        if load is load_users:
            assert table.city.tolist() == [None]


# A per-line reference loader for the four input files. It is written apart
# from the byte path it checks: it decodes the file, splits it with str
# methods and reads each field with a regex and Python ints.
REFERENCE_KINDS = {
    "posts": ("net", "id", "id", "stamp"),
    "reactions": ("net", "id", "id", "stamp"),
    "edges": ("net", "id", "id"),
    "users": ("id", "tz", "text", "net"),
}
STAMP = re.compile(r"-?[0-9]+")


def reference_field(kind, text):
    """The value of a field of ``kind``; ValueError when it is malformed."""
    if kind in ("id", "text"):
        if len(text.encode()) > ingest.MAX_ID_BYTES or (kind == "id" and not text):
            raise ValueError(text)
        return text
    if not STAMP.fullmatch(text):
        raise ValueError(text)
    low, high = (-720, 840) if kind == "tz" else (-2**63, 2**63 - 1)
    if not low <= int(text) <= high:
        raise ValueError(text)
    return int(text)


def reference_rows(path, kind, network, max_malformed_frac):
    """The rows of a file as (network, other fields...) tuples in file order,
    with its LoadReport, checked one line at a time."""
    kinds = REFERENCE_KINDS[kind]
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None
    net = kinds.index("net")
    rows, malformed, skipped = [], 0, 0
    for line in text.replace("\r", "\n").split("\n"):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if (len(fields) != len(kinds) or "\0" in line
                or fields[net] not in ("TW", "FB", "FP", "GP")):
            malformed += 1
        elif network is not None and fields[net] != network:
            skipped += 1
        else:
            try:
                rows.append((fields[net], *(reference_field(k, f)
                                            for k, f in zip(kinds, fields)
                                            if k != "net")))
            except ValueError:
                malformed += 1
    total = len(rows) + malformed
    if total and malformed / total > max_malformed_frac:
        raise IngestError(f"{path}: {malformed} of {total} lines malformed, "
                          f"above the {max_malformed_frac:.2%} limit")
    return rows, LoadReport(str(path), len(rows), malformed, skipped)


def reference_events(path, kind, network, max_malformed_frac=1.0,
                     bidirectional=False):
    """Rows, user vocabulary, networks and report of a posts or reactions
    file; the user is the author (posts) or the reactor (reactions)."""
    rows, report = reference_rows(path, kind, network, max_malformed_frac)
    user = 1 if kind == "posts" else 2
    return ([row[1:] for row in rows], sorted({row[user] for row in rows}),
            {row[0] for row in rows}, report)


def reference_users(path, kind, network, max_malformed_frac=1.0,
                    bidirectional=False):
    rows, report = reference_rows(path, kind, network, max_malformed_frac)
    listed = Counter(user for _, user, _, _ in rows)
    repeated = [user for _, user, _, _ in rows if listed[user] > 1]
    if repeated:
        nets = dict.fromkeys(net for net, user, _, _ in rows if user == repeated[0])
        raise IngestError(f"{path}: user {repeated[0]!r} is listed more than "
                          f"once for network{'s' * (len(nets) > 1)} "
                          f"{' and '.join(nets)}")
    return (sorted((user, tz, None if city in ("", "-") else city)
                   for _, user, tz, city in rows),
            {net for net, _, _, _ in rows}, report)


def reference_edges(path, kind, network, max_malformed_frac=1.0,
                    bidirectional=False):
    rows, report = reference_rows(path, kind, network, max_malformed_frac)
    edges = {(src, dst) for _, src, dst in rows}
    if bidirectional and edges != {(dst, src) for src, dst in edges}:
        raise IngestError(f"{path}: bidirectional network with asymmetric edges")
    return sorted(edges), sorted({user for edge in edges for user in edge}), report


def loaded_events(path, kind, network, max_malformed_frac=1.0,
                  bidirectional=False):
    """What ``reference_events`` gives, from the loader."""
    if kind == "posts":
        posts, report = load_posts(path, network, max_malformed_frac)
        return post_rows(posts), posts.users.tolist(), set(posts.networks), report
    table, report = load_reactions(path, network, max_malformed_frac)
    rows = list(zip([p.decode() for p in table.post_id.tolist()],
                    table.users[table.reactor].tolist(), table.reacted_at.tolist()))
    return rows, table.users.tolist(), set(table.networks), report


def loaded_users(path, kind, network, max_malformed_frac=1.0,
                 bidirectional=False):
    users, report = load_users(path, network, max_malformed_frac)
    return (list(zip(users.users.tolist(), users.tz_offset_min.tolist(),
                     users.city.tolist())), set(users.networks), report)


def loaded_edges(path, kind, network, max_malformed_frac=1.0,
                 bidirectional=False):
    graph, report = load_graph(path, network, bidirectional, max_malformed_frac)
    return graph_pairs(graph), graph.users.tolist(), report


READERS = {"posts": (loaded_events, reference_events),
           "reactions": (loaded_events, reference_events),
           "users": (loaded_users, reference_users),
           "edges": (loaded_edges, reference_edges)}


def outcome(read, path, kind, *args):
    """What ``read`` gives for a file, or the message it raises."""
    try:
        return read(path, kind, *args)
    except IngestError as exc:
        return str(exc)


class TestLoadReportAccounting:
    """Every posts line is checked and split by the byte path; the report
    counts every line as the per-line reference does."""

    CLEAN = ("# comment\n\nTW\tu1\tp1\t100\nFB\tu2\tp2\t200\n"
             "\n# another\nTW\tu3\tp3\t-7\n")
    DIRTY = CLEAN + ("TW\tu4\tp4\n"           # too few fields
                     "XX\tu5\tp5\t1\n"        # unknown network
                     "FB\tu6\tp6\tnoon\n"     # other network: skipped first
                     "TW\tu7\tp7\t+8\n")      # bad timestamp

    @pytest.mark.parametrize("network,expected", [
        (None, (3, 0, 0)), ("TW", (2, 0, 1)), ("GP", (0, 0, 3))])
    def test_clean_file_takes_fast_path(self, tmp_path, network, expected):
        p = write(tmp_path / "posts.tsv", self.CLEAN)
        posts, report = load_posts(p, network)
        assert (report.parsed, report.malformed, report.skipped_network) == expected
        assert len(posts) == report.parsed

    @pytest.mark.parametrize("network", [None, "TW", "FB"])
    def test_fast_path_and_fallback_agree(self, tmp_path, network):
        p = write(tmp_path / "posts.tsv", self.CLEAN)
        assert (loaded_events(p, "posts", network, 0.01)
                == reference_events(p, "posts", network, 0.01))

    def test_dirty_file_counts_every_line(self, tmp_path):
        p = write(tmp_path / "posts.tsv", self.DIRTY)
        posts, report = load_posts(p, "TW", max_malformed_frac=1.0)
        assert (report.parsed, report.malformed, report.skipped_network) == (2, 3, 2)
        assert post_rows(posts) == [("u1", "p1", 100), ("u3", "p3", -7)]

    def test_dirty_file_still_aborts_above_limit(self, tmp_path):
        p = write(tmp_path / "posts.tsv", self.DIRTY)
        with pytest.raises(IngestError, match="3 of 5 lines malformed"):
            load_posts(p, "TW", max_malformed_frac=0.5)

    def test_scattered_bad_lines_keep_the_rest_on_the_fast_path(self, tmp_path):
        # Scattered bad lines leave the report exact and the rest loaded.
        lines = [f"TW\tu{i % 97}\tp{i}\t{1000 + i}" for i in range(20000)]
        bad = list(range(1111, 20000, 2111))
        for i in bad:
            lines[i] = "TW\tbroken"
        lines[5000] = "TW\tu1\tp5000\t\r"   # a CR ends a line like an LF
        p = write(tmp_path / "posts.tsv", "\n".join(lines) + "\n")
        posts, report = load_posts(p, "TW")
        assert (report.parsed, report.malformed) == (20000 - 10, 10)
        assert (loaded_events(p, "posts", "TW", 0.01)
                == reference_events(p, "posts", "TW", 0.01))

    @pytest.mark.parametrize("block_chars", [1, 20, 64])
    def test_block_size_does_not_change_result(self, tmp_path, monkeypatch,
                                               block_chars):
        # Small blocks mix clean blocks with dirty ones within one file.
        p = write(tmp_path / "posts.tsv", self.DIRTY + self.CLEAN * 3)
        whole = load_posts(p, "TW", max_malformed_frac=1.0)
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_chars)
        posts, report = load_posts(p, "TW", max_malformed_frac=1.0)
        assert report == whole[1]
        assert post_rows(posts) == post_rows(whole[0])
        assert (report.parsed, report.malformed, report.skipped_network) == (8, 3, 5)

    def test_miscounted_lines_do_not_pair_up(self, tmp_path):
        # Five fields then three: the token count matches two good lines,
        # and the tokens would even pass the field checks as two rows.
        p = write(tmp_path / "posts.tsv",
                  "TW\tu1\tp1\t100\n" * 98 + "TW\tu8\tp8\t9\tTW\nu9\tp9\t10\n")
        posts, report = load_posts(p, max_malformed_frac=0.05)
        assert (report.parsed, report.malformed) == (98, 2)
        assert len(posts) == 98


# One line of each kind that a single-line perturbation of an input makes.
BAD_LINES = [
    b"TW\tu1\t100",                               # a field dropped
    b"TW\tu1\tp1\t100\tx",                        # a field added
    b"XX\tu1\tp1\t100",                           # unknown network
    b"tw\tu1\tp1\t100",                           # network in the wrong case
    b"TW\tu\xff1\tp1\t100",                       # a byte that is not UTF-8
    b"TW\tu1\tp1\t99999999999999999999",          # beyond int64
    b"TW\tu1\tp1\t9223372036854775807",           # 19 digits, within int64
    b"TW\tu1\tp1\t9999999999999999999",           # 19 digits, beyond int64
    b"TW\tu1\tp1\t" + b"0" * 11 + b"9223372036854775807",  # 30 digits, in int64
    b"TW\tu1\tp1\t-" + b"0" * 3 + b"9223372036854775808",  # -2**63, led by zeros
    b"TW\tu1\tp1\t-9223372036854775809",          # below int64
    b"TW\tu1\tp1\t" + b"0" * 5 + b"1" + b"0" * 19,   # 10**19 led by zeros: beyond
    b"TW\tu1\tp1\t" + b"0" * 40,                   # 40 zeros: 0
    b"TW\tu1\tp1\t-",                             # a sign without digits
    b"TW\tu1\tp1\t",                              # empty timestamp
    b"TW\tu1\tp1\t+5",                            # a plus sign
    b"TW\tu1\tp1\t1_0",                           # an underscore
    b"TW\t-\tp1\t100",                            # "-" id
    b"TW\t\t\t100",                               # empty ids
    b"TW\tu1\tp1\t100\r",                         # CR before LF
    b"TW\tu1\rp1\t100",                           # a lone CR inside the line
    b"#TW\tu1\tp1\t100",                          # comment
    b"TW\tu\xc3\xa9\tp\xc3\xa9\t100",             # non-ASCII ids
    b"TW\tu1\tp1\t\xef\xbc\x91",                  # a fullwidth digit
    b"TW\tu1\x00\tp1\t100",                       # NUL
    b"TW\tu1\t" + b"p" * 256 + b"\t100",          # an id beyond MAX_ID_BYTES
    b"TW\t" + "é".encode() * 128 + b"\tp1\t100",  # 128 characters, 256 bytes
    b"TW\tu1\t" + b"p" * 255 + b"\t100",          # the longest id
    b"",                                          # blank
]

# Lines of users.tsv; "@" in a user id is replaced by a drawn number.
BAD_USER_LINES = [
    b"v@\t-721\t-\tTW",                           # below UTC-12
    b"v@\t841\t-\tTW",                            # above UTC+14
    b"v@\t+5\t-\tTW",                             # a plus sign
    b"v@\t1_0\t-\tFB",                            # an underscore
    b"v@\t" + b"0" * 25 + b"\t-\tTW",               # 25 zeros: UTC
    b"v@\t-000000000000000000000060\tOslo\tTW",     # zero-led: -60
    b"v@\t" + b"0" * 20 + b"841\t-\tTW",            # zero-led, above UTC+14
    b"v@\t-0001" + b"0" * 19 + b"\t-\tTW",           # -10**19: beyond int64
    b"v@\t60\t-\tTW",                             # "-" city
    b"v@\t60\t\tTW",                              # empty city
    "v@\t330\tSão Paulo\tFB".encode(),            # non-ASCII city
    b"v@\t0\tOslo\tXX",                           # unknown network
    b"v@\t0\tOslo\ttw",                           # network in the wrong case
    b"v@\t0\tOslo",                                # a field dropped
    b"v@\t0\tOslo\tTW\tx",                         # a field added
    b"v@\t0\t" + b"c" * 256 + b"\tTW",              # a city beyond MAX_ID_BYTES
    b"v@\t0\t" + b"c" * 255 + b"\tTW",              # the longest city
    b"v@" + b"u" * 254 + b"\t0\t-\tTW",             # a user id beyond it
    b"v@\t0\tOslo\x00\tTW",                        # NUL
    b"v@\t0\tOslo\tTW\r",                          # CR before LF
    b"v@\t\xff0\t-\tTW",                           # a byte that is not UTF-8
    b"#v@\t0\t-\tTW",                              # comment
    b"",                                          # blank
]
# Either drawn twice lists a user twice; both, for networks TW and FB.
REPEATED_USER_LINES = [b"dup\t0\tOslo\tTW", b"dup\t60\tLima\tFB"]

BAD_EDGE_LINES = [
    b"TW\ta",                                     # two fields
    b"TW\ta\tb\tc",                               # four fields
    b"XX\ta\tb",                                  # unknown network
    b"TW\ta\x00\tb",                               # NUL
    b"TW\t" + b"a" * 256 + b"\tb",                 # an id beyond MAX_ID_BYTES
    b"TW\tb\t" + "é".encode() * 128,              # 128 characters, 256 bytes
    b"TW\ta\t" + b"b" * 255,                      # the longest id
    b"TW\t\t",                                    # empty ids
    b"TW\ta\tb\r",                                # CR before LF
    b"TW\ta\rb",                                  # a lone CR inside the line
    b"#TW\ta\tb",                                 # comment
    b"TW\t\xffa\tb",                              # a byte that is not UTF-8
    b"",                                          # blank
]

networks = st.sampled_from(ingest.NETWORKS)
clean_lines = st.builds(
    lambda net, author, post, stamp: b"\t".join(
        [net.encode(), author.encode(), post.encode(), str(stamp).encode()]),
    networks,
    st.sampled_from(["u1", "u10", "u", "é", "-", ""]),
    st.sampled_from(["p1", "p10", "p", "pé", ""]),
    st.one_of(st.integers(-10**18 + 1, 10**18 - 1), st.sampled_from([0, -1, 7])))
numbered = st.integers(0, 10**9).map(lambda n: str(n).encode())
user_lines = st.one_of(
    st.builds(lambda n, tz, city, net: b"\t".join(
        [b"u" + n, str(tz).encode(), city.encode(), net.encode()]),
        numbered, st.integers(-720, 840),
        st.sampled_from(["Oslo", "Lima", "é", "-", ""]), networks),
    st.builds(lambda line, n: line.replace(b"@", n),
              st.sampled_from(BAD_USER_LINES), numbered),
    st.sampled_from(REPEATED_USER_LINES))
edge_lines = st.one_of(
    st.builds(lambda net, src, dst: "\t".join([net, src, dst]).encode(), networks,
              *[st.sampled_from(["a", "b", "é", "a0", "-", ""])] * 2),
    st.sampled_from(BAD_EDGE_LINES))
LINES = {"posts": st.one_of(clean_lines, st.sampled_from(BAD_LINES)),
         "reactions": st.one_of(clean_lines, st.sampled_from(BAD_LINES)),
         "users": user_lines, "edges": edge_lines}


class TestByteColumns:
    """Blocks are checked and split into byte columns at once; the tables,
    reports and messages equal those of the per-line reference."""

    @settings(max_examples=1000, deadline=None)
    @given(file=st.sampled_from(sorted(LINES)).flatmap(
               lambda kind: st.tuples(st.just(kind),
                                      st.lists(LINES[kind], max_size=40))),
           network=st.sampled_from([None, "TW", "FB"]),
           block_bytes=st.sampled_from([16, 64, 1 << 20]),
           last_newline=st.booleans(),
           max_malformed_frac=st.sampled_from([1.0, 0.25]),
           bidirectional=st.booleans())
    def test_byte_and_line_paths_agree(self, file, network, block_bytes,
                                       last_newline, max_malformed_frac,
                                       bidirectional):
        kind, lines = file
        loaded, reference = READERS[kind]
        args = (kind, network, max_malformed_frac, bidirectional)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{kind}.tsv"
            path.write_bytes(b"\n".join(lines) + b"\n" * last_newline)
            with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
                got = outcome(loaded, path, *args)
            assert got == outcome(reference, path, *args)

    @pytest.mark.parametrize("block_bytes", [1, 7, 1 << 20])
    def test_crlf_and_cr_read_as_lf(self, tmp_path, monkeypatch, block_bytes):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        lines = ["TW\tu1\tp1\t100", "# note", "", "TW\tu2\tp2\t200",
                 "TW\tu1\tp3\t300"]
        loaded = []
        for name, ending in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            path = tmp_path / f"{name}.tsv"
            path.write_bytes(ending.join(lines).encode() + b"\n")
            loaded.append(loaded_events(path, "posts", None)[:-1]
                          + (vars(load_posts(path)[1]) | {"path": None},))
        mixed = tmp_path / "mixed.tsv"
        mixed.write_bytes(b"TW\tu1\tp1\t100\r\nTW\tu2\tp2\t200\r"
                          b"TW\tu1\tp3\t300\n")
        loaded.append(loaded_events(mixed, "posts", None)[:-1]
                      + (vars(load_posts(mixed)[1]) | {"path": None},))
        assert all(got == loaded[0] for got in loaded)
        assert loaded[0][0] == [("u1", "p1", 100), ("u2", "p2", 200),
                                ("u1", "p3", 300)]

    def test_nul_line_is_malformed(self, tmp_path):
        # An S column drops trailing NUL bytes, so "u1\0" would merge with
        # "u1"; the line is malformed instead.
        posts, report = load_posts(
            write(tmp_path / "posts.tsv",
                  "TW\tu1\tp1\t100\nTW\tu1\0\tp2\t200\nTW\tu1\tp3\0\t300\n"),
            max_malformed_frac=1.0)
        assert (report.parsed, report.malformed) == (1, 2)
        assert post_rows(posts) == [("u1", "p1", 100)]
        reactions, report = load_reactions(
            write(tmp_path / "reactions.tsv", "TW\tp1\tu1\t100\nTW\tp1\tu1\0\t200\n"),
            max_malformed_frac=1.0)
        assert (report.parsed, report.malformed) == (1, 1)
        assert reactions.users.tolist() == ["u1"]
        users, report = load_users(
            write(tmp_path / "users.tsv", "u1\t0\t-\tTW\nu1\0\t0\t-\tTW\n"),
            max_malformed_frac=1.0)
        assert (report.parsed, report.malformed) == (1, 1)
        with pytest.raises(ValueError, match="NUL"):
            post_table([("TW", "u1", "p1", 1), ("TW", "u1", "p1\0", 2)])

    def test_long_field_is_malformed_and_widens_no_column(self, tmp_path):
        longest = "p" * ingest.MAX_ID_BYTES
        lines = (f"TW\tu1\t{longest}\t1\n"
                 + "TW\tu1\tp2\t2\n" * 97
                 + f"TW\tu1\t{longest}q\t3\n"          # one byte too long
                 + "X" * 100_000 + "\tu1\tp4\t4\n")    # a long network field
        posts, report = load_posts(write(tmp_path / "posts.tsv", lines),
                                   max_malformed_frac=0.05)
        assert (report.parsed, report.malformed) == (98, 2)
        assert posts.post_id.dtype.itemsize == ingest.MAX_ID_BYTES
        reactions, report = load_reactions(
            write(tmp_path / "reactions.tsv",
                  f"TW\tp1\t{'é' * 128}\t1\nTW\tp1\t{'é' * 127}\t1\n"),
            max_malformed_frac=1.0)
        assert (report.parsed, report.malformed) == (1, 1)
        assert reactions.users.tolist() == ["é" * 127]
        users, report = load_users(
            write(tmp_path / "users.tsv",
                  f"{'u' * 255}\t0\t{'c' * 255}\tTW\n"
                  f"{'u' * 256}\t0\t-\tTW\n"               # a long user id
                  f"u1\t0\t{'c' * 256}\tTW\n"),            # a long city
            max_malformed_frac=1.0)
        assert (report.parsed, report.malformed) == (1, 2)
        assert users.users.tolist() == ["u" * 255]
        assert users.city.tolist() == ["c" * 255]
        graph, report = load_graph(
            write(tmp_path / "edges.tsv",
                  f"TW\ta\t{'b' * 255}\nTW\t{'a' * 256}\tb\n"
                  f"TW\ta\t{'é' * 128}\n"),
            max_malformed_frac=1.0)
        assert (report.parsed, report.malformed) == (1, 2)
        assert graph.users.tolist() == ["a", "b" * 255]

    def test_zero_padded_numbers_load_exactly(self, tmp_path):
        stamps = [0, 7, -1, 1420000000, -2**63, 2**63 - 1]
        lines = [f"TW\tu1\tp{i}\t{t:026d}\n" for i, t in enumerate(stamps)]
        padded = write(tmp_path / "padded.tsv", "".join(lines))
        assert all(len(line.split("\t")[3]) >= 26 for line in lines)
        posts, report = load_posts(padded)
        assert report.malformed == 0
        assert posts.created_at.tolist() == stamps
        # The zero-led rows of BAD_LINES, and one beyond int64 after zeros.
        zero_led = [line.split(b"\t")[3] for line in BAD_LINES
                    if re.fullmatch(rb"TW\tu1\tp1\t-?00[0-9]*", line)]
        zero_led.append(b"0" * 9 + b"1" * 20)
        in_range = [int(t) for t in zero_led if -2**63 <= int(t) < 2**63]
        p = tmp_path / "zero_led.tsv"
        p.write_bytes(b"".join(b"TW\tu1\tp%d\t%s\n" % (i, t)
                               for i, t in enumerate(zero_led)))
        posts, report = load_posts(p, max_malformed_frac=1.0)
        assert (report.parsed, report.malformed) == (3, 2)
        assert posts.created_at.tolist() == in_range == [2**63 - 1, -2**63, 0]
        users, report = load_users(write(
            tmp_path / "users.tsv", "u1\t-000000000000000000000060\t-\tTW\n"
                                    f"u2\t{'0' * 30}840\t-\tTW\n"))
        assert report.malformed == 0
        assert users.tz_offset_min.tolist() == [-60, 840]

    def test_prefix_and_non_ascii_ids_round_trip(self, tmp_path):
        rows = [("u10", "p1", 1), ("u1", "p10", 2), ("é", "pé", 3),
                ("u1é", "p", 4), ("u1", "p1é", 5)]
        p = write(tmp_path / "posts.tsv",
                  "".join(f"TW\t{a}\t{pid}\t{t}\n" for a, pid, t in rows))
        posts, report = load_posts(p)
        assert report.malformed == 0
        assert post_rows(posts) == rows
        assert posts.users.tolist() == sorted({a for a, _, _ in rows})
        r = write(tmp_path / "reactions.tsv",
                  "".join(f"TW\t{pid}\tu{t}\t{t + 10}\n" for _, pid, t in rows)
                  + "TW\tp1é\u0301\tu9\t99\nTW\tp0\tu9\t99\n")
        reactions, _ = load_reactions(r)
        res = join_reactions(posts, reactions)
        assert (res.n_joined, res.n_dangling) == (5, 2)
        pairs = res.pairs
        assert list(zip(pairs.users[pairs.author].tolist(),
                        pairs.users[pairs.reactor].tolist())) == [
            (a, f"u{t}") for a, _, t in rows]

    def test_duplicate_post_id_names_first_duplicate_in_file_order(self):
        # "a" sorts first, but the second "b" comes before the second "a".
        posts = [("TW", "u1", pid, t) for t, pid in enumerate(["a", "b", "b", "a"])]
        with pytest.raises(IngestError, match=r"^duplicate post_id 'b'$"):
            join(posts, [])
        posts = [("TW", "u1", pid, t) for t, pid in enumerate(["é", "x", "é"])]
        with pytest.raises(IngestError, match=r"^duplicate post_id 'é'$"):
            join(posts, [])


def graph_pairs(g):
    """The (src, dst) user pairs a graph holds, in its order."""
    return list(zip(g.users[g.src].tolist(), g.users[g.dst].tolist()))


def graph_of(edges):
    """The graph of a list of (src, dst) pairs."""
    return SocialGraph.from_columns([a for a, _ in edges], [b for _, b in edges])


def transposed(g):
    """The graph with every edge of ``g`` reversed."""
    return SocialGraph.from_columns(g.users[g.dst], g.users[g.src])


class TestSocialGraph:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(*[st.sampled_from(["a", "b", "c", "d", "é", "a0"])] * 2),
                    max_size=30))
    def test_columns_match_set_computation(self, edges):
        g = graph_of(edges)
        pairs = set(edges)
        assert set(graph_pairs(g)) == pairs
        assert g.n_edges == len(pairs)
        assert g.users.tolist() == sorted({u for e in edges for u in e})
        assert g.is_symmetric() == (pairs == {(b, a) for a, b in pairs})
        keys = g.src * len(g.users) + g.dst
        assert np.all(np.diff(keys) > 0)
        assert g.src.dtype == g.dst.dtype == np.int64

    def test_transpose_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            edges = [(f"u{a}", f"u{b}")
                     for a, b in rng.integers(0, n, size=(30, 2)) if a != b]
            g = graph_of(edges)
            t = transposed(g)
            assert set(graph_pairs(g)) == set(edges)
            assert set(graph_pairs(t)) == {(b, a) for a, b in edges}
            tt = transposed(t)
            for column in ("users", "src", "dst"):
                assert np.array_equal(getattr(tt, column), getattr(g, column))

    def test_duplicate_edges_collapse(self):
        g = SocialGraph.from_columns(["a", "a"], ["b", "b"])
        assert graph_pairs(g) == [("a", "b")]
        g = SocialGraph.from_columns(np.array([b"b", b"a", b"b"]),
                                     np.array([b"a", b"b", b"a"]))
        assert graph_pairs(g) == [("a", "b"), ("b", "a")]

    def test_empty_columns_build_an_empty_graph(self):
        g = SocialGraph.from_columns([], [])
        assert g.n_edges == 0 and g.users.size == 0 and g.is_symmetric()
        assert g.src.dtype == g.dst.dtype == np.int64

    def test_bidirectional_check(self, tmp_path):
        asym = write(tmp_path / "edges.tsv", "FB\ta\tb\n")
        with pytest.raises(IngestError):
            load_graph(asym, bidirectional=True)
        sym = write(tmp_path / "edges2.tsv", "FB\ta\tb\nFB\tb\ta\n")
        g, _ = load_graph(sym, bidirectional=True)
        assert g.is_symmetric()


class TestJoin:
    def test_basic_join_delay(self):
        posts = [("TW", "u1", "p1", 100)]
        reactions = [("TW", "p1", "u2", 400)]
        res = join(posts, reactions)
        assert res.n_joined == 1
        assert res.pairs.delay[0] == 300
        assert res.pairs.users[res.pairs.author[0]] == "u1"
        assert res.pairs.users[res.pairs.reactor[0]] == "u2"

    def test_dangling_and_negative_counted(self):
        posts = [("TW", "u1", "p1", 100)]
        reactions = [
            ("TW", "p1", "u2", 400),
            ("TW", "missing", "u2", 500),
            ("TW", "p1", "u3", 50),
        ]
        res = join(posts, reactions)
        assert res.n_joined == 1
        assert res.n_dangling == 1
        assert res.n_negative_delay == 1
        assert res.n_joined + res.n_dangling + res.n_negative_delay == len(reactions)

    def test_mixed_networks_rejected(self):
        posts = [("TW", "u1", "p1", 100)]
        reactions = [("FB", "p1", "u2", 400)]
        with pytest.raises(IngestError):
            join(posts, reactions)

    def test_duplicate_post_id_rejected(self):
        posts = [("TW", "u1", "p1", 100),
                 ("TW", "u2", "p1", 200)]
        with pytest.raises(IngestError):
            join(posts, [])

    @given(
        posts=st.lists(st.tuples(st.sampled_from(["u0", "u1", "r0", "-"]),
                                 st.integers(-50, 50)), max_size=12),
        reactions=st.lists(st.tuples(st.integers(0, 15),
                                     st.sampled_from(["r0", "r1", "u0", "-"]),
                                     st.integers(-60, 60)), max_size=25),
    )
    def test_matches_dict_loop_join(self, posts, reactions):
        # Reactions to p12..p15 (and to any pN beyond the posts) dangle.
        post_tuples = [("TW", a, f"p{i}", t) for i, (a, t) in enumerate(posts)]
        reaction_tuples = [("TW", f"p{j}", r, t) for j, r, t in reactions]
        index = {post_id: (author, created_at)
                 for _, author, post_id, created_at in post_tuples}
        expected = []
        dangling = negative = 0
        for _, post_id, reactor, reacted_at in reaction_tuples:
            post = index.get(post_id)
            if post is None:
                dangling += 1
            elif reacted_at < post[1]:
                negative += 1
            else:
                expected.append((post[0], reactor, post[1], reacted_at))

        res = join(post_tuples, reaction_tuples)
        pairs = res.pairs
        got = zip(pairs.users[pairs.author].tolist(),
                  pairs.users[pairs.reactor].tolist(),
                  pairs.post_time.tolist(), pairs.reaction_time.tolist())
        assert Counter(got) == Counter(expected)
        assert res.n_joined == len(expected)
        assert res.n_dangling == dangling
        assert res.n_negative_delay == negative


def row(prof, user):
    """Index of ``user``'s row in the profile matrices."""
    return prof.users.tolist().index(user)


class TestBuildProfiles:
    # Monday 2015-01-05 00:00 UTC.
    MONDAY = 1420416000

    def grid(self):
        return WeeklyGrid()

    def test_post_bucket_zero(self):
        posts = [("TW", "u1", "p1", self.MONDAY + 5 * 60)]
        users = tz_table({"u1": 0})
        window = TimeWindow.from_days(self.MONDAY, 63)
        prof = profiles(posts, NO_PAIRS, users, self.grid(), window)
        assert prof.created.at(row(prof, "u1"), 0) == 1.0
        assert prof.created.row_sums[row(prof, "u1")] == 1.0

    def test_reactions_bucket_one(self):
        res = join(
            [("TW", "a", "p1", self.MONDAY)],
            [("TW", "p1", "u1", self.MONDAY + 20 * 60),
             ("TW", "p1", "u1", self.MONDAY + 22 * 60)])
        users = tz_table({"u1": 0, "a": 0})
        window = TimeWindow.from_days(self.MONDAY, 63)
        prof = profiles([], res.pairs, users, self.grid(), window)
        assert prof.reactions.at(row(prof, "u1"), 1) == 2.0

    def test_window_boundary_exclusion(self):
        window = TimeWindow.from_days(self.MONDAY, 63)
        posts = [("TW", "u1", "p1", window.end),
                 ("TW", "u1", "p2", window.end + 1)]
        users = tz_table({"u1": 0})
        prof = profiles(posts, NO_PAIRS, users, self.grid(), window)
        assert prof.created.row_sums[row(prof, "u1")] == 1.0

    def test_conservation_over_users(self):
        rng = np.random.default_rng(41)
        window = TimeWindow.from_days(self.MONDAY, 63)
        posts = [("TW", f"u{int(rng.integers(0, 5))}", f"p{i}",
                            int(self.MONDAY + rng.integers(0, 63 * 86400)))
                 for i in range(200)]
        users = tz_table({f"u{i}": 0 for i in range(5)})
        prof = profiles(posts, NO_PAIRS, users, self.grid(), window)
        assert prof.created.row_sums.sum() == len(posts)

    def test_unknown_tz_flagged_and_defaults_utc(self):
        posts = [("TW", "ghost", "p1", self.MONDAY)]
        window = TimeWindow.from_days(self.MONDAY, 63)
        prof = profiles(posts, NO_PAIRS, tz_table({}), self.grid(), window)
        assert prof.users[prof.unknown_tz].tolist() == ["ghost"]
        assert prof.created.at(row(prof, "ghost"), 0) == 1.0

    def test_zero_profiles_for_inactive_users(self):
        users = tz_table({"quiet": 0})
        window = TimeWindow.from_days(self.MONDAY, 63)
        prof = profiles([], NO_PAIRS, users, self.grid(), window)
        assert prof.created.row_sums[row(prof, "quiet")] == 0.0
        assert prof.reactions.row_sums[row(prof, "quiet")] == 0.0

    def test_rows_follow_sorted_users_in_local_time(self):
        posts = [("TW", "zed", "p1", self.MONDAY),
                 ("TW", "amy", "p2", self.MONDAY)]
        users = tz_table({"zed": 0, "amy": 60, "kim": 0})
        window = TimeWindow.from_days(self.MONDAY, 63)
        prof = profiles(posts, NO_PAIRS, users, self.grid(), window)
        assert prof.users.tolist() == ["amy", "kim", "zed"]
        assert prof.created.shape == prof.reactions.shape == (3, 672)
        assert prof.created.at([0, 2], [4, 0]).tolist() == [1.0, 1.0]


@st.composite
def count_matrices(draw):
    """A dense matrix of whole-number counts, many of them zero, with rows
    that are all zero and possibly no rows at all."""
    rows = draw(st.integers(0, 6))
    buckets = draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 7]),
                          min_size=rows * buckets, max_size=rows * buckets))
    return np.array(cells, dtype=np.float64).reshape(rows, buckets)


class TestSparseCounts:
    @settings(max_examples=200)
    @given(dense=count_matrices(), data=st.data())
    def test_reads_equal_the_dense_matrix(self, dense, data):
        counts = SparseCounts.of(dense)
        rows, n = dense.shape
        assert counts.shape == dense.shape
        assert np.all(np.diff(counts.keys) > 0) and np.all(counts.counts > 0)
        assert counts.row_sums.tobytes() == dense.sum(axis=1).tobytes()
        index = data.draw(st.lists(st.integers(0, rows - 1), max_size=8)
                          if rows else st.just([]))
        assert counts.rows(index).tobytes() == dense[index].reshape(-1, n).tobytes()
        out = np.full((len(index), n), np.nan)
        assert counts.rows(index, out=out) is out
        assert out.tobytes() == dense[index].reshape(-1, n).tobytes()
        if rows:
            row = np.array(data.draw(st.lists(st.integers(0, rows - 1), max_size=8)),
                           dtype=np.int64)
            bucket = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                                 min_size=row.size, max_size=row.size)),
                              dtype=np.int64)
            assert counts.at(row, bucket).tolist() == dense[row, bucket].tolist()
            assert counts.at(row[:, None], np.arange(n)).tolist() == dense[row].tolist()

    @settings(max_examples=100)
    @given(events=st.lists(st.tuples(st.sampled_from(["a", "b", "c", "-"]),
                                     st.integers(0, 3 * 86400)), max_size=30),
           offsets=st.lists(st.sampled_from([-300, 0, 60]), min_size=3, max_size=3))
    def test_weekly_counts_equal_a_dense_tally(self, events, offsets):
        grid = WeeklyGrid(7 * 24)
        offset = dict(zip(["a", "b", "d"], offsets))
        posts, users = ingest.share_users(
            post_table([("TW", u, f"p{i}", t) for i, (u, t) in enumerate(events)]),
            tz_table(offset))
        got = ingest.weekly_counts(users, posts.author, posts.created_at, grid)
        names = users.users.tolist()
        want = np.zeros((len(names), grid.buckets_per_week))
        for user, t in events:
            want[names.index(user), grid.bucket_index(t, offset.get(user, 0))] += 1
        assert got.shape == want.shape
        assert got.rows(range(len(names))).tobytes() == want.tobytes()


class TestUserTable:
    def test_rows_follow_sorted_users(self):
        users = UserTable.from_columns(["TW", "TW", "TW"], ["zed", "amy", "kim"],
                                       [0, 60, -300], [None, "Oslo", None])
        assert users.users.tolist() == ["amy", "kim", "zed"]
        assert users.tz_offset_min.tolist() == [60, -300, 0]
        assert users.city.tolist() == ["Oslo", None, None]
        assert users.networks == {"TW"}

    def test_unlisted_users_are_at_utc(self):
        names = ["zed", "bob", "amy", "zzz"]
        posts, users = share_users(
            post_table([("TW", u, f"p{i}", 0) for i, u in enumerate(names)]),
            UserTable.from_columns(["TW", "TW"], ["amy", "zed"], [60, -300],
                                   ["Oslo", None]))
        assert users.users.tolist() == sorted(names)
        assert users.tz_offset_min[posts.author].tolist() == [-300, 0, 60, 0]
        assert users.city[posts.author].tolist() == [None, None, "Oslo", None]
        assert users.listed[posts.author].tolist() == [True, False, True, False]
        _, nobody = share_users(post_table([("TW", "amy", "p", 0)]), tz_table({}))
        assert nobody.tz_offset_min.tolist() == [0]
        assert nobody.tz_offset_min.dtype == np.int64

    @pytest.mark.parametrize("networks,message", [
        (["TW", "TW"], "for network TW$"), (["TW", "FB"], "for networks TW and FB$")])
    def test_repeated_user_is_refused_whatever_the_networks(self, networks,
                                                            message):
        with pytest.raises(ValueError, match="user 'u1' is listed more than "
                                             "once " + message):
            UserTable.from_columns(networks + ["TW"], ["u1", "u1", "u0"],
                                   [0, 60, 0], [None] * 3)


# Ids that sort apart by code point but not by UTF-16 unit or Latin-1 byte,
# and ids that are prefixes of one another.
IDS = st.sampled_from(["a", "a0", "a00", "b", "é", "ä1", "\uffff",
                       "\U0001f600", "-"])


@settings(max_examples=200)
@given(posts=st.lists(IDS, max_size=8),
       reactors=st.lists(IDS, max_size=8),
       edges=st.lists(st.tuples(IDS, IDS), max_size=6),
       listed=st.sets(IDS, max_size=6))
def test_share_users_keeps_every_id_in_one_sorted_vocabulary(posts, reactors,
                                                             edges, listed):
    tables = (post_table([("TW", a, f"p{i}", 0) for i, a in enumerate(posts)]),
              reaction_table([("TW", "p0", r, 0) for r in reactors]),
              SocialGraph.from_columns([a for a, _ in edges], [b for _, b in edges]),
              tz_table(dict.fromkeys(listed, 60)))
    shared = share_users(*tables)
    users = shared[0].users
    assert all(table.users is users for table in shared)
    assert users.tolist() == sorted({*posts, *reactors, *listed,
                                     *(u for e in edges for u in e)})
    assert post_rows(shared[0]) == post_rows(tables[0])
    assert users[shared[1].reactor].tolist() == reactors
    assert graph_pairs(shared[2]) == graph_pairs(tables[2])
    listed_at = shared[3].listed
    assert users[listed_at].tolist() == sorted(listed)
    assert shared[3].tz_offset_min.tolist() == [60 * bool(x) for x in listed_at]
    assert all(a is b for a, b in zip(share_users(*shared), shared))


class TestAdapter:
    def test_adapts_foreign_layout(self, tmp_path):
        posts_in = write(tmp_path / "raw_posts.tsv",
                         "p1\tu1\t1420000000\np2\tu1\t1420000500\n")
        reactions_in = write(tmp_path / "raw_reactions.tsv",
                             "p1\t1420000100\n")
        posts_out = tmp_path / "posts.tsv"
        reactions_out = tmp_path / "reactions.tsv"
        report = adapt_open_dataset(posts_in, reactions_in, posts_out,
                                    reactions_out, "TW")
        assert isinstance(report, AdapterReport)
        assert report.analysis_only  # no reactor column in the source
        posts, _ = load_posts(posts_out)
        assert len(posts) == 2 and posts.users[posts.author[0]] == "u1"
        reactions, _ = load_reactions(reactions_out)
        assert reactions.users[reactions.reactor[0]] == "-"
        res = join_reactions(posts, reactions)
        assert res.n_joined == 1 and res.pairs.delay[0] == 100

    def test_custom_columns_with_reactor(self, tmp_path):
        posts_in = write(tmp_path / "raw_posts.tsv", "1420000000\tp1\tu1\n")
        reactions_in = write(tmp_path / "raw_reactions.tsv",
                             "u9\tp1\t1420000300\n")
        colmap = ColumnMap(post_id=1, author=2, created_at=0,
                           reaction_post_id=1, reacted_at=2, reactor=0)
        report = adapt_open_dataset(posts_in, reactions_in,
                                    tmp_path / "p.tsv", tmp_path / "r.tsv",
                                    "FB", colmap)
        assert not report.analysis_only
        reactions, _ = load_reactions(tmp_path / "r.tsv")
        assert reactions.users[reactions.reactor[0]] == "u9"


    def test_empty_id_field_is_skipped(self, tmp_path):
        # An empty mapped id would make the canonical line malformed.
        posts_in = write(tmp_path / "raw_posts.tsv",
                         "p1\tu1\t1420000000\np2\t\t1420000500\n"
                         "\tu1\t1420000600\n")
        reactions_in = write(tmp_path / "raw_reactions.tsv",
                             "p1\t1420000100\n\t1420000200\n")
        report = adapt_open_dataset(posts_in, reactions_in, tmp_path / "p.tsv",
                                    tmp_path / "r.tsv", "TW")
        assert (report.posts_written, report.reactions_written,
                report.skipped) == (1, 1, 3)
        for load, path in ((load_posts, "p.tsv"), (load_reactions, "r.tsv")):
            assert load(tmp_path / path)[1].malformed == 0


def _near_halves() -> np.ndarray:
    """The double nearest to a rounding half of the 17th significant digit
    and the double on each side of it, for 17-digit decimals at exponents
    across the range; then doubles that lie exactly on a half, whose 18th
    digit onwards is 5, which round half to even."""
    nearest = [float(Decimal(f"{digits}5e{exp}")) for exp in
               (-300, -279, -40, -22, -21, -20, -19, -18, -17, -1, 0, 5, 260)
               for digits in (10000000000000000, 12345678901234567,
                              31415926535897932, 99999999999999999)]
    around = [np.nextafter(nearest, -np.inf), nearest, np.nextafter(nearest, np.inf)]
    ties = [(2**17 + 1) / 2**18, 1e15 + 0.25, 1e15 + 0.75, 2**-20 + 2**-72]
    return np.concatenate([*around, ties])


def _special_floats() -> np.ndarray:
    """Doubles where a printed %.17g is easiest to get wrong: each power of
    ten and the two doubles either side of it (among them 1e-5, 1e-4, 1e16
    and 1e17, 9.999999999999999e-05 just below 1e-4, and 1e-280 and 1e280,
    the ends of the range numpy prints), the 50 doubles just below 1.0,
    zeros, subnormals, the extremes, infinities and NaN payloads, and the
    doubles next to a rounding half, each with both signs."""
    tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
    near = [tens]
    for direction in (np.inf, -np.inf):
        step = tens
        for _ in range(2):
            step = np.nextafter(step, direction)
            near.append(step)
    below_one = [1.0]
    for _ in range(50):
        below_one.append(np.nextafter(below_one[-1], 0.0))
    bits = np.array([0x1, 0xF, 0x000F_FFFF_FFFF_FFFF, 0x7FEF_FFFF_FFFF_FFFF,
                     0x7FF0_0000_0000_0000, 0x7FF0_0000_0000_0001,
                     0x7FF8_0000_0000_0000, 0x7FFF_FFFF_FFFF_FFFF],
                    dtype=np.uint64).view(np.float64)
    values = np.concatenate([*near, below_one, [0.0], bits, _near_halves()])
    return np.concatenate([values, -values])


class TestFloatTexts:
    """``float_texts`` is the one formatter of floats in the artifacts; it
    must print the bytes of what ``"%.17g" % x`` prints for every float64."""

    @staticmethod
    def reference(values: np.ndarray) -> list[bytes]:
        return [("%.17g" % x).encode() for x in values.reshape(-1).tolist()]

    def test_special_values(self):
        values = _special_floats()
        assert values.size > 3000
        texts = ingest.float_texts(values)
        assert texts.tolist() == self.reference(values)
        assert b"-0" in texts.tolist() and b"0" in texts.tolist()

    @pytest.mark.parametrize("value, text", [
        (9.999999999999999e-05, b"9.9999999999999991e-05"),
        (1e-5, b"1.0000000000000001e-05"), (1e-4, b"0.0001"),
        (1e16, b"10000000000000000"), (1e17, b"1e+17"),
        (-1e-280, b"-9.9999999999999996e-281"), (5e-324, b"4.9406564584124654e-324"),
        (1e15 + 0.25, b"1000000000000000.2"), (1e15 + 0.75, b"1000000000000000.8"),
        (-0.0, b"-0"), (np.inf, b"inf"), (-np.inf, b"-inf"), (np.nan, b"nan")])
    def test_named_values(self, value, text):
        assert ingest.float_texts([value]).tolist() == [text]

    @settings(max_examples=200)
    @given(values=hnp.arrays(np.float64, st.integers(0, 40), elements=st.one_of(
        st.floats(1e-280, 1e280, exclude_max=True),
        st.floats(1e-280, 1e280, exclude_max=True).map(lambda x: -x),
        st.sampled_from(_near_halves().tolist()))))
    def test_python_prints_only_values_next_to_a_half(self, values):
        # Within [1e-280, 1e280) numpy prints every value whose rounding is
        # sure, and a value it leaves to Python is within twice the margin
        # of a half, measured exactly.
        magnitude = np.abs(values)
        digits, e, sure = ingest._significands(magnitude)
        texts = ingest._place_texts(digits[sure], e[sure], np.signbit(values[sure]))
        assert texts.view("S24").reshape(-1).tolist() == self.reference(values[sure])
        for x, exp in zip(magnitude[~sure].tolist(), e[~sure].tolist()):
            scaled = Fraction(x) * Fraction(10) ** (16 - exp)
            assert abs(scaled - math.floor(scaled) - Fraction(1, 2)) < 2 * ingest._HALF_MARGIN

    @settings(max_examples=200)
    @given(bits=hnp.arrays(
        np.uint64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=8),
        elements=st.one_of(st.integers(0, 2**64 - 1),
                           st.sampled_from(_special_floats().view(np.uint64)
                                           .tolist()))))
    def test_any_bit_pattern_prints_as_17g(self, bits):
        values = bits.view(np.float64)
        texts = ingest.float_texts(values)
        assert texts.shape == values.shape
        assert texts.reshape(-1).tolist() == self.reference(values)
