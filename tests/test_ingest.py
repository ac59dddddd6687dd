"""Canonical TSV parsing, joining, graph loading, and profile building."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from postsched import (
    IngestError,
    PairTable,
    SocialGraph,
    TimeWindow,
    UserMeta,
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
    PostRecord,
    PostTable,
    ReactionRecord,
    ReactionTable,
    adapt_open_dataset,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def join(posts, reactions):
    return join_reactions(PostTable.from_records(posts),
                          ReactionTable.from_records(reactions))


def post_rows(table):
    """(author, post_id, created_at) per row of a PostTable."""
    return list(zip(table.users[table.author].tolist(), table.post_id,
                    table.created_at.tolist()))


def profiles(posts, pairs, users, grid, window):
    return build_profiles(PostTable.from_records(posts), pairs, users, grid, window)


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
        assert users[0] == UserMeta("u1", -300, "NYC", "TW")
        assert users[1].city is None

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
                  "u1\t0\t-\tTW\n" * 99 + f"u2\t{offset}\t-\tTW\n")
        users, report = load_users(p)
        assert report.malformed == 1
        assert [u.user for u in users] == ["u1"] * 99

    @pytest.mark.parametrize("offset", [-720, 840])
    def test_tz_offset_range_ends_accepted(self, tmp_path, offset):
        p = write(tmp_path / "users.tsv", f"u1\t{offset}\t-\tTW\n")
        users, report = load_users(p)
        assert report.malformed == 0
        assert users == [UserMeta("u1", offset, None, "TW")]

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            load_posts(tmp_path / "absent.tsv")


class TestLoadReportAccounting:
    """Clean files are split by columns at once, others checked line by
    line; the report counts every line the same way on either path."""

    CLEAN = ("# comment\n\nTW\tu1\tp1\t100\nFB\tu2\tp2\t200\n"
             "\n# another\nTW\tu3\tp3\t-7\n")
    DIRTY = CLEAN + ("TW\tu4\tp4\n"           # too few fields
                     "XX\tu5\tp5\t1\n"        # unknown network
                     "FB\tu6\tp6\tnoon\n"     # other network: skipped first
                     "TW\tu7\tp7\t+8\n")      # bad timestamp

    @pytest.fixture
    def fallback_calls(self, monkeypatch):
        calls = []
        real = ingest._check_lines

        def spy(*args):
            calls.append(args[0])
            return real(*args)
        monkeypatch.setattr(ingest, "_check_lines", spy)
        return calls

    @pytest.mark.parametrize("network,expected", [
        (None, (3, 0, 0)), ("TW", (2, 0, 1)), ("GP", (0, 0, 3))])
    def test_clean_file_takes_fast_path(self, tmp_path, fallback_calls,
                                        network, expected):
        p = write(tmp_path / "posts.tsv", self.CLEAN)
        posts, report = load_posts(p, network)
        assert not fallback_calls
        assert (report.parsed, report.malformed, report.skipped_network) == expected
        assert len(posts) == report.parsed

    @pytest.mark.parametrize("network", [None, "TW", "FB"])
    def test_fast_path_and_fallback_agree(self, tmp_path, monkeypatch, network):
        p = write(tmp_path / "posts.tsv", self.CLEAN)
        fast_posts, fast_report = load_posts(p, network)
        monkeypatch.setattr(ingest, "_split_clean", lambda lines, network: None)
        slow_posts, slow_report = load_posts(p, network)
        assert fast_report == slow_report
        assert post_rows(fast_posts) == post_rows(slow_posts)
        assert fast_posts.networks == slow_posts.networks

    def test_dirty_file_counts_every_line(self, tmp_path, fallback_calls):
        p = write(tmp_path / "posts.tsv", self.DIRTY)
        posts, report = load_posts(p, "TW", max_malformed_frac=1.0)
        assert fallback_calls
        assert (report.parsed, report.malformed, report.skipped_network) == (2, 3, 2)
        assert post_rows(posts) == [("u1", "p1", 100), ("u3", "p3", -7)]

    def test_dirty_file_still_aborts_above_limit(self, tmp_path):
        p = write(tmp_path / "posts.tsv", self.DIRTY)
        with pytest.raises(IngestError, match="3 of 5 lines malformed"):
            load_posts(p, "TW", max_malformed_frac=0.5)

    @pytest.mark.parametrize("block_chars", [1, 20, 64])
    def test_block_size_does_not_change_result(self, tmp_path, monkeypatch,
                                               block_chars):
        # Small blocks mix clean blocks (split by columns) with dirty ones
        # (checked line by line) within one file.
        p = write(tmp_path / "posts.tsv", self.DIRTY + self.CLEAN * 3)
        whole = load_posts(p, "TW", max_malformed_frac=1.0)
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", block_chars)
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


class TestSocialGraph:
    def test_transpose_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            edges = [(f"u{a}", f"u{b}")
                     for a, b in rng.integers(0, n, size=(30, 2)) if a != b]
            g = SocialGraph(edges)
            assert g.transposed().out_edges == g.in_edges
            assert g.transposed().in_edges == g.out_edges
            for src, dst in edges:
                assert dst in g.audience(src)
                assert src in g.followed(dst)

    def test_duplicate_edges_collapse(self):
        g = SocialGraph([("a", "b"), ("a", "b")])
        assert g.n_edges == 1

    def test_bidirectional_check(self, tmp_path):
        asym = write(tmp_path / "edges.tsv", "FB\ta\tb\n")
        with pytest.raises(IngestError):
            load_graph(asym, bidirectional=True)
        sym = write(tmp_path / "edges2.tsv", "FB\ta\tb\nFB\tb\ta\n")
        g, _ = load_graph(sym, bidirectional=True)
        assert g.is_symmetric()


class TestJoin:
    def test_basic_join_delay(self):
        posts = [PostRecord("TW", "u1", "p1", 100)]
        reactions = [ReactionRecord("TW", "p1", "u2", 400)]
        res = join(posts, reactions)
        assert res.n_joined == 1
        assert res.pairs.delay[0] == 300
        assert res.pairs.users[res.pairs.author[0]] == "u1"
        assert res.pairs.users[res.pairs.reactor[0]] == "u2"

    def test_dangling_and_negative_counted(self):
        posts = [PostRecord("TW", "u1", "p1", 100)]
        reactions = [
            ReactionRecord("TW", "p1", "u2", 400),
            ReactionRecord("TW", "missing", "u2", 500),
            ReactionRecord("TW", "p1", "u3", 50),
        ]
        res = join(posts, reactions)
        assert res.n_joined == 1
        assert res.n_dangling == 1
        assert res.n_negative_delay == 1
        assert res.n_joined + res.n_dangling + res.n_negative_delay == len(reactions)

    def test_mixed_networks_rejected(self):
        posts = [PostRecord("TW", "u1", "p1", 100)]
        reactions = [ReactionRecord("FB", "p1", "u2", 400)]
        with pytest.raises(IngestError):
            join(posts, reactions)

    def test_duplicate_post_id_rejected(self):
        posts = [PostRecord("TW", "u1", "p1", 100),
                 PostRecord("TW", "u2", "p1", 200)]
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
        post_records = [PostRecord("TW", a, f"p{i}", t)
                        for i, (a, t) in enumerate(posts)]
        reaction_records = [ReactionRecord("TW", f"p{j}", r, t)
                            for j, r, t in reactions]
        index = {p.post_id: p for p in post_records}
        expected = []
        dangling = negative = 0
        for r in reaction_records:
            post = index.get(r.post_id)
            if post is None:
                dangling += 1
            elif r.reacted_at < post.created_at:
                negative += 1
            else:
                expected.append((post.author, r.reactor, post.created_at,
                                 r.reacted_at))

        res = join(post_records, reaction_records)
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
        posts = [PostRecord("TW", "u1", "p1", self.MONDAY + 5 * 60)]
        users = [UserMeta("u1", 0, None, "TW")]
        window = TimeWindow.from_days(self.MONDAY, 63)
        prof = profiles(posts, NO_PAIRS, users, self.grid(), window)
        assert prof.created[row(prof, "u1"), 0] == 1.0
        assert prof.created[row(prof, "u1")].sum() == 1.0

    def test_reactions_bucket_one(self):
        res = join(
            [PostRecord("TW", "a", "p1", self.MONDAY)],
            [ReactionRecord("TW", "p1", "u1", self.MONDAY + 20 * 60),
             ReactionRecord("TW", "p1", "u1", self.MONDAY + 22 * 60)])
        users = [UserMeta("u1", 0, None, "TW"), UserMeta("a", 0, None, "TW")]
        window = TimeWindow.from_days(self.MONDAY, 63)
        prof = profiles([], res.pairs, users, self.grid(), window)
        assert prof.reactions[row(prof, "u1"), 1] == 2.0

    def test_window_boundary_exclusion(self):
        window = TimeWindow.from_days(self.MONDAY, 63)
        posts = [PostRecord("TW", "u1", "p1", window.end),
                 PostRecord("TW", "u1", "p2", window.end + 1)]
        users = [UserMeta("u1", 0, None, "TW")]
        prof = profiles(posts, NO_PAIRS, users, self.grid(), window)
        assert prof.created[row(prof, "u1")].sum() == 1.0

    def test_conservation_over_users(self):
        rng = np.random.default_rng(41)
        window = TimeWindow.from_days(self.MONDAY, 63)
        posts = [PostRecord("TW", f"u{int(rng.integers(0, 5))}", f"p{i}",
                            int(self.MONDAY + rng.integers(0, 63 * 86400)))
                 for i in range(200)]
        users = [UserMeta(f"u{i}", 0, None, "TW") for i in range(5)]
        prof = profiles(posts, NO_PAIRS, users, self.grid(), window)
        assert prof.created.sum() == len(posts)

    def test_unknown_tz_flagged_and_defaults_utc(self):
        posts = [PostRecord("TW", "ghost", "p1", self.MONDAY)]
        window = TimeWindow.from_days(self.MONDAY, 63)
        prof = profiles(posts, NO_PAIRS, [], self.grid(), window)
        assert "ghost" in prof.unknown_tz
        assert prof.created[row(prof, "ghost"), 0] == 1.0

    def test_zero_profiles_for_inactive_users(self):
        users = [UserMeta("quiet", 0, None, "TW")]
        window = TimeWindow.from_days(self.MONDAY, 63)
        prof = profiles([], NO_PAIRS, users, self.grid(), window)
        assert prof.created[row(prof, "quiet")].sum() == 0.0
        assert prof.reactions[row(prof, "quiet")].sum() == 0.0

    def test_rows_follow_sorted_users_in_local_time(self):
        posts = [PostRecord("TW", "zed", "p1", self.MONDAY),
                 PostRecord("TW", "amy", "p2", self.MONDAY)]
        users = [UserMeta("zed", 0, None, "TW"), UserMeta("amy", 60, None, "TW"),
                 UserMeta("kim", 0, None, "TW")]
        window = TimeWindow.from_days(self.MONDAY, 63)
        prof = profiles(posts, NO_PAIRS, users, self.grid(), window)
        assert prof.users.tolist() == ["amy", "kim", "zed"]
        assert prof.created.shape == prof.reactions.shape == (3, 672)
        assert prof.created[0, 4] == prof.created[2, 0] == 1.0


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
