"""End-to-end derivation over synthetic logs, fallbacks, persistence."""

import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postsched import (
    DelayKernel,
    pipeline,
    temporal,
    SynthConfig,
    TimeWindow,
    WeeklyGrid,
    delayed_profile,
    derive_schedules,
    evaluate_schedules,
    generate,
    ground_truth_peak,
)
from postsched.ingest import (
    PairTable,
    PostTable,
    SocialGraph,
    UserTable,
    build_profiles,
    join_reactions,
    share_users,
)
from postsched.analysis import city_cohorts
from postsched.errors import UndefinedMetricError
from postsched.pipeline import (
    read_schedules,
    write_ranked_times,
    write_schedules,
)
from postsched.schedules import top_k_times
from postsched.temporal import ScheduleTable
from postsched.synth import DEFAULT_START_EPOCH


def star_inputs(span_days=21, **overrides):
    base = dict(
        seed=29,
        n_authors=4,
        followers_per_author=6,
        span_days=span_days,
        kernel=tuple([1.0] + [0.0] * 95),
        author_base_rate=0.4,
        follower_base_rate=0.002,
        follower_peak_rate=1.0,
        reaction_probability=0.9,
        planted_peaks=((40,), (120,), (200,), (300,)),
    )
    base.update(overrides)
    cfg = SynthConfig(**base)
    result = generate(cfg)
    posts = result.posts
    join = join_reactions(posts, result.reactions)
    graph = SocialGraph.from_columns(*zip(*result.edges))
    return cfg, result, posts, join, graph


def row(table, user):
    """The row index of ``user`` in ``table``; fails if it has none."""
    labels = table.labels.tolist()
    assert user in labels, user
    return labels.index(user)


class TestDeriveSchedules:
    def test_s1_recovers_planted_peaks(self):
        cfg, result, posts, join, graph = star_inputs()
        grid = cfg.grid
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        derived = derive_schedules(posts, join.pairs, graph,
                                   result.users, grid, kernel, window)
        s1 = derived.personalized["S1"]
        top = top_k_times(s1.probabilities, 1, grid)[:, 0]
        for author in cfg.author_ids():
            assert top[row(s1, author)] == ground_truth_peak(cfg, author)

    def test_all_four_kinds_present_for_active_authors(self):
        cfg, result, posts, join, graph = star_inputs()
        grid = cfg.grid
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        derived = derive_schedules(posts, join.pairs, graph,
                                   result.users, grid, kernel, window)
        for kind in ("S1", "S2", "S1w", "S2w"):
            for author in cfg.author_ids():
                assert author in derived.personalized[kind].labels, (kind, author)

    def test_fallback_chain_for_users_without_signal(self):
        cfg, result, posts, join, graph = star_inputs()
        grid = cfg.grid
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        derived = derive_schedules(posts, join.pairs, graph,
                                   result.users, grid, kernel, window)
        # Followers have no audience: their recommendation falls back to a
        # timezone baseline (AFD first).
        follower = "f00000_000"
        rec = derived.recommended
        assert follower not in derived.personalized["S1"].labels
        assert rec.provenance[row(rec, follower)] == "AFD"
        afd = derived.baselines.by_provenance()["AFD"]
        assert np.array_equal(rec.probabilities[row(rec, follower)],
                              afd.probabilities[row(afd, "tz:0")])
        # Authors with signal keep their weighted first-degree schedule.
        author = cfg.author_ids()[0]
        assert rec.provenance[row(rec, author)] == "S1w"
        s1w = derived.personalized["S1w"]
        assert np.array_equal(rec.probabilities[row(rec, author)],
                              s1w.probabilities[row(s1w, author)])
        assert rec.labels.tolist() == sorted(rec.labels.tolist())

    def test_uniform_fallback_when_nothing_derivable(self):
        grid = WeeklyGrid(672)
        window = TimeWindow.from_days(DEFAULT_START_EPOCH, 7)
        kernel = DelayKernel.delta(0)
        users = UserTable.from_columns(["TW"], ["lonely"], [0], [None])
        derived = derive_schedules(PostTable.from_columns([], [], [], []),
                                   PairTable.from_columns([], [], [], []),
                                   SocialGraph.from_columns([], []), users, grid,
                                   kernel, window)
        rec = derived.recommended
        assert rec.provenance[row(rec, "lonely")] == "uniform"
        assert np.allclose(rec.probabilities[row(rec, "lonely")], 1 / 672)

    def test_afd_cohort_restricted_to_users_with_audience_profile(self):
        cfg, result, posts, join, graph = star_inputs()
        grid = cfg.grid
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        derived = derive_schedules(posts, join.pairs, graph,
                                   result.users, grid, kernel, window)
        assert set(derived.personalized["S1"].labels) == set(cfg.author_ids())
        # AFD sums the raw first-degree profiles of the S1 users alone: the
        # delayed rows of their audiences.
        prof = build_profiles(posts, join.pairs, result.users, grid, window)
        delayed = delayed_profile(
            prof.reactions.rows(np.arange(len(prof.users))), kernel)
        names = prof.users.tolist()
        total = sum(delayed[names.index(member)] for author, member in result.edges
                    if author in derived.personalized["S1"].labels)
        afd = derived.baselines.by_provenance()["AFD"]
        assert np.allclose(afd.probabilities[row(afd, "tz:0")], total / total.sum())


    def test_target_subset_gives_identical_schedules(self):
        cfg, result, posts, join, graph = star_inputs()
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        full = derive_schedules(posts, join.pairs, graph, result.users,
                                cfg.grid, kernel, window)
        subset = ["a00001", "a00003", "f00000_000"]
        shared = share_users(posts, join.pairs, graph, result.users)
        part = derive_schedules(*shared, cfg.grid, kernel, window,
                                targets=np.searchsorted(shared[0].users, subset))
        assert set(part.recommended.labels) == set(subset)
        for kind, table in part.personalized.items():
            assert set(table.labels) == {"a00001", "a00003"}
            whole = full.personalized[kind]
            for user, probs in zip(table.labels, table.probabilities):
                assert np.array_equal(probs, whole.probabilities[row(whole, user)])

    def test_chunk_size_changes_no_bit(self, monkeypatch):
        # The delta kernel keeps the delay transform on its dense path; the
        # 96-lag geometric one sends these sparse reactions down the scatter.
        cfg, result, posts, join, graph = star_inputs()
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        geometric = 0.97 ** np.arange(96)
        kernels = [DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s),
                   DelayKernel(geometric / geometric.sum(), cfg.lag_width_s)]
        scattered = []
        cheaper = temporal._scatter_is_cheaper

        def spy(src, lags):
            scattered.append(cheaper(src, lags))
            return scattered[-1]

        monkeypatch.setattr(temporal, "_scatter_is_cheaper", spy)

        def derive(kernel):
            return derive_schedules(posts, join.pairs, graph, result.users,
                                    cfg.grid, kernel, window)

        def flat(derived):
            tables = [*derived.personalized.values(), derived.baselines,
                      derived.recommended]
            rows = [(k, u, p) for t in tables
                    for k, u, p in zip(t.provenance, t.labels, t.probabilities)]
            return sorted((k, u, p.tobytes()) for k, u, p in rows)

        default = [flat(derive(kernel)) for kernel in kernels]
        assert scattered == [False, True]
        monkeypatch.setattr(temporal, "CHUNK_ROWS", 1)
        assert [flat(derive(kernel)) for kernel in kernels] == default
        assert any(scattered[2:])


    def test_edge_order_and_repeats_change_no_bit(self):
        cfg, result, posts, join, _ = star_inputs()
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        rng = np.random.default_rng(8)
        # Cross edges give members several followed accounts, so S2 reads
        # more than the star.
        names = result.users.users.tolist()
        edges = list(result.edges) + [
            (names[a], names[b]) for a, b in rng.integers(0, len(names), (60, 2))]

        def tables(edge_list):
            derived = derive_schedules(posts, join.pairs,
                                       SocialGraph.from_columns(*zip(*edge_list)),
                                       result.users, cfg.grid, kernel, window)
            tables = (*derived.personalized.values(), derived.baselines,
                      derived.recommended)
            return [(t.labels.tolist(), t.provenance.tolist(), t.probabilities.tobytes())
                    for t in tables] + [derived.unknown_tz.tolist()]

        shuffled = [edges[i] for i in rng.permutation(len(edges))] + edges[::3]
        assert tables(shuffled) == tables(edges)

    def test_kernel_of_another_lag_width_is_refused(self):
        # A 900 s kernel on 3600 s buckets would shift reactions by whole
        # buckets, four times too far.
        _, result, posts, join, graph = star_inputs()
        grid = WeeklyGrid(168)
        window = TimeWindow.from_days(DEFAULT_START_EPOCH, 14)
        kernel = DelayKernel.delta(1)
        refusal = "lag width 900 s is not the bucket width 3600 s"
        with pytest.raises(ValueError, match=refusal):
            delayed_profile(np.ones((2, 168)), kernel)
        with pytest.raises(ValueError, match=refusal):
            derive_schedules(posts, join.pairs, graph, result.users, grid,
                             kernel, window)
        derive_schedules(posts, join.pairs, graph, result.users, grid,
                         DelayKernel.delta(1, lag_width_s=3600), window)


DAY = 86400


@st.composite
def small_networks(draw):
    """Posts, reactions, a follower graph and users.tsv over users u0..u11
    on a grid of one bucket a day. The graph has self-loops and repeated
    edges; some members never react, some authors never post, some users
    are not listed, and the derivation or the evaluation window may hold no
    event at all."""
    names = [f"u{i}" for i in range(draw(st.integers(1, 12)))]
    user = st.sampled_from(names)
    # Days -7 .. 20 around both windows: derivation 0-6, evaluation 7-20.
    stamp = st.integers(-7 * DAY, 21 * DAY - 1).map(DEFAULT_START_EPOCH.__add__)
    posts = draw(st.lists(st.tuples(user, stamp), max_size=30))
    reactions = draw(st.lists(st.tuples(
        st.integers(0, max(len(posts) - 1, 0)), user, st.integers(0, 2 * DAY)),
        max_size=40)) if posts else []
    edges = draw(st.lists(st.tuples(user, user), max_size=40))
    listed = draw(st.lists(st.tuples(user, st.sampled_from([-300, 0, 60]),
                                     st.sampled_from(["Oslo", None])),
                           unique_by=lambda u: u[0], max_size=len(names)))
    mass = draw(st.sampled_from([[1.0], [0.0, 1.0], [0.5, 0.5],
                                 [0.4, 0.3, 0.2, 0.1]]))
    post_table = PostTable.from_columns(
        ["TW"], [a for a, _ in posts], [f"p{i}" for i in range(len(posts))],
        [t for _, t in posts])
    pairs = PairTable.from_columns(
        [posts[i][0] for i, _, _ in reactions], [r for _, r, _ in reactions],
        [posts[i][1] for i, _, _ in reactions],
        [posts[i][1] + d for i, _, d in reactions])
    users = UserTable.from_columns(["TW"] * len(listed), [u for u, _, _ in listed],
                                   [tz for _, tz, _ in listed],
                                   [c for _, _, c in listed])
    graph = SocialGraph.from_columns([a for a, _ in edges], [b for _, b in edges])
    return post_table, pairs, graph, users, DelayKernel(np.array(mass), DAY)


class TestStreamedDerivation:
    """The derivation walks the audience members in blocks of
    temporal.CHUNK_ROWS and holds no users x buckets matrix: every block
    size gives the bits of the whole computation, and the peak memory stays
    below one such matrix."""

    @settings(max_examples=150, deadline=None)
    @given(case=small_networks())
    def test_block_size_changes_no_bit(self, case):
        # 256 exceeds every member count drawn here, so that case is one
        # block: the whole users x buckets computation.
        posts, pairs, graph, users, kernel = case
        grid = WeeklyGrid(7)
        window = TimeWindow.from_days(DEFAULT_START_EPOCH, 7)
        held_out = TimeWindow.from_days(DEFAULT_START_EPOCH + 7 * DAY, 14)
        outcomes = []
        for chunk in (1, 7, 256):
            with mock.patch.object(temporal, "CHUNK_ROWS", chunk):
                derived = derive_schedules(posts, pairs, graph, users, grid,
                                           kernel, window)
                report = evaluate_schedules(
                    {**derived.personalized, "recommended": derived.recommended},
                    posts, pairs, users, held_out, grid, k=4, day_filter="all",
                    baselines=derived.baselines.by_provenance())
            tables = [*derived.personalized.values(), derived.baselines,
                      derived.recommended]
            outcomes.append(([(t.labels.tolist(), t.provenance.tolist(),
                               t.probabilities.tobytes()) for t in tables],
                             repr(report), derived.unknown_tz.tolist()))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_memory_stays_below_one_population_matrix(self):
        # About 2,000 users. Dense profiles, delayed and visible rows and
        # evaluation counts would each be a users x buckets matrix, as
        # large as this bound.
        geometric = 0.97 ** np.arange(96)
        cfg = SynthConfig(seed=3, n_authors=50, followers_per_author=40,
                          span_days=28, kernel=tuple(geometric / geometric.sum()),
                          author_base_rate=0.1,
                          follower_base_rate=0.001, follower_peak_rate=0.1)
        result = generate(cfg)
        join = join_reactions(result.posts, result.reactions)
        graph = SocialGraph.from_columns(*zip(*result.edges))
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        window = TimeWindow.from_days(cfg.start_epoch, 14)
        held_out = TimeWindow.from_days(cfg.start_epoch + 14 * DAY, 14)
        n_users = len(result.users.users)
        assert n_users >= 2000
        matrix = n_users * cfg.grid.buckets_per_week * 8
        tracemalloc.start()
        try:
            derived = derive_schedules(result.posts, join.pairs, graph,
                                       result.users, cfg.grid, kernel, window)
            evaluate_schedules(derived.personalized, result.posts, join.pairs,
                               result.users, held_out, cfg.grid,
                               baselines=derived.baselines.by_provenance())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix


class TestOneCodeSpace:
    """Tables that each intern their own users and the same tables re-coded
    onto one vocabulary give the same schedules, gains and cohorts, bit for
    bit."""

    @staticmethod
    def own_vocabulary(table):
        """``table`` with a vocabulary of its own row labels."""
        return ScheduleTable(table.labels, table.provenance, table.probabilities)

    @settings(max_examples=150, deadline=None)
    @given(case=small_networks(), min_cohort=st.integers(1, 3))
    def test_separate_and_shared_vocabularies_agree(self, case, min_cohort):
        posts, pairs, graph, users, kernel = case
        grid = WeeklyGrid(7)
        window = TimeWindow.from_days(DEFAULT_START_EPOCH, 7)
        held_out = TimeWindow.from_days(DEFAULT_START_EPOCH + 7 * DAY, 14)
        shared = share_users(posts, pairs, graph, users)
        outcomes = []
        for tables, own in (((posts, pairs, graph, users), True),
                            (shared, False)):
            derived = derive_schedules(*tables, grid, kernel, window)
            scored = {**derived.personalized, "recommended": derived.recommended}
            if own:
                scored = {k: self.own_vocabulary(t) for k, t in scored.items()}
            report = evaluate_schedules(
                scored, tables[0], tables[1], tables[3], held_out, grid, k=4,
                day_filter="all", baselines=derived.baselines.by_provenance())
            s1 = derived.personalized["S1"]
            try:
                cohorts = [(c.label, c.rows.tolist(), c.tz_offset_min,
                            c.series.tobytes())
                           for c in city_cohorts(self.own_vocabulary(s1) if own
                                                 else s1, tables[3], grid,
                                                 min_cohort)]
            except (UndefinedMetricError, ValueError) as exc:
                cohorts = repr(exc)
            outcomes.append((
                [(t.labels.tolist(), t.provenance.tolist(), t.probabilities.tobytes())
                 for t in (*derived.personalized.values(), derived.baselines,
                           derived.recommended)],
                derived.chosen.users[derived.unknown_tz].tolist(),
                repr(report), cohorts))
        assert outcomes[0] == outcomes[1]


class TestPersistence:
    def test_schedule_roundtrip(self, tmp_path):
        cfg, result, posts, join, graph = star_inputs()
        grid = cfg.grid
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        derived = derive_schedules(posts, join.pairs, graph,
                                   result.users, grid, kernel, window)
        path = tmp_path / "schedules.tsv"
        s1 = derived.personalized["S1"]
        write_schedules(path, s1)
        back = read_schedules(path, 672)
        assert back["S1"].labels.tolist() == s1.labels.tolist()
        assert np.array_equal(back["S1"].probabilities, s1.probabilities)

    def test_mixed_provenance_tables_roundtrip_bit_for_bit(self, tmp_path):
        # The recommended table mixes S1w rows (authors) with AFD rows
        # (followers); the baselines mix AFD and MFU rows per timezone.
        cfg, result, posts, join, graph = star_inputs()
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        derived = derive_schedules(posts, join.pairs, graph,
                                   result.users, cfg.grid, kernel, window)
        for table, kinds in ((derived.recommended, {"S1w", "AFD"}),
                             (derived.baselines, {"AFD", "MFU"})):
            path = tmp_path / "mixed.tsv"
            write_schedules(path, table)
            back = read_schedules(path, 672)
            assert set(back) == set(table.provenance) == kinds
            for kind, got in back.items():
                want = table.select(table.provenance == kind)
                assert got.labels.tolist() == want.labels.tolist()
                assert got.provenance.tolist() == want.provenance.tolist()
                assert got.probabilities.tobytes() == want.probabilities.tobytes()

    def test_schedule_file_format(self, tmp_path):
        cfg, result, posts, join, graph = star_inputs()
        grid = cfg.grid
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        derived = derive_schedules(posts, join.pairs, graph,
                                   result.users, grid, kernel, window)
        path = tmp_path / "schedules.tsv"
        write_schedules(path, derived.personalized["S1"])
        line = path.read_text().split("\n")[0]
        user, prov, probs = line.split("\t")
        assert prov == "S1"
        values = probs.split(",")
        assert len(values) == 672
        assert abs(sum(float(x) for x in values) - 1.0) <= 1e-9

    def test_ranked_times_format(self, tmp_path):
        cfg, result, posts, join, graph = star_inputs()
        grid = cfg.grid
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        derived = derive_schedules(posts, join.pairs, graph,
                                   result.users, grid, kernel, window)
        path = tmp_path / "ranked.tsv"
        rec = derived.recommended
        ranked = top_k_times(rec.probabilities, 5, grid, "weekday")
        write_ranked_times(path, rec, ranked, grid)
        lines = path.read_text().split("\n")
        first = lines[0].split("\t")
        assert len(first) == 5
        user, rank, bucket, label, prob = first
        assert rank == "1"
        assert 0 <= int(bucket) < 672
        assert label.split(" ")[0] in ("Mon", "Tue", "Wed", "Thu", "Fri",
                                       "Sat", "Sun")
        assert 0.0 <= float(prob) <= 1.0
        assert len(lines) == 5 * len(rec) + 1
        assert user == rec.labels[0]
        assert label == grid.bucket_label(int(bucket))
        assert float(prob) == rec.probabilities[0, int(bucket)]


class TestWritersAgainstPerRowReference:
    """The writers format each distinct value, or each candidate row, once;
    their bytes must equal a writer that formats every value of every row."""

    GRID = WeeklyGrid(168)

    @staticmethod
    def reference_schedules(table):
        return "".join(
            f"{user}\t{prov}\t" + ",".join("%.17g" % v for v in row.tolist()) + "\n"
            for user, prov, row in zip(table.labels, table.provenance,
                                       table.probabilities))

    @classmethod
    def reference_ranked(cls, table, buckets):
        return "".join(
            f"{user}\t{rank}\t{b}\t{cls.GRID.bucket_label(b)}\t"
            f"{float(table.probabilities[r, b]):.17g}\n"
            for r, user in enumerate(table.labels)
            for rank, b in enumerate(buckets[r].tolist(), start=1))

    @classmethod
    def tables(cls):
        rng = np.random.default_rng(41)
        n = cls.GRID.buckets_per_week

        def rows(k):
            p = rng.random((k, n)) ** 4
            return p / p.sum(axis=1, keepdims=True)

        distinct = rows(30)
        repeated = rows(3)[rng.integers(0, 3, size=40)]
        # Two buckets carry all the mass; the other ranks are zeros, 0.0 in
        # one row and -0.0 in the next, which print as 0 and -0.
        signed = np.zeros((4, n))
        signed[:, [5, 9]] = [0.25, 0.75]
        signed[1::2, 10:] = -0.0
        return {"distinct": distinct, "repeated": repeated, "signed": signed,
                "empty": np.empty((0, n))}

    @pytest.mark.parametrize("name", ["distinct", "repeated", "signed", "empty"])
    def test_bytes_equal_reference(self, tmp_path, name):
        probs = self.tables()[name]
        users = [f"u{i % 7}" for i in range(len(probs))]
        provenance = [("S1", "AFD")[i % 2] for i in range(len(probs))]
        table = ScheduleTable(users, provenance, probs)
        write_schedules(tmp_path / "s.tsv", table, table)
        assert ((tmp_path / "s.tsv").read_text(encoding="utf-8")
                == 2 * self.reference_schedules(table))
        buckets = top_k_times(table.probabilities, 32, self.GRID, "all")
        write_ranked_times(tmp_path / "r.tsv", table, buckets, self.GRID)
        assert ((tmp_path / "r.tsv").read_text(encoding="utf-8")
                == self.reference_ranked(table, buckets))
        if name == "signed":
            assert "\t-0\n" in self.reference_ranked(table, buckets)
            assert ",-0," in self.reference_schedules(table)

    @settings(max_examples=150)
    @given(data=st.data(), chunk=st.sampled_from([1, 3, 256]))
    def test_every_cell_is_written_as_17g(self, data, chunk):
        # Each distinct value is formatted once; 0.0 and -0.0 are equal but
        # print apart, and subnormals print with their full precision.
        probs = data.draw(pmf_rows(7))
        table = ScheduleTable([f"u{i}" for i in range(len(probs))],
                              ["S1"] * len(probs), probs)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.tsv"
            with mock.patch.object(pipeline, "CHUNK_ROWS", chunk):
                write_schedules(path, table)
            assert (path.read_text(encoding="utf-8")
                    == self.reference_schedules(table))

    @settings(max_examples=60)
    @given(data=st.data(), day_filter=st.sampled_from(["all", "weekend"]))
    def test_chosen_rows_equal_their_table(self, data, day_filter):
        # Written from candidates, each formatted and ranked once, the
        # recommended and ranked files equal those of the gathered table.
        grid = WeeklyGrid(7)
        probs = data.draw(pmf_rows(grid.buckets_per_week))
        candidates = ScheduleTable([None] * len(probs),
                                   [f"k{i % 3}" for i in range(len(probs))], probs)
        choice = np.array(data.draw(st.lists(
            st.integers(0, len(probs) - 1), max_size=12) if len(probs)
            else st.just([])), dtype=np.int64)
        chosen = pipeline.Chosen(
            np.array([f"u{i}" for i in range(choice.size)], dtype=object),
            np.arange(choice.size), candidates, choice)
        table = chosen.table()
        files = {}
        with tempfile.TemporaryDirectory() as tmp:
            for name, rows, ranked in (
                    ("chosen", chosen, candidates.probabilities),
                    ("table", table, table.probabilities)):
                write_schedules(Path(tmp) / f"{name}.tsv", rows)
                write_ranked_times(Path(tmp) / f"{name}.ranked", rows,
                                   top_k_times(ranked, 3, grid, day_filter), grid)
                files[name] = [(Path(tmp) / f"{name}{ext}").read_bytes()
                               for ext in (".tsv", ".ranked")]
        assert files["chosen"] == files["table"]
        assert files["table"][0].decode() == self.reference_schedules(table)


# Values whose text is easy to get wrong: signed zeros, subnormals, and
# fractions that need all 17 digits.
SPECIAL_VALUES = [0.0, -0.0, 5e-324, 2.5e-320, 2.2250738585072014e-308,
                  1e-300, 0.1, 1 / 30]


@st.composite
def pmf_rows(draw, width):
    """Probability rows of ``width`` buckets drawn from a few values, so that
    values and whole rows repeat; the last bucket holds the rest of the
    mass."""
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_VALUES),
                                   st.floats(0, 0.1)), min_size=1, max_size=4))
    distinct = draw(st.lists(st.lists(st.sampled_from(pool), min_size=width - 1,
                                      max_size=width - 1),
                             min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(distinct), max_size=12))
    return np.array([row + [1.0 - math.fsum(row)] for row in rows]
                    ).reshape(len(rows), width)
