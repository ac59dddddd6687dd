"""End-to-end derivation over synthetic logs, fallbacks, persistence."""

import numpy as np
import pytest

from postsched import (
    DelayKernel,
    pipeline,
    temporal,
    SynthConfig,
    TimeWindow,
    WeeklyGrid,
    derive_schedules,
    generate,
    ground_truth_peak,
)
from postsched.ingest import (
    PairTable,
    PostTable,
    ReactionTable,
    SocialGraph,
    UserMeta,
    join_reactions,
)
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
    posts = PostTable.from_records(result.posts)
    join = join_reactions(posts, ReactionTable.from_records(result.reactions))
    graph = SocialGraph(result.edges)
    return cfg, result, posts, join, graph


def row(table, user):
    """The row index of ``user`` in ``table``; fails if it has none."""
    (at,) = table.rows_of([user])
    assert at >= 0, user
    return at


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
                assert author in derived.personalized[kind].users, (kind, author)

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
        assert follower not in derived.personalized["S1"].users
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
        assert rec.users.tolist() == sorted(rec.users.tolist())

    def test_uniform_fallback_when_nothing_derivable(self):
        grid = WeeklyGrid(672)
        window = TimeWindow.from_days(DEFAULT_START_EPOCH, 7)
        kernel = DelayKernel.delta(0)
        users = [UserMeta("lonely", 0, None, "TW")]
        derived = derive_schedules(PostTable.from_records([]),
                                   PairTable.from_columns([], [], [], []),
                                   SocialGraph(()), users, grid, kernel, window)
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
        assert set(derived.personalized["S1"].users) == set(cfg.author_ids())
        afd = derived.baselines.by_provenance()["AFD"]
        total = None
        for q in derived.audience_profiles:
            total = q.copy() if total is None else total + q
        assert np.allclose(afd.probabilities[row(afd, "tz:0")], total / total.sum())


    def test_target_subset_gives_identical_schedules(self):
        cfg, result, posts, join, graph = star_inputs()
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        full = derive_schedules(posts, join.pairs, graph, result.users,
                                cfg.grid, kernel, window)
        subset = ["a00001", "a00003", "f00000_000"]
        part = derive_schedules(posts, join.pairs, graph, result.users,
                                cfg.grid, kernel, window, targets=subset)
        assert set(part.recommended.users) == set(subset)
        for kind, table in part.personalized.items():
            assert set(table.users) == {"a00001", "a00003"}
            whole = full.personalized[kind]
            for user, probs in zip(table.users, table.probabilities):
                assert np.array_equal(probs, whole.probabilities[row(whole, user)])

    def test_chunk_size_changes_no_bit(self, monkeypatch):
        cfg, result, posts, join, graph = star_inputs()
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)

        def derive():
            return derive_schedules(posts, join.pairs, graph, result.users,
                                    cfg.grid, kernel, window)

        def flat(derived):
            tables = [*derived.personalized.values(), derived.baselines,
                      derived.recommended]
            rows = [(k, u, p) for t in tables
                    for k, u, p in zip(t.provenance, t.users, t.probabilities)]
            rows += [("Q", user, q) for user, q in
                     zip(derived.personalized["S1"].users, derived.audience_profiles)]
            return sorted((k, u, p.tobytes()) for k, u, p in rows)

        default = flat(derive())
        monkeypatch.setattr(temporal, "CHUNK_ROWS", 1)
        assert flat(derive()) == default


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
        assert back["S1"].users.tolist() == s1.users.tolist()
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
                assert got.users.tolist() == want.users.tolist()
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
        assert user == rec.users[0]
        assert label == grid.bucket_label(int(bucket))
        assert float(prob) == rec.probabilities[0, int(bucket)]


class TestWritersAgainstPerRowReference:
    """The writers format each distinct row once; their bytes must equal a
    writer that formats every value of every row."""

    GRID = WeeklyGrid(168)

    @staticmethod
    def reference_schedules(table):
        return "".join(
            f"{user}\t{prov}\t" + ",".join("%.17g" % v for v in row.tolist()) + "\n"
            for user, prov, row in zip(table.users, table.provenance,
                                       table.probabilities))

    @classmethod
    def reference_ranked(cls, table, buckets):
        return "".join(
            f"{user}\t{rank}\t{b}\t{cls.GRID.bucket_label(b)}\t"
            f"{float(table.probabilities[r, b]):.17g}\n"
            for r, user in enumerate(table.users)
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

    def test_each_distinct_row_is_formatted_once(self):
        rows = np.array([[1.0, 0.0], [0.5, 0.5], [1.0, 0.0], [1.0, -0.0],
                         [0.5, 0.5], [1.0, 0.0]])
        calls = []

        def render(i):
            calls.append(i)
            return f"text of row {i}"

        texts = list(pipeline._once_per_distinct_row(render, rows))
        assert calls == [0, 1, 3]
        assert texts == ["text of row 0", "text of row 1", "text of row 0",
                         "text of row 3", "text of row 1", "text of row 0"]
