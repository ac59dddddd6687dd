"""End-to-end derivation over synthetic logs, fallbacks, persistence."""

import numpy as np

from postsched import (
    DelayKernel,
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
    rank_all,
    read_schedules,
    write_ranked_times,
    write_schedules,
)
from postsched.schedules import top_k_times
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


class TestDeriveSchedules:
    def test_s1_recovers_planted_peaks(self):
        cfg, result, posts, join, graph = star_inputs()
        grid = cfg.grid
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        derived = derive_schedules(posts, join.pairs, graph,
                                   result.users, grid, kernel, window)
        for author in cfg.author_ids():
            s1 = derived.personalized["S1"][author]
            top = top_k_times(s1, 1, grid).entries[0][0]
            assert top == ground_truth_peak(cfg, author)

    def test_all_four_kinds_present_for_active_authors(self):
        cfg, result, posts, join, graph = star_inputs()
        grid = cfg.grid
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        derived = derive_schedules(posts, join.pairs, graph,
                                   result.users, grid, kernel, window)
        for kind in ("S1", "S2", "S1w", "S2w"):
            for author in cfg.author_ids():
                assert author in derived.personalized[kind], (kind, author)

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
        assert follower not in derived.personalized["S1"]
        assert derived.recommended[follower].provenance == "AFD"
        # Authors with signal keep their weighted first-degree schedule.
        author = cfg.author_ids()[0]
        assert derived.recommended[author].provenance == "S1w"

    def test_uniform_fallback_when_nothing_derivable(self):
        grid = WeeklyGrid(672)
        window = TimeWindow.from_days(DEFAULT_START_EPOCH, 7)
        kernel = DelayKernel.delta(0)
        users = [UserMeta("lonely", 0, None, "TW")]
        derived = derive_schedules(PostTable.from_records([]),
                                   PairTable.from_columns([], [], [], []),
                                   SocialGraph(()), users, grid, kernel, window)
        assert derived.recommended["lonely"].provenance == "uniform"
        assert np.allclose(derived.recommended["lonely"].probabilities, 1 / 672)

    def test_afd_cohort_restricted_to_users_with_audience_profile(self):
        cfg, result, posts, join, graph = star_inputs()
        grid = cfg.grid
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        derived = derive_schedules(posts, join.pairs, graph,
                                   result.users, grid, kernel, window)
        assert set(derived.audience_profiles) == set(cfg.author_ids())
        afd = derived.baselines[0]["AFD"]
        total = None
        for author in cfg.author_ids():
            q = derived.audience_profiles[author]
            total = q.copy() if total is None else total + q
        assert np.allclose(afd.probabilities, total / total.sum())


    def test_target_subset_gives_identical_schedules(self):
        cfg, result, posts, join, graph = star_inputs()
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        full = derive_schedules(posts, join.pairs, graph, result.users,
                                cfg.grid, kernel, window)
        subset = ["a00001", "a00003", "f00000_000"]
        part = derive_schedules(posts, join.pairs, graph, result.users,
                                cfg.grid, kernel, window, targets=subset)
        assert set(part.recommended) == set(subset)
        for kind, per_user in part.personalized.items():
            assert set(per_user) == {"a00001", "a00003"}
            for user, sched in per_user.items():
                assert np.array_equal(sched.probabilities,
                                      full.personalized[kind][user].probabilities)

    def test_chunk_size_changes_no_bit(self, monkeypatch):
        cfg, result, posts, join, graph = star_inputs()
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)

        def derive():
            return derive_schedules(posts, join.pairs, graph, result.users,
                                    cfg.grid, kernel, window)

        def flat(derived):
            rows = [(kind, user, s.probabilities)
                    for kind, per_user in derived.personalized.items()
                    for user, s in per_user.items()]
            rows += [(kind, str(off), s.probabilities)
                     for off, per_kind in derived.baselines.items()
                     for kind, s in per_kind.items()]
            rows += [(s.provenance, user, s.probabilities)
                     for user, s in derived.recommended.items()]
            rows += [("Q", user, q) for user, q in derived.audience_profiles.items()]
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
        rows = [(u, s) for u, s in sorted(derived.personalized["S1"].items())]
        write_schedules(path, rows)
        back = read_schedules(path)
        assert set(back["S1"]) == {u for u, _ in rows}
        for u, s in rows:
            assert np.array_equal(back["S1"][u].probabilities, s.probabilities)

    def test_schedule_file_format(self, tmp_path):
        cfg, result, posts, join, graph = star_inputs()
        grid = cfg.grid
        window = TimeWindow.from_days(cfg.start_epoch, cfg.span_days)
        kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
        derived = derive_schedules(posts, join.pairs, graph,
                                   result.users, grid, kernel, window)
        path = tmp_path / "schedules.tsv"
        write_schedules(path, sorted(derived.personalized["S1"].items()))
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
        write_ranked_times(path, rank_all(derived.recommended, 5, grid), grid)
        first = path.read_text().split("\n")[0].split("\t")
        assert len(first) == 5
        user, rank, bucket, label, prob = first
        assert rank == "1"
        assert 0 <= int(bucket) < 672
        assert label.split(" ")[0] in ("Mon", "Tue", "Wed", "Thu", "Fri",
                                       "Sat", "Sun")
        assert 0.0 <= float(prob) <= 1.0
