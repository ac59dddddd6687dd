"""Synthetic generator: determinism, event process, and the planted oracle."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from postsched import Population, SynthConfig, UserSpec, generate, ground_truth_peak
from postsched.delays import estimate_delay_kernel
from postsched.ingest import PostTable, ReactionTable, join_reactions
from postsched.synth import DEFAULT_START_EPOCH, resolve_population
from postsched.temporal import WeeklyGrid


def delta_kernel(lag, n_lags=96):
    mass = [0.0] * n_lags
    mass[lag] = 1.0
    return tuple(mass)


def small_config(**overrides):
    base = dict(
        seed=11,
        n_authors=3,
        followers_per_author=4,
        span_days=14,
        kernel=delta_kernel(0),
        author_base_rate=0.5,
        follower_base_rate=0.05,
        follower_peak_rate=2.0,
        reaction_probability=1.0,
    )
    base.update(overrides)
    return SynthConfig(**base)


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestConfigValidation:
    def test_kernel_must_normalize(self):
        with pytest.raises(ValueError):
            small_config(kernel=(0.5, 0.4))

    def test_span_at_least_one_week(self):
        with pytest.raises(ValueError):
            small_config(span_days=3)

    def test_start_must_be_monday(self):
        with pytest.raises(ValueError):
            small_config(start_epoch=DEFAULT_START_EPOCH + 3600)

    def test_lag_width_must_match_grid(self):
        with pytest.raises(ValueError):
            small_config(lag_width_s=600)


class TestDeterminism:
    def test_same_seed_byte_identical_files(self, tmp_path):
        cfg = small_config()
        r1 = generate(cfg, tmp_path / "run1")
        r2 = generate(cfg, tmp_path / "run2")
        for name in ("posts", "reactions", "edges", "users", "truth"):
            assert file_digest(r1.paths[name]) == file_digest(r2.paths[name])

    def test_different_seed_differs(self, tmp_path):
        r1 = generate(small_config(), tmp_path / "a")
        r2 = generate(small_config(seed=12), tmp_path / "b")
        assert file_digest(r1.paths["posts"]) != file_digest(r2.paths["posts"])


class TestEventProcess:
    def test_zero_followers_zero_reactions(self):
        result = generate(small_config(followers_per_author=0))
        assert result.reactions == []

    def test_probability_one_delta_kernel_uniform_availability(self):
        # Flat follower intensity means availability 1 everywhere, so with
        # reaction probability 1 and a delta-at-0 kernel every post draws
        # exactly one reaction per follower, at the post's own timestamp.
        cfg = small_config(follower_peak_rate=0.0, follower_base_rate=0.05)
        result = generate(cfg)
        followers_of = {}
        for src, dst in result.edges:
            followers_of.setdefault(src, set()).add(dst)
        reactions_by_post = {}
        for r in result.reactions:
            reactions_by_post.setdefault(r.post_id, []).append(r)
        for p in result.posts:
            expected = followers_of.get(p.author, set())
            got = reactions_by_post.get(p.post_id, [])
            assert len(got) == len(expected)
            assert {r.reactor for r in got} == expected
            assert all(r.reacted_at == p.created_at for r in got)

    def test_reactions_clipped_to_span(self):
        cfg = small_config(kernel=delta_kernel(95), follower_peak_rate=0.0)
        result = generate(cfg)
        end = cfg.start_epoch + cfg.span_s
        assert all(r.reacted_at < end for r in result.reactions)
        assert all(p.created_at < end for p in result.posts)

    def test_expected_reactions_per_post(self):
        # Uniform availability: mean reactions per post is followers * p,
        # within 3 standard errors of the binomial at this sample size.
        m, p = 30, 0.4
        cfg = small_config(n_authors=2, followers_per_author=m,
                           follower_peak_rate=0.0, reaction_probability=p,
                           span_days=21, author_base_rate=0.2)
        result = generate(cfg)
        author_posts = [x for x in result.posts if x.author.startswith("a")]
        n_posts = len(author_posts)
        assert n_posts > 100
        mean = len(result.reactions) / n_posts
        se = np.sqrt(m * p * (1 - p) / n_posts)
        assert abs(mean - m * p) <= 3 * se

    def test_availability_thins_reactions(self):
        # Peaked follower availability: reactions only land where the
        # follower is active (base rate zero -> single active bucket).
        cfg = small_config(follower_base_rate=0.0, follower_peak_rate=1.0,
                           planted_peaks=((7,), (8,), (9,)))
        result = generate(cfg)
        grid = WeeklyGrid(cfg.buckets_per_week)
        peaks = {f"a{i:05d}": (7 + i) for i in range(3)}
        author_of_post = {p.post_id: p.author for p in result.posts}
        assert result.reactions, "construction should produce reactions"
        for r in result.reactions:
            author = author_of_post[r.post_id]
            assert grid.bucket_index(r.reacted_at) == peaks[author]

    def test_edge_probability_overrides(self):
        cfg = small_config(
            follower_peak_rate=0.0,
            reaction_prob_overrides=(("a00000", "f00000_000", 0.0),),
        )
        result = generate(cfg)
        reactors_to_a0 = {r.reactor for r in result.reactions
                          if r.post_id.startswith("a00000:")}
        assert "f00000_000" not in reactors_to_a0
        assert reactors_to_a0  # other followers still react

    def test_kernel_recovery(self):
        mass = np.array([0.35, 0.25, 0.15, 0.1, 0.06, 0.04, 0.03, 0.02]
                        + [0.0] * 88)
        cfg = small_config(n_authors=1, followers_per_author=25,
                           kernel=tuple(mass), follower_peak_rate=0.0,
                           span_days=28, author_base_rate=0.5,
                           reaction_probability=0.9)
        result = generate(cfg)
        join = join_reactions(PostTable.from_records(result.posts),
                              ReactionTable.from_records(result.reactions))
        assert join.n_joined > 10_000
        est = estimate_delay_kernel(join.pairs.delay)
        tv = 0.5 * float(np.abs(est.mass - mass).sum())
        assert tv <= 0.05


class TestGroundTruthPeak:
    def test_shared_peak_delta_kernel(self):
        cfg = small_config(planted_peaks=((42,), (7,), (600,)))
        assert ground_truth_peak(cfg, "a00000") == 42
        assert ground_truth_peak(cfg, "a00001") == 7
        assert ground_truth_peak(cfg, "a00002") == 600

    def test_delta_lag_one_shifts_back(self):
        cfg = small_config(kernel=delta_kernel(1), planted_peaks=((10,),) * 3)
        assert ground_truth_peak(cfg, "a00000") == 9

    def test_uniform_intensity_ties_break_low(self):
        cfg = small_config(follower_peak_rate=0.0)
        assert ground_truth_peak(cfg, "a00000") == 0

    def test_truth_sidecar_matches_oracle(self, tmp_path):
        cfg = small_config(planted_peaks=((3,), (5,), (11,)))
        result = generate(cfg, tmp_path)
        lines = Path(result.paths["truth"]).read_text().strip().split("\n")
        parsed = dict(line.split("\t") for line in lines)
        for author in cfg.author_ids():
            assert int(parsed[author]) == ground_truth_peak(cfg, author)


class TestPopulation:
    def test_resolve_star_topology(self):
        cfg = small_config()
        pop = resolve_population(cfg)
        assert len(pop.users) == 3 + 3 * 4
        assert len(pop.edges) == 12
        assert pop.audience("a00001") == [f"f00001_{j:03d}" for j in range(4)]

    def test_follower_count_range(self):
        cfg = small_config(followers_per_author=(2, 6))
        pop = resolve_population(cfg)
        for author in cfg.author_ids():
            assert 2 <= len(pop.audience(author)) <= 6

    def test_custom_population(self):
        users = (
            UserSpec("alice", base_rate=1.0),
            UserSpec("bob", base_rate=0.0, peak_rate=1.0, peaks=(5,)),
        )
        pop = Population(users, (("alice", "bob"),))
        cfg = small_config(n_authors=1, followers_per_author=1)
        result = generate(cfg, population=pop)
        assert {r.reactor for r in result.reactions} <= {"bob"}
        assert ground_truth_peak(cfg, "alice", pop) == 5

    def test_rejects_unknown_edge_user(self):
        with pytest.raises(ValueError):
            Population((UserSpec("a", 1.0),), (("a", "ghost"),))
