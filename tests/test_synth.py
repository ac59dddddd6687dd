"""Synthetic generator: determinism, event process, and the planted oracle."""

import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from postsched import (Population, SynthConfig, UserSpec, generate,
                        ground_truth_peak, ingest, synth)
from postsched.delays import estimate_delay_kernel, write_kernel_table
from postsched.ingest import join_reactions, load_users
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


def ids(column):
    """The ids of a bytes column, as str."""
    return [i.decode() for i in column.tolist()]


def post_rows(posts):
    """(author, post_id, created_at) per row of a PostTable."""
    return list(zip(posts.users[posts.author].tolist(), ids(posts.post_id),
                    posts.created_at.tolist()))


def reaction_rows(reactions):
    """(post_id, reactor, reacted_at) per row of a ReactionTable."""
    return list(zip(ids(reactions.post_id), reactions.users[reactions.reactor].tolist(),
                    reactions.reacted_at.tolist()))


MULTI_LAG = (0.4, 0.3, 0.2, 0.1) + (0.0,) * 92


def geometric_kernel(ratio, n_lags=96):
    mass = ratio ** np.arange(n_lags)
    return tuple((mass / mass.sum()).tolist())


KERNELS = {
    "geometric-0.5": geometric_kernel(0.5),
    "geometric-0.8": geometric_kernel(0.8),
    "geometric-0.97": geometric_kernel(0.97),
    "delta-0": delta_kernel(0),
    "delta-95": delta_kernel(95),
    "multi-lag": MULTI_LAG,
    "uniform": (1 / 96,) * 96,
}


def enumerated_scores(config, user_id, pop):
    """Every bucket's oracle score as one dot product per bucket: the
    enumeration that ground_truth_peak must agree with."""
    n = config.buckets_per_week
    agg = np.zeros(n)
    for member in pop.audience(user_id):
        agg += pop.spec(member).intensity(n)
    kern = np.asarray(config.kernel, dtype=np.float64)
    lags = np.arange(kern.size)
    return np.array([float(agg[(k + lags) % n] @ kern) for k in range(n)])


@st.composite
def custom_populations(draw):
    """Up to six users with random rates and peaks (a peak may wrap past
    the grid) and random edges. A user may share an earlier user's
    intensity, with its peaks listed in another order and moved by whole
    weeks. The rates include zero, 10 or more (which numpy draws by
    rejection) and rates busy enough that numpy's sampler draws them."""
    n_users = draw(st.integers(1, 6))
    users = []
    for i in range(n_users):
        if users and draw(st.booleans()):
            like = draw(st.sampled_from(users))
            weeks = draw(st.integers(0, 1))
            peaks = tuple(p + 672 * weeks for p in reversed(like.peaks))
            users.append(UserSpec(f"u{i}", like.base_rate, like.peak_rate, peaks))
            continue
        peaks = draw(st.lists(st.integers(0, 2 * 672), max_size=3, unique=True))
        users.append(UserSpec(f"u{i}", draw(st.sampled_from([0.0, 0.01, 0.5, 2.0])),
                              draw(st.sampled_from([0.0, 0.3, 1.0, 12.0])), tuple(peaks)))
    pairs = [(f"u{i}", f"u{j}") for i in range(n_users) for j in range(n_users)
             if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Population(tuple(users), tuple(edges))


def mixed_population():
    """Ids out of sorted order, one a prefix of another, one holding a colon,
    with mixed timezone offsets."""
    users = (
        UserSpec("zed", base_rate=3.0, tz_offset_min=-300),
        UserSpec("a0", base_rate=2.0, peak_rate=1.0, peaks=(4, 30),
                 tz_offset_min=60),
        UserSpec("a", base_rate=2.0, tz_offset_min=330),
        UserSpec("Ann", base_rate=0.0, peak_rate=1.0, peaks=(5,),
                 tz_offset_min=-720),
        UserSpec("a:b", base_rate=0.2, peak_rate=2.0, peaks=(40,),
                 tz_offset_min=840),
    )
    edges = (("zed", "a"), ("zed", "Ann"), ("zed", "a:b"), ("a0", "zed"),
             ("a0", "a"), ("a", "a0"), ("a", "zed"), ("a", "Ann"))
    return Population(users, edges)


# Case -> (config overrides, population factory or None).
GOLDEN_CASES = {
    # About 20 posts per 900 s bucket: many same-second posts per author.
    "same_second_posts": (dict(n_authors=1, followers_per_author=1,
                               author_base_rate=20.0, span_days=7,
                               follower_peak_rate=0.0,
                               reaction_probability=0.2), None),
    # Delta kernel at lag 0, probability 1: every follower reacts at the
    # post's own second.
    "tied_reactions": (dict(followers_per_author=4, follower_peak_rate=0.0,
                            author_base_rate=1.0, span_days=7), None),
    "custom_population": (dict(n_authors=1, kernel=MULTI_LAG,
                               reaction_probability=0.7,
                               reaction_prob_overrides=(("zed", "a", 0.0),
                                                        ("a", "Ann", 1.0))),
                          mixed_population),
    "overrides": (dict(follower_peak_rate=0.0, reaction_probability=0.5,
                       reaction_prob_overrides=(("a00000", "f00000_000", 0.0),
                                                ("a00001", "f00001_002", 1.0))),
                  None),
    "zero_followers": (dict(followers_per_author=0), None),
    "planted_multi_lag": (dict(planted_peaks=((7, 100), (8,), (600,)),
                               kernel=MULTI_LAG, follower_base_rate=0.01,
                               followers_per_author=(2, 6),
                               reaction_probability=0.8, tz_offset_min=120),
                          None),
}

# SHA-256 of the five synth files per case, as written by the record-based
# generator that the column one replaced; every byte must stay the same.
GOLDEN_DIGESTS = {
    "same_second_posts": {
        "posts": "625a76e3557ce82b1a46fb7d358ebde1c21227829f41e11fa9de8d318266bd55",
        "reactions": "58a14b1edfb2ce529e51ae92fcf585740cbf4e7378468729cf8b264cee82621b",
        "edges": "20da8ece0c7e2b00ef464f578e2f6e63b42ae3d35c7a1f457f789008bcb9e6f8",
        "users": "42b43517de67d68de09bb02f47266269b2971072cce0f64a1825115412addf23",
        "truth": "ab8b0b850d7a7dd21a399a1526677d8f7223be2d2d8219425c87f991efb43965",
    },
    "tied_reactions": {
        "posts": "3137b6f6548c66e18d14efb7fdd82ac61d6d28a67618c7f44751de4e0c53053c",
        "reactions": "04de775f99cb23bddf3ed7a70fea782be471c74fea2e2aa8b4df470f52da2e52",
        "edges": "512a8472edf46bdb6ebc13ab48796239a82db3b9328ebcd22f9a5ec79b8d2408",
        "users": "8eab7c0638208bafc1a6a7d79a1c845334345b764d52ee594e107865c658cae2",
        "truth": "3974d416cfc1d8854ce1dd4c2de617530c680ea689a26cde315f07e08b3e8718",
    },
    "custom_population": {
        "posts": "e69f29e342022be9c8f63fd41d15d8831d08c9d407d4e7671d09cde998e09b33",
        "reactions": "78ac2393659945f0b0cad795fd676e963940750c4d64ec5b29fec7edbd3f50bf",
        "edges": "82a36c990653b0619bd1ba312ed62c81588c6ecf062af252f8e1f3ca7921768d",
        "users": "95acaa849a122d92983acdeef0b43d6760b0d51d81812dbcf4a17f60fe86f962",
        "truth": "f8bf08cc7110228622583a6138688a12137e456d74c3a0bd79bb84db7458f42b",
    },
    "overrides": {
        "posts": "c425212f563cb37c8ee2f19fcc0f2cbca10b484bc45b11a7bad5337d46fc4e77",
        "reactions": "53f5737c18751f88844cf8c8d039812525d0c5b1ec0ff374607b770a221a068e",
        "edges": "512a8472edf46bdb6ebc13ab48796239a82db3b9328ebcd22f9a5ec79b8d2408",
        "users": "8eab7c0638208bafc1a6a7d79a1c845334345b764d52ee594e107865c658cae2",
        "truth": "3974d416cfc1d8854ce1dd4c2de617530c680ea689a26cde315f07e08b3e8718",
    },
    "zero_followers": {
        "posts": "68b14c8e90509c42956e8f020456297e3fee50eeea5924ab76cbd9760b1215ae",
        "reactions": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "edges": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "users": "0577e67502422b386e808434019f38f5131eb48eb4ec252edf15cecd4c3244e7",
        "truth": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "planted_multi_lag": {
        "posts": "c0a1811fb6614525d85ac74a9763555dcd76fb24d0f10f198212ea6312772d96",
        "reactions": "5f0e24822a72a923d51d4b8ea239a4081a1bb4f1b0eff0e4fb1c04d799bb0882",
        "edges": "1eba38846e323dafa7a773cc5c5f68e4cce783282479d31e7ae7f4b44bd62023",
        "users": "9a0930ee8b7cdec2d28e4fffd38f4818d9996cbbdc4985633aafca1f56983e36",
        "truth": "1e979539006ee9748d31d3e69867d9b07df497970fc3bc78d4cae4339965edd1",
    },
}


def tied_rows(path, key_fields):
    """Number of lines of a TSV file whose ``key_fields`` repeat an earlier
    line's."""
    lines = Path(path).read_text().splitlines()
    keys = [tuple(line.split("\t")[i] for i in key_fields) for line in lines]
    return len(keys) - len(set(keys))


class TestGoldenBytes:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_files_match_recorded_digests(self, tmp_path, case):
        overrides, population = GOLDEN_CASES[case]
        result = generate(small_config(**overrides), tmp_path,
                          population=population() if population else None)
        got = {name: file_digest(path) for name, path in result.paths.items()}
        assert got == GOLDEN_DIGESTS[case]

    @pytest.mark.parametrize("case", ["custom_population", "tied_reactions"])
    def test_block_sizes_change_no_byte(self, tmp_path, monkeypatch, case):
        # One user per fill of uniforms, one member per block of reaction
        # draws, three lines per write.
        monkeypatch.setattr(synth, "_UNIFORM_DOUBLES", 1)
        monkeypatch.setattr(synth, "_BLOCK_DRAWS", 1)
        monkeypatch.setattr(ingest, "_WRITE_ROWS", 3)
        overrides, population = GOLDEN_CASES[case]
        result = generate(small_config(**overrides), tmp_path,
                          population=population() if population else None)
        got = {name: file_digest(path) for name, path in result.paths.items()}
        assert got == GOLDEN_DIGESTS[case]
        # The engine's artifacts go through the same writer.
        kernel = estimate_delay_kernel(
            join_reactions(result.posts, result.reactions).pairs.delay)
        write_kernel_table(kernel, tmp_path / "kernel.tsv")
        assert (tmp_path / "kernel.tsv").read_text(encoding="utf-8") == "".join(
            [f"# lag_width_s={kernel.lag_width_s}\n"]
            + [f"{start}\t{p:.17g}\n" for start, p in
               zip(kernel.lag_starts().tolist(), kernel.mass.tolist())])

    def test_posts_of_one_second_go_by_post_id_bytes(self, tmp_path):
        # Posts p9 and p10 of one user share a second; as bytes "u:p10"
        # sorts before "u:p9".
        result = generate(small_config(n_authors=1, followers_per_author=0),
                          population=Population((UserSpec("u", 0.0),), ()))
        times = [100 * k for k in range(10)] + [900]
        posts = ingest.PostTable.from_columns(
            ["TW"], ["u"] * 11, [f"u:p{k}" for k in range(11)], times)
        paths = synth.write_synth_files(replace(result, posts=posts), tmp_path, "TW")
        lines = Path(paths["posts"]).read_text().splitlines()
        assert [line.split("\t")[2] for line in lines] == \
            [f"u:p{k}" for k in range(9)] + ["u:p10", "u:p9"]

    def test_cases_hold_the_ties_they_are_for(self, tmp_path):
        for case, (posts_key, reactions_key) in {
                "same_second_posts": ((1, 3), None),
                "tied_reactions": (None, (3,)),
                "custom_population": ((1, 3), (3,))}.items():
            overrides, population = GOLDEN_CASES[case]
            result = generate(small_config(**overrides), tmp_path / case,
                              population=population() if population else None)
            if posts_key:
                assert tied_rows(result.paths["posts"], posts_key) > 0, case
            if reactions_key:
                assert tied_rows(result.paths["reactions"], reactions_key) > 0, case


def test_pcg64_block_draws_equal_per_member_draws():
    # The generator draws an author's reaction randoms for a block of
    # members at once. PCG64 must give the same doubles, and end in the same
    # state, as one random(T) for the lag then one for the keep per member.
    members, t = 5, 7
    seed = np.random.SeedSequence(entropy=11, spawn_key=(2, 3))
    per_member = np.random.default_rng(seed)
    whole = np.random.default_rng(seed)
    split = np.random.default_rng(seed)
    expected = np.stack([np.stack([per_member.random(t), per_member.random(t)])
                         for _ in range(members)])
    assert np.array_equal(whole.random((members, 2, t)), expected)
    assert np.array_equal(np.concatenate([split.random((2, 2, t)),
                                          split.random((3, 2, t))]), expected)
    state = per_member.bit_generator.state
    assert whole.bit_generator.state == state
    assert split.bit_generator.state == state


# Rates on both sides of numpy's switch from the multiplication method to
# rejection at 10, and ones whose exp(-rate) rounds to 1.
POISSON_RATES = (0.0, 5e-324, 1e-300, 0.001, 0.101, 0.5, 1.01, 9.99,
                 float(np.nextafter(10.0, 0.0)), 10.0, 12.0)


class TestPoissonDraws:
    @settings(max_examples=300, deadline=None)
    @given(rates=st.lists(st.sampled_from(POISSON_RATES), max_size=700),
           n_weeks=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           n_users=st.integers(1, 3), buffered=st.booleans(),
           short_block=st.booleans(), walk_all=st.booleans())
    @example(rates=[0.0] * 672, n_weeks=17, seed=1, n_users=1, buffered=True,
             short_block=False, walk_all=False)
    @example(rates=[0.5] * 672, n_weeks=6, seed=2, n_users=3, buffered=False,
             short_block=True, walk_all=True)
    @example(rates=[9.99] * 700, n_weeks=6, seed=3, n_users=2, buffered=True,
             short_block=True, walk_all=True)
    def test_events_equal_numpy_draws(self, rates, n_weeks, seed, n_users, buffered,
                                      short_block, walk_all):
        # Users who share the rates draw in one call, each from their own
        # generator; each must get what Generator.poisson gives it.
        rates = np.array(rates, dtype=np.float64)
        want_rngs = [np.random.default_rng(seed + i) for i in range(n_users)]
        got_rngs = [np.random.default_rng(seed + i) for i in range(n_users)]
        if buffered:
            # A 32-bit draw leaves the other half of its 64 bits buffered.
            for rng in want_rngs + got_rngs:
                rng.integers(0, 2**32, dtype=np.uint32)
            assert got_rngs[0].bit_generator.state["has_uint32"] == 1
        wants = [rng.poisson(np.broadcast_to(rates, (n_weeks, rates.size))).reshape(-1)
                 for rng in want_rngs]
        # With no slack the first block of uniforms is often too short, and
        # the draws go on in more doubles from the same generator. With no
        # cap on the walk's visits, every user with rates below 10 is walked.
        slack = 0.0 if short_block else synth._POISSON_SLACK
        visits = float("inf") if walk_all else synth._WALK_MAX_VISITS
        with mock.patch.object(synth, "_POISSON_SLACK", slack), \
                mock.patch.object(synth, "_WALK_MAX_VISITS", visits):
            profile = synth._Profile(rates, n_weeks)
            # Ones, not zeros: a block that lacks its 0.0 end runs on.
            buf = np.ones(n_users * (profile.size + 1))
            cells, counts, per_user = synth._poisson_events(got_rngs, profile, buf)
        ends = np.cumsum(per_user).tolist()
        for want, got_rng, want_rng, lo, hi in zip(
                wants, got_rngs, want_rngs, [0] + ends, ends):
            assert cells[lo:hi].tolist() == np.flatnonzero(want).tolist()
            assert counts[lo:hi].tolist() == want[want > 0].tolist()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert got_rng.integers(0, 900, size=5).tolist() == \
                want_rng.integers(0, 900, size=5).tolist()
            assert got_rng.random() == want_rng.random()
        assert ends[-1] == cells.size == counts.size


def reference_posts(config, pop):
    """(author, post_id, created_at) of every post, user after user, drawn
    the plain way from each user's own SeedSequence: Generator.poisson over
    the weeks x buckets grid, then one integers(0, width) offset per post."""
    n, width = config.buckets_per_week, config.lag_width_s
    week = 7 * 86400
    n_weeks = -(-config.span_s // week)
    end = config.start_epoch + config.span_s
    rows = []
    for ui, spec in enumerate(pop.users):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(1, ui)))
        rates = np.full(n, spec.base_rate)
        for p in spec.peaks:
            rates[p % n] += spec.peak_rate
        drawn = rng.poisson(np.broadcast_to(rates, (n_weeks, n))).reshape(-1)
        cells = np.repeat(np.arange(drawn.size), drawn)
        offsets = rng.integers(0, width, size=cells.size)
        times = config.start_epoch + cells // n * week + cells % n * width + offsets
        times = sorted(t for t in times.tolist() if t < end)
        rows += [(spec.user_id, f"{spec.user_id}:p{k}", t) for k, t in enumerate(times)]
    return rows


# Two users who share an intensity (peaks 3 and 28 in either order, one
# set a week later), one at zero rate, one with a rate of 12, one busy
# enough for numpy's sampler, and a sparse one that is walked.
EVERY_KIND = Population((
    UserSpec("shared", 0.01, 1.0, (3, 700)),
    UserSpec("zero", 0.0, 1.0, ()),
    UserSpec("twelve", 0.01, 12.0, (5,)),
    UserSpec("busy", 2.0),
    UserSpec("again", 0.01, 1.0, (1347, 28)),
    UserSpec("sparse", 0.001, 0.3, (9, 10))),
    (("shared", "zero"), ("busy", "sparse"), ("again", "twelve")))


class TestPostStream:
    @settings(max_examples=60, deadline=None)
    @given(pop=custom_populations(), seed=st.integers(0, 2**32 - 1),
           span_days=st.sampled_from([7, 10, 14]), one_per_fill=st.booleans())
    @example(pop=EVERY_KIND, seed=5, span_days=10, one_per_fill=False)
    @example(pop=EVERY_KIND, seed=6, span_days=14, one_per_fill=True)
    def test_posts_equal_per_user_poisson_draws(self, pop, seed, span_days,
                                                one_per_fill):
        # A span of 10 days ends inside the second week, whose later posts
        # are dropped.
        cfg = small_config(seed=seed, n_authors=1, span_days=span_days)
        if pop is EVERY_KIND:
            profiles = {(u.base_rate, u.peak_rate, tuple(sorted(p % 672 for p in u.peaks)))
                        for u in pop.users}
            assert len(profiles) == len(pop.users) - 1
            walked = [synth._Profile(u.intensity(672), 2).walk for u in pop.users]
            assert walked == [True, False, False, False, True, True]
        # A buffer of one double holds one user's uniforms at a time.
        with mock.patch.object(synth, "_UNIFORM_DOUBLES",
                               1 if one_per_fill else synth._UNIFORM_DOUBLES):
            got = post_rows(generate(cfg, population=pop).posts)
        assert got == reference_posts(cfg, pop)


class TestLagDraws:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_lag_table_equals_searchsorted(self, kernel):
        cum = np.cumsum(np.asarray(KERNELS[kernel]))
        table = synth._lag_table(cum)
        bins = table.size
        assert bins & (bins - 1) == 0 and bins >= 16 * cum.size
        edges = np.arange(bins) / bins
        inner = cum[cum < 1.0]
        keys = np.concatenate([
            edges, np.nextafter(edges[1:], 0.0), [0.0, 1.0 - 2.0**-53],
            inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
            np.random.default_rng(0).random(100_000)])
        keys = keys[keys < 1.0]    # random() gives doubles in [0, 1)
        want = np.minimum(np.searchsorted(cum, keys, side="right"), cum.size - 1)
        assert np.array_equal(synth._lags(cum, table, keys), want)
        # The generator passes the lag half of a (members, 2, posts) block.
        block = np.random.default_rng(1).random((30, 2, 41))
        want = np.minimum(np.searchsorted(cum, block[:, 0], side="right"),
                          cum.size - 1)
        assert np.array_equal(synth._lags(cum, table, block[:, 0]), want)


class TestConfigValidation:
    def test_kernel_must_normalize(self):
        with pytest.raises(ValueError):
            small_config(kernel=(0.5, 0.4))

    @pytest.mark.parametrize("kernel", [(float("nan"), 1.0), (float("inf"), 1.0),
                                        ((0.5, 0.5),), ()])
    def test_kernel_must_be_a_finite_vector(self, kernel):
        with pytest.raises(ValueError, match="^kernel: "):
            small_config(kernel=kernel)

    def test_tz_offset_outside_utc_range_is_refused(self):
        for tz in (-780, -721, 841):
            with pytest.raises(ValueError, match="^tz_offset_min: "):
                UserSpec("a", 1.0, tz_offset_min=tz)
            with pytest.raises(ValueError, match="^tz_offset_min: "):
                small_config(tz_offset_min=tz)

    def test_span_at_least_one_week(self):
        with pytest.raises(ValueError):
            small_config(span_days=3)

    def test_start_must_be_monday(self):
        with pytest.raises(ValueError):
            small_config(start_epoch=DEFAULT_START_EPOCH + 3600)

    def test_lag_width_is_the_bucket_width(self):
        assert small_config().lag_width_s == 900
        assert small_config(buckets_per_week=168).lag_width_s == 3600

    def test_rates_bounded_by_one_post_per_second(self):
        small_config(author_base_rate=900.0)
        small_config(follower_base_rate=400.0, follower_peak_rate=500.0)
        with pytest.raises(ValueError, match="^author_base_rate: "):
            small_config(author_base_rate=900.5)
        with pytest.raises(ValueError, match="^follower_peak_rate: "):
            small_config(follower_base_rate=400.0, follower_peak_rate=500.5)

    # Each case is checked at construction; none is generated.
    @pytest.mark.parametrize("overrides", [
        dict(span_days=100_000_000),
        dict(n_authors=100_000_000_000),
        dict(followers_per_author=10**20),
        dict(followers_per_author=(0, 10**20)),
        dict(n_authors=6, followers_per_author=40000, span_days=119),
    ], ids=["span", "authors", "followers", "follower-range", "just-over"])
    def test_generated_volume_is_capped(self, overrides):
        with pytest.raises(ValueError, match="^n_authors/followers_per_author/"
                                             "span_days: .* Poisson cells"):
            small_config(**overrides)

    def test_volume_cap_admits_the_largest_bench_point(self):
        # 400 stars of 41 users over 17 weeks: 187M cells.
        cfg = small_config(n_authors=400, followers_per_author=40, span_days=119)
        assert cfg.n_authors * 41 * 17 * 672 <= synth.MAX_POISSON_CELLS

    @pytest.mark.parametrize("followers", [(5, 3), -1, (-2, 1)],
                             ids=["reversed-range", "negative", "negative-low"])
    def test_follower_count_must_be_a_range_from_zero(self, followers):
        with pytest.raises(ValueError, match="^followers_per_author: expected N or "
                                             r"\(LO, HI\) with 0 <= LO <= HI"):
            small_config(followers_per_author=followers)

    @pytest.mark.parametrize("overrides", [
        dict(planted_peaks=((7, 100, 7), (8,), (600,))),
        dict(planted_peaks=((7,), (8, 8 + 672), (600,))),   # equal modulo a week
        dict(peak_pool=(3, 4, 3)),
    ], ids=["planted", "planted-modulo", "pool"])
    def test_repeated_peak_bucket_rejected(self, overrides):
        field = next(iter(overrides))
        with pytest.raises(ValueError, match=f"^{field}: a bucket is listed twice"):
            small_config(**overrides)


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
        assert len(result.reactions) == 0

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
        for post_id, reactor, reacted_at in reaction_rows(result.reactions):
            reactions_by_post.setdefault(post_id, []).append((reactor, reacted_at))
        for author, post_id, created_at in post_rows(result.posts):
            expected = followers_of.get(author, set())
            got = reactions_by_post.get(post_id, [])
            assert len(got) == len(expected)
            assert {reactor for reactor, _ in got} == expected
            assert all(reacted_at == created_at for _, reacted_at in got)

    def test_reactions_clipped_to_span(self):
        cfg = small_config(kernel=delta_kernel(95), follower_peak_rate=0.0)
        result = generate(cfg)
        end = cfg.start_epoch + cfg.span_s
        assert all(t < end for t in result.reactions.reacted_at.tolist())
        assert all(t < end for t in result.posts.created_at.tolist())

    def test_expected_reactions_per_post(self):
        # Uniform availability: mean reactions per post is followers * p,
        # within 3 standard errors of the binomial at this sample size.
        m, p = 30, 0.4
        cfg = small_config(n_authors=2, followers_per_author=m,
                           follower_peak_rate=0.0, reaction_probability=p,
                           span_days=21, author_base_rate=0.2)
        result = generate(cfg)
        author_posts = [row for row in post_rows(result.posts)
                        if row[0].startswith("a")]
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
        author_of_post = {post_id: author
                          for author, post_id, _ in post_rows(result.posts)}
        assert result.reactions, "construction should produce reactions"
        for post_id, _, reacted_at in reaction_rows(result.reactions):
            author = author_of_post[post_id]
            assert grid.bucket_index(reacted_at) == peaks[author]

    def test_edge_probability_overrides(self):
        cfg = small_config(
            follower_peak_rate=0.0,
            reaction_prob_overrides=(("a00000", "f00000_000", 0.0),),
        )
        result = generate(cfg)
        reactors_to_a0 = {reactor for post_id, reactor, _
                          in reaction_rows(result.reactions)
                          if post_id.startswith("a00000:")}
        assert "f00000_000" not in reactors_to_a0
        assert reactors_to_a0  # other followers still react

    @pytest.mark.parametrize("pair", [("a00000", "f00001_000"), ("f00000_000", "a00000")],
                             ids=["other-star", "reversed"])
    def test_override_of_a_pair_that_is_no_edge_is_refused(self, pair):
        cfg = small_config(reaction_prob_overrides=(pair + (0.5,),))
        with pytest.raises(ValueError, match=f"^reaction_prob_overrides: "
                                             rf"\('{pair[0]}', '{pair[1]}'\) is not an "
                                             "edge of the population$"):
            generate(cfg)

    def test_override_listed_twice_is_refused(self):
        cfg = small_config(reaction_prob_overrides=(("a00000", "f00000_000", 0.1),
                                                    ("a00000", "f00000_000", 0.9)))
        with pytest.raises(ValueError, match=r"^reaction_prob_overrides: \('a00000', "
                                             r"'f00000_000'\) is listed twice$"):
            generate(cfg)

    def test_kernel_recovery(self):
        mass = np.array([0.35, 0.25, 0.15, 0.1, 0.06, 0.04, 0.03, 0.02]
                        + [0.0] * 88)
        cfg = small_config(n_authors=1, followers_per_author=25,
                           kernel=tuple(mass), follower_peak_rate=0.0,
                           span_days=28, author_base_rate=0.5,
                           reaction_probability=0.9)
        result = generate(cfg)
        join = join_reactions(result.posts, result.reactions)
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

    @pytest.mark.parametrize("kernel", ["multi-lag", "geometric-0.97", "uniform"])
    def test_flat_intensity_gives_bucket_zero_for_any_kernel(self, kernel):
        cfg = small_config(follower_peak_rate=0.0, kernel=KERNELS[kernel])
        assert ground_truth_peak(cfg, "a00000") == 0

    def test_equal_peaks_delta_kernel_ties_break_low(self):
        cfg = small_config(kernel=delta_kernel(3),
                           planted_peaks=((200, 50), (50, 200), (7,)))
        assert ground_truth_peak(cfg, "a00000") == 47
        assert ground_truth_peak(cfg, "a00001") == 47

    def test_uniform_kernel_ties_break_low_despite_rounding(self):
        # Every window of 96 buckets that holds the peaks scores the same in
        # exact arithmetic, but the sums round apart in the last bits.
        cfg = small_config(kernel=KERNELS["uniform"], follower_base_rate=0.001,
                           planted_peaks=((11,), (600,), (300, 340)))
        assert [ground_truth_peak(cfg, a) for a in cfg.author_ids()] == [0, 505, 245]

    def test_small_real_margin_is_no_tie(self):
        # Bucket 200 beats 50 only by the 1e-9 mass at lag 1 (peak 201).
        cfg = small_config(n_authors=1, kernel=(1 - 1e-9, 1e-9) + (0.0,) * 94,
                           planted_peaks=((50, 200, 201),))
        assert ground_truth_peak(cfg, "a00000") == 200

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_oracle_equals_per_bucket_enumeration(self, data):
        kernel = data.draw(st.sampled_from(sorted(KERNELS)))
        if data.draw(st.booleans()):
            pop = data.draw(custom_populations())
            cfg = small_config(n_authors=1, kernel=KERNELS[kernel])
        else:
            cfg = small_config(
                seed=data.draw(st.integers(0, 1000)), kernel=KERNELS[kernel],
                followers_per_author=(0, 5),
                peaks_per_star=data.draw(st.integers(0, 3)),
                follower_base_rate=data.draw(st.sampled_from([0.0, 0.001, 0.05])),
                follower_peak_rate=data.draw(st.sampled_from([0.0, 0.1, 2.0])))
            pop = resolve_population(cfg)
        for author in sorted(pop.audiences):
            score = enumerated_scores(cfg, author, pop)
            # Both sum the same products in different orders, so scores that
            # tie in exact arithmetic can round apart in either; the lowest
            # bucket within rounding of the best is the same in both.
            want = np.flatnonzero(score >= score.max() * (1 - 1e-12))[0]
            assert ground_truth_peak(cfg, author, pop) == want, author

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
        assert {reactor for _, reactor, _ in reaction_rows(result.reactions)} <= {"bob"}
        assert ground_truth_peak(cfg, "alice", pop) == 5

    def test_rejects_unknown_edge_user(self):
        with pytest.raises(ValueError):
            Population((UserSpec("a", 1.0),), (("a", "ghost"),))

    @pytest.mark.parametrize("spec", [
        dict(base_rate=float("nan")),
        dict(base_rate=1.0, peak_rate=-1.0),
        dict(base_rate=1.0, peak_rate=1.0, peaks=(5, 9, 5)),
    ], ids=["nan-rate", "negative-peak-rate", "repeated-peak"])
    def test_user_spec_rejects_bad_values(self, spec):
        with pytest.raises(ValueError):
            UserSpec("u", **spec)

    @settings(max_examples=40, deadline=None)
    @given(tz=st.integers(-2000, 2000))
    @example(tz=-720)
    @example(tz=840)
    @example(tz=-721)
    @example(tz=-780)
    @example(tz=841)
    def test_every_accepted_tz_loads_back_unchanged(self, tz):
        # The generator and the users.tsv loader hold one tz range: what
        # one writes, the other reads back as it was.
        try:
            spec = UserSpec("a", 1.0, tz_offset_min=tz)
        except ValueError:
            with pytest.raises(ValueError, match="^tz_offset_min: "):
                small_config(tz_offset_min=tz)
            return
        cfg = small_config(n_authors=1, followers_per_author=0, span_days=7,
                           tz_offset_min=tz)
        with tempfile.TemporaryDirectory() as tmp:
            result = generate(cfg, tmp, population=Population((spec,), ()))
            users, report = load_users(result.paths["users"])
        assert (report.parsed, report.malformed) == (1, 0)
        assert users.users.tolist() == ["a"]
        assert users.tz_offset_min.tolist() == [tz]

    def test_peaks_meeting_modulo_the_grid_bounded_by_one_post_per_second(self):
        # Peaks 5 and 677 are one bucket of the 672-bucket grid, where the
        # user expects 1200 posts a week: more than one per second.
        pop = Population((UserSpec("a", 1.0), UserSpec("x", 0.0, 600.0, (5, 677))),
                         (("a", "x"),))
        assert pop.spec("x").intensity(672)[5] == 1200.0
        cfg = small_config(n_authors=1, followers_per_author=1)
        with pytest.raises(ValueError, match="^population: user 'x' has base plus "
                                             "peak rate above 900 posts per bucket, "
                                             "one per second: 1200 at bucket 5$"):
            generate(cfg, population=pop)

    @pytest.mark.parametrize("rates", [(1e20, 0.0), (600.0, 300.5)])
    def test_population_rates_bounded_by_one_post_per_second(self, rates):
        base, peak = rates
        pop = Population((UserSpec("a", 1.0), UserSpec("b", base, peak, (5,))),
                         (("a", "b"),))
        cfg = small_config(n_authors=1, followers_per_author=1)
        with pytest.raises(ValueError, match="^population: user 'b' has base plus "
                                             "peak rate above 900 posts"):
            generate(cfg, population=pop)
