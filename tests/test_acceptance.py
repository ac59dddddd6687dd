"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a PASS/FAIL line. Criteria:

  1  schedule pipeline matches brute-force direct evaluation on toy graphs
  2  first-degree schedules recover planted peaks on synthetic stars
  3  delayed-profile correction places recommendations before reaction peaks
  4a held-out reaction gain is ordered and beats the MFU baseline
  4b weighted schedules follow the dominant reactor
  5  delay-kernel recovery within total-variation 0.05 and quantile monotonicity
  6  invariant property suites (>= 1000 randomized cases each)
  7  open-dataset reaction-speed statistics (optional; needs local data)
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from postsched import (
    Adjacency,
    DelayKernel,
    Population,
    SocialGraph,
    SynthConfig,
    TimeWindow,
    UserSpec,
    WeeklyGrid,
    audience_reaction_profile,
    cumulative_curve,
    delayed_profile,
    derive_schedules,
    estimate_delay_kernel,
    generate,
    ground_truth_peak,
    normalize_rows,
    time_to_fraction,
    top_k_times,
    visible_posts,
)
from postsched.evaluation import evaluate_schedules
from postsched.ingest import (
    PairTable,
    PostTable,
    UserTable,
    join_reactions,
    load_posts,
    load_reactions,
    share_users,
)
from postsched.schedules import VisibilityModel


def normalize(q, kind="S1"):
    """The ``kind`` schedule of one profile row, as a vector."""
    return normalize_rows(np.asarray(q)[None], ["u"], kind).probabilities[0]


def top_bucket(table, user, grid):
    """``user``'s best bucket in a schedule table."""
    labels = table.labels.tolist()
    assert user in labels, f"{user} has no schedule"
    return int(top_k_times(table.probabilities[labels.index(user)], 1, grid)[0])


def derive_for_names(posts, pairs, graph, users, *args, targets):
    """derive_schedules for the users named in ``targets``, as codes into
    the vocabulary that the tables share."""
    shared = share_users(posts, pairs, graph, users)
    return derive_schedules(*shared, *args,
                            targets=np.searchsorted(shared[0].users, targets))


def graph_of(edges):
    """The graph of a list of (src, dst) pairs."""
    return SocialGraph.from_columns([a for a, _ in edges], [b for _, b in edges])


def report(tag, ok, detail=""):
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


# ---------------------------------------------------------------------------
# Criterion 1: brute-force oracle equivalence on toy graphs.
# ---------------------------------------------------------------------------

def brute_delayed(r, kern):
    n = len(r)
    out = []
    for k in range(n):
        acc = 0.0
        for m in range(len(kern)):
            acc += kern[m] * r[(k + m) % n]
        out.append(acc)
    return out


def brute_normalize(q):
    total = sum(q)
    return [x / total for x in q]


def brute_first(delayed_by_member, weights=None):
    members = sorted(delayed_by_member)
    n = len(delayed_by_member[members[0]])
    q = []
    for k in range(n):
        acc = 0.0
        for b in members:
            w = 1.0 if weights is None else weights.get(b, 0.0)
            acc += w * delayed_by_member[b][k]
        q.append(acc)
    return brute_normalize(q)


def brute_visible(creations, alpha, beta, n):
    acc = [0.0] * n
    for c in creations:
        mean = sum(c) / n
        if mean > 0:
            for k in range(n):
                acc[k] += c[k] / mean
    return [beta + alpha * acc[k] for k in range(n)]


def brute_second(delayed_by_member, visible_by_member, weights=None):
    members = sorted(delayed_by_member)
    n = len(delayed_by_member[members[0]])
    q = []
    for k in range(n):
        acc = 0.0
        for b in members:
            w = 1.0 if weights is None else weights.get(b, 0.0)
            acc += w * min(delayed_by_member[b][k] / visible_by_member[b][k], 1.0)
        q.append(acc)
    return brute_normalize(q)


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    grid = WeeklyGrid(4)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n_users = int(rng.integers(2, 6))
        names = [f"u{i}" % () for i in range(n_users)]
        edges = [(names[i], names[j])
                 for i in range(n_users) for j in range(n_users)
                 if i != j and rng.random() < 0.5]
        target = names[0]
        audience = sorted({b for a, b in edges if a == target}) or [names[1]]
        followed_by = {b: sorted({a for a, c in edges if c == b}) for b in audience}

        reactions = {u: rng.integers(0, 6, size=4).astype(float) for u in names}
        if all(reactions[b].sum() == 0 for b in audience):
            reactions[audience[0]][int(rng.integers(0, 4))] = 2.0
        creations = {u: rng.integers(0, 5, size=4).astype(float) for u in names}
        n_lags = int(rng.integers(1, 5))
        mass = rng.random(n_lags) + 0.05
        mass /= mass.sum()
        kernel = DelayKernel(mass, grid.bucket_width_s)
        model = VisibilityModel(float(rng.uniform(0.5, 2.0)),
                                float(rng.uniform(0.5, 2.0)))
        weights = {b: float(w) for b, w in
                   zip(audience, rng.dirichlet(np.ones(len(audience))))}

        # The pipeline side: one row per audience member, in name order, and
        # the target's audience edges to them.
        delayed = delayed_profile(np.array([reactions[b] for b in audience]),
                                  kernel)
        followed = Adjacency.from_edges(
            len(audience),
            [i for i, b in enumerate(audience) for _ in followed_by[b]],
            [names.index(a) for b in audience for a in followed_by[b]])
        visible = visible_posts(np.array([creations[u] for u in names]),
                                followed, model)
        edges = Adjacency.from_edges(1, [0] * len(audience), range(len(audience)))
        edge_weights = np.array([weights[b] for b in audience])
        pipeline = {
            kind: normalize(audience_reaction_profile(delayed, edges, w, v)[0],
                            kind)
            for kind, w, v in (("S1", None, None), ("S2", None, visible),
                               ("S1w", edge_weights, None),
                               ("S2w", edge_weights, visible))
        }

        brute_rd = {b: brute_delayed(list(reactions[b]), list(mass))
                    for b in audience}
        brute_v = {b: brute_visible([list(creations[a])
                                     for a in followed_by[b]],
                                    model.alpha, model.beta, 4)
                   for b in audience}
        oracle = {
            "S1": brute_first(brute_rd),
            "S2": brute_second(brute_rd, brute_v),
            "S1w": brute_first(brute_rd, weights),
            "S2w": brute_second(brute_rd, brute_v, weights),
        }
        for kind in pipeline:
            diff = float(np.max(np.abs(pipeline[kind] - np.array(oracle[kind]))))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    report("1 oracle-equivalence", ok,
           f"(max deviation {worst:.2e}, {elapsed:.2f}s)")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_1_derivation_over_graph():
    # derive_schedules on whole toy graphs, with self-loops: S1 and S2 of
    # every target against the oracle, whose audience and followed sets come
    # straight from the edge list.
    rng = np.random.default_rng(2025)
    grid = WeeklyGrid(4)
    width = grid.bucket_width_s
    monday = 1_420_416_000
    window = TimeWindow.from_days(monday, 7)
    worst = 0.0
    for _ in range(20):
        names = [f"u{i}" for i in range(int(rng.integers(2, 7)))]
        edges = [(a, b) for a in names for b in names if rng.random() < 0.4]
        reactions = {u: rng.integers(0, 3, size=4) for u in names}
        creations = {u: rng.integers(0, 3, size=4) for u in names}
        mass = rng.random(int(rng.integers(1, 5))) + 0.05
        mass /= mass.sum()
        model = VisibilityModel(float(rng.uniform(0.5, 2.0)),
                                float(rng.uniform(0.5, 2.0)))

        def events(counts):
            return [(u, monday + k * width + 60) for u in names
                    for k in range(4) for _ in range(int(counts[u][k]))]

        posts = events(creations)
        reacts = events(reactions)
        derived = derive_schedules(
            PostTable.from_columns(["TW"], [u for u, _ in posts],
                                   [f"p{i}" for i in range(len(posts))],
                                   [t for _, t in posts]),
            PairTable.from_columns([names[0]] * len(reacts), [u for u, _ in reacts],
                                   [t for _, t in reacts], [t for _, t in reacts]),
            graph_of(edges),
            UserTable.from_columns(["TW"] * len(names), names, [0] * len(names),
                                   [None] * len(names)),
            grid, DelayKernel(mass, width), window, model)

        for target in names:
            audience = sorted({b for a, b in edges
                               if a == target and reactions[b].any()})
            tables = {kind: derived.personalized[kind] for kind in ("S1", "S2")}
            if not audience:
                assert target not in tables["S1"].labels
                continue
            brute_rd = {b: brute_delayed(list(reactions[b]), list(mass))
                        for b in audience}
            brute_v = {b: brute_visible([list(creations[a]) for a, c in edges
                                         if c == b],
                                        model.alpha, model.beta, 4)
                       for b in audience}
            oracle = {"S1": brute_first(brute_rd),
                      "S2": brute_second(brute_rd, brute_v)}
            for kind, table in tables.items():
                assert target in table.labels, (kind, target)
                at = table.labels.tolist().index(target)
                diff = np.max(np.abs(table.probabilities[at] - oracle[kind]))
                worst = max(worst, float(diff))
    report("1 derivation-over-graph", worst <= 1e-12,
           f"(max deviation {worst:.2e})")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# Criteria 2 and 4a share one construction: star graphs with a planted
# follower peak per author, authors posting everywhere (flat base rate plus
# a spike at the peak so the peak bucket always carries posts).
# ---------------------------------------------------------------------------

def planted_config(span_days, seed=424242):
    weekday_pool = tuple(int(b) for b in
                         np.nonzero(WeeklyGrid().day_mask("weekday"))[0])
    return SynthConfig(
        seed=seed,
        n_authors=100,
        followers_per_author=50,
        span_days=span_days,
        kernel=tuple([1.0] + [0.0] * 95),
        author_base_rate=0.4,
        author_peak_rate=4.0,
        follower_base_rate=0.002,
        follower_peak_rate=1.0,
        peaks_per_star=1,
        peak_pool=weekday_pool,
        reaction_probability=0.9,
    )


def synth_tables(result):
    return result.posts, join_reactions(result.posts, result.reactions)


def derive_for(cfg, result, window):
    posts, join = synth_tables(result)
    graph = graph_of(result.edges)
    in_window = join.pairs.select(window.mask(join.pairs.post_time))
    kernel = estimate_delay_kernel(in_window.delay, 96 * cfg.lag_width_s,
                                   cfg.lag_width_s)
    return posts, join, derive_for_names(posts, join.pairs, graph,
                                         result.users, cfg.grid, kernel, window,
                                         targets=cfg.author_ids())


def test_criterion_2_planted_peak_recovery():
    started = time.perf_counter()
    cfg = planted_config(span_days=63)
    result = generate(cfg)
    window = TimeWindow.from_days(cfg.start_epoch, 63)
    _, _, derived = derive_for(cfg, result, window)
    grid = cfg.grid
    hits = 0
    s1 = derived.personalized["S1"]
    top = dict(zip(s1.labels, top_k_times(s1.probabilities, 1, grid)[:, 0]))
    for author in cfg.author_ids():
        if author in top and top[author] == ground_truth_peak(cfg, author):
            hits += 1
    elapsed = time.perf_counter() - started
    ok = hits >= 95 and elapsed < 30.0
    report("2 planted-peak-recovery", ok, f"({hits}/100, {elapsed:.1f}s)")
    assert hits >= 95
    assert elapsed < 30.0


def test_criterion_3_delay_shift():
    # Deterministic construction: followers are only ever active in their
    # planted bucket, the kernel is a delta at lag 2, and authors post
    # heavily two buckets earlier so reactions always exist.
    lag = 2
    n_authors, n_followers = 20, 10
    peaks = [50 + 13 * i for i in range(n_authors)]
    users = []
    edges = []
    for i, beta in enumerate(peaks):
        author = f"a{i:05d}"
        users.append(UserSpec(author, base_rate=0.5, peak_rate=8.0,
                              peaks=((beta - lag) % 672,)))
        for j in range(n_followers):
            fid = f"f{i:05d}_{j:03d}"
            users.append(UserSpec(fid, base_rate=0.0, peak_rate=1.0,
                                  peaks=(beta,)))
            edges.append((author, fid))
    pop = Population(tuple(users), tuple(edges))
    kernel_mass = [0.0] * 96
    kernel_mass[lag] = 1.0
    cfg = SynthConfig(seed=7, n_authors=n_authors,
                      followers_per_author=n_followers, span_days=63,
                      kernel=tuple(kernel_mass), reaction_probability=1.0)
    result = generate(cfg, population=pop)
    window = TimeWindow.from_days(cfg.start_epoch, 63)
    _, derived = derive_for_population(cfg, result, pop, window)
    grid = cfg.grid

    reaction_buckets = {}
    posts, reactions = result.posts, result.reactions
    author_of_post = dict(zip(posts.post_id, posts.users[posts.author].tolist()))
    for post_id, reacted_at in zip(reactions.post_id, reactions.reacted_at.tolist()):
        a = author_of_post[post_id]
        reaction_buckets.setdefault(a, []).append(grid.bucket_index(reacted_at))

    exact = 0
    for i, beta in enumerate(peaks):
        author = f"a{i:05d}"
        top = top_bucket(derived.personalized["S1"], author, grid)
        observed_peak = int(np.bincount(reaction_buckets[author],
                                        minlength=672).argmax())
        if observed_peak == beta and top == (beta - lag) % 672:
            exact += 1
    ok = exact == n_authors
    report("3 delay-shift", ok, f"({exact}/{n_authors} exact)")
    assert exact == n_authors


def derive_for_population(cfg, result, pop, window):
    posts, join = synth_tables(result)
    graph = graph_of(result.edges)
    kernel = DelayKernel(np.asarray(cfg.kernel), cfg.lag_width_s)
    authors = sorted({src for src, _ in pop.edges})
    return join, derive_for_names(posts, join.pairs, graph,
                                  result.users, cfg.grid, kernel, window,
                                  targets=authors)


def test_criterion_4_gain_monotonicity():
    cfg = planted_config(span_days=63 + 56)
    result = generate(cfg)
    derivation = TimeWindow.from_days(cfg.start_epoch, 63)
    evaluation = TimeWindow.from_days(derivation.end + 1, 56)
    assert not derivation.overlaps(evaluation)
    posts, join, derived = derive_for(cfg, result, derivation)

    k = 32
    mfu = derived.baselines.by_provenance()["MFU"]
    gain = evaluate_schedules({"S1": derived.personalized["S1"]}, posts,
                              join.pairs, result.users, evaluation, cfg.grid,
                              k=k, day_filter="weekday", baselines={"MFU": mfu})

    rg_top = gain.row("S1", 1).rg_avg
    rg_last = gain.row("S1", k).rg_avg
    rg_mfu = gain.row("MFU", 1).rg_avg
    ok = (rg_top is not None and rg_last is not None and rg_mfu is not None
          and rg_top > 1.0 > rg_last and rg_top > rg_mfu)
    report("4a gain-monotonicity", ok,
           f"(S1 rank1 {rg_top:.2f}, rank{k} {rg_last:.2f}, MFU rank1 {rg_mfu:.2f})")
    assert rg_top is not None and rg_last is not None and rg_mfu is not None
    assert rg_top > 1.0
    assert rg_last < 1.0
    assert rg_top > rg_mfu


def test_criterion_4_weighted_dominance():
    # Follower b1 produces >= 90% of alice's received reactions; the small
    # remainder comes from bx. Followers b2..b5 never react to alice (weight
    # exactly 0) but react constantly to their own driver feeds at different
    # peaks, which drags the unweighted S1 away from b1's peak.
    betas = [100, 150, 200, 250, 300]
    users = [UserSpec("alice", base_rate=5.0),
             UserSpec("b1", base_rate=0.0, peak_rate=1.0, peaks=(betas[0],)),
             UserSpec("bx", base_rate=0.0, peak_rate=1.0, peaks=(125,))]
    edges = [("alice", "b1"), ("alice", "bx")]
    for j, beta in enumerate(betas[1:], start=2):
        b, d = f"b{j}", f"d{j}"
        users.append(UserSpec(b, base_rate=0.0, peak_rate=1.0, peaks=(beta,)))
        users.append(UserSpec(d, base_rate=0.0, peak_rate=10.0, peaks=(beta,)))
        edges.extend([("alice", b), (d, b)])
    overrides = (("alice", "bx", 0.05),) + tuple(
        ("alice", f"b{j}", 0.0) for j in range(2, 6))
    pop = Population(tuple(users), tuple(edges))
    cfg = SynthConfig(seed=99, n_authors=1, followers_per_author=5,
                      span_days=63, kernel=tuple([1.0] + [0.0] * 95),
                      reaction_probability=1.0,
                      reaction_prob_overrides=overrides)
    result = generate(cfg, population=pop)
    window = TimeWindow.from_days(cfg.start_epoch, 63)
    join, derived = derive_for_population(cfg, result, pop, window)
    grid = cfg.grid

    pairs = join.pairs
    received = (pairs.users[pairs.author] == "alice") & window.mask(pairs.post_time)
    from_b1 = received & (pairs.users[pairs.reactor] == "b1")
    share_b1 = int(from_b1.sum()) / int(received.sum())
    s1_top = top_bucket(derived.personalized["S1"], "alice", grid)
    s1w_top = top_bucket(derived.personalized["S1w"], "alice", grid)
    ok = share_b1 >= 0.9 and s1w_top == betas[0] and s1_top != betas[0]
    report("4b weighted-dominance", ok,
           f"(b1 share {share_b1:.2f}, S1w top {s1w_top}, S1 top {s1_top})")
    assert share_b1 >= 0.9
    assert s1w_top == betas[0]
    assert s1_top != betas[0]


def test_criterion_5_kernel_recovery():
    mass = 0.9 ** np.arange(96)
    mass /= mass.sum()
    cfg = SynthConfig(seed=31, n_authors=1, followers_per_author=40,
                      span_days=63, kernel=tuple(mass),
                      author_base_rate=1.2, follower_base_rate=0.05,
                      follower_peak_rate=0.0, reaction_probability=1.0)
    result = generate(cfg)
    _, join = synth_tables(result)
    n = join.n_joined
    est = estimate_delay_kernel(join.pairs.delay)
    tv = 0.5 * float(np.abs(est.mass - mass).sum())

    ps = np.linspace(0.02, 1.0, 50)
    ts = [time_to_fraction(join.pairs.delay, float(p)) for p in ps]
    monotone = all(a <= b for a, b in zip(ts, ts[1:]))
    ok = n >= 100_000 and tv <= 0.05 and monotone
    report("5 kernel-recovery", ok, f"({n} reactions, TV {tv:.4f})")
    assert n >= 100_000
    assert tv <= 0.05
    assert monotone


# ---------------------------------------------------------------------------
# Criterion 6: invariant property suites, >= 1000 randomized cases each.
# ---------------------------------------------------------------------------

CASES = 1000


def random_profile(rng, n):
    kind = rng.integers(0, 3)
    if kind == 0:
        v = rng.integers(0, 7, size=n).astype(float)
    elif kind == 1:
        v = rng.random(n) * float(rng.choice([0.1, 1.0, 1e4]))
    else:
        v = np.zeros(n)
        v[rng.integers(0, n, size=max(1, n // 4))] = rng.random(max(1, n // 4)) * 9
    return v


def test_criterion_6_normalization_unit_sum():
    rng = np.random.default_rng(61)
    for _ in range(CASES):
        n = int(rng.choice([4, 8, 24, 96, 672]))
        q = random_profile(rng, n)
        q[int(rng.integers(0, n))] += 0.5
        s = normalize(q)
        assert abs(s.sum() - 1.0) <= 1e-9
        assert np.all(s >= 0)
    report("6 normalization-unit-sum", True, f"({CASES} cases)")


def test_criterion_6_convolution_mass_conservation():
    rng = np.random.default_rng(62)
    for _ in range(CASES):
        n = int(rng.choice([4, 8, 24, 96, 672]))
        prof = random_profile(rng, n)
        mass = rng.random(int(rng.integers(1, min(n, 96) + 1))) + 1e-3
        mass /= mass.sum()
        out = delayed_profile(prof, mass)
        total = prof.sum()
        assert abs(out.sum() - total) <= 1e-9 * max(1.0, total)
    report("6 convolution-mass-conservation", True, f"({CASES} cases)")


def test_criterion_6_delta_kernel_identity():
    rng = np.random.default_rng(63)
    for _ in range(CASES):
        n = int(rng.choice([4, 8, 24, 96, 672]))
        prof = random_profile(rng, n)
        kernel = DelayKernel.delta(0, n_lags=1,
                                   lag_width_s=WeeklyGrid(n).bucket_width_s)
        out = delayed_profile(prof, kernel)
        assert np.array_equal(out, prof)
    report("6 delta-kernel-identity", True, f"({CASES} cases)")


def test_criterion_6_normalization_scale_invariance():
    rng = np.random.default_rng(64)
    for _ in range(CASES):
        n = int(rng.choice([4, 8, 24, 96]))
        q = random_profile(rng, n)
        q[int(rng.integers(0, n))] += 1.0
        c = float(rng.uniform(1e-3, 1e3))
        a = normalize(q)
        b = normalize(c * q)
        assert np.all(np.abs(a - b) <= 1e-9)
    report("6 normalization-scale-invariance", True, f"({CASES} cases)")


def test_criterion_6_argmax_invariance():
    rng = np.random.default_rng(65)
    for _ in range(CASES):
        n = int(rng.choice([4, 8, 24, 96]))
        q = rng.integers(0, 4, size=n).astype(float)  # ties are common
        q[int(rng.integers(0, n))] += 1.0
        s = normalize(q)
        assert int(np.argmax(s)) == int(np.argmax(q))
    report("6 argmax-invariance", True, f"({CASES} cases)")


def graph_pairs(g):
    """The (src, dst) user pairs a graph holds, in its order."""
    return list(zip(g.users[g.src].tolist(), g.users[g.dst].tolist()))


def transposed(g):
    """The graph with every edge of ``g`` reversed."""
    return SocialGraph.from_columns(g.users[g.dst], g.users[g.src])


def test_criterion_6_graph_transpose():
    rng = np.random.default_rng(66)
    for _ in range(CASES):
        n = int(rng.integers(2, 10))
        edges = [(f"u{a}", f"u{b}")
                 for a, b in rng.integers(0, n, size=(int(rng.integers(0, 25)), 2))
                 if a != b]
        g = graph_of(edges)
        t = transposed(g)
        assert set(graph_pairs(g)) == set(edges)
        assert set(graph_pairs(t)) == {(b, a) for a, b in edges}
        tt = transposed(t)
        for column in ("users", "src", "dst"):
            assert np.array_equal(getattr(tt, column), getattr(g, column))
    report("6 graph-transpose", True, f"({CASES} cases)")


# ---------------------------------------------------------------------------
# Criterion 7 (optional): reaction-speed statistics on the open dataset.
# Requires POSTSCHED_OPENDATA_DIR pointing at canonical-format files
# tw_posts.tsv / tw_reactions.tsv / fb_posts.tsv / fb_reactions.tsv
# (use postsched.ingest.adapt_open_dataset to produce them).
# ---------------------------------------------------------------------------

OPENDATA = os.environ.get("POSTSCHED_OPENDATA_DIR")


@pytest.mark.skipif(not OPENDATA, reason="open dataset not available locally")
def test_criterion_7_open_dataset_statistics():
    root = Path(OPENDATA)
    curves = {}
    quantiles = {}
    for net, prefix in (("TW", "tw"), ("FB", "fb")):
        posts, _ = load_posts(root / f"{prefix}_posts.tsv", network=net)
        reactions, _ = load_reactions(root / f"{prefix}_reactions.tsv",
                                      network=net)
        join = join_reactions(posts, reactions)
        curves[net] = cumulative_curve(join.pairs.delay)
        quantiles[net] = {p: time_to_fraction(join.pairs.delay, p)
                          for p in (0.25, 0.50)}

    t50 = quantiles["TW"][0.50]
    t25 = quantiles["TW"][0.25]
    # Published medians: ~24 min at p=0.5, ~3 min at p=0.25; wide tolerances
    # absorb the documented timestamp perturbation.
    ok_t50 = abs(t50 - 24 * 60) <= 10 * 60
    ok_t25 = abs(t25 - 3 * 60) <= 3 * 60
    two_hours = 2 * 3600 // 900
    faster = np.all(curves["TW"][:two_hours + 1] >= curves["FB"][:two_hours + 1])
    ok = ok_t50 and ok_t25 and bool(faster)
    report("7 open-dataset-statistics", ok,
           f"(TW T(0.5)={t50}s, T(0.25)={t25}s)")
    assert ok_t50 and ok_t25 and faster
