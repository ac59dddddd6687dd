#!/usr/bin/env python3
"""End to end on synthetic data: generate, derive, and score schedules.

The generator plants a ground-truth peak per author (their followers are
only really active around that bucket), the pipeline derives schedules from
the first 63 days, and the evaluation scores them on a disjoint 56-day
window. A good schedule shows reaction gain above 1 at rank 1 and decaying
gains down the ranking; the timezone-level MFU baseline should do visibly
worse because it cannot see who each author's audience is.
"""

import numpy as np

from postsched import SynthConfig, TimeWindow, generate, ground_truth_peak
from postsched.delays import estimate_delay_kernel
from postsched.evaluation import evaluate_schedules
from postsched.ingest import SocialGraph, join_reactions, share_users
from postsched.pipeline import derive_schedules
from postsched.schedules import top_k_times

weekday_pool = tuple(range(480))
cfg = SynthConfig(
    seed=20150105,
    n_authors=25,
    followers_per_author=30,
    span_days=63 + 56,
    kernel=tuple([1.0] + [0.0] * 95),
    author_base_rate=0.4,
    author_peak_rate=4.0,
    follower_base_rate=0.002,
    follower_peak_rate=1.0,
    peak_pool=weekday_pool,
    reaction_probability=0.9,
)
result = generate(cfg)
print(f"generated {len(result.posts)} posts, {len(result.reactions)} reactions,"
      f" {len(result.edges)} edges")

derivation = TimeWindow.from_days(cfg.start_epoch, 63)
evaluation = TimeWindow.from_days(derivation.end + 1, 56)
# The generator returns the column tables that the pipeline reads: posts,
# reactions, and users as a UserTable of timezone offsets.
posts = result.posts
join = join_reactions(posts, result.reactions)
pairs = join.pairs
kernel = estimate_delay_kernel(pairs.delay[derivation.mask(pairs.post_time)])
graph = SocialGraph.from_columns(*zip(*result.edges))
# Re-coded onto one vocabulary of users, the tables name the authors to
# schedule by their codes in it.
posts, pairs, graph, users = share_users(posts, pairs, graph, result.users)
derived = derive_schedules(posts, pairs, graph, users, cfg.grid, kernel,
                           derivation,
                           targets=np.searchsorted(users.users, cfg.author_ids()))

# One sort ranks every author's S1 schedule.
s1 = derived.personalized["S1"]
top = dict(zip(s1.labels, top_k_times(s1.probabilities, 1, cfg.grid)[:, 0]))
hits = sum(1 for a in cfg.author_ids() if top[a] == ground_truth_peak(cfg, a))
print(f"S1 recovered the planted peak for {hits}/{cfg.n_authors} authors")

# Every author with a personalized schedule is also scored on the MFU/AFD
# baseline rows of their timezone.
report = evaluate_schedules(derived.personalized, posts, pairs, users,
                            evaluation, cfg.grid, k=8,
                            baselines=derived.baselines.by_provenance())

print(f"\naverage reaction gain by rank ({int(evaluation.n_days)}-day holdout,"
      " weekday buckets):")
kinds = ["S1", "S1w", "S2", "S2w", "MFU", "AFD"]
print("rank  " + "".join(f"{k:>8}" for k in kinds))
for rank in range(1, 9):
    cells = []
    for kind in kinds:
        row = report.row(kind, rank)
        cells.append("      --" if row.rg_avg is None else f"{row.rg_avg:8.2f}")
    print(f"{rank:>4}  " + "".join(cells))
print("\ngain > 1 means the rank beats the author's own average"
      " reactions-per-post.")
