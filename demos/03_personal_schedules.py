#!/usr/bin/env python3
"""Deriving the four personalized schedules on a tiny hand-built graph.

Alice broadcasts to three followers with different habits: bob reacts in the
morning, carol at noon, dan in the evening - and dan is the one who actually
reacts to alice most of the time. The script derives the first-degree,
second-degree, and weighted schedules step by step and prints the top
recommended times of each.
"""

import numpy as np

from postsched import (
    Adjacency,
    DelayKernel,
    VisibilityModel,
    WeeklyGrid,
    audience_reaction_profile,
    delayed_profile,
    normalize_rows,
    top_k_times,
    visible_posts,
)

grid = WeeklyGrid()
N = grid.buckets_per_week
MORNING, NOON, EVENING = 36, 48, 76  # Monday 09:00, 12:00, 19:00


def habit(bucket, weight):
    v = np.zeros(N)
    v[bucket] = weight
    v[(bucket + 1) % N] = weight / 2
    return v


def show(title, kind, weights=None, visible=None):
    """Sum alice's audience rows one way, normalize, print the top times."""
    q = audience_reaction_profile(delayed, audience, weights, visible)
    schedule = normalize_rows(q, ["alice"], kind).probabilities[0]
    print(title)
    for bucket in top_k_times(schedule, 3, grid):
        print(f"  {grid.bucket_label(bucket)}  p={schedule[bucket]:.3f}")


# Observed reaction profiles for the audience, one row per member and one
# lag of delay baked in. The whole audience is transformed in one call.
members = ["bob", "carol", "dan"]
kernel = DelayKernel.delta(1)
reactions = np.array([habit(MORNING + 1, 8), habit(NOON + 1, 6),
                      habit(EVENING + 1, 10)])
delayed = delayed_profile(reactions, kernel)

# Alice is the only target (row 0); her audience edges point at members 0-2.
audience = Adjacency.from_edges(1, [0, 0, 0], [0, 1, 2])
show("S1 (summed audience reactions, delay-corrected):", "S1")

# Second degree: discount members by how flooded their feeds are. Carol
# follows two prolific accounts that post exactly at noon, so a reaction
# from her at noon is less informative than bob's quiet-morning reaction.
created = np.array([habit(NOON, 50), habit(NOON, 50)])
followed = Adjacency.from_edges(len(members), [1, 1], [0, 1])  # carol -> both
visible = visible_posts(created, followed, VisibilityModel())
show("\nS2 (reaction probability per visible post):", "S2", visible=visible)

# Weighted: dan produced 70% of the reactions alice ever received. There is
# one weight per audience edge.
weights = np.array([0.2, 0.1, 0.7])
show("\nS1w (audience weighted by reactions actually given to alice):", "S1w",
     weights=weights)

print("\nS1 favors dan's evening peak by volume; S1w leans on it even",
      "harder, while S2 boosts bob because his feed is quiet.")
