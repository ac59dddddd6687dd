#!/usr/bin/env python3
"""Weekly grid basics: bucketizing timestamps and building action profiles.

Every quantity in the pipeline lives on a weekly grid of 672 fifteen-minute
buckets that starts Monday 00:00 in the user's local time. This script walks
through bucketizing a handful of timestamps, folding several weeks of events
into one profile, and turning a profile into a posting schedule. Profiles
are sparse users x buckets counts and schedules users x buckets matrices;
here the population is one user.
"""

import numpy as np

from postsched import (
    PairTable,
    PostTable,
    TimeWindow,
    UserTable,
    WeeklyGrid,
    build_profiles,
    normalize_rows,
)

grid = WeeklyGrid()
print(f"grid: {grid.buckets_per_week} buckets of {grid.bucket_width_s}s")

# The Unix epoch fell on a Thursday, three full days past Monday 00:00.
print("\nbucket of the epoch (UTC):        ", grid.bucket_index(0, 0),
      "=", grid.bucket_label(grid.bucket_index(0, 0)))
print("same instant seen from UTC+01:00: ", grid.bucket_index(0, 60),
      "=", grid.bucket_label(grid.bucket_index(0, 60)))

# Fold three weeks of a toy habit into a single weekly profile: this user
# does something every Tuesday around 09:00 and sometimes Saturday evening.
monday = 1420416000  # Mon 2015-01-05 00:00 UTC
tue_9am = monday + 86400 + 9 * 3600
sat_8pm = monday + 5 * 86400 + 20 * 3600
week = 7 * 86400
events = [tue_9am, tue_9am + week, tue_9am + 2 * week,
          sat_8pm, sat_8pm + 2 * week]
posts = PostTable.from_columns(["TW"], ["demo"] * len(events),
                               [f"p{i}" for i in range(len(events))], events)
# users.tsv as columns: one user at UTC, with no city. A user who is not
# listed would be bucketed at UTC too.
users = UserTable.from_columns(["TW"], ["demo"], [0], [None])
profiles = build_profiles(posts, PairTable.from_columns([], [], [], []), users,
                          grid, TimeWindow(monday, monday + 3 * week - 1))
# Profiles are sparse counts; rows(...) makes the rows asked for dense.
profile = profiles.created.rows([0])[0]
print(f"\nprofile total {profile.sum():.0f} events in "
      f"{np.count_nonzero(profile)} distinct buckets")
for bucket in np.nonzero(profile)[0]:
    print(f"  {grid.bucket_label(int(bucket))}: {profile[bucket]:.0f}")

# A schedule is the same row normalized into a probability mass function.
schedule = normalize_rows(profile[None], profiles.users, "S1").probabilities[0]
best = int(np.argmax(schedule))
print(f"\nas a schedule, the best bucket is {grid.bucket_label(best)} "
      f"with probability {schedule[best]:.2f}")
