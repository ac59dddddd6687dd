#!/usr/bin/env python3
"""Reaction-delay estimation: kernel, quantiles, and the cumulative curve.

Reactions lag the posts they answer. This script simulates two styles of
network - one where most reactions arrive within minutes, one much slower -
estimates the delay kernel of each from the delays of joined (post,
reaction) pairs, and prints the reaction-speed quantiles plus the first
hour of the cumulative curve. The delayed-profile transform at the end
shows what the kernel is for: moving a reaction profile back onto the
posting times that caused it.
"""

import numpy as np

from postsched import (
    WeeklyGrid,
    cumulative_curve,
    delayed_profile,
    estimate_delay_kernel,
    time_to_fraction,
)

rng = np.random.default_rng(8)


def simulate_delays(mean_lags, n=50_000):
    """Post-to-reaction delays in seconds, as in ``PairTable.delay``."""
    lags = rng.geometric(1.0 / mean_lags, size=n) - 1
    return lags * 900 + rng.integers(0, 900, size=n)


fast = simulate_delays(mean_lags=2.0)    # most reactions inside 30 minutes
slow = simulate_delays(mean_lags=12.0)   # reactions spread over hours

for name, delays in (("fast network", fast), ("slow network", slow)):
    kernel = estimate_delay_kernel(delays)
    curve = cumulative_curve(delays)
    print(f"\n{name}: {kernel.n_lags} lags of {kernel.lag_width_s}s")
    for p in (0.25, 0.50, 0.75, 0.90):
        t = time_to_fraction(delays, p)
        print(f"  {int(p * 100):>2d}% of reactions within {t // 3600:02d}:"
              f"{t % 3600 // 60:02d} (hh:mm)")
    hour = ", ".join(f"{c:.2f}" for c in curve[:4])
    print(f"  cumulative fraction after 15/30/45/60 min: {hour}")

# The kernel un-shifts observed reactions: a reaction profile peaked at
# bucket 40 under a one-lag delay means posting at bucket 39 was optimal.
grid = WeeklyGrid()
reactions = np.zeros(grid.buckets_per_week)
reactions[40] = 100.0
shifted = delayed_profile(reactions, estimate_delay_kernel(np.full(10, 900)))
print(f"\nreactions peak at bucket 40; delayed profile peaks at "
      f"{int(np.argmax(shifted))} -> post one bucket earlier")
