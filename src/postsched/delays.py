"""Empirical post-to-reaction delay estimation.

A reaction always lags the post it answers. Within a short attribution
window (default 24 hours split into 15-minute lags) the delay distribution
is estimated per network as a plain histogram; no parametric fit. The
resulting kernel feeds the delayed-profile transform and the cumulative /
quantile summaries of reaction speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .ingest import write_columns
from .temporal import kernel_mass

DEFAULT_WINDOW_S = 24 * 3600
DEFAULT_LAG_WIDTH_S = 900

# Guards float jitter in p * n when locating the quantile index.
_QUANTILE_EPS = 1e-9


@dataclass(frozen=True)
class DelayKernel:
    """Discrete probability distribution of post-to-reaction delay over
    equal-width lags covering ``n_lags * lag_width_s`` seconds."""

    mass: np.ndarray
    lag_width_s: int = DEFAULT_LAG_WIDTH_S

    def __post_init__(self) -> None:
        m = kernel_mass(self.mass)
        if self.lag_width_s <= 0:
            raise ValueError("lag width must be positive")
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)

    @property
    def n_lags(self) -> int:
        return int(self.mass.size)

    def lag_starts(self) -> np.ndarray:
        return np.arange(self.n_lags, dtype=np.int64) * self.lag_width_s

    @classmethod
    def delta(cls, lag: int, n_lags: int = 96,
              lag_width_s: int = DEFAULT_LAG_WIDTH_S) -> "DelayKernel":
        """Point mass at a single lag; lag 0 is the identity kernel."""
        if not 0 <= lag < n_lags:
            raise ValueError("lag out of range")
        m = np.zeros(n_lags)
        m[lag] = 1.0
        return cls(m, lag_width_s)


def _in_window(delays, window_s: int) -> np.ndarray:
    d = np.asarray(delays, dtype=np.int64)
    return d[(d >= 0) & (d < window_s)]


def estimate_delay_kernel(delays, window_s: int = DEFAULT_WINDOW_S,
                          lag_width_s: int = DEFAULT_LAG_WIDTH_S) -> DelayKernel:
    """Histogram in-window delays (seconds, e.g. ``PairTable.delay``) into
    lags and renormalize.

    Lag m collects delays in ``[m * lag_width_s, (m+1) * lag_width_s)``;
    delays at or beyond ``window_s`` are excluded. Raises
    :class:`InsufficientDataError` when no delay falls inside the window.
    """
    if window_s <= 0 or lag_width_s <= 0 or window_s % lag_width_s != 0:
        raise ValueError("window_s must be a positive multiple of lag_width_s")
    n_lags = window_s // lag_width_s
    d = _in_window(delays, window_s)
    if d.size == 0:
        raise InsufficientDataError("no delays inside the attribution window")
    hist = np.bincount(d // lag_width_s, minlength=n_lags)
    return DelayKernel(hist / hist.sum(), lag_width_s)


def time_to_fraction(delays, p: float, window_s: int = DEFAULT_WINDOW_S) -> int:
    """Smallest delay t (seconds) by which a fraction p of in-window
    reactions have occurred.

    Formally the smallest t with ``count(delay <= t) >= p * count``, reported
    at 1-second resolution. Non-decreasing in p for fixed delays.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    d = np.sort(_in_window(delays, window_s))
    if d.size == 0:
        raise InsufficientDataError("no delays inside the attribution window")
    idx = math.ceil(p * d.size - _QUANTILE_EPS) - 1
    return int(d[min(max(idx, 0), d.size - 1)])


def cumulative_curve(delays, window_s: int = DEFAULT_WINDOW_S,
                     lag_width_s: int = DEFAULT_LAG_WIDTH_S) -> np.ndarray:
    """Cumulative fraction of in-window reactions per lag.

    Computed as the running prefix-sum of the estimated kernel mass, so the
    two aggregations agree exactly on the same delays and lags. The curve is
    monotone non-decreasing and ends at 1 (up to float rounding).
    """
    return np.cumsum(estimate_delay_kernel(delays, window_s, lag_width_s).mass)


def write_kernel_table(kernel: DelayKernel, path) -> None:
    """Persist a kernel as a two-column text table (lag_start_seconds, probability)."""
    write_columns(path, [kernel.lag_starts(), kernel.mass],
                  header=f"# lag_width_s={kernel.lag_width_s}")
