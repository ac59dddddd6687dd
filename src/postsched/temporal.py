"""Weekly time grid, delayed profiles, and posting schedules.

Everything in the pipeline is aggregated onto a fixed weekly grid of
equal-width buckets: by default 672 buckets of 15 minutes, running from
Monday 00:00 through Sunday 23:45 in the *user's local time*. Action
profiles are count rows on that grid; schedules are probability mass
functions over the same buckets, held as rows of a :class:`ScheduleTable`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEEK_SECONDS = 7 * 24 * 3600
DAY_SECONDS = 24 * 3600

# Seconds from the Unix epoch (Thu 1970-01-01 00:00 UTC) back to the
# preceding Monday 00:00 (1969-12-29). Used to anchor week arithmetic.
EPOCH_TO_MONDAY = 3 * DAY_SECONDS

# Where synthetic logs start by default: Monday 2015-01-05 00:00 UTC; any
# Monday-aligned start works.
DEFAULT_START_EPOCH = 1_420_416_000

# Timezone offsets in minutes east of UTC, the real-world UTC-12:00 ..
# UTC+14:00: what users.tsv, the grid and the generator accept.
TZ_OFFSETS = range(-12 * 60, 14 * 60 + 1)

# Tolerance on every unit-sum check (schedules, delay kernels).
UNIT_SUM_TOL = 1e-9

# Rows that a batched step (the delay transform, a sum over graph edges)
# takes at once, which bounds its temporaries to CHUNK_ROWS x buckets.
CHUNK_ROWS = 256

DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

DAY_FILTERS = ("all", "weekday", "weekend")


@dataclass(frozen=True)
class WeeklyGrid:
    """Equal-width bucketization of the local week, starting Monday 00:00.

    ``buckets_per_week`` must divide a 7-day week exactly; the default 672
    gives 15-minute buckets. Buckets are half-open intervals
    ``[start, start + width)`` so boundaries are unambiguous.
    """

    buckets_per_week: int = 672

    def __post_init__(self) -> None:
        if self.buckets_per_week <= 0:
            raise ValueError("buckets_per_week must be positive")
        if WEEK_SECONDS % self.buckets_per_week != 0:
            raise ValueError("buckets_per_week must divide a 7-day week exactly")

    @property
    def bucket_width_s(self) -> int:
        return WEEK_SECONDS // self.buckets_per_week

    def bucket_index(self, timestamp: int, tz_offset_min: int = 0) -> int:
        """Map an epoch timestamp to its local weekly bucket.

        Local time is UTC shifted by ``tz_offset_min`` minutes; weeks start
        Monday 00:00 local. Total over all valid inputs.
        """
        return int(self.bucket_indices(timestamp, tz_offset_min))

    def bucket_indices(self, timestamps, tz_offset_min=0) -> np.ndarray:
        """Vectorized :meth:`bucket_index` over an array of timestamps;
        ``tz_offset_min`` is one offset or an array of one per timestamp."""
        offsets = np.asarray(tz_offset_min, dtype=np.int64)
        if np.any((offsets < TZ_OFFSETS[0]) | (offsets > TZ_OFFSETS[-1])):
            raise ValueError(f"tz_offset_min: not in {TZ_OFFSETS[0]}..{TZ_OFFSETS[-1]}")
        ts = np.asarray(timestamps, dtype=np.int64)
        local = ts + offsets * 60
        into_week = (local + EPOCH_TO_MONDAY) % WEEK_SECONDS
        return into_week // self.bucket_width_s

    def day_mask(self, day_filter: str = "all") -> np.ndarray:
        """Boolean mask over buckets for a weekday/weekend/all filter.

        A bucket counts as weekday when its start falls on Monday-Friday;
        on the default grid that is exactly indices 0-479.
        """
        if day_filter not in DAY_FILTERS:
            raise ValueError(f"day_filter must be one of {DAY_FILTERS}")
        days = (np.arange(self.buckets_per_week) * self.bucket_width_s) // DAY_SECONDS
        if day_filter == "weekday":
            return days < 5
        if day_filter == "weekend":
            return days >= 5
        return np.ones(self.buckets_per_week, dtype=bool)

    def bucket_label(self, bucket: int) -> str:
        """Human-readable local start time of a bucket, e.g. ``'Tue 09:15'``."""
        if not 0 <= bucket < self.buckets_per_week:
            raise ValueError(f"bucket {bucket} out of range")
        start = bucket * self.bucket_width_s
        day = start // DAY_SECONDS
        rem = start % DAY_SECONDS
        return f"{DAY_NAMES[day]} {rem // 3600:02d}:{(rem % 3600) // 60:02d}"


@dataclass(frozen=True)
class TimeWindow:
    """Closed interval of epoch seconds: contains t iff start <= t <= end."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("window end precedes start")

    @classmethod
    def from_days(cls, start: int, days: int) -> "TimeWindow":
        if days <= 0:
            raise ValueError("window length must be positive")
        return cls(int(start), int(start) + days * DAY_SECONDS - 1)

    def contains(self, timestamp: int) -> bool:
        return self.start <= timestamp <= self.end

    def mask(self, timestamps) -> np.ndarray:
        ts = np.asarray(timestamps, dtype=np.int64)
        return (ts >= self.start) & (ts <= self.end)

    def overlaps(self, other: "TimeWindow") -> bool:
        return self.start <= other.end and other.start <= self.end

    @property
    def n_days(self) -> float:
        return (self.end - self.start + 1) / DAY_SECONDS


def kernel_mass(mass) -> np.ndarray:
    """A delay kernel's probability per lag, a float64 copy of ``mass``; raises
    ValueError unless it is one non-empty row that :func:`invalid_rows` passes."""
    m = np.array(mass, dtype=np.float64)
    if m.ndim != 1 or m.size == 0 or invalid_rows(m):
        raise ValueError("kernel: must be a non-empty 1-D vector, finite, >= 0 "
                         f"and summing to 1 within {UNIT_SUM_TOL}")
    return m


def delayed_profile(values: np.ndarray, kernel,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Transform reaction profiles to anticipate where delayed reactions land.

    ``values`` holds one profile or a stack of them, with buckets on the last
    axis. Element k of a result row estimates the reactions the user would
    produce within the delay window *after* bucket k:

        out[k] = sum_m kernel[m] * values[(k + m) mod N]

    i.e. a forward-looking circular cross-correlation with the delay kernel.
    The week wraps around: profiles are weekly-periodic aggregates, so mass
    spilling past Sunday 23:45 belongs to Monday's buckets. Total mass is
    conserved because the kernel sums to one.

    Every element sums its terms with a non-zero value, ``kernel[m] *
    values[...]``, in ascending lag order, so a row comes out bit for bit the
    same whether it is transformed alone or in a stack. A chunk of
    ``CHUNK_ROWS`` rows takes one of two paths, whichever costs less: a dense
    shifted multiply-add per non-zero lag, or, for sparse reactions, a scatter
    of each non-zero value to the bucket it feeds, one lag at a time. They
    agree bit for bit, because the dense path's extra terms are ``+0.0``,
    which leaves a finite sum with the sign bit clear unchanged. So
    ``values`` must be finite with the sign bit clear: a negative, ``-0.0``,
    NaN or infinite value is rejected.

    ``kernel`` may be a :class:`~postsched.delays.DelayKernel`, whose lag
    width must be the profiles' bucket width (a week over the buckets), or a
    bare probability vector over lags, which :func:`kernel_mass` checks.
    The result is written into ``out``, a C-contiguous array of ``values``'
    shape, if given.
    """
    mass = kernel_mass(getattr(kernel, "mass", kernel))
    v = np.asarray(values, dtype=np.float64)
    n = v.shape[-1]
    width = getattr(kernel, "lag_width_s", None)
    if width is not None and width * n != WEEK_SECONDS:
        raise ValueError(f"kernel: lag width {width} s is not the bucket width "
                         f"{WEEK_SECONDS / max(n, 1):g} s of {n}-bucket profiles")
    rows = v.reshape(-1, n)
    if out is None:
        out = np.empty(v.shape)
    # ``out`` is in C order, so a chunk's flat view writes through.
    out_rows = out.reshape(rows.shape)
    term = np.empty((min(len(rows), CHUNK_ROWS), n))
    lags = np.flatnonzero(mass)
    for lo in range(0, len(rows), CHUNK_ROWS):
        src = rows[lo:lo + CHUNK_ROWS]
        dst = out_rows[lo:lo + CHUNK_ROWS]
        if np.signbit(src).any() or not np.isfinite(src).all():
            raise ValueError("values must be finite with the sign bit clear "
                             "(no negative, -0.0, NaN or infinite value)")
        if _scatter_is_cheaper(src, len(lags)):
            # Value x at (r, j) feeds bucket (j - m) mod n of row r at lag m.
            # Within one lag no target repeats, so a plain += is exact.
            at = np.flatnonzero(src != 0)
            x = src.reshape(-1)[at]
            j = at % n
            row_start = at - j
            flat = dst.reshape(-1)
            flat.fill(0.0)
            for m in lags:
                flat[row_start + (j - m) % n] += mass[m] * x
            continue
        part = term[:len(src)]
        for i, m in enumerate(lags):
            # Shifting left by s: element k takes element (k + s) mod n.
            s = int(m) % n
            acc = dst if i == 0 else part
            np.multiply(src[:, s:], mass[m], out=acc[:, :n - s])
            np.multiply(src[:, :s], mass[m], out=acc[:, n - s:])
            if i:
                dst += part
    return out


def _scatter_is_cheaper(src: np.ndarray, lags: int) -> bool:
    """Whether scattering the non-zeros of a chunk costs less than the dense
    multiply-add over it. In units of one dense element at one lag, finding
    the non-zeros costs about two per element and scattering one non-zero at
    one lag about six. So a kernel of one or two lags stays dense without a
    count, and a longer one goes sparse below about 16% non-zeros."""
    size = src.size
    return lags > 2 and 2 * size + 6 * lags * np.count_nonzero(src != 0) < size * lags


def invalid_rows(probabilities: np.ndarray) -> np.ndarray:
    """Mask of the rows that are not a probability mass function: a row must
    be finite, >= 0 and sum to 1 within ``UNIT_SUM_TOL``."""
    p = np.asarray(probabilities, dtype=np.float64)
    valid = (np.isfinite(p).all(axis=-1) & (p >= 0).all(axis=-1)
             & (np.abs(p.sum(axis=-1) - 1.0) <= UNIT_SUM_TOL))
    return ~valid


@dataclass(frozen=True)
class ScheduleTable:
    """Posting schedules as rows of one matrix: row i is the probability mass
    function over weekly buckets of ``users[owner[i]]``, produced by the
    rule ``provenance[i]`` (S1, S1w, AFD, MFU, uniform, ...). Peaks are the
    recommended posting times. A timezone baseline's row is labelled with its
    cohort (:func:`~postsched.schedules.cohort_label`) instead of a user.
    ``owner`` is the row number by default, so ``users`` labels each row.
    """

    users: np.ndarray          # code -> user id or cohort label
    provenance: np.ndarray     # row -> rule that produced the row
    probabilities: np.ndarray  # rows x buckets, read-only
    owner: np.ndarray | None = None  # row -> int64 code into users

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=np.float64).view()
        if p.ndim != 2 or p.shape[1] == 0:
            raise ValueError("schedules must be a rows x buckets matrix")
        bad = np.flatnonzero(invalid_rows(p))
        if bad.size:
            raise ValueError(f"schedule row {bad[0]} must be finite, >= 0 and "
                             f"sum to 1 within {UNIT_SUM_TOL}")
        p.setflags(write=False)
        users = np.asarray(self.users, dtype=object).reshape(-1)
        owner = np.arange(users.size) if self.owner is None else self.owner
        provenance = np.asarray(self.provenance, dtype=object).reshape(-1)
        if len(owner) != len(p) or provenance.size != len(p):
            raise ValueError("a schedule table needs one user and one "
                             "provenance per row")
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "owner", np.asarray(owner, dtype=np.int64))
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "probabilities", p)

    def __len__(self) -> int:
        return len(self.probabilities)

    @property
    def labels(self) -> np.ndarray:
        """The user id or cohort label of each row."""
        return self.users[self.owner]

    def select(self, rows) -> "ScheduleTable":
        """The rows at ``rows``, an index array or a boolean mask."""
        return ScheduleTable(self.users, self.provenance[rows],
                             self.probabilities[rows], self.owner[rows])

    def recoded(self, users: np.ndarray, code: np.ndarray) -> "ScheduleTable":
        return ScheduleTable(users, self.provenance, self.probabilities,
                             code[self.owner])

    def by_provenance(self) -> dict[str, "ScheduleTable"]:
        """The rows of each provenance, in order of first appearance."""
        return {kind: self.select(self.provenance == kind)
                for kind in dict.fromkeys(self.provenance.tolist())}


@dataclass(frozen=True)
class Chosen:
    """Rows picked from a table of candidates: row i is the schedule of
    ``users[owner[i]]``, row ``choice[i]`` of ``candidates``. A candidate
    that many users take is held, formatted and ranked once."""

    users: np.ndarray        # code -> user id
    owner: np.ndarray        # row -> int64 code into users
    candidates: ScheduleTable
    choice: np.ndarray       # row -> row of candidates

    @classmethod
    def of(cls, table: ScheduleTable | Chosen) -> Chosen:
        """``table`` itself, or a table as the Chosen of each of its rows."""
        if isinstance(table, Chosen):
            return table
        return cls(table.users, table.owner, table, np.arange(len(table)))

    def table(self) -> ScheduleTable:
        """The rows as a table of their own."""
        return ScheduleTable(self.users, self.candidates.provenance[self.choice],
                             self.candidates.probabilities[self.choice],
                             self.owner)


def normalize_rows(sums: np.ndarray, users, provenance,
                   owner=None) -> ScheduleTable:
    """Normalize non-negative rows into schedules: s[i] = q[i] / sum(q).

    Row i of ``sums`` belongs to ``users[owner[i]]``, by default to
    ``users[i]``; ``provenance`` is one label for every row or one per row.
    All-zero rows carry no signal and are dropped, so the caller can fall
    back to a baseline for their users.
    """
    sums = np.asarray(sums, dtype=np.float64)
    total = sums.sum(axis=-1)
    keep = total > 0
    labels = np.broadcast_to(np.asarray(provenance, dtype=object), total.shape)
    owner = np.arange(len(sums)) if owner is None else np.asarray(owner)
    return ScheduleTable(users, labels[keep], sums[keep] / total[keep, None],
                         owner[keep])
