"""Synthetic event-log generator with planted ground truth.

Builds star-shaped follower graphs where each author's followers share a
planted weekly activity peak, then simulates the full event process:

  * every user posts by a Poisson draw per bucket from their own weekly
    intensity (a base rate plus extra rate at their peak buckets);
  * for each post, each audience member independently gets a chance to
    react; the reaction lands at post time plus a delay sampled from the
    true delay kernel, and is kept with probability
    ``reaction_probability * availability`` where availability is the
    member's intensity at the reaction's bucket rescaled to peak 1
    (flat intensity means availability 1 everywhere);
  * reactions falling past the observation span are dropped, mimicking
    log truncation.

Everything is driven by per-user seeded substreams, so output is
deterministic for a given config regardless of worker count. The planted
best-time-to-post per author (followers' intensity pushed through the delay
kernel, maximized by direct enumeration) is emitted as a ground-truth
sidecar for acceptance testing.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


import numpy as np

from .ingest import NETWORKS, PostRecord, ReactionRecord, UserMeta
from .temporal import EPOCH_TO_MONDAY, WEEK_SECONDS, UNIT_SUM_TOL, WeeklyGrid

# Monday 2015-01-05 00:00 UTC; any Monday-aligned start works.
DEFAULT_START_EPOCH = 1_420_416_000


@dataclass(frozen=True)
class UserSpec:
    """Ground-truth behavior of one synthetic user."""

    user_id: str
    base_rate: float
    peak_rate: float = 0.0
    peaks: tuple[int, ...] = ()
    tz_offset_min: int = 0

    def __post_init__(self) -> None:
        if self.base_rate < 0 or self.peak_rate < 0:
            raise ValueError("rates must be >= 0")

    def intensity(self, n_buckets: int) -> np.ndarray:
        """Expected posts per bucket per week."""
        lam = np.full(n_buckets, self.base_rate, dtype=np.float64)
        for p in self.peaks:
            lam[p % n_buckets] += self.peak_rate
        return lam

    def availability(self, n_buckets: int) -> np.ndarray:
        """Intensity rescaled to peak at 1; zero for an inactive user."""
        lam = self.intensity(n_buckets)
        top = lam.max()
        return lam / top if top > 0 else lam


@dataclass(frozen=True)
class Population:
    """Explicit user list plus directed edges (dst is in src's audience)."""

    users: tuple[UserSpec, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        ids = [u.user_id for u in self.users]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate user ids")
        known = set(ids)
        for src, dst in self.edges:
            if src not in known or dst not in known:
                raise ValueError(f"edge ({src}, {dst}) references unknown user")

    def audience(self, user_id: str) -> list[str]:
        return sorted(dst for src, dst in self.edges if src == user_id)

    def spec(self, user_id: str) -> UserSpec:
        for u in self.users:
            if u.user_id == user_id:
                return u
        raise KeyError(user_id)


@dataclass(frozen=True)
class SynthConfig:
    """Compact star-topology generator configuration.

    Each author gets a dedicated set of followers sharing a planted peak;
    peaks are drawn from ``peak_pool`` unless given explicitly via
    ``planted_peaks`` (one tuple of buckets per author).
    """

    seed: int
    n_authors: int
    followers_per_author: int | tuple[int, int]
    span_days: int
    kernel: tuple[float, ...]
    lag_width_s: int = 900
    buckets_per_week: int = 672
    start_epoch: int = DEFAULT_START_EPOCH
    author_base_rate: float = 0.5
    author_peak_rate: float = 0.0
    follower_base_rate: float = 0.01
    follower_peak_rate: float = 1.0
    peaks_per_star: int = 1
    peak_pool: tuple[int, ...] | None = None
    planted_peaks: tuple[tuple[int, ...], ...] | None = None
    reaction_probability: float = 0.8
    reaction_prob_overrides: tuple[tuple[str, str, float], ...] = ()
    tz_offset_min: int = 0
    network: str = "TW"

    def __post_init__(self) -> None:
        # Each message starts with the field it is about.
        if self.n_authors < 1:
            raise ValueError("n_authors: must be >= 1")
        if self.span_days < 7:
            raise ValueError("span_days: must cover at least one week")
        kern = np.asarray(self.kernel, dtype=np.float64)
        if kern.size == 0 or np.any(kern < 0) or abs(kern.sum() - 1.0) > UNIT_SUM_TOL:
            raise ValueError("kernel: must be non-negative and sum to 1")
        if not 0.0 <= self.reaction_probability <= 1.0:
            raise ValueError("reaction_probability: must be in [0, 1]")
        for _, _, p in self.reaction_prob_overrides:
            if not 0.0 <= p <= 1.0:
                raise ValueError("reaction_prob_overrides: probabilities must "
                                 "be in [0, 1]")
        grid = WeeklyGrid(self.buckets_per_week)
        if self.lag_width_s != grid.bucket_width_s:
            raise ValueError("lag_width_s: must equal the grid bucket width")
        pool = grid.buckets_per_week if self.peak_pool is None else len(self.peak_pool)
        if self.planted_peaks is None and not 0 <= self.peaks_per_star <= pool:
            raise ValueError(f"peaks_per_star: must be in [0, {pool}], the size "
                             "of the peak pool")
        if (self.start_epoch + EPOCH_TO_MONDAY) % WEEK_SECONDS != 0:
            raise ValueError("start_epoch: must fall on Monday 00:00 UTC")
        if not -2**63 <= self.start_epoch <= 2**63 - 1 - self.span_s:
            raise ValueError("start_epoch: the span must fit in signed 64-bit "
                             "epoch seconds")
        if self.network not in NETWORKS:
            raise ValueError(f"network: unknown network {self.network!r}")
        for name in ("author_base_rate", "author_peak_rate",
                     "follower_base_rate", "follower_peak_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")

    @property
    def grid(self) -> WeeklyGrid:
        return WeeklyGrid(self.buckets_per_week)

    @property
    def span_s(self) -> int:
        return self.span_days * 86400

    def author_ids(self) -> list[str]:
        return [f"a{i:05d}" for i in range(self.n_authors)]


def _structural_rng(config: SynthConfig):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)))


def resolve_population(config: SynthConfig) -> Population:
    """Materialize the star topology and per-user ground truth from a config.

    Fully deterministic: follower counts and planted peaks come from a
    dedicated structural substream of the seed.
    """
    rng = _structural_rng(config)
    n = config.buckets_per_week
    pool = np.asarray(config.peak_pool if config.peak_pool is not None
                      else range(n), dtype=np.int64)
    users: list[UserSpec] = []
    followers: list[UserSpec] = []
    edges: list[tuple[str, str]] = []
    for i, author in enumerate(config.author_ids()):
        if isinstance(config.followers_per_author, tuple):
            lo, hi = config.followers_per_author
            m = int(rng.integers(lo, hi + 1))
        else:
            m = int(config.followers_per_author)
        if config.planted_peaks is not None:
            peaks = tuple(int(p) % n for p in config.planted_peaks[i])
        else:
            peaks = tuple(int(p) for p in rng.choice(
                pool, size=config.peaks_per_star, replace=False))
        users.append(UserSpec(author, config.author_base_rate,
                              config.author_peak_rate, peaks,
                              config.tz_offset_min))
        for j in range(m):
            fid = f"f{i:05d}_{j:03d}"
            followers.append(UserSpec(fid, config.follower_base_rate,
                                      config.follower_peak_rate, peaks,
                                      config.tz_offset_min))
            edges.append((author, fid))
    return Population(tuple(users + followers), tuple(edges))


def _user_posts(config: SynthConfig, spec: UserSpec, user_index: int,
                grid: WeeklyGrid) -> np.ndarray:
    """Sorted post timestamps for one user, over the whole span."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(1, user_index)))
    n = grid.buckets_per_week
    width = grid.bucket_width_s
    end = config.start_epoch + config.span_s
    n_weeks = math.ceil(config.span_s / WEEK_SECONDS)
    lam = spec.intensity(n)
    counts = rng.poisson(lam=np.broadcast_to(lam, (n_weeks, n)))
    w_idx, k_idx = np.nonzero(counts)
    reps = counts[w_idx, k_idx]
    weeks = np.repeat(w_idx, reps).astype(np.int64)
    buckets = np.repeat(k_idx, reps).astype(np.int64)
    offsets = rng.integers(0, width, size=weeks.size)
    times = config.start_epoch + weeks * WEEK_SECONDS + buckets * width + offsets
    return np.sort(times[times < end])


@dataclass(frozen=True)
class SynthResult:
    posts: list[PostRecord]
    reactions: list[ReactionRecord]
    edges: list[tuple[str, str]]
    users: list[UserMeta]
    truth: dict[str, int]
    population: Population
    paths: dict[str, str] = field(default_factory=dict)


def generate(config: SynthConfig, out_dir=None,
             population: Population | None = None) -> SynthResult:
    """Run the event process and optionally write the canonical TSV files.

    ``population`` overrides the star topology for custom graphs; the event
    process and its determinism guarantees are unchanged.
    """
    pop = population if population is not None else resolve_population(config)
    grid = config.grid
    n = grid.buckets_per_week
    end = config.start_epoch + config.span_s
    kern = np.asarray(config.kernel, dtype=np.float64)
    cum = np.cumsum(kern)
    overrides = {(a, b): p for a, b, p in config.reaction_prob_overrides}

    audience_of: dict[str, list[str]] = defaultdict(list)
    for src, dst in pop.edges:
        audience_of[src].append(dst)
    for members in audience_of.values():
        members.sort()

    avail = {u.user_id: u.availability(n) for u in pop.users}
    specs = {u.user_id: u for u in pop.users}

    posts: list[PostRecord] = []
    post_times: dict[str, np.ndarray] = {}
    post_ids: dict[str, list[str]] = {}
    for ui, spec in enumerate(pop.users):
        times = _user_posts(config, spec, ui, grid)
        post_times[spec.user_id] = times
        ids = [f"{spec.user_id}:p{i}" for i in range(times.size)]
        post_ids[spec.user_id] = ids
        posts.extend(PostRecord(config.network, spec.user_id, pid, int(t))
                     for pid, t in zip(ids, times))

    reactions: list[ReactionRecord] = []
    for ui, spec in enumerate(pop.users):
        author = spec.user_id
        members = audience_of.get(author)
        times = post_times[author]
        if not members or times.size == 0:
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(2, ui)))
        ids = post_ids[author]
        for member in members:
            lag = np.searchsorted(cum, rng.random(times.size), side="right")
            np.clip(lag, 0, kern.size - 1, out=lag)
            t_r = times + lag * config.lag_width_s
            tz = specs[member].tz_offset_min
            a = avail[member][grid.bucket_indices(t_r, tz)]
            p_edge = overrides.get((author, member), config.reaction_probability)
            keep = (t_r < end) & (rng.random(times.size) < p_edge * a)
            for idx in np.nonzero(keep)[0]:
                reactions.append(ReactionRecord(config.network, ids[idx],
                                                member, int(t_r[idx])))

    users = [UserMeta(u.user_id, u.tz_offset_min, None, config.network)
             for u in sorted(pop.users, key=lambda u: u.user_id)]
    truth = {a: ground_truth_peak(config, a, pop) for a in sorted(audience_of)}

    result = SynthResult(posts, reactions, list(pop.edges), users, truth, pop)
    if out_dir is not None:
        paths = write_synth_files(result, out_dir, config.network)
        result = SynthResult(posts, reactions, list(pop.edges), users, truth,
                             pop, paths)
    return result


def ground_truth_peak(config: SynthConfig, user_id: str,
                      population: Population | None = None) -> int:
    """Best posting bucket for a user, by direct enumeration.

    Scores every bucket k as the followers' summed intensity pushed through
    the delay kernel, sum_m kernel[m] * intensity[(k + m) mod N], and returns
    the maximizer; ties break to the lowest index. This is the independent
    oracle that the schedule pipeline must recover.
    """
    pop = population if population is not None else resolve_population(config)
    n = config.buckets_per_week
    members = pop.audience(user_id)
    agg = np.zeros(n)
    for member in members:
        agg += pop.spec(member).intensity(n)
    kern = np.asarray(config.kernel, dtype=np.float64)
    lags = np.arange(kern.size)
    score = np.empty(n)
    for k in range(n):
        score[k] = float(agg[(k + lags) % n] @ kern)
    return int(np.argmax(score))


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_synth_files(result: SynthResult, out_dir, network: str) -> dict[str, str]:
    """Write canonical TSVs plus the ground-truth sidecar; output is byte
    stable for a given result."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "posts": out / "posts.tsv",
        "reactions": out / "reactions.tsv",
        "edges": out / "edges.tsv",
        "users": out / "users.tsv",
        "truth": out / "truth.tsv",
    }
    _write_lines(paths["posts"], [
        f"{p.network}\t{p.author}\t{p.post_id}\t{p.created_at}"
        for p in sorted(result.posts, key=lambda p: (p.author, p.created_at, p.post_id))
    ])
    _write_lines(paths["reactions"], [
        f"{r.network}\t{r.post_id}\t{r.reactor}\t{r.reacted_at}"
        for r in sorted(result.reactions,
                        key=lambda r: (r.reacted_at, r.post_id, r.reactor))
    ])
    _write_lines(paths["edges"], [
        f"{network}\t{src}\t{dst}" for src, dst in sorted(result.edges)
    ])
    _write_lines(paths["users"], [
        f"{u.user}\t{u.tz_offset_min}\t{u.city or '-'}\t{u.network}"
        for u in sorted(result.users, key=lambda u: u.user)
    ])
    _write_lines(paths["truth"], [
        f"{user}\t{bucket}" for user, bucket in sorted(result.truth.items())
    ])
    return {k: str(v) for k, v in paths.items()}
