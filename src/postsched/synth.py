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
deterministic for a given config. Posts and reactions are built and written
as column tables, never as one object per row. The planted
best-time-to-post per author (followers' intensity pushed through the delay
kernel, maximized by direct enumeration) is emitted as a ground-truth
sidecar for acceptance testing.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .ingest import (
    NETWORKS,
    PostTable,
    ReactionTable,
    UserTable,
    encode_ids,
    write_columns,
)
from .temporal import (
    DAY_SECONDS,
    DEFAULT_START_EPOCH,
    EPOCH_TO_MONDAY,
    TZ_OFFSETS,
    WEEK_SECONDS,
    WeeklyGrid,
    kernel_mass,
)

# An author's reaction randoms are drawn for a block of members at a time,
# about this many doubles per block, which bounds the temporaries.
_BLOCK_DRAWS = 1 << 18

# The most Poisson cells (users x weeks x buckets) that one config may draw.
# Each user's draw is held whole, as int64, so this also bounds that array
# to 2 GiB. The 16,400-user, 17-week bench point draws 187M cells.
MAX_POISSON_CELLS = 1 << 28


@dataclass(frozen=True)
class UserSpec:
    """Ground-truth behavior of one synthetic user."""

    user_id: str
    base_rate: float
    peak_rate: float = 0.0
    peaks: tuple[int, ...] = ()
    tz_offset_min: int = 0

    def __post_init__(self) -> None:
        if not (self.base_rate >= 0 and self.peak_rate >= 0):
            raise ValueError("rates must be >= 0")
        # A repeated peak would add peak_rate to its bucket twice.
        if len(set(self.peaks)) < len(self.peaks):
            raise ValueError(f"peaks: a bucket is listed twice in {self.peaks}")
        if self.tz_offset_min not in TZ_OFFSETS:
            raise ValueError(f"tz_offset_min: not in {TZ_OFFSETS[0]}..{TZ_OFFSETS[-1]}")

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
        if len(self.index) != len(self.users):
            raise ValueError("duplicate user ids")
        for src, dst in self.edges:
            if src not in self.index or dst not in self.index:
                raise ValueError(f"edge ({src}, {dst}) references unknown user")

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each user id in ``users``."""
        return {u.user_id: i for i, u in enumerate(self.users)}

    @cached_property
    def audiences(self) -> dict[str, tuple[str, ...]]:
        """Sorted audience of every user with at least one edge."""
        out: dict[str, list[str]] = defaultdict(list)
        for src, dst in self.edges:
            out[src].append(dst)
        return {src: tuple(sorted(members)) for src, members in out.items()}

    def audience(self, user_id: str) -> list[str]:
        return list(self.audiences.get(user_id, ()))

    def spec(self, user_id: str) -> UserSpec:
        return self.users[self.index[user_id]]


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
        kernel_mass(self.kernel)
        if not 0.0 <= self.reaction_probability <= 1.0:
            raise ValueError("reaction_probability: must be in [0, 1]")
        for _, _, p in self.reaction_prob_overrides:
            if not 0.0 <= p <= 1.0:
                raise ValueError("reaction_prob_overrides: probabilities must "
                                 "be in [0, 1]")
        grid = WeeklyGrid(self.buckets_per_week)
        pool = grid.buckets_per_week if self.peak_pool is None else len(self.peak_pool)
        if self.planted_peaks is None and not 0 <= self.peaks_per_star <= pool:
            raise ValueError(f"peaks_per_star: must be in [0, {pool}], the size "
                             "of the peak pool")
        n = grid.buckets_per_week
        for name, peaks in [("peak_pool", self.peak_pool or ()),
                            *(("planted_peaks", p) for p in self.planted_peaks or ())]:
            if len({p % n for p in peaks}) < len(peaks):
                raise ValueError(f"{name}: a bucket is listed twice in {peaks}")
        followers = self.followers_per_author
        most = followers[1] if isinstance(followers, tuple) else followers
        cells = self.n_authors * (1 + most) * -(-self.span_s // WEEK_SECONDS) * n
        if cells > MAX_POISSON_CELLS:
            raise ValueError(
                f"n_authors/followers_per_author/span_days: users x weeks x "
                f"buckets is {cells} Poisson cells, above the cap of "
                f"{MAX_POISSON_CELLS}")
        if (self.start_epoch + EPOCH_TO_MONDAY) % WEEK_SECONDS != 0:
            raise ValueError("start_epoch: must fall on Monday 00:00 UTC")
        if not -2**63 <= self.start_epoch <= 2**63 - 1 - self.span_s:
            raise ValueError("start_epoch: the span must fit in signed 64-bit "
                             "epoch seconds")
        if self.network not in NETWORKS:
            raise ValueError(f"network: unknown network {self.network!r}")
        if self.tz_offset_min not in TZ_OFFSETS:
            raise ValueError(f"tz_offset_min: not in {TZ_OFFSETS[0]}..{TZ_OFFSETS[-1]}")
        for name in ("author_base_rate", "author_peak_rate",
                     "follower_base_rate", "follower_peak_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")
        # A bucket's intensity is its expected posts per week; at most one
        # post per second of the bucket keeps every Poisson draw in range.
        limit = grid.bucket_width_s
        for who in ("author", "follower"):
            base = getattr(self, f"{who}_base_rate")
            if not base <= limit:
                raise ValueError(f"{who}_base_rate: must be at most {limit} "
                                 "posts per bucket, one per second")
            if not base + getattr(self, f"{who}_peak_rate") <= limit:
                raise ValueError(f"{who}_peak_rate: base plus peak rate must be "
                                 f"at most {limit} posts per bucket, one per second")

    @property
    def grid(self) -> WeeklyGrid:
        return WeeklyGrid(self.buckets_per_week)

    @property
    def lag_width_s(self) -> int:
        return self.grid.bucket_width_s

    @property
    def span_s(self) -> int:
        return self.span_days * DAY_SECONDS

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
    counts = rng.poisson(lam=np.broadcast_to(lam, (n_weeks, n))).reshape(-1)
    slots = np.flatnonzero(counts)
    weeks, buckets = np.divmod(np.repeat(slots, counts[slots]), n)
    offsets = rng.integers(0, width, size=weeks.size)
    times = config.start_epoch + weeks * WEEK_SECONDS + buckets * width + offsets
    return np.sort(times[times < end])


def _reactions(config: SynthConfig, pop: Population, times: list[np.ndarray],
               first_post: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reactor (index into ``pop.users``), post row and time of every kept
    reaction. ``times[ui]`` holds user ui's sorted post times, which are the
    post rows from ``first_post[ui]`` on.

    For each author, member m of the sorted audience takes one ``random(T)``
    for the lag of each of the T posts, then one for the keep draw. A block
    of members takes all of theirs in one ``random((members, 2, T))`` call,
    which yields the same doubles in the same order.
    """
    grid = config.grid
    n = grid.buckets_per_week
    end = config.start_epoch + config.span_s
    kern = np.asarray(config.kernel, dtype=np.float64)
    cum = np.cumsum(kern)
    overrides = {(a, b): p for a, b, p in config.reaction_prob_overrides}
    tz = np.array([u.tz_offset_min for u in pop.users], dtype=np.int64)
    reactor, post_row, reacted_at = ([np.empty(0, dtype=np.int64)] for _ in range(3))
    for ui, spec in enumerate(pop.users):
        author = spec.user_id
        members = pop.audiences.get(author)
        t = times[ui]
        if not members or t.size == 0:
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(2, ui)))
        member_row = np.array([pop.index[m] for m in members], dtype=np.int64)
        p_edge = np.array([overrides.get((author, m), config.reaction_probability)
                           for m in members], dtype=np.float64)
        step = max(1, _BLOCK_DRAWS // (2 * t.size))
        for lo in range(0, len(members), step):
            rows = member_row[lo:lo + step]
            draws = rng.random((rows.size, 2, t.size))
            lag = np.searchsorted(cum, draws[:, 0], side="right")
            np.clip(lag, 0, kern.size - 1, out=lag)
            t_r = t + lag * config.lag_width_s
            avail = np.stack([pop.users[r].availability(n) for r in rows])
            a = np.take_along_axis(
                avail, grid.bucket_indices(t_r, tz[rows, None]), axis=1)
            keep = (t_r < end) & (draws[:, 1] < p_edge[lo:lo + step, None] * a)
            m, k = np.nonzero(keep)
            reactor.append(rows[m])
            post_row.append(first_post[ui] + k)
            reacted_at.append(t_r[m, k])
    return np.concatenate(reactor), np.concatenate(post_row), np.concatenate(reacted_at)


@dataclass(frozen=True)
class SynthResult:
    posts: PostTable
    reactions: ReactionTable
    edges: list[tuple[str, str]]
    users: UserTable
    truth: dict[str, int]
    population: Population
    paths: dict[str, str] = field(default_factory=dict)  # name -> file written


def generate(config: SynthConfig, out_dir=None,
             population: Population | None = None) -> SynthResult:
    """Run the event process and optionally write the canonical TSV files.

    ``population`` overrides the star topology for custom graphs; the event
    process and its determinism guarantees are unchanged.
    """
    pop = population if population is not None else resolve_population(config)
    grid = config.grid
    limit = grid.bucket_width_s
    for spec in pop.users:
        if not spec.base_rate + spec.peak_rate <= limit:
            raise ValueError(f"population: user {spec.user_id!r} has base plus "
                             f"peak rate above {limit} posts per bucket, one "
                             "per second")
    ids = np.array([u.user_id for u in pop.users], dtype=object)
    times = [_user_posts(config, spec, ui, grid) for ui, spec in enumerate(pop.users)]
    counts = np.array([t.size for t in times], dtype=np.int64)
    first_post = np.concatenate([[0], np.cumsum(counts)])
    # Post k of a user is "<user id>:p<k>".
    author = np.repeat(np.arange(ids.size), counts)
    suffixes = encode_ids([f":p{k}" for k in range(counts.max(initial=0))])
    post_ids = np.char.add(encode_ids(ids)[author],
                           suffixes[np.arange(author.size) - first_post[author]])
    networks = frozenset({config.network})
    posts = PostTable(networks if author.size else frozenset(), ids, author,
                      post_ids, np.concatenate([np.empty(0, dtype=np.int64), *times]))

    reactor, post_row, reacted_at = _reactions(config, pop, times, first_post)
    reactions = ReactionTable(networks if reactor.size else frozenset(), ids,
                              post_ids[post_row], reactor, reacted_at)

    users = UserTable.from_columns([config.network] * ids.size, ids,
                                   [u.tz_offset_min for u in pop.users],
                                   [None] * ids.size)
    truth = {a: ground_truth_peak(config, a, pop) for a in sorted(pop.audiences)}

    result = SynthResult(posts, reactions, list(pop.edges), users, truth, pop)
    if out_dir is not None:
        result.paths.update(write_synth_files(result, out_dir, config.network))
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


def write_synth_files(result: SynthResult, out_dir, network: str) -> dict[str, str]:
    """Write canonical TSVs plus the ground-truth sidecar; output is byte
    stable for a given result.

    Posts are sorted by (author, created_at, post_id) and reactions by
    (reacted_at, post_id, reactor), with ids compared as strings.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.tsv"
             for name in ("posts", "reactions", "edges", "users", "truth")}
    posts, reactions = result.posts, result.reactions
    # UTF-8 byte order is code-point order, so ids sort as str by their bytes.
    author = np.argsort(np.argsort(encode_ids(posts.users)))[posts.author]
    order = np.lexsort((posts.post_id, posts.created_at, author))
    write_columns(paths["posts"], [network, posts.users[posts.author[order]],
                                   posts.post_id[order], posts.created_at[order]])
    reactor = np.argsort(np.argsort(encode_ids(reactions.users)))[reactions.reactor]
    order = np.lexsort((reactor, reactions.post_id, reactions.reacted_at))
    write_columns(paths["reactions"], [
        network, reactions.post_id[order],
        reactions.users[reactions.reactor[order]], reactions.reacted_at[order]])
    write_columns(paths["edges"], [network, *zip(*sorted(result.edges))])
    users = result.users
    cities = [city or "-" for city in users.city.tolist()]
    write_columns(paths["users"], [users.users, users.tz_offset_min, cities, network])
    write_columns(paths["truth"], [*zip(*sorted(result.truth.items()))])
    return {k: str(v) for k, v in paths.items()}
