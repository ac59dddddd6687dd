"""Synthetic event-log generator with planted ground truth.

Builds star-shaped follower graphs where each author's followers share a
planted weekly activity peak, then simulates the full event process:

  * every user posts by a Poisson draw per bucket from their own weekly
    intensity (a base rate plus extra rate at their peak buckets). The draws
    equal numpy's ``Generator.poisson`` over the weeks x buckets grid, draw
    for draw: below a rate of 10 numpy multiplies uniform doubles one at a
    time, so for a sparse user the generator takes the same doubles from
    one block of ``Generator.random`` and moves the stream on by the doubles
    used. A busy user, or one with any rate of 10 or more, which numpy draws
    by rejection, calls ``Generator.poisson`` itself;
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
from bisect import bisect_left
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
    share_users,
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
# The 16,400-user, 17-week bench point draws 187M cells. A user's draws take
# one float64 block of uniforms, one per cell plus one per post; a block
# above this many doubles goes through numpy's own sampler, which holds an
# int64 count per cell. So either array stays within 2 GiB.
MAX_POISSON_CELLS = 1 << 28

# A user's block of uniforms for the Poisson draws holds this many standard
# deviations more than the doubles the draws take on average.
_POISSON_SLACK = 8.0

# The walk visits in Python each nonzero draw at the common rate and each
# cell at another rate, about a third of a microsecond each. Over 17 weeks
# of 672 buckets numpy's sampler was faster above about this many expected
# visits (2-vCPU x86, numpy 2.4), so such a user calls it instead.
_WALK_MAX_VISITS = 150.0

# Oracle scores are sums of at most a week of nonnegative terms; two whose
# relative gap is below this differ only by float64 rounding.
_TIE_REL_TOL = 1e-12


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


def _runs(u: np.ndarray, threshold: float):
    """Every position q where ``u[q] > threshold`` (a candidate), and the
    count that a multiplication-method draw starting at q gives.

    The count is the number of doubles u[q], u[q + 1], ... whose running
    product stays above the threshold. ``u`` ends in a 0.0 that no draw
    takes, so every run stops inside it.
    """
    q = np.flatnonzero(u > threshold)
    x = np.ones(q.size, dtype=np.int64)
    live, prod, pos = np.arange(q.size), u[q], q + 1
    while live.size:
        prod = prod * u[pos]
        more = prod > threshold
        live, prod, pos = live[more], prod[more], pos[more] + 1
        x[live] += 1
    return q, x


def _walk(u: np.ndarray, threshold: float, others: list[int],
          other_thresholds: list[float], n_cells: int):
    """Cells and counts of the nonzero draws among ``n_cells`` draws from
    the doubles in ``u``, and how many doubles they take; None if ``u`` runs
    out first. Every cell draws at ``threshold`` but those listed in
    ``others`` (ascending), which draw at their own."""
    size = u.size - 1    # the doubles before the 0.0 sentinel
    q, x = _runs(u, threshold)
    # Each double of a run but its last is at least the running product, so
    # it is a candidate too: the run from q[i] covers candidates i + 1 ..
    # i + x[i] - 1, and its last double is candidate i + x[i] or the first
    # position past a stretch of consecutive candidates.
    nxt = np.arange(q.size) + x
    nxt += q[np.minimum(nxt, q.size - 1)] == q + x
    q, x, nxt = q.tolist(), x.tolist(), nxt.tolist()
    cells: list[int] = []
    counts: list[int] = []
    i = c = p = 0    # next candidate, next cell, its first double
    for s, e in zip([*others, n_cells], [*other_thresholds, 0.0]):
        # Cells c .. s-1 draw at the common threshold, from double p on.
        while i < len(q) and q[i] - p < s - c:
            c += q[i] - p
            cells.append(c)
            counts.append(x[i])
            p, c, i = q[i] + x[i] + 1, c + 1, nxt[i]
        p, c = p + s - c, s
        if s == n_cells:
            break
        if p >= size:
            return None
        count, prod = 0, float(u[p])
        while prod > e:
            count += 1
            p += 1
            prod *= float(u[p])
        p += 1
        if count:
            cells.append(s)
            counts.append(count)
        c = s + 1
        i = bisect_left(q, p)
    if p > size:
        return None
    return np.array(cells, dtype=np.int64), np.array(counts, dtype=np.int64), p


def _poisson_events(rng: np.random.Generator, rates: np.ndarray, n_weeks: int):
    """Ascending flat cells (week * rates.size + bucket) and counts of the
    nonzero draws of ``rng.poisson(np.broadcast_to(rates, (n_weeks,
    rates.size)))``, leaving ``rng`` (a PCG64 generator) as that call would.

    For 0 < rate < 10 numpy draws by the multiplication method: it
    multiplies one double after another into a product that starts at 1.0
    and stops at the first product <= exp(-rate); the count is the number of
    doubles before that one. A rate of 0 takes no double. ``rng.random``
    gives the same doubles, so one block of them holds every draw, and the
    generator is then moved on by exactly the doubles used. A user with any
    rate of 10 or more, which numpy draws by rejection (PTRS), whose block
    would exceed MAX_POISSON_CELLS doubles, or whose walk would make more
    than _WALK_MAX_VISITS visits in Python, takes ``rng.poisson`` itself.
    """
    n = rates.size
    # Only buckets with a nonzero rate take doubles: cell a of the walk is
    # week a // k, active bucket a % k.
    active = np.flatnonzero(rates)
    k = active.size
    n_cells = n_weeks * k
    if n_cells == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lam = rates[active]
    # The median rate: the one that covers more than half the cells, if any.
    common = np.sort(lam)[k // 2]
    own = np.flatnonzero(lam != common)
    visits = n_weeks * ((k - own.size) * -math.expm1(-common) + own.size)
    mean = float(rates.sum()) * n_weeks
    size = int(n_cells + mean + _POISSON_SLACK * math.sqrt(mean)) + 1
    if lam.max() >= 10.0 or size > MAX_POISSON_CELLS or visits > _WALK_MAX_VISITS:
        counts = rng.poisson(np.broadcast_to(rates, (n_weeks, n))).reshape(-1)
        cells = np.flatnonzero(counts)
        return cells, counts[cells]
    others = (np.arange(n_weeks)[:, None] * k + own).reshape(-1).tolist()
    # math.exp is the C library's exp, which numpy's sampler calls.
    own_thresholds = [math.exp(-r) for r in lam[own].tolist()] * n_weeks
    bg = rng.bit_generator
    saved = bg.state
    u = np.zeros(size + 1)
    rng.random(out=u[:size])
    while (events := _walk(u, math.exp(-common), others, own_thresholds,
                           n_cells)) is None:
        u = np.concatenate([u[:-1], rng.random(size // 8 + 16), [0.0]])
    cells, counts, taken = events
    bg.state = saved
    bg.advance(taken)
    # advance() drops the buffered 32-bit half-word; put it back.
    state = bg.state
    state.update(has_uint32=saved["has_uint32"], uinteger=saved["uinteger"])
    bg.state = state
    weeks, j = np.divmod(cells, k)
    return weeks * n + active[j], counts


def _user_posts(config: SynthConfig, spec: UserSpec, user_index: int,
                grid: WeeklyGrid) -> np.ndarray:
    """Sorted post timestamps for one user, over the whole span."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(1, user_index)))
    n = grid.buckets_per_week
    width = grid.bucket_width_s
    end = config.start_epoch + config.span_s
    n_weeks = math.ceil(config.span_s / WEEK_SECONDS)
    cells, counts = _poisson_events(rng, spec.intensity(n), n_weeks)
    weeks, buckets = np.divmod(np.repeat(cells, counts), n)
    offsets = rng.integers(0, width, size=weeks.size)
    times = config.start_epoch + weeks * WEEK_SECONDS + buckets * width + offsets
    return np.sort(times[times < end])


def _lag_table(cum: np.ndarray) -> np.ndarray:
    """The lag of each of G equal bins of [0, 1) that holds no cumulative
    kernel boundary, and -1 for a bin that holds one. G is a power of two,
    at least 16 times the lags, so that ``u * G`` is exact."""
    bins = 1 << (16 * cum.size - 1).bit_length()
    edges = np.arange(bins + 1) / bins
    lo = np.searchsorted(cum, edges[:-1], side="right")
    hi = np.searchsorted(cum, edges[1:], side="left")
    return np.where(lo == hi, np.minimum(lo, cum.size - 1), -1)


def _lags(cum: np.ndarray, table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, u, "right")`` clipped to the last lag, for
    doubles in [0, 1); only keys in a bin with a boundary are searched."""
    lag = table[(u * table.size).astype(np.intp)]
    near = lag < 0
    lag[near] = np.minimum(np.searchsorted(cum, u[near], side="right"), cum.size - 1)
    return lag


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
    table = _lag_table(cum)
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
            lag = _lags(cum, table, draws[:, 0])
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
        # Peaks that meet modulo the grid add their rates in one bucket.
        lam = spec.intensity(grid.buckets_per_week)
        if not lam.max() <= limit:
            raise ValueError(f"population: user {spec.user_id!r} has base plus "
                             f"peak rate above {limit} posts per bucket, one "
                             f"per second: {lam.max():g} at bucket "
                             f"{int(np.argmax(lam))}")
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
    # Codes in id order, as every loaded table has them.
    posts, reactions, users = share_users(posts, reactions, users)
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
    oracle that the schedule pipeline must recover. Scores that tie in exact
    arithmetic (a uniform kernel makes many) can round apart, so a score
    within _TIE_REL_TOL of the best counts as a tie.
    """
    pop = population if population is not None else resolve_population(config)
    n = config.buckets_per_week
    members = pop.audience(user_id)
    agg = np.zeros(n)
    for member in members:
        agg += pop.spec(member).intensity(n)
    kern = np.asarray(config.kernel, dtype=np.float64)
    # twice[m % n:][:n] is agg rolled back by m: element k is agg[(k + m) % n].
    twice = np.concatenate([agg, agg])
    score = np.zeros(n)
    for m in np.flatnonzero(kern).tolist():
        score += kern[m] * twice[m % n:][:n]
    return int(np.flatnonzero(score >= score.max() * (1 - _TIE_REL_TOL))[0])


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
    # The tables share one ascending vocabulary, so codes sort as ids do.
    order = np.lexsort((posts.post_id, posts.created_at, posts.author))
    write_columns(paths["posts"], [network, posts.users[posts.author[order]],
                                   posts.post_id[order], posts.created_at[order]])
    order = np.lexsort((reactions.reactor, reactions.post_id, reactions.reacted_at))
    write_columns(paths["reactions"], [
        network, reactions.post_id[order],
        reactions.users[reactions.reactor[order]], reactions.reacted_at[order]])
    write_columns(paths["edges"], [network, *zip(*sorted(result.edges))])
    users = result.users
    cities = [city or "-" for city in users.city.tolist()]
    write_columns(paths["users"], [users.users, users.tz_offset_min, cities, network])
    write_columns(paths["truth"], [*zip(*sorted(result.truth.items()))])
    return {k: str(v) for k, v in paths.items()}
