"""Command-line pipeline driver.

Subcommands cover the whole batch flow over canonical TSV inputs:

    synth          generate a synthetic event log with planted ground truth
    ingest-report  parse + join everything and report data-quality counts
    ptr            estimate the post-to-reaction delay kernel and curves
    schedule       derive personalized schedules, baselines, ranked times
    evaluate       score schedules on the held-out window (reaction gain)
    analyze        cohort series and pairwise metric distributions
    all            chain ingest-report, ptr, schedule, evaluate, analyze

Configuration is a plain key=value file ('#' comments allowed); flags
--seed/--network/--out override the corresponding keys. Every run
writes a manifest with input/output digests so reruns can be verified
byte-for-byte. Exit codes: 0 success, 1 config validation, 2 runtime.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from . import analysis, delays, evaluation, pipeline, schedules, synth
from .errors import ConfigError, InsufficientDataError, PostschedError
from .ingest import (
    NETWORKS,
    join_reactions,
    load_graph,
    load_posts,
    load_reactions,
    load_users,
)
from .temporal import DAY_FILTERS, WEEK_SECONDS, TimeWindow, WeeklyGrid

DAY_SECONDS = 86400


@dataclass(frozen=True)
class RunConfig:
    posts: str | None = None
    reactions: str | None = None
    edges: str | None = None
    users: str | None = None
    network: str = "TW"
    bidirectional: bool = False
    buckets_per_week: int = 672
    delay_window_s: int = 86400
    delay_lag_s: int = 900
    derivation_start: int | None = None
    derivation_days: int = 63
    evaluation_start: int | None = None
    evaluation_days: int = 56
    alpha: float = 1.0
    beta: float = 1.0
    ranks: int = 32
    day_filter: str = "weekday"
    sample_budget: int = 20000
    metric_bin_width: float = 0.05
    min_cohort: int = 2
    seed: int = 0
    out: str = "out"
    max_malformed_frac: float = 0.01
    synth_authors: int = 20
    synth_followers: str = "10"
    synth_span_days: int = 119
    synth_author_base_rate: float = 0.5
    synth_author_peak_rate: float = 0.0
    synth_follower_base_rate: float = 0.01
    synth_follower_peak_rate: float = 1.0
    synth_peaks_per_star: int = 1
    synth_weekday_peaks: bool = True
    synth_reaction_probability: float = 0.8
    synth_kernel: str = "delta:0"
    synth_start: int = synth.DEFAULT_START_EPOCH

    @property
    def grid(self) -> WeeklyGrid:
        return WeeklyGrid(self.buckets_per_week)

    @property
    def derivation_window(self) -> TimeWindow:
        if self.derivation_start is None:
            raise ConfigError("derivation_start: required for this subcommand")
        return TimeWindow.from_days(self.derivation_start, self.derivation_days)

    @property
    def evaluation_window(self) -> TimeWindow:
        start = self.evaluation_start
        if start is None:
            start = self.derivation_window.end + 1
        return TimeWindow.from_days(start, self.evaluation_days)


def _parse_timestamp(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        pass
    try:
        dt = datetime.strptime(value, "%Y-%m-%d").replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
    except ValueError:
        raise ConfigError(f"{key}: expected epoch seconds or YYYY-MM-DD, "
                          f"got {value!r}") from None


def _coerce(key: str, value: str, target_type) -> object:
    if key in ("derivation_start", "evaluation_start", "synth_start"):
        return _parse_timestamp(value, key)
    try:
        if target_type is bool:
            if value.lower() in ("true", "1", "yes"):
                return True
            if value.lower() in ("false", "0", "no"):
                return False
            raise ValueError(value)
        if target_type is int:
            return int(value)
        if target_type is float:
            return float(value)
        return value
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {value!r} as "
                          f"{target_type.__name__}") from None


def _field_types() -> dict[str, type]:
    types: dict[str, type] = {}
    for f in fields(RunConfig):
        t = f.type if isinstance(f.type, str) else f.type.__name__
        base = t.split(" | ")[0]
        types[f.name] = {"str": str, "int": int, "float": float, "bool": bool}[base]
    return types


def parse_config(path) -> RunConfig:
    """Parse a key=value config file into a validated RunConfig."""
    types = _field_types()
    values: dict[str, object] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in types:
            raise ConfigError(f"{key}: unknown configuration key")
        values[key] = _coerce(key, value, types[key])
    cfg = RunConfig(**values)
    _validate_static(cfg)
    return cfg


def _validate_static(cfg: RunConfig) -> None:
    if cfg.network not in NETWORKS:
        raise ConfigError(f"network: must be one of {'/'.join(NETWORKS)}")
    if cfg.day_filter not in DAY_FILTERS:
        raise ConfigError(f"day_filter: must be one of {'/'.join(DAY_FILTERS)}")
    for key in ("derivation_days", "evaluation_days", "ranks", "sample_budget",
                "buckets_per_week", "min_cohort", "delay_window_s", "delay_lag_s"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key}: must be >= 1")
    for key, t in _field_types().items():
        if t is float and not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{key}: must be a finite number")
    if cfg.alpha < 0:
        raise ConfigError("alpha: must be >= 0")
    if not cfg.beta > 0:
        raise ConfigError("beta: must be > 0")
    if WEEK_SECONDS % cfg.buckets_per_week != 0:
        raise ConfigError(f"buckets_per_week: must divide a week of "
                          f"{WEEK_SECONDS} s exactly")
    if cfg.delay_lag_s != WEEK_SECONDS // cfg.buckets_per_week:
        raise ConfigError(
            f"delay_lag_s: must equal the bucket width, {WEEK_SECONDS} / "
            f"buckets_per_week = {WEEK_SECONDS // cfg.buckets_per_week} s")
    if cfg.delay_window_s % cfg.delay_lag_s != 0:
        raise ConfigError("delay_window_s: must be a multiple of delay_lag_s")
    try:
        analysis.histogram_bins(cfg.metric_bin_width)
    except ValueError:
        raise ConfigError("metric_bin_width: must divide [-1, 1] evenly into "
                          f"at most {analysis.MAX_HISTOGRAM_BINS} bins") from None
    _synth_followers(cfg.synth_followers)
    if cfg.derivation_start is not None and cfg.evaluation_start is not None:
        if cfg.derivation_window.overlaps(cfg.evaluation_window):
            raise ConfigError(
                "derivation_start/evaluation_start: derivation and evaluation "
                "windows overlap; they must be disjoint")


def _synth_followers(spec: str) -> int | tuple[int, int]:
    """Followers per synthetic author: ``N``, or ``LO:HI`` drawn uniformly."""
    match = re.fullmatch(r"([0-9]+)(?::([0-9]+))?", spec)
    if match is None or (match[2] and int(match[1]) > int(match[2])):
        raise ConfigError("synth_followers: expected N or LO:HI with integers "
                          f"0 <= LO <= HI, got {spec!r}")
    return int(match[1]) if match[2] is None else (int(match[1]), int(match[2]))


def _require_inputs(cfg: RunConfig, keys: tuple[str, ...]) -> None:
    for key in keys:
        value = getattr(cfg, key)
        if value is None:
            raise ConfigError(f"{key}: required for this subcommand")
        if not Path(value).exists():
            raise ConfigError(f"{key}: file not found: {value}")


def _parse_synth_kernel(spec: str, n_lags: int) -> tuple[float, ...]:
    kind, _, arg = spec.partition(":")
    if kind == "delta":
        lag = int(arg or 0)
        if not 0 <= lag < n_lags:
            raise ConfigError(f"synth_kernel: delta lag {lag} out of range")
        mass = np.zeros(n_lags)
        mass[lag] = 1.0
    elif kind == "geometric":
        q = float(arg or 0.5)
        if not 0.0 < q < 1.0:
            raise ConfigError("synth_kernel: geometric ratio must be in (0, 1)")
        mass = q ** np.arange(n_lags)
        mass /= mass.sum()
    elif kind == "uniform":
        width = int(arg or n_lags)
        if not 1 <= width <= n_lags:
            raise ConfigError(f"synth_kernel: uniform width {width} out of range")
        mass = np.zeros(n_lags)
        mass[:width] = 1.0 / width
    else:
        raise ConfigError(f"synth_kernel: unknown kernel spec {spec!r}")
    return tuple(float(x) for x in mass)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, subcommand: str, cfg: RunConfig,
                    inputs: list[Path], outputs: list[Path]) -> Path:
    manifest = {
        "subcommand": subcommand,
        "parameters": {f.name: getattr(cfg, f.name) for f in fields(RunConfig)},
        "inputs": {str(p): _sha256(Path(p)) for p in sorted(set(map(str, inputs)))},
        "outputs": {str(p): _sha256(Path(p)) for p in sorted(set(map(str, outputs)))},
    }
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _input_paths(cfg: RunConfig, keys: tuple[str, ...]) -> list[Path]:
    return [Path(getattr(cfg, k)) for k in keys if getattr(cfg, k)]


class Inputs:
    """The parsed input files of one invocation.

    Each file is parsed on first use and kept, so `all` parses and joins
    its inputs once and a single subcommand parses only the files it reads.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    @cached_property
    def posts(self):
        return load_posts(self.cfg.posts, self.cfg.network,
                          self.cfg.max_malformed_frac)

    @cached_property
    def reactions(self):
        return load_reactions(self.cfg.reactions, self.cfg.network,
                              self.cfg.max_malformed_frac)

    @cached_property
    def join(self):
        return join_reactions(self.posts[0], self.reactions[0])

    @cached_property
    def graph(self):
        return load_graph(self.cfg.edges, self.cfg.network,
                          self.cfg.bidirectional, self.cfg.max_malformed_frac)

    @cached_property
    def users(self):
        return load_users(self.cfg.users, self.cfg.network,
                          self.cfg.max_malformed_frac)


def _artifact(out_dir: Path, name: str, producer: str) -> Path:
    path = out_dir / name
    if not path.exists():
        raise PostschedError(
            f"missing artifact {path}; run the `{producer}` subcommand first")
    return path


def stage_synth(cfg: RunConfig, out_dir: Path, inputs: Inputs) -> list[Path]:
    n_lags = cfg.delay_window_s // cfg.delay_lag_s
    grid = cfg.grid
    pool = None
    if cfg.synth_weekday_peaks:
        pool = tuple(int(b) for b in np.nonzero(grid.day_mask("weekday"))[0])
    config = synth.SynthConfig(
        seed=cfg.seed,
        n_authors=cfg.synth_authors,
        followers_per_author=_synth_followers(cfg.synth_followers),
        span_days=cfg.synth_span_days,
        kernel=_parse_synth_kernel(cfg.synth_kernel, n_lags),
        lag_width_s=cfg.delay_lag_s,
        buckets_per_week=cfg.buckets_per_week,
        start_epoch=cfg.synth_start,
        author_base_rate=cfg.synth_author_base_rate,
        author_peak_rate=cfg.synth_author_peak_rate,
        follower_base_rate=cfg.synth_follower_base_rate,
        follower_peak_rate=cfg.synth_follower_peak_rate,
        peaks_per_star=cfg.synth_peaks_per_star,
        peak_pool=pool,
        reaction_probability=cfg.synth_reaction_probability,
        network=cfg.network,
    )
    result = synth.generate(config, out_dir)
    derivation_days = min(cfg.derivation_days, cfg.synth_span_days)
    eval_days = max(cfg.synth_span_days - derivation_days, 1)
    # Ready-to-run config pointing at the generated files.
    lines = [
        f"posts={result.paths['posts']}",
        f"reactions={result.paths['reactions']}",
        f"edges={result.paths['edges']}",
        f"users={result.paths['users']}",
        f"network={cfg.network}",
        f"buckets_per_week={cfg.buckets_per_week}",
        f"delay_window_s={cfg.delay_window_s}",
        f"delay_lag_s={cfg.delay_lag_s}",
        f"derivation_start={cfg.synth_start}",
        f"derivation_days={derivation_days}",
        f"evaluation_start={cfg.synth_start + derivation_days * DAY_SECONDS}",
        f"evaluation_days={min(cfg.evaluation_days, eval_days)}",
        f"alpha={cfg.alpha}",
        f"beta={cfg.beta}",
        f"ranks={cfg.ranks}",
        f"day_filter={cfg.day_filter}",
        f"sample_budget={cfg.sample_budget}",
        f"seed={cfg.seed}",
        f"out={out_dir}",
    ]
    run_cfg = out_dir / "synth.config"
    run_cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [Path(p) for p in result.paths.values()] + [run_cfg]


def stage_ingest_report(cfg: RunConfig, out_dir: Path,
                        inputs: Inputs) -> list[Path]:
    _require_inputs(cfg, ("posts", "reactions", "edges", "users"))
    _, posts_rep = inputs.posts
    _, react_rep = inputs.reactions
    graph, edges_rep = inputs.graph
    _, users_rep = inputs.users
    join = inputs.join
    reactors_present = bool(join.pairs.known_reactor.any())
    report = {
        "files": {
            "posts": vars(posts_rep),
            "reactions": vars(react_rep),
            "edges": vars(edges_rep),
            "users": vars(users_rep),
        },
        "join": {
            "joined": join.n_joined,
            "dangling": join.n_dangling,
            "negative_delay": join.n_negative_delay,
        },
        "graph": {
            "users": len(graph.users),
            "edges": graph.n_edges,
            "symmetric": graph.is_symmetric(),
        },
        "reactor_ids_present": reactors_present,
        "analysis_only": not reactors_present,
    }
    path = out_dir / "ingest_report.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return [path]


def stage_ptr(cfg: RunConfig, out_dir: Path, inputs: Inputs) -> list[Path]:
    _require_inputs(cfg, ("posts", "reactions"))
    delay = inputs.join.pairs.delay
    kernel = delays.estimate_delay_kernel(delay, cfg.delay_window_s,
                                          cfg.delay_lag_s)
    kernel_path = out_dir / "delay_kernel.tsv"
    delays.write_kernel_table(kernel, kernel_path)

    curve = delays.cumulative_curve(delay, cfg.delay_window_s, cfg.delay_lag_s)
    curve_path = out_dir / "cumulative_curve.csv"
    with open(curve_path, "w", encoding="utf-8") as fh:
        fh.write("network,lag_start_s,cumulative_fraction\n")
        for start, frac in zip(kernel.lag_starts(), curve):
            fh.write(f"{cfg.network},{int(start)},{frac:.17g}\n")

    quant_path = out_dir / "delay_quantiles.tsv"
    with open(quant_path, "w", encoding="utf-8") as fh:
        for p in (0.25, 0.50, 0.75, 0.90):
            t = delays.time_to_fraction(delay, p, cfg.delay_window_s)
            fh.write(f"{p:.2f}\t{t}\n")
    return [kernel_path, curve_path, quant_path]


def _derive(cfg: RunConfig, inputs: Inputs) -> pipeline.DerivedSchedules:
    posts, _ = inputs.posts
    graph, _ = inputs.graph
    users, _ = inputs.users
    pairs = inputs.join.pairs
    window = cfg.derivation_window
    usable = pairs.select(pairs.known_reactor)
    if not len(usable):
        raise PostschedError(
            "reactor ids are absent from the reaction log; this dataset is "
            "analysis-only and cannot drive schedule derivation")
    in_window = usable.select(window.mask(usable.post_time))
    try:
        kernel = delays.estimate_delay_kernel(in_window.delay, cfg.delay_window_s,
                                              cfg.delay_lag_s)
    except InsufficientDataError:
        raise PostschedError("no joined reactions inside the derivation window")
    return pipeline.derive_schedules(
        posts, usable, graph, users, cfg.grid, kernel, window,
        schedules.VisibilityModel(cfg.alpha, cfg.beta))


def stage_schedule(cfg: RunConfig, out_dir: Path, inputs: Inputs) -> list[Path]:
    _require_inputs(cfg, ("posts", "reactions", "edges", "users"))
    derived = _derive(cfg, inputs)
    grid = cfg.grid

    sched_path = out_dir / "schedules.tsv"
    pipeline.write_schedules(
        sched_path, *(derived.personalized[k] for k in pipeline.PERSONALIZED_KINDS))
    base_path = out_dir / "baselines.tsv"
    pipeline.write_schedules(base_path, derived.baselines)
    rec_path = out_dir / "recommended.tsv"
    pipeline.write_schedules(rec_path, derived.recommended)
    ranked_path = out_dir / "ranked_times.tsv"
    pipeline.write_ranked_times(
        ranked_path, derived.recommended,
        schedules.top_k_times(derived.recommended.probabilities, cfg.ranks, grid,
                              cfg.day_filter),
        grid)
    return [sched_path, base_path, rec_path, ranked_path]


def stage_evaluate(cfg: RunConfig, out_dir: Path, inputs: Inputs) -> list[Path]:
    _require_inputs(cfg, ("posts", "reactions", "users"))
    sched_path = _artifact(out_dir, "schedules.tsv", "schedule")
    base_path = _artifact(out_dir, "baselines.tsv", "schedule")
    posts, _ = inputs.posts
    users, _ = inputs.users
    join = inputs.join
    window = cfg.evaluation_window
    if cfg.derivation_start is not None and window.overlaps(cfg.derivation_window):
        raise ConfigError("evaluation_start: evaluation window overlaps the "
                          "derivation window")

    n = cfg.grid.buckets_per_week
    tables = pipeline.read_schedules(sched_path, n)
    report = evaluation.evaluate_schedules(
        tables, posts, join.pairs, users, window, cfg.grid,
        k=cfg.ranks, day_filter=cfg.day_filter,
        baselines=pipeline.read_schedules(base_path, n),
        baseline_users={u for t in tables.values() for u in t.users.tolist()})
    if all(r.rg_avg is None for r in report.rows):
        raise PostschedError(
            "evaluation produced no defined gains: no scheduled user posted "
            "inside the evaluation window; check evaluation_start/"
            "evaluation_days")
    tsv = out_dir / "gain_report.tsv"
    evaluation.write_gain_tsv(report, tsv)
    csv = out_dir / "gain_by_rank.csv"
    evaluation.write_gain_csv(report, csv)
    return [tsv, csv]


def stage_analyze(cfg: RunConfig, out_dir: Path, inputs: Inputs) -> list[Path]:
    _require_inputs(cfg, ("users",))
    sched_path = _artifact(out_dir, "schedules.tsv", "schedule")
    users, _ = inputs.users
    grid = cfg.grid
    s1 = pipeline.read_schedules(sched_path, grid.buckets_per_week).get("S1")
    if s1 is None:
        raise PostschedError(
            "no first-degree schedules found; run the `schedule` subcommand first")
    offsets = {u.user: u.tz_offset_min for u in users}
    row_of = {u: i for i, u in enumerate(s1.users.tolist())}

    def series(members):
        return s1.probabilities[[row_of[m] for m in members]]

    city_members: dict[str, list[str]] = {}
    for u in users:
        if u.city and u.user in row_of:
            city_members.setdefault(u.city, []).append(u.user)
    cohorts = {}
    cohort_sets = {"ALL": sorted(row_of)}
    for city, members in sorted(city_members.items()):
        if len(members) >= cfg.min_cohort:
            cohort_sets[city] = sorted(members)
    for label, members in cohort_sets.items():
        tz_counts = Counter(offsets.get(m, 0) for m in members)
        cohort_tz = tz_counts.most_common(1)[0][0]
        for m in members:
            off = offsets.get(m, 0)
            if (off - cohort_tz) * 60 % grid.bucket_width_s:
                raise PostschedError(
                    f"{cfg.users}: user {m!r} has tz offset {off} min, which is "
                    f"not a whole number of {grid.bucket_width_s // 60}-minute "
                    f"buckets from cohort {label!r} at {cohort_tz} min")
        cohorts[label] = analysis.cohort_aggregate(
            dict(zip(members, series(members))), offsets, cohort_tz, grid, label)

    series_path = out_dir / "cohort_series.csv"
    with open(series_path, "w", encoding="utf-8") as fh:
        fh.write("cohort,bucket,value\n")
        for label in sorted(cohorts):
            for bucket, value in enumerate(cohorts[label].series):
                fh.write(f"{label},{bucket},{value:.17g}\n")

    dist_path = out_dir / "metric_distributions.csv"
    labels = sorted(cohorts)
    with open(dist_path, "w", encoding="utf-8") as fh:
        fh.write("cohort_a,cohort_b,metric,bin_left,bin_right,count\n")
        for i, la in enumerate(labels):
            for lb in labels[i:]:
                sa = series(cohorts[la].members)
                sb = series(cohorts[lb].members)
                for metric in analysis.METRICS:
                    dist = analysis.pairwise_distribution(
                        sa, sb, metric, cfg.sample_budget, cfg.seed,
                        cfg.metric_bin_width)
                    for left, right, count in zip(dist.bin_edges[:-1],
                                                  dist.bin_edges[1:],
                                                  dist.counts):
                        fh.write(f"{la},{lb},{metric},{left:.6g},"
                                 f"{right:.6g},{int(count)}\n")
    return [series_path, dist_path]


STAGES = {
    "synth": stage_synth,
    "ingest-report": stage_ingest_report,
    "ptr": stage_ptr,
    "schedule": stage_schedule,
    "evaluate": stage_evaluate,
    "analyze": stage_analyze,
}

ALL_CHAIN = ("ingest-report", "ptr", "schedule", "evaluate", "analyze")

INPUT_KEYS = ("posts", "reactions", "edges", "users")


def _run(subcommand: str, cfg: RunConfig) -> list[Path]:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(cfg)
    if subcommand == "all":
        _require_inputs(cfg, INPUT_KEYS)
        outputs: list[Path] = []
        for name in ALL_CHAIN:
            outputs.extend(STAGES[name](cfg, out_dir, inputs))
        input_paths = _input_paths(cfg, INPUT_KEYS)
    else:
        outputs = STAGES[subcommand](cfg, out_dir, inputs)
        input_paths = [p for p in _input_paths(cfg, INPUT_KEYS) if p.exists()]
        if subcommand == "synth":
            input_paths = []
    outputs.append(_write_manifest(out_dir, subcommand, cfg, input_paths, outputs))
    return outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postsched",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Config defaults mirror the standard operating point: 15-minute "
            "weekly buckets (672 per week), a 24-hour delay window, a 63-day "
            "derivation window with a disjoint 56-day evaluation window, "
            "visibility model alpha=beta=1.0, and 32 evaluated ranks."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in list(STAGES) + ["all"]:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value run configuration file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--network", choices=NETWORKS, help="network override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        for key in ("out", "seed", "network"):
            value = getattr(args, key)
            if value is not None:
                cfg = replace(cfg, **{key: value})
        _validate_static(cfg)
        outputs = _run(args.subcommand, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (PostschedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
