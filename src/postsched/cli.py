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
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from . import analysis, delays, evaluation, pipeline, schedules
from .errors import ConfigError, InsufficientDataError, PostschedError
from .ingest import (
    DEFAULT_MAX_MALFORMED_FRAC,
    NETWORKS,
    join_reactions,
    load_graph,
    load_posts,
    load_reactions,
    load_users,
    write_columns,
)
from .temporal import (
    DAY_FILTERS,
    DAY_SECONDS,
    DEFAULT_START_EPOCH,
    WEEK_SECONDS,
    ScheduleTable,
    TimeWindow,
    WeeklyGrid,
)


def _bool(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ValueError(value)


def _timestamp(value: str) -> int:
    """Epoch seconds, or a YYYY-MM-DD date at 00:00 UTC."""
    try:
        return int(value)
    except ValueError:
        day = datetime.strptime(value, "%Y-%m-%d")
    return int(day.replace(tzinfo=timezone.utc).timestamp())


def _synth_followers(spec: str) -> int | tuple[int, int]:
    """Followers per synthetic author: ``N``, or ``LO:HI`` drawn uniformly.
    Raises ValueError for any other text."""
    match = re.fullmatch(r"([0-9]+)(?::([0-9]+))?", spec)
    if match is None or (match[2] and int(match[1]) > int(match[2])):
        raise ValueError(spec)
    return int(match[1]) if match[2] is None else (int(match[1]), int(match[2]))


def _key(default, parse=str, rule=None, feeds=None):
    """One config key: its default, the parser of its text in a config file,
    its rule as a (check, message) pair, and the SynthConfig field it feeds.
    A value breaks the rule when the check returns false or raises
    ValueError."""
    return field(default=default,
                 metadata={"parse": parse, "rule": rule, "feeds": feeds})


_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run, one field per config key.

    Building a RunConfig checks every key's rule and then the rules that
    span keys, and raises ConfigError naming the key at fault. The synth_*
    range checks belong to `synth.SynthConfig`, which `stage_synth` runs.
    """

    posts: str | None = _key(None)
    reactions: str | None = _key(None)
    edges: str | None = _key(None)
    users: str | None = _key(None)
    network: str = _key("TW", rule=(lambda v: v in NETWORKS,
                                    f"must be one of {'/'.join(NETWORKS)}"))
    bidirectional: bool = _key(False, _bool)
    buckets_per_week: int = _key(672, int, (
        lambda v: v >= 1 and WEEK_SECONDS % v == 0,
        f"must divide a week of {WEEK_SECONDS} s exactly"))
    # The delay transform wraps lags modulo the week, so a longer window
    # would only add cost.
    delay_window_s: int = _key(delays.DEFAULT_WINDOW_S, int, (
        lambda v: 1 <= v <= WEEK_SECONDS,
        f"must be between 1 and {WEEK_SECONDS} s, one week"))
    delay_lag_s: int = _key(delays.DEFAULT_LAG_WIDTH_S, int)
    derivation_start: int | None = _key(None, _timestamp)
    derivation_days: int = _key(63, int, _AT_LEAST_ONE)
    evaluation_start: int | None = _key(None, _timestamp)
    evaluation_days: int = _key(56, int, _AT_LEAST_ONE)
    alpha: float = _key(1.0, float, (lambda v: 0 <= v < math.inf,
                                     "must be a finite number >= 0"))
    beta: float = _key(1.0, float, (lambda v: 0 < v < math.inf,
                                    "must be a finite number > 0"))
    ranks: int = _key(evaluation.DEFAULT_RANKS, int)
    day_filter: str = _key("weekday", rule=(lambda v: v in DAY_FILTERS,
                                            f"must be one of {'/'.join(DAY_FILTERS)}"))
    sample_budget: int = _key(20000, int, (
        lambda v: 1 <= v <= analysis.MAX_SAMPLE_BUDGET,
        f"must be between 1 and {analysis.MAX_SAMPLE_BUDGET}"))
    metric_bin_width: float = _key(0.05, float, (
        analysis.histogram_bins,
        f"must divide [-1, 1] evenly into at most {analysis.MAX_HISTOGRAM_BINS} bins"))
    min_cohort: int = _key(2, int, _AT_LEAST_ONE)
    seed: int = _key(0, int, (lambda v: v >= 0, "must be >= 0"))
    out: str = _key("out", rule=(lambda v: "\0" not in v,
                                 "must not contain a NUL character"))
    max_malformed_frac: float = _key(DEFAULT_MAX_MALFORMED_FRAC, float, (
        lambda v: 0 <= v <= 1, "must be in [0, 1]"))
    synth_authors: int = _key(20, int, feeds="n_authors")
    synth_followers: str = _key(
        "10", rule=(lambda v: _synth_followers(v) is not None,
                    "expected N or LO:HI with integers 0 <= LO <= HI"),
        feeds="followers_per_author")
    synth_span_days: int = _key(119, int, feeds="span_days")
    synth_author_base_rate: float = _key(0.5, float, feeds="author_base_rate")
    synth_author_peak_rate: float = _key(0.0, float, feeds="author_peak_rate")
    synth_follower_base_rate: float = _key(0.01, float, feeds="follower_base_rate")
    synth_follower_peak_rate: float = _key(1.0, float, feeds="follower_peak_rate")
    synth_peaks_per_star: int = _key(1, int, feeds="peaks_per_star")
    synth_weekday_peaks: bool = _key(True, _bool, feeds="peak_pool")
    synth_reaction_probability: float = _key(0.8, float, feeds="reaction_probability")
    synth_kernel: str = _key("delta:0", feeds="kernel")
    synth_start: int = _key(DEFAULT_START_EPOCH, _timestamp, feeds="start_epoch")

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.metadata["rule"] is None:
                continue
            check, message = f.metadata["rule"]
            try:
                holds = check(getattr(self, f.name))
            except ValueError:
                holds = False
            if not holds:
                raise ConfigError(f"{f.name}: {message}")
        # The rules that span keys; each key's own rule has held.
        width = WEEK_SECONDS // self.buckets_per_week
        if self.delay_lag_s != width:
            raise ConfigError(
                "buckets_per_week/delay_lag_s: delay_lag_s must equal the "
                f"bucket width, {WEEK_SECONDS} / buckets_per_week = {width} s")
        if self.delay_window_s % self.delay_lag_s:
            raise ConfigError("delay_window_s: must be a multiple of delay_lag_s")
        if not 1 <= self.ranks <= self.buckets_per_week:
            raise ConfigError("ranks: must be between 1 and buckets_per_week = "
                              f"{self.buckets_per_week}")
        if (self.derivation_start is not None and self.evaluation_start is not None
                and self.derivation_window.overlaps(self.evaluation_window)):
            raise ConfigError(
                "derivation_start/evaluation_start: derivation and evaluation "
                "windows overlap; they must be disjoint")
        _synth_kernel(self)

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


def parse_config(path) -> RunConfig:
    """Parse a key=value config file into a validated RunConfig."""
    keys = {f.name: f for f in fields(RunConfig)}
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
        if key not in keys:
            raise ConfigError(f"{key}: unknown configuration key")
        parse = keys[key].metadata["parse"]
        try:
            values[key] = parse(value)
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {value!r} as "
                              f"{parse.__name__.lstrip('_')}") from None
    return RunConfig(**values)


def _require_inputs(cfg: RunConfig, keys: tuple[str, ...]) -> None:
    for key in keys:
        value = getattr(cfg, key)
        if value is None:
            raise ConfigError(f"{key}: required for this subcommand")
        if not Path(value).exists():
            raise ConfigError(f"{key}: file not found: {value}")


def _synth_kernel(cfg: RunConfig) -> tuple[float, ...]:
    """The delay kernel that synth_kernel names, over the delay window's lags."""
    spec = cfg.synth_kernel
    n_lags = cfg.delay_window_s // cfg.delay_lag_s
    kind, _, arg = spec.partition(":")
    if kind not in ("delta", "geometric", "uniform"):
        raise ConfigError(f"synth_kernel: unknown kernel spec {spec!r}")
    try:
        number = (float if kind == "geometric" else int)(arg) if arg else None
    except ValueError:
        raise ConfigError(f"synth_kernel: bad number {arg!r} in {spec!r}") from None
    if kind == "delta":
        lag = number or 0
        if not 0 <= lag < n_lags:
            raise ConfigError(f"synth_kernel: delta lag {lag} out of range")
        mass = np.zeros(n_lags)
        mass[lag] = 1.0
    elif kind == "geometric":
        q = 0.5 if number is None else number
        if not 0.0 < q < 1.0:
            raise ConfigError("synth_kernel: geometric ratio must be in (0, 1)")
        mass = q ** np.arange(n_lags)
        mass /= mass.sum()
    else:
        width = n_lags if number is None else number
        if not 1 <= width <= n_lags:
            raise ConfigError(f"synth_kernel: uniform width {width} out of range")
        mass = np.zeros(n_lags)
        mass[:width] = 1.0 / width
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
    """The parsed input files of one invocation, and the schedules it
    derived.

    Each file is parsed on first use and kept, so `all` parses and joins
    its inputs once and a single subcommand parses only the files it reads.
    The `schedule` stage leaves the tables of schedules.tsv and
    baselines.tsv in ``handed``, so that `evaluate` and `analyze` in the
    same run take them instead of re-reading the files.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.handed: dict[Path, dict[str, ScheduleTable]] = {}

    def tables(self, path: Path) -> dict[str, ScheduleTable]:
        """The schedules of a `schedule` artifact, one table per provenance:
        those handed over for it, else read from the file, whose text
        round-trips each float64 (:func:`~postsched.ingest.float_texts`)."""
        if path in self.handed:
            return self.handed[path]
        return pipeline.read_schedules(path, self.cfg.grid.buckets_per_week)

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
    # Imported here: no other stage needs the generator, so a run of them
    # does not load it.
    from . import synth

    key_of = {f.metadata["feeds"]: f.name for f in fields(cfg) if f.metadata["feeds"]}
    # Every synth_* value passes through as it is, except these three.
    settings = {target: getattr(cfg, key) for target, key in key_of.items()}
    weekdays = np.nonzero(cfg.grid.day_mask("weekday"))[0]
    settings.update(followers_per_author=_synth_followers(cfg.synth_followers),
                    kernel=_synth_kernel(cfg),
                    peak_pool=(tuple(int(b) for b in weekdays)
                               if cfg.synth_weekday_peaks else None))
    try:
        config = synth.SynthConfig(
            seed=cfg.seed,
            buckets_per_week=cfg.buckets_per_week,
            network=cfg.network,
            **settings,
        )
    except ValueError as exc:
        # SynthConfig starts each message with the fields it is about.
        target, _, problem = str(exc).partition(": ")
        keys = "/".join(key_of.get(t, t) for t in target.split("/"))
        raise ConfigError(f"{keys}: {problem}") from None
    # The written synth.config evaluates on the days after the derivation
    # window, so the span must hold that window and at least one day more.
    if cfg.synth_span_days <= cfg.derivation_days:
        raise ConfigError(
            f"synth_span_days/derivation_days: synth_span_days = "
            f"{cfg.synth_span_days} must exceed derivation_days = "
            f"{cfg.derivation_days}, to leave at least one evaluation day")
    result = synth.generate(config, out_dir)
    # Ready-to-run config pointing at the generated files, with every key
    # that does not feed synth.
    run = replace(cfg, **{key: str(result.paths[key]) for key in INPUT_KEYS},
                  derivation_start=cfg.synth_start,
                  evaluation_start=(cfg.synth_start
                                    + cfg.derivation_days * DAY_SECONDS),
                  evaluation_days=min(cfg.evaluation_days,
                                      cfg.synth_span_days - cfg.derivation_days),
                  out=str(out_dir))
    lines = [f"{f.name}={getattr(run, f.name)}" for f in fields(run)
             if not f.metadata["feeds"]]
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
    write_columns(curve_path, [cfg.network, kernel.lag_starts(), curve], ",",
                  "network,lag_start_s,cumulative_fraction")

    quant_path = out_dir / "delay_quantiles.tsv"
    fractions = (0.25, 0.50, 0.75, 0.90)
    write_columns(quant_path, [[f"{p:.2f}" for p in fractions], [
        delays.time_to_fraction(delay, p, cfg.delay_window_s) for p in fractions]])
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

    kinds = pipeline.PERSONALIZED_KINDS
    sched_path = out_dir / "schedules.tsv"
    pipeline.write_schedules(sched_path, *(derived.personalized[k] for k in kinds))
    base_path = out_dir / "baselines.tsv"
    pipeline.write_schedules(base_path, derived.baselines)
    chosen = derived.chosen
    rec_path = out_dir / "recommended.tsv"
    pipeline.write_schedules(rec_path, chosen)
    ranked_path = out_dir / "ranked_times.tsv"
    pipeline.write_ranked_times(
        ranked_path, chosen,
        schedules.top_k_times(chosen.candidates.probabilities, cfg.ranks, grid,
                              cfg.day_filter),
        grid)
    # What reading the files back would give: a table per provenance that
    # has rows, in file order.
    inputs.handed[sched_path] = {k: derived.personalized[k] for k in kinds
                                 if len(derived.personalized[k])}
    inputs.handed[base_path] = derived.baselines.by_provenance()
    return [sched_path, base_path, rec_path, ranked_path]


def stage_evaluate(cfg: RunConfig, out_dir: Path, inputs: Inputs) -> list[Path]:
    _require_inputs(cfg, ("posts", "reactions", "users"))
    sched_path = _artifact(out_dir, "schedules.tsv", "schedule")
    base_path = _artifact(out_dir, "baselines.tsv", "schedule")
    posts, _ = inputs.posts
    users, _ = inputs.users
    join = inputs.join
    window = cfg.evaluation_window

    report = evaluation.evaluate_schedules(
        inputs.tables(sched_path), posts, join.pairs, users, window, cfg.grid,
        k=cfg.ranks, day_filter=cfg.day_filter,
        baselines=inputs.tables(base_path))
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


def _csv_field(text: str) -> str:
    """``text`` as a CSV field: quoted as RFC 4180 says if it holds , or "."""
    return '"%s"' % text.replace('"', '""') if "," in text or '"' in text else text


def stage_analyze(cfg: RunConfig, out_dir: Path, inputs: Inputs) -> list[Path]:
    _require_inputs(cfg, ("users",))
    sched_path = _artifact(out_dir, "schedules.tsv", "schedule")
    users, _ = inputs.users
    s1 = inputs.tables(sched_path).get("S1")
    if s1 is None:
        raise PostschedError(
            "no first-degree schedules found; run the `schedule` subcommand first")
    try:
        cohorts = analysis.city_cohorts(s1, users, cfg.grid, cfg.min_cohort)
    except ValueError as exc:
        raise PostschedError(f"{cfg.users}: {exc}") from None
    labels = [_csv_field(cohort.label) for cohort in cohorts]

    n = cfg.grid.buckets_per_week
    series_path = out_dir / "cohort_series.csv"
    write_columns(series_path, [
        np.repeat(labels, n), np.tile(np.arange(n), len(cohorts)),
        np.array([cohort.series for cohort in cohorts]).reshape(-1)],
        ",", "cohort,bucket,value")

    dist_path = out_dir / "metric_distributions.csv"
    members = [s1.probabilities[cohort.rows] for cohort in cohorts]
    rows = []
    for i, (la, sa) in enumerate(zip(labels, members)):
        for lb, sb in zip(labels[i:], members[i:]):
            for metric in analysis.METRICS:
                dist = analysis.pairwise_distribution(
                    sa, sb, metric, cfg.sample_budget, cfg.seed,
                    cfg.metric_bin_width)
                edges = ["%.6g" % x for x in dist.bin_edges.tolist()]
                rows += [(la, lb, metric, left, right, count) for left, right, count
                         in zip(edges, edges[1:], dist.counts.tolist())]
    write_columns(dist_path, [*zip(*rows)], ",",
                  "cohort_a,cohort_b,metric,bin_left,bin_right,count")
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
