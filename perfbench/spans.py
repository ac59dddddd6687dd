"""Run one postsched CLI command in process with per-layer spans.

    python3 perfbench/spans.py <result.json> <module:function> <cli args...>

<module:function> is the CLI entry point (as in pyproject's [project.scripts]).
Before calling it, every target function below is wrapped by object identity
wherever a ``postsched.*`` module binds it, including dicts such as
``cli.STAGES``, so functions imported by name are wrapped too. A target
that no longer exists is reported as absent (null), not as an error.

Each wrapped call is a span. A layer's time counts only its outermost spans,
so a layer function calling another of the same layer is not counted twice.
A self time is the span minus the time covered by its direct child spans.
Counts come from return values and artifact sizes, so they repeat exactly.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

import numpy as np

# Layer time metric -> target functions ("module.function" under postsched).
LAYERS = {
    "cli.stage_ingest_report_s": ["cli.stage_ingest_report"],
    "cli.stage_ptr_s": ["cli.stage_ptr"],
    "cli.stage_schedule_s": ["cli.stage_schedule"],
    "cli.stage_evaluate_s": ["cli.stage_evaluate"],
    "cli.stage_analyze_s": ["cli.stage_analyze"],
    "ingest.load_posts_s": ["ingest.load_posts"],
    "ingest.load_reactions_s": ["ingest.load_reactions"],
    "ingest.load_meta_s": ["ingest.load_graph", "ingest.load_users"],
    "ingest.join_s": ["ingest.join_reactions"],
    "ingest.build_profiles_s": ["ingest.build_profiles"],
    "delays.kernel_s": ["delays.estimate_delay_kernel", "delays.cumulative_curve",
                        "delays.time_to_fraction"],
    "temporal.delayed_profile_s": ["temporal.delayed_profile"],
    "schedules.personalized_s": [
        "schedules.first_degree", "schedules.second_degree",
        "schedules.weighted_first_degree", "schedules.weighted_second_degree",
        "schedules.audience_reaction_profile", "schedules.visible_posts",
        "schedules.compute_weights"],
    "schedules.baselines_s": ["schedules.mfu_baseline", "schedules.afd_baseline",
                              "schedules.uniform_schedule"],
    "schedules.top_k_s": ["schedules.top_k_times"],
    "pipeline.write_s": ["pipeline.write_schedules", "pipeline.write_ranked_times"],
    "pipeline.read_s": ["pipeline.read_schedules"],
    "pipeline.rank_s": ["pipeline.rank_all"],
    "evaluation.eval_data_s": ["evaluation.build_eval_data"],
    "analysis.pairwise_s": ["analysis.pairwise_distribution"],
    "analysis.cohort_s": ["analysis.cohort_aggregate"],
    "synth.resolve_population_s": ["synth.resolve_population"],
    "synth.ground_truth_s": ["synth.ground_truth_peak"],
    "synth.write_files_s": ["synth.write_synth_files"],
}

# Self time metric -> target function.
SELF = {
    "pipeline.derive_self_s": "pipeline.derive_schedules",
    "evaluation.evaluate_self_s": "evaluation.evaluate_schedules",
    "synth.generate_self_s": "synth.generate",
}

# Call count metric -> target function.
CALLS = {
    "ingest.parse_calls": "ingest.load_posts",
    "ingest.join_calls": "ingest.join_reactions",
    "temporal.delayed_profile_calls": "temporal.delayed_profile",
    "schedules.top_k_calls": "schedules.top_k_times",
    "pipeline.read_calls": "pipeline.read_schedules",
}

# Metrics computed from spans, return values and artifacts.
DERIVED = ("cli.other_s", "ingest.rows_parsed", "ingest.parse_useful_ratio",
           "delays.kernel_nonzero_lags", "pipeline.write_bytes")

STAGE_METRICS = [m for m in LAYERS if m.startswith("cli.stage_")]
INGEST = ["ingest.load_posts_s", "ingest.load_reactions_s", "ingest.load_meta_s",
          "ingest.join_s", "ingest.build_profiles_s"]


def _find_attr(ret, attr):
    """First object in a return value (or tuple of them) with ``attr``."""
    for item in ret if isinstance(ret, tuple) else (ret,):
        if hasattr(item, attr):
            return getattr(item, attr)
    return None


class Tracer:
    """Open spans, per-layer and per-target times, and counts of one process."""

    def __init__(self):
        self.stack: list[float] = []          # child time per open span
        self.depth: Counter[str] = Counter()  # open spans per layer
        self.layer_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.rows_parsed: int | None = None
        self.posts_paths: set[str] = set()
        self.nonzero_lags: int | None = None
        self.write_bytes = 0

    def wrap(self, target: str, layer: str, fn):
        hook = getattr(self, "_hook_" + target.replace(".", "_"), None)

        @wraps(fn)
        def span(*args, **kwargs):
            self.depth[layer] += 1
            self.stack.append(0.0)
            t0 = perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = self.stack.pop()
                if self.stack:
                    self.stack[-1] += dt
                self.self_s[target] += dt - children
                self.depth[layer] -= 1
                if self.depth[layer] == 0:
                    self.layer_s[layer] += dt
                self.calls[target] += 1
            if hook is not None:
                hook(args, ret)
            return ret
        return span

    def _hook_ingest_load_posts(self, args, ret):
        parsed = _find_attr(ret, "parsed")
        if parsed is not None:
            self.rows_parsed = (self.rows_parsed or 0) + int(parsed)
        if args:
            self.posts_paths.add(str(args[0]))

    def _hook_delays_estimate_delay_kernel(self, args, ret):
        mass = _find_attr(ret, "mass")
        if mass is not None:
            self.nonzero_lags = max(self.nonzero_lags or 0, int(np.count_nonzero(mass)))

    def _hook_pipeline_write_schedules(self, args, ret):
        if args and os.path.exists(args[0]):
            self.write_bytes += os.path.getsize(args[0])

    _hook_pipeline_write_ranked_times = _hook_pipeline_write_schedules


def install(tracer: Tracer) -> set[str]:
    """Wrap every target wherever a postsched module binds it; return the
    targets that do not exist."""
    layer_of = {t: layer for layer, ts in LAYERS.items() for t in ts}
    layer_of.update({t: t for t in SELF.values()})
    wrapped = {}
    absent = set()
    for target, layer in layer_of.items():
        module, _, name = target.rpartition(".")
        try:
            fn = getattr(importlib.import_module("postsched." + module), name)
        except (ImportError, AttributeError):
            absent.add(target)
            continue
        if callable(fn):
            wrapped[id(fn)] = tracer.wrap(target, layer, fn)
        else:
            absent.add(target)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "postsched" and not mod_name.startswith("postsched."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrapped:
                        value[key] = wrapped[id(item)]
    return absent


def _count_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith("#"))


def metrics(tracer: Tracer, absent: set[str], main_s: float) -> dict:
    out: dict[str, float | int | None] = {}
    for layer, targets in LAYERS.items():
        out[layer] = None if absent.issuperset(targets) else tracer.layer_s[layer]
    for name, target in SELF.items():
        out[name] = None if target in absent else tracer.self_s[target]
    for name, target in CALLS.items():
        out[name] = None if target in absent else tracer.calls[target]
    stages = [out[m] for m in STAGE_METRICS if out[m] is not None]
    out["cli.other_s"] = main_s - sum(stages) if stages else None
    out["ingest.rows_parsed"] = tracer.rows_parsed
    out["ingest.parse_useful_ratio"] = (
        sum(_count_lines(p) for p in tracer.posts_paths) / tracer.rows_parsed
        if tracer.rows_parsed else None)
    out["delays.kernel_nonzero_lags"] = tracer.nonzero_lags
    writers = LAYERS["pipeline.write_s"]
    out["pipeline.write_bytes"] = None if absent.issuperset(writers) else tracer.write_bytes
    return out


def main() -> int:
    result_path, entry, *argv = sys.argv[1:]
    module, _, func = entry.partition(":")
    cli_main = getattr(importlib.import_module(module), func)
    tracer = Tracer()
    absent = install(tracer)
    sys.argv = [entry, *argv]
    t0 = perf_counter()
    code = cli_main()
    main_s = perf_counter() - t0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "main_s": main_s,
                   "metrics": metrics(tracer, absent, main_s)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
