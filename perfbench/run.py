"""Benchmark of `postsched all` on three synthetic log shapes.

Run from the repository root:

    python3 perfbench/run.py --workload log-heavy --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

A run alternates `postsched synth --seed` and `postsched all` on its output,
each in a fresh child process, one at a time, until ``--seconds`` have passed
and at least MIN_PASSES times. Setting up again before each `all` spreads the
setup samples over the whole run, like the `all` samples. Every synth must
produce the same bytes, and those must match the digests that
``expected.json`` records for the (workload, seed). Only `synth` and `all`
are invoked, with --config, --out and --seed. The first `all` is checked by
``check.py`` and its quality figures must match ``expected.json``; later ones
must reproduce its artifacts byte for byte.

With ``--trace 1`` a run does one traced `synth` (see ``spans.py``), then
alternates untraced and traced runs of `all`, and reports per-layer metrics.
The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import tomllib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import check  # noqa: E402
import spans  # noqa: E402

# Workload shapes; README.md says why each exists. `synth_authors` is scaled
# so that a run fits its time budget on 2 vCPUs while the layer shares each
# workload is meant to stress still hold.
COMMON = {"synth_span_days": "119", "synth_followers": "40"}
AUDIENCE = {"synth_authors": "40", "synth_author_base_rate": "0.1",
            "synth_follower_base_rate": "0.001", "synth_follower_peak_rate": "0.1"}
WORKLOADS = {
    "log-heavy": {"synth_authors": "16", "synth_kernel": "geometric:0.8"},
    "audience-slow": {**AUDIENCE, "synth_kernel": "geometric:0.97"},
    "audience-fast": {**AUDIENCE, "synth_kernel": "delta:0"},
}
MIN_PASSES = 3       # synth + all pairs per run, at least; metrics are medians
ORACLE_SAMPLE = 16   # authors checked against the S1 oracle
CHILD_TIMEOUT_S = 150
INPUT_FILES = ("posts", "reactions", "edges", "users")
QUALITY_REL_TOL = 1e-9
# Deterministic artifacts (README's stage table) that reruns must reproduce.
ARTIFACTS = ("ingest_report.json", "delay_kernel.tsv", "cumulative_curve.csv",
             "delay_quantiles.tsv", "schedules.tsv", "baselines.tsv",
             "recommended.tsv", "ranked_times.tsv", "gain_report.tsv",
             "gain_by_rank.csv", "cohort_series.csv", "metric_distributions.csv")

END_TO_END_UNITS = {"all_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "setup_peak_rss_mb": "MB"}
PER_LAYER = [*spans.LAYERS, *spans.SELF, *spans.CALLS, *spans.DERIVED,
             "trace.all_s", "trace.overhead_s"]


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio" if name.endswith("_ratio") else "count"


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def quality_errors(got: dict, want: dict) -> list[str]:
    bad = [k for k in ("hits", "authors", "rg1_users") if got[k] != want[k]]
    if not math.isclose(got["rg1_S1w"], want["rg1_S1w"], rel_tol=QUALITY_REL_TOL):
        bad.append("rg1_S1w")
    return [f"{k} is {got[k]}, expected.json has {want[k]}" for k in bad]


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stderr: str


class Bench:
    """One workload run inside a checkout: child processes and tallies."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench_work" / workload
        self.in_dir = self.work / "in"
        self.out_dir = self.work / "out"
        with open(root / "pyproject.toml", "rb") as fh:
            self.entry = tomllib.load(fh)["project"]["scripts"]["postsched"]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONDONTWRITEBYTECODE="1")
        with open(HERE / "expected.json", encoding="utf-8") as fh:
            self.expected = json.load(fh).get(workload, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.inputs: dict | None = None    # digests of the generated input
        self.quality: dict | None = None   # from the checked `all` run

    def record(self, what: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors)
        return not errors

    def child(self, args: list, traced: Path | None = None) -> Child:
        """Run the CLI in a fresh process. Wall time and peak RSS are of
        that process alone (os.wait4); it is killed after CHILD_TIMEOUT_S."""
        module, _, func = self.entry.partition(":")
        if traced is None:
            argv = [sys.executable, "-c",
                    f"import sys; from {module} import {func}; sys.exit({func}())"]
        else:
            traced.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "spans.py"), str(traced), self.entry]
        err_path = self.work / "stderr.txt"
        with open(err_path, "w", encoding="utf-8") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv + [str(a) for a in args], cwd=self.root,
                                    env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024,
                     err_path.read_text(encoding="utf-8")[-500:])

    def synth(self, traced: Path | None = None) -> Child:
        """Generate the input; every run must give the same bytes."""
        shutil.rmtree(self.in_dir, ignore_errors=True)
        cfg = self.work / "synth.config"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in
                               {**COMMON, **WORKLOADS[self.workload]}.items()),
                       encoding="utf-8")
        r = self.child(["synth", "--config", cfg, "--out", self.in_dir,
                        "--seed", self.seed], traced)
        errors = [f"exit {r.code}: {r.stderr.strip()}"] if r.code else []
        if not errors:
            got = {k: sha256(self.in_dir / f"{k}.tsv") for k in INPUT_FILES}
            want = self.inputs or self.expected
            if want is not None and any(got[k] != want[k] for k in INPUT_FILES):
                errors.append("input digests differ from "
                              + ("the first synth run" if self.inputs else "expected.json")
                              + "; runs on these inputs are not comparable")
            self.inputs = self.inputs or got
        self.record("synth", errors)
        return r

    def run_all(self, reference: dict | None, traced: Path | None = None
                ) -> tuple[Child, dict | None]:
        """One `all`. Without a reference its output gets the full checks
        and its artifact digests become the reference; with one, the
        artifacts must equal it."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        r = self.child(["all", "--config", self.in_dir / "synth.config",
                        "--out", self.out_dir], traced)
        what = f"{'traced ' if traced else ''}all run {self.attempted}"
        if r.code:
            self.record(what, [f"exit {r.code}: {r.stderr.strip()}"])
            return r, reference
        digests = {a: sha256(self.out_dir / a) for a in ARTIFACTS}
        if reference is not None:
            differ = [a for a in ARTIFACTS if digests[a] != reference[a]]
            self.record(what, [f"rerun changed {', '.join(differ)}"] if differ else [])
            return r, reference
        try:
            errors, self.quality = check.check_run(self.in_dir, self.out_dir,
                                                   self.seed, ORACLE_SAMPLE)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            errors = [f"output check raised {exc!r}"]
        if self.quality is not None and self.expected is not None:
            errors += quality_errors(self.quality, self.expected)
        return r, digests if self.record(what, errors) else None

    def run(self, seconds: float, traced: bool) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            values = self.run_traced(seconds) if traced else self.run_untraced(seconds)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                self.work.parent.rmdir()
            except OSError:  # another workload's run still uses it
                pass
        for line in self.errors[:20]:
            print(f"# FAILED {line}")
        if self.quality:
            q = self.quality
            print(f"# quality: peak_recovery {q['hits']}/{q['authors']} = "
                  f"{q['hits'] / q['authors']:.4f} ratio, rg1_S1w {q['rg1_S1w']:.6g} "
                  f"ratio over {q['rg1_users']} users")
        digest = hashlib.sha256(json.dumps(self.inputs, sort_keys=True).encode())
        print(f"# inputs sha256 {digest.hexdigest()}, "
              f"{'recorded' if self.expected else 'NOT RECORDED'} in expected.json; "
              f"fail_rate {self.failed}/{self.attempted} = "
              f"{self.failed / max(self.attempted, 1):.4f} ratio")
        return values

    def extras(self) -> dict:
        """Figures printed beside the end-to-end metrics, all ratios."""
        q = self.quality or {"hits": 0, "authors": 1, "rg1_S1w": 0.0}
        return {"fail_rate": self.failed / max(self.attempted, 1),
                "peak_recovery": q["hits"] / q["authors"], "rg1_S1w": q["rg1_S1w"]}

    def run_untraced(self, seconds: float) -> dict:
        setups: list[Child] = []
        runs: list[Child] = []
        reference = None
        deadline = perf_counter() + seconds
        while self.failed == 0 and (len(runs) < MIN_PASSES or perf_counter() < deadline):
            setups.append(self.synth())
            if self.failed == 0:
                r, reference = self.run_all(reference)
                runs.append(r)
        walls = sorted(r.wall_s for r in runs) or [0.0]
        print(f"# {self.workload} seed {self.seed}: medians of n={len(runs)} all "
              f"and n={len(setups)} synth runs; all_s max {walls[-1]:.4f} s")
        return {
            "all_s": statistics.median(walls),
            "peak_rss_mb": statistics.median([r.rss_mb for r in runs] or [0.0]),
            "setup_s": statistics.median(r.wall_s for r in setups),
            "setup_peak_rss_mb": statistics.median(r.rss_mb for r in setups),
        }

    def run_traced(self, seconds: float) -> dict:
        result = self.work / "spans.json"
        self.synth(traced=result)
        layers = json.loads(result.read_text())["metrics"] if self.failed == 0 else {}
        plain: list[Child] = []
        traced: list[tuple[Child, dict]] = []
        reference = None
        deadline = perf_counter() + seconds
        while self.failed == 0 and (not traced or perf_counter() < deadline):
            r, reference = self.run_all(reference)
            plain.append(r)
            # The traced run must reproduce the untraced artifacts exactly.
            r, _ = self.run_all(reference, traced=result)
            if r.code == 0:
                traced.append((r, json.loads(result.read_text())["metrics"]))
        values: dict[str, float | None] = {}
        for name in PER_LAYER:
            samples = [m.get(name) for _, m in traced]
            if name.startswith("synth."):
                values[name] = layers.get(name)
            elif not samples or None in samples:
                values[name] = None
            else:
                values[name] = statistics.median(samples)
        if traced:
            values["trace.all_s"] = statistics.median(r.wall_s for r, _ in traced)
            values["trace.overhead_s"] = values["trace.all_s"] - statistics.median(
                r.wall_s for r in plain)
        absent = [n for n, v in values.items() if v is None]
        print(f"# {self.workload} seed {self.seed}: medians of {len(traced)} traced "
              f"runs; absent: {', '.join(absent) or 'none'}")
        if traced:
            total = values["trace.all_s"]
            shares = {"ingest": sum(values[m] or 0.0 for m in spans.INGEST),
                      "delayed_profile": values["temporal.delayed_profile_s"] or 0.0,
                      "write": values["pipeline.write_s"] or 0.0}
            print("# shares of traced all_s: " + ", ".join(
                f"{k} {v / total:.1%}" for k, v in shares.items()))
        return values


def result_line(values: dict, units, attempted: int, failed: int) -> str:
    metrics = {name: {"value": values[name] or 0, "unit": units(name)}
               for name in values}
    return json.dumps({"correct": failed == 0 and attempted > 0,
                       "attempted": max(attempted, 1), "failed": failed,
                       "metrics": metrics})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "pyproject.toml").is_file() or not (root / "src" / "postsched").is_dir():
        print("perfbench: run from the root of a postsched checkout "
              "(pyproject.toml and src/postsched not found)", file=sys.stderr)
        return 2
    # A terminated run still stops its child and removes its work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    units = per_layer_unit if args.trace else (lambda n: END_TO_END_UNITS.get(n, "ratio"))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    table, attempted, failed = {}, 0, 0
    for workload in workloads:
        bench = Bench(root, workload, args.seed)
        table[workload] = bench.run(args.seconds, bool(args.trace))
        if args.workload == "all" and not args.trace:
            table[workload].update(bench.extras())
        attempted += bench.attempted
        failed += bench.failed
    if args.workload != "all":
        print(result_line(table[args.workload], units, attempted, failed))
        return 0
    print(f"{'metric':<30} {'unit':<6}" + "".join(f"{w:>15}" for w in workloads))
    for name in table[workloads[0]]:
        cells = "".join("absent".rjust(15) if table[w][name] is None
                        else f"{table[w][name]:>15.6g}" for w in workloads)
        print(f"{name:<30} {units(name):<6}{cells}")
    flat = {f"{w}/{n}": v for w, vals in table.items() for n, v in vals.items()}
    print(result_line(flat, lambda n: units(n.split("/", 1)[1]), attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
