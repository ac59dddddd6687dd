"""Output checks for one `postsched all` run, independent of postsched.

Nothing here imports postsched. The S1 oracle recomputes first-degree
schedules from the TSV inputs and the run config with its own numpy code
(join, derivation window, delay histogram, circulant cross-correlation,
audience sum, normalisation), so a change to the engine's schedule code
cannot also change the reference it is checked against. Floats are parsed,
never compared as bytes, so a float format that round-trips still passes.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

WEEK_S = 7 * 86400
EPOCH_TO_MONDAY = 3 * 86400  # epoch (a Thursday) back to Monday 00:00
ORACLE_TOL = 1e-12
ROW_SUM_TOL = 1e-9
SCHEDULE_KINDS = ("S1", "S2", "S1w", "S2w", "MFU", "AFD")


def read_config(path) -> dict[str, str]:
    cfg = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                yield line.split("\t")


def _read_schedules(path, n_buckets: int, errors: list[str]):
    """(provenance, user) -> probabilities; appends row-level failures."""
    out = {}
    for user, prov, probs in _rows(path):
        p = np.array([float(x) for x in probs.split(",")])
        if p.size != n_buckets or not np.all(np.isfinite(p)) or np.any(p < 0):
            errors.append(f"{path.name}: bad row for {user}/{prov}")
        elif abs(p.sum() - 1.0) > ROW_SUM_TOL:
            errors.append(f"{path.name}: {user}/{prov} sums to {p.sum()!r}")
        out[prov, user] = p
    return out


def _bucket(t: np.ndarray, tz_min: int, width: int) -> np.ndarray:
    return ((t + tz_min * 60 + EPOCH_TO_MONDAY) % WEEK_S) // width


def s1_oracle(cfg: dict[str, str], authors: list[str]) -> dict[str, np.ndarray | None]:
    """Brute-force S1 per author from the TSV inputs; None means no signal."""
    network = cfg.get("network", "TW")
    n = int(cfg["buckets_per_week"])
    width = WEEK_S // n
    lag_s = int(cfg["delay_lag_s"])
    window_s = int(cfg["delay_window_s"])
    start = int(cfg["derivation_start"])
    end = start + int(cfg["derivation_days"]) * 86400 - 1

    post_time = {f[2]: int(f[3]) for f in _rows(cfg["posts"]) if f[0] == network}
    tz = {f[0]: int(f[1]) for f in _rows(cfg["users"]) if f[3] == network}
    audience = defaultdict(set)
    for f in _rows(cfg["edges"]):
        if f[0] == network:
            audience[f[1]].add(f[2])

    delays = []
    reacted = defaultdict(list)
    for f in _rows(cfg["reactions"]):
        t_p = post_time.get(f[1])
        t_r = int(f[3])
        if f[0] != network or t_p is None or f[2] == "-" or t_r < t_p:
            continue
        if start <= t_p <= end:
            delays.append(t_r - t_p)
        if start <= t_r <= end:
            reacted[f[2]].append(t_r)

    d = np.array(delays, dtype=np.int64)
    d = d[d < window_s]
    kernel = np.bincount(d // lag_s, minlength=window_s // lag_s) / d.size
    # out[k] = sum_m kernel[m] * profile[(k + m) mod n], as profile @ circ.
    circ = np.zeros((n, n))
    k, m = np.meshgrid(np.arange(n), np.arange(kernel.size), indexing="ij")
    np.add.at(circ, ((k + m) % n, k), kernel[m])

    result = {}
    for a in authors:
        profile = np.zeros(n)
        for b in audience.get(a, ()):
            if reacted.get(b):
                ts = np.array(reacted[b], dtype=np.int64)
                profile += np.bincount(_bucket(ts, tz.get(b, 0), width), minlength=n)
        q = profile @ circ
        result[a] = q / q.sum() if q.sum() > 0 else None
    return result


def _count_rows(path) -> int:
    return sum(1 for _ in _rows(path))


def check_run(in_dir: Path, out_dir: Path, sample_seed: int,
              n_sample: int) -> tuple[list[str], dict]:
    """Check one run's artifacts; returns (failures, quality counts).

    Quality counts: ``hits``/``authors`` for the planted-peak recovery and
    ``rg1_S1w``/``rg1_users`` from the gain report.
    """
    errors: list[str] = []
    cfg = read_config(in_dir / "synth.config")
    n = int(cfg["buckets_per_week"])
    ranks = int(cfg["ranks"])

    report = json.loads((out_dir / "ingest_report.json").read_text(encoding="utf-8"))
    lines = {key: _count_rows(cfg[key]) for key in ("posts", "reactions", "edges", "users")}
    for key, n_lines in lines.items():
        rep = report["files"][key]
        seen = rep["parsed"] + rep["malformed"] + rep.get("skipped_network", 0)
        if seen != n_lines:
            errors.append(f"ingest_report: {key} accounts for {seen} of {n_lines} lines")
    join = report["join"]
    if join["joined"] + join["dangling"] + join["negative_delay"] != report["files"]["reactions"]["parsed"]:
        errors.append(f"ingest_report: join invariant broken: {join}")

    sched = _read_schedules(out_dir / "schedules.tsv", n, errors)
    _read_schedules(out_dir / "baselines.tsv", n, errors)
    recommended = _read_schedules(out_dir / "recommended.tsv", n, errors)

    truth = {f[0]: int(f[1]) for f in _rows(in_dir / "truth.tsv")}
    rng = np.random.default_rng(sample_seed)
    pool = sorted(truth)
    sample = sorted(rng.choice(pool, size=min(n_sample, len(pool)), replace=False))
    for a, expected in s1_oracle(cfg, sample).items():
        got = sched.get(("S1", a))
        if expected is None or got is None:
            if (expected is None) != (got is None):
                errors.append(f"S1 oracle: {a} has signal in one of oracle/engine only")
        elif np.max(np.abs(got - expected)) > ORACLE_TOL:
            errors.append(f"S1 oracle: {a} off by {np.max(np.abs(got - expected)):.3g}")

    per_user = defaultdict(list)
    for f in _rows(out_dir / "ranked_times.tsv"):
        per_user[f[0]].append((int(f[1]), int(f[2])))
    users = {u for _, u in recommended}
    bad = [u for u in users if sorted(r for r, _ in per_user.get(u, ())) != list(range(1, ranks + 1))]
    if bad or set(per_user) != users:
        errors.append(f"ranked_times: {len(bad)} users without exactly {ranks} ranks")
    top = {u: dict(entries).get(1) for u, entries in per_user.items()}
    hits = sum(top.get(a) == b for a, b in truth.items())

    gain = list(_rows(out_dir / "gain_report.tsv"))
    if len(gain) != len(SCHEDULE_KINDS) * ranks or {f[0] for f in gain} != set(SCHEDULE_KINDS):
        errors.append(f"gain_report: {len(gain)} rows, expected {len(SCHEDULE_KINDS)} kinds x {ranks}")
    rg1 = [f for f in gain if f[0] == "S1w" and f[1] == "1"]
    if len(rg1) != 1 or rg1[0][2] == "NA":
        errors.append("gain_report: no defined S1w rank-1 gain")
        rg1 = [("S1w", "1", "0", "0")]
    quality = {"hits": hits, "authors": len(truth),
               "rg1_S1w": float(rg1[0][2]), "rg1_users": int(rg1[0][3])}
    return errors, quality
