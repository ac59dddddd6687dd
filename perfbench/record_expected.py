"""Record input digests and quality figures in ``expected.json``.

    python3 perfbench/record_expected.py FIRST_SEED LAST_SEED [WORKLOAD ...]

Run from the repository root. For each workload (default: all) and each seed
in the closed range it runs the benchmark's own `postsched synth` and one
checked `postsched all`, and stores the SHA-256 of posts/reactions/edges/users
and the peak-recovery and rank-1 S1w gain figures. Synth output must stay
byte-identical for a given config, and refactors must keep recommendations,
so these need recording again only when a workload's definition in
``run.py`` changes or a change to the engine's results is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import HERE, WORKLOADS, Bench


def main() -> int:
    first, last, *workloads = sys.argv[1:]
    path = HERE / "expected.json"
    for workload in workloads or WORKLOADS:
        for seed in range(int(first), int(last) + 1):
            bench = Bench(Path.cwd(), workload, seed)
            bench.expected = None
            bench.work.mkdir(parents=True, exist_ok=True)
            try:
                bench.synth()
                if not bench.failed:
                    bench.run_all(None)
            finally:
                shutil.rmtree(bench.work, ignore_errors=True)
            if bench.failed:
                print("\n".join(bench.errors), file=sys.stderr)
                return 1
            recorded = json.loads(path.read_text(encoding="utf-8"))
            recorded.setdefault(workload, {})[str(seed)] = {**bench.inputs, **bench.quality}
            path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"{workload} seed {seed}: {bench.quality}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
