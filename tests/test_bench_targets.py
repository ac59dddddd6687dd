"""The functions that the benchmark's span tracer times exist.

``perfbench/spans.py`` wraps its targets by name and reports a target that
no longer exists as absent, so a renamed function would silently drop out
of the per-layer table. This reads its target lists without changing them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return sorted({*(t for ts in spans.LAYERS.values() for t in ts),
                   *spans.SELF.values(), *spans.CALLS.values()})


# Targets of functions that were removed or merged; the tracer reads their
# layers as absent until its lists are brought up to date.
STALE = {
    "pipeline.rank_all",
    "schedules.mfu_baseline", "schedules.afd_baseline", "schedules.uniform_schedule",
    "schedules.first_degree", "schedules.second_degree",
    "schedules.weighted_first_degree", "schedules.weighted_second_degree",
}


@pytest.mark.parametrize("target", [
    pytest.param(t, marks=pytest.mark.xfail(strict=True, reason="stale target"))
    if t in STALE else t for t in _targets()])
def test_span_target_is_a_postsched_function(target):
    module, _, name = target.rpartition(".")
    assert callable(getattr(importlib.import_module("postsched." + module), name, None))
