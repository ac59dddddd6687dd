"""Personalized best-time-to-post schedules from social event logs.

The package aggregates timestamped post/reaction logs onto a weekly
15-minute grid, estimates the network's post-to-reaction delay
distribution, derives per-user posting schedules from audience behavior
(first/second degree, optionally reaction-weighted), and scores them
against timezone-cohort baselines with a reaction-gain metric on a
held-out window. A synthetic generator with planted ground truth serves
as the test oracle, and a CLI chains the stages over TSV files.
"""

from .errors import (
    ConfigError,
    IngestError,
    InsufficientDataError,
    PostschedError,
    UndefinedMetricError,
)
from .temporal import (
    ScheduleTable,
    TimeWindow,
    WeeklyGrid,
    delayed_profile,
    normalize_rows,
)
from .delays import (
    DelayKernel,
    cumulative_curve,
    estimate_delay_kernel,
    time_to_fraction,
)
from .ingest import (
    PairTable,
    PostTable,
    ReactionTable,
    SocialGraph,
    UserTable,
    build_profiles,
    join_reactions,
    load_graph,
    load_posts,
    load_reactions,
    load_users,
)
from .schedules import (
    Adjacency,
    VisibilityModel,
    audience_reaction_profile,
    cohort_label,
    cohort_sum,
    compute_weights,
    top_k_times,
    visible_posts,
)
from .evaluation import GainReport, build_eval_data, evaluate_schedules
from .analysis import (
    Cohort,
    MetricDistribution,
    cohort_aggregate,
    correlation,
    cosine_similarity,
    pairwise_distribution,
)
from .pipeline import DerivedSchedules, derive_schedules

__version__ = "0.1.0"

# The synthetic generator loads on first use of one of these names, so that
# a pipeline run does not load it.
_SYNTH = ("Population", "SynthConfig", "UserSpec", "generate", "ground_truth_peak")


def __getattr__(name: str):
    if name in _SYNTH:
        from . import synth
        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
