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
    NoSignalError,
    PostschedError,
    UndefinedMetricError,
)
from .temporal import (
    ActionProfile,
    Schedule,
    TimeWindow,
    WeeklyGrid,
    aggregate_profile,
    delayed_profile,
    normalize_to_schedule,
)
from .delays import (
    DelayKernel,
    cumulative_curve,
    estimate_delay_kernel,
    time_to_fraction,
)
from .ingest import (
    PairTable,
    PostRecord,
    PostTable,
    ReactionRecord,
    ReactionTable,
    SocialGraph,
    UserMeta,
    build_profiles,
    join_reactions,
    load_graph,
    load_posts,
    load_reactions,
    load_users,
)
from .schedules import (
    Adjacency,
    RankedTimes,
    VisibilityModel,
    audience_reaction_profile,
    cohort_sum,
    compute_weights,
    top_k_times,
    uniform_schedule,
    visible_posts,
)
from .evaluation import (
    GainReport,
    evaluate_schedules,
    reaction_gain,
    rpm_at_rank,
    rpm_overall,
)
from .analysis import (
    Cohort,
    MetricDistribution,
    cohort_aggregate,
    correlation,
    cosine_similarity,
    pairwise_distribution,
)
from .synth import Population, SynthConfig, UserSpec, generate, ground_truth_peak
from .pipeline import DerivedSchedules, derive_schedules, expand_baselines

__version__ = "0.1.0"
