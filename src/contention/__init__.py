"""Simulation and exact analysis of a 3-player slotted contention game
with an age-based backoff protocol."""

from .schedule import Schedule, check_domination, parse_rational
from .protocols import (
    AgeBased,
    ConstantProb,
    Deadline,
    decision_probability,
    profile_from_json,
)
from .engine import (
    GameConfig,
    LatencyStats,
    TrialOutcome,
    run_trial,
    run_trials,
)
from .analysis import (
    bound_report,
    deadline_comparison,
    delta_bound,
    derive_constants,
    feasibility,
    min_truncation_k1,
    persistent_distribution,
    solve_expectations,
    y1_upper,
    y30_upper,
)

__all__ = [name for name in dir() if not name.startswith("_")]
