"""Finite-time distributed optimization over digraphs with integer messages.

Nodes holding integer mass/token pairs repeatedly split and randomly
route their mass, certify quantized agreement through max/min vote
flooding, and terminate on their own in finitely many steps.  The
package provides one engine for the synchronous and bounded-delay
protocols, the closed-form completion bounds with an exact walk oracle,
the task scheduling and federated aggregation mappings, evaluation
metrics, and a reproducible experiment harness with a CLI.
"""

from .applications import (
    FederatedInstance,
    SchedulingInstance,
    federated_init,
    federated_recover,
    generic_init,
    generic_optimum,
    make_scheduling_recovery,
    scheduling_init,
    scheduling_utilizations,
)
from .bounds import (
    bounds_report,
    completion_step_bound,
    completion_step_bound_delayed,
    initial_state_error,
    target_quotient,
    token_walk_probability,
    visit_prob_bound,
    visit_prob_bound_delayed,
    windows_for_confidence,
    windows_for_confidence_delayed,
)
from .digraph import (
    Digraph,
    generate_random_digraph,
    is_strongly_connected,
)
from .engine import AsyncEngine, DelayModel, InFlightEntry, RunConfig, RunOutcome, SyncEngine, TrajectoryRecord
from .engine import run_async, run_sync, step_async, step_sync
from .errors import (
    CapacityExceededError,
    ConfigError,
    ConservationError,
    GraphGenerationError,
    InvalidInstanceError,
    InvariantError,
    MassOverflowError,
    NotStronglyConnectedError,
    ProtocolError,
    QcsError,
    TrialError,
)
from .experiments import (
    ExperimentConfig,
    parse_config,
    run_experiment,
    run_one_trial,
    run_trials,
)
from .metrics import ErrorSeries, TrialStats, normalized_error, trial_stats
from .protocol import ceil_div, floor_div, split_pieces

__version__ = "0.1.0"

__all__ = [
    "AsyncEngine",
    "CapacityExceededError",
    "ConfigError",
    "ConservationError",
    "DelayModel",
    "Digraph",
    "ErrorSeries",
    "ExperimentConfig",
    "FederatedInstance",
    "GraphGenerationError",
    "InFlightEntry",
    "InvalidInstanceError",
    "InvariantError",
    "MassOverflowError",
    "NotStronglyConnectedError",
    "ProtocolError",
    "QcsError",
    "RunConfig",
    "RunOutcome",
    "SchedulingInstance",
    "SyncEngine",
    "TrajectoryRecord",
    "TrialError",
    "TrialStats",
    "bounds_report",
    "ceil_div",
    "completion_step_bound",
    "completion_step_bound_delayed",
    "federated_init",
    "federated_recover",
    "floor_div",
    "generate_random_digraph",
    "generic_init",
    "generic_optimum",
    "initial_state_error",
    "is_strongly_connected",
    "make_scheduling_recovery",
    "normalized_error",
    "parse_config",
    "run_async",
    "run_experiment",
    "run_one_trial",
    "run_sync",
    "run_trials",
    "scheduling_init",
    "scheduling_utilizations",
    "split_pieces",
    "step_async",
    "step_sync",
    "target_quotient",
    "token_walk_probability",
    "trial_stats",
    "visit_prob_bound",
    "visit_prob_bound_delayed",
    "windows_for_confidence",
    "windows_for_confidence_delayed",
]
