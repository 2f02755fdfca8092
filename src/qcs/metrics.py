"""Evaluation quantities computed from per-step mass rows and trial batches."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ErrorSeries:
    """Normalized error curve; degenerate marks an already-optimal start.

    truncated marks a curve stopped before its first undefined point,
    which leaves it empty when the k=0 point is undefined.
    """

    values: np.ndarray
    degenerate: bool
    truncated: bool = False


def normalized_error(
    masses: tuple[np.ndarray, np.ndarray],
    x_star: float,
    mode: str = "reciprocal",
) -> ErrorSeries:
    """Normalized distance-to-optimum series over a run's mass rows.

    `masses` is a (y, z) pair of 2-D arrays of one shape whose row k
    holds every node's masses at step k, as RunOutcome.mass_y and
    mass_z do.

    Per step k the node states are q_j[k] = y_j[k] / z_j[k].  In
    "reciprocal" mode the error compares 1/q_j[k] against x_star (the
    natural reading under the task-scheduling mapping, where the state
    approximates the reciprocal of the balanced utilization); "direct"
    mode compares q_j[k] itself.  The series is normalized by its k=0
    value, so e[0] = 1 whenever the start is not already optimal.

    A point is undefined when it is not finite, as when a node holds no
    mass in reciprocal mode.  The series then stops before the first
    undefined point, so it never holds NaN or inf.
    """
    if mode not in ("reciprocal", "direct"):
        raise ValueError(f"mode must be 'reciprocal' or 'direct', got {mode!r}")
    y, z = masses
    if y.ndim != 2 or y.shape != z.shape:
        raise ValueError(f"mass rows must be 2-D arrays of one shape, got {y.shape} and {z.shape}")
    if len(y) == 0:
        raise ValueError("mass rows are empty")
    target = float(x_star)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        states = y.astype(np.float64) / z.astype(np.float64)
        if mode == "reciprocal":
            states = 1.0 / states
        sums = ((states - target) ** 2).sum(axis=1)
        if sums[0] == 0.0:
            values, degenerate = np.zeros(len(sums)), True
        else:
            values, degenerate = np.sqrt(sums / sums[0]), False
    defined = np.isfinite(sums) & np.isfinite(values)
    if not defined.all():
        cut = int(np.argmin(defined))
        logger.warning("normalized_error: point %d is undefined, stopping the series before it", cut)
        return ErrorSeries(values=values[:cut], degenerate=degenerate, truncated=True)
    if degenerate:
        logger.warning("normalized_error: start is already optimal, returning zeros")
    return ErrorSeries(values=values, degenerate=degenerate)


@dataclass(frozen=True)
class TrialStats:
    """Summary statistics over identically configured trials.

    Non-converged trials enter convergence_steps censored at their step
    cap and are flagged in `censored`, never silently dropped.
    """

    trials: int
    convergence_steps: tuple[int, ...]
    censored: tuple[bool, ...]
    converged_count: int
    mean: float
    std: float
    min: int
    max: int
    fraction_within_bound: Optional[float] = None


def trial_stats(outcomes: Sequence, bound: Optional[Sequence[int]] = None) -> TrialStats:
    """Aggregate the RunOutcomes or TrialResults of repeated trials.

    `bound` holds one step count per outcome and adds the empirical
    fraction of trials that converged within their own bound (the
    one-sided completion-bound check; each random graph has its own
    bound); censored trials count as outside it.
    """
    if len(outcomes) == 0:
        raise ValueError("trial_stats needs at least one outcome")
    if bound is not None and len(bound) != len(outcomes):
        raise ValueError(f"trial_stats: {len(bound)} bounds for {len(outcomes)} outcomes")
    steps: list[int] = []
    censored: list[bool] = []
    within = 0
    for i, out in enumerate(outcomes):
        if out.converged:
            steps.append(out.termination_step)
            censored.append(False)
            if bound is not None and out.termination_step <= bound[i]:
                within += 1
        else:
            steps.append(out.steps_run)
            censored.append(True)
    arr = np.asarray(steps, dtype=np.float64)
    return TrialStats(
        trials=len(outcomes),
        convergence_steps=tuple(steps),
        censored=tuple(censored),
        converged_count=sum(1 for c in censored if not c),
        mean=float(arr.mean()),
        std=float(arr.std()),
        min=int(arr.min()),
        max=int(arr.max()),
        fraction_within_bound=None if bound is None else within / len(outcomes),
    )
