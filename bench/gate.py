"""Per-trial correctness gate and the output digest of a chunk.

The gate encodes the guarantees the README promises for every trial:
the run terminates on its own (not censored at its step cap), all nodes
agree within one unit, and the agreed values are the floor or ceiling
of the exact quotient.  Workloads that record trajectories also need a
finite normalized error curve that starts at 1.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Sequence

from qcs.experiments import TrialResult


def trial_failures(r: TrialResult, needs_error_series: bool = False) -> list[str]:
    """Reasons trial `r` is wrong; empty when it passes."""
    reasons = []
    if r.censored or not r.converged:
        reasons.append("censored")
    if r.spread > 1:
        reasons.append(f"spread {r.spread} > 1")
    if r.estimate < r.quotient_floor or r.estimate + r.spread > r.quotient_ceil:
        reasons.append(
            f"estimates {r.estimate}..{r.estimate + r.spread} outside "
            f"{r.quotient_floor}..{r.quotient_ceil}"
        )
    if needs_error_series:
        series = r.error_series
        if not series:
            reasons.append("error series missing")
        elif not all(math.isfinite(e) for e in series):
            reasons.append("error series not finite")
        elif series[0] != 1.0:
            reasons.append(f"error series starts at {series[0]}, not 1")
    return reasons


def chunk_digest(results: Sequence[Sequence[TrialResult]]) -> str:
    """sha256 over every trial's (steps_run, estimate, spread), config by config."""
    h = hashlib.sha256()
    for config_index, trials in enumerate(results):
        for r in trials:
            h.update(f"{config_index},{r.trial},{r.steps_run},{r.estimate},{r.spread};".encode())
    return h.hexdigest()


def combine_digests(digests: Iterable[str]) -> str:
    """One digest for a trial set from its chunks' digests, in chunk order."""
    return hashlib.sha256(",".join(digests).encode()).hexdigest()
