"""Lockstep driver: vote exchange, mass splitting, synchronous delivery.

Every step runs the same ordered phases at all active nodes at once,
as array operations: window-start vote refresh, one-hop vote flooding,
mass splitting with same-step delivery, and the window-boundary
termination check.  All nodes flip their flags at one window boundary;
afterwards the engine is quiescent.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .digraph import Digraph
from .errors import ConservationError, InvariantError, MassOverflowError
from .metrics import TrajectoryRecord
from .protocol import ceil_div, flood_votes, floor_div, route_pieces

logger = logging.getLogger(__name__)

INT64_MAX = int(np.iinfo(np.int64).max)

# Sub-stream tags: a run draws all its routing from one generator seeded
# by (seed, ROUTE_STREAM) and all its delays from one seeded by
# (seed, DELAY_STREAM).
ROUTE_STREAM = 0
DELAY_STREAM = 1


@dataclass
class RunConfig:
    """Inputs of one protocol run.

    diameter_bound may exceed the true diameter (a known upper bound);
    None uses the exact diameter.  recovery maps (node_id, estimate) to
    the node's reported solution; None reports the estimate itself.
    """

    graph: Digraph
    y0: Sequence[int]
    z0: Sequence[int]
    seed: int = 0
    diameter_bound: Optional[int] = None
    max_steps: int = 100_000
    record_trajectory: bool = False
    recovery: Optional[Callable[[int, int], float]] = None
    check_invariants: bool = True


@dataclass
class RunOutcome:
    """Result of one run; censored runs keep the full final state."""

    converged: bool
    termination_step: Optional[int]
    final_estimate: np.ndarray
    recovered_solution: Optional[list]
    steps_run: int
    final_y: np.ndarray
    final_z: np.ndarray
    trajectory: Optional[list[TrajectoryRecord]] = field(default=None, repr=False)


def _validate_config(cfg: RunConfig) -> int:
    """Common config validation; returns the window basis (D used)."""
    n = cfg.graph.n
    if len(cfg.y0) != n or len(cfg.z0) != n:
        raise ValueError(
            f"initial value lists must have length n={n}, "
            f"got {len(cfg.y0)} and {len(cfg.z0)}"
        )
    for j in range(n):
        if cfg.z0[j] < 1:
            raise ValueError(f"z0[{j}]={cfg.z0[j]} < 1: every node needs a token")
        if cfg.y0[j] < 0:
            raise ValueError(f"y0[{j}]={cfg.y0[j]} < 0: negative masses unsupported")
    # every per-node and in-transit quantity of a run is bounded by the
    # doubled totals, so they alone must fit the int64 state arrays
    for name, values in (("y0", cfg.y0), ("z0", cfg.z0)):
        doubled = 2 * sum(int(v) for v in values)
        if doubled > INT64_MAX:
            raise MassOverflowError(
                f"2*sum({name})={doubled} exceeds the int64 maximum {INT64_MAX}; "
                f"scale the initial values down"
            )
    d_used = cfg.graph.diameter if cfg.diameter_bound is None else cfg.diameter_bound
    if d_used < cfg.graph.diameter:
        raise ValueError(
            f"diameter_bound={d_used} is below the true diameter "
            f"{cfg.graph.diameter}; vote windows would be too short"
        )
    return d_used


class SyncEngine:
    """Mutable run state for the synchronous protocol."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.d_used = _validate_config(cfg)
        self.window = self.d_used
        if cfg.max_steps < self.window:
            raise ValueError(
                f"max_steps={cfg.max_steps} is below one window ({self.window})"
            )
        g = cfg.graph
        self.n = g.n
        self.out_csr = g.out_csr
        self.in_csr = g.in_csr
        # initialization doubles both values so z >= 2 everywhere
        self.y = 2 * np.asarray(cfg.y0, dtype=np.int64)
        self.z = 2 * np.asarray(cfg.z0, dtype=np.int64)
        self.y_initial = self.y.copy()
        self.estimate = ceil_div(self.y, self.z)
        self.vote_max = self.estimate.copy()
        self.vote_min = floor_div(self.y, self.z)
        self.flag = np.zeros(self.n, dtype=bool)
        self.route_rng = np.random.default_rng([cfg.seed, ROUTE_STREAM])
        self.expected_y_total = int(self.y.sum())
        self.expected_z_total = int(self.z.sum())
        self.steps_done = 0
        self.flag_step: Optional[int] = None
        self._window_start_max: Optional[np.ndarray] = None
        self._window_start_min: Optional[np.ndarray] = None
        self.trajectory: Optional[list[TrajectoryRecord]] = None
        if cfg.record_trajectory:
            self.trajectory = [self._snapshot(0)]

    def _snapshot(self, step: int) -> TrajectoryRecord:
        return TrajectoryRecord(
            step=step,
            y=self.y.copy(),
            z=self.z.copy(),
            estimate=self.estimate.copy(),
            vote_max=self.vote_max.copy(),
            vote_min=self.vote_min.copy(),
            flag=self.flag.astype(np.int8),
        )

    def all_flagged(self) -> bool:
        return bool(self.flag.all())

    def step(self) -> None:
        """Run one protocol step; a fully flagged engine is a no-op."""
        if self.all_flagged():
            return
        k = self.steps_done + 1
        active = np.flatnonzero(~self.flag)

        # window-start vote refresh ((k-1) mod D == 0 covers D == 1 too)
        if (k - 1) % self.window == 0:
            y, z = self.y[active], self.z[active]
            self.vote_max[active] = ceil_div(y, z)
            self.vote_min[active] = floor_div(y, z)
            if self.cfg.check_invariants:
                self._window_start_max = self.vote_max.copy()
                self._window_start_min = self.vote_min.copy()

        # one flooding hop: everyone broadcasts, then merges simultaneously;
        # terminated nodes no longer broadcast
        flood_votes(self.vote_max, self.vote_min, self.flag, active, self.in_csr)

        # mass splitting with same-step delivery; a node holding a single
        # token keeps it this step
        splitting = active[self.z[active] > 1]
        if splitting.size:
            self.estimate[splitting] = ceil_div(self.y[splitting], self.z[splitting])
            _, dst, c_y, c_z = route_pieces(self.y, self.z, splitting, self.out_csr, self.route_rng)
            if self.cfg.check_invariants and self.flag[dst].any():
                raise InvariantError(f"step {k}: mass arrived at a terminated node")
            np.add.at(self.y, dst, c_y)
            np.add.at(self.z, dst, c_z)

        # window-boundary termination check
        if k % self.window == 0:
            gap_ok = (self.vote_max - self.vote_min) <= 1
            flipping = ~self.flag & gap_ok
            if flipping.any():
                if self.cfg.check_invariants and not flipping[~self.flag].all():
                    raise InvariantError(
                        f"step {k}: termination flags did not flip simultaneously"
                    )
                self.estimate[flipping] = self.vote_min[flipping]
                self.flag |= flipping
                self.flag_step = k
                logger.debug("all nodes terminated at step %d", k)
            if self.cfg.check_invariants:
                self._audit_votes(k)

        if self.cfg.check_invariants:
            self._check_conservation(k)
        self.steps_done = k
        if self.trajectory is not None:
            self.trajectory.append(self._snapshot(k))

    def _audit_votes(self, k: int) -> None:
        """At a check, flooded extrema must equal the window-start extrema."""
        if self._window_start_max is None:
            return
        want_max = int(self._window_start_max.max())
        want_min = int(self._window_start_min.min())
        if (self.vote_max != want_max).any() or (self.vote_min != want_min).any():
            raise InvariantError(
                f"step {k}: vote flooding missed the global extrema "
                f"({want_max}, {want_min}) within one window"
            )

    def _check_conservation(self, k: int) -> None:
        got_y = int(self.y.sum())
        got_z = int(self.z.sum())
        if got_y != self.expected_y_total or got_z != self.expected_z_total:
            raise ConservationError(
                f"step {k}: mass ledger off, y {got_y} != {self.expected_y_total} "
                f"or z {got_z} != {self.expected_z_total}"
            )

    def outcome(self) -> RunOutcome:
        converged = self.all_flagged()
        recovered = None
        if converged:
            if self.cfg.recovery is not None:
                recovered = [self.cfg.recovery(j, int(self.estimate[j])) for j in range(self.n)]
            else:
                recovered = [int(v) for v in self.estimate]
        return RunOutcome(
            converged=converged,
            termination_step=self.flag_step,
            final_estimate=self.estimate.copy(),
            recovered_solution=recovered,
            steps_run=self.steps_done,
            final_y=self.y.copy(),
            final_z=self.z.copy(),
            trajectory=self.trajectory,
        )

    def run(self) -> RunOutcome:
        while not self.all_flagged() and self.steps_done < self.cfg.max_steps:
            self.step()
        if not self.all_flagged():
            logger.info(
                "run did not converge within max_steps=%d", self.cfg.max_steps
            )
        return self.outcome()


def step_sync(engine: SyncEngine) -> SyncEngine:
    """Advance the engine one step (test-facing decomposition of run_sync)."""
    engine.step()
    return engine


def run_sync(cfg: RunConfig) -> RunOutcome:
    """Run the synchronous protocol to termination or the step cap."""
    return SyncEngine(cfg).run()
