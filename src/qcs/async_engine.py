"""Bounded-delay driver: random per-node processing times.

Each node works in cycles: it locks in the mass it currently holds,
draws a processing delay in {1..B}, and only when the cycle completes
does it split the locked batch and transmit the pieces (delivery is
instantaneous; a piece from a cycle begun at step s lands in its
receiver's state at step s + delay).  While processing, the batch stays
in the node's buffer and counts toward its visible state, so at every
vote-refresh instant the token-weighted mean of node ratios equals the
conserved global quotient; mass arriving mid-cycle queues up and joins
the node's next cycle.  Vote flooding follows the asynchronous max/min
rule: at its completion instants a node folds in its in-neighbors'
currently exposed vote values, and the same per-cycle delay governs
both mass and votes.  Vote windows stretch to D*B steps so the extrema
still flood the whole network between refresh and check.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .errors import ConservationError, InvariantError
from .metrics import TrajectoryRecord
from .protocol import OutboundMessage, ceil_div, flood_votes, floor_div, route_pieces
from .sync_engine import DELAY_STREAM, ROUTE_STREAM, RunConfig, RunOutcome, _validate_config

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DelayModel:
    """Bounded discrete distribution over processing times {1..B}.

    pmf[i] is the probability of delay i+1; None means uniform.  A
    per-node table overrides the shared pmf row-by-row.  The probability
    of drawing the maximum delay B is what the delayed walk bounds need,
    exposed as min_max_delay_prob.
    """

    max_delay: int
    pmf: Optional[tuple[float, ...]] = None
    per_node_pmf: Optional[tuple[tuple[float, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {self.max_delay}")
        for row in self._rows():
            if len(row) != self.max_delay:
                raise ValueError(
                    f"pmf must have {self.max_delay} entries, got {len(row)}"
                )
            if any(p < 0 for p in row):
                raise ValueError("pmf entries must be nonnegative")
            if abs(sum(row) - 1.0) > 1e-9:
                raise ValueError(f"pmf must sum to 1, got {sum(row)}")

    def _rows(self) -> tuple[tuple[float, ...], ...]:
        if self.per_node_pmf is not None:
            return self.per_node_pmf
        if self.pmf is not None:
            return (self.pmf,)
        return (tuple(1.0 / self.max_delay for _ in range(self.max_delay)),)

    @cached_property
    def _cdf(self) -> np.ndarray:
        return np.cumsum(np.asarray(self._rows(), dtype=np.float64), axis=1)

    def row_index(self, node: int) -> int:
        return node if self.per_node_pmf is not None else 0

    def draw_batch(self, u: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Delays in {1..max_delay} by inverse CDF: nodes[i] draws with u[i]."""
        if self.per_node_pmf is None:
            idx = np.searchsorted(self._cdf[0], u, side="right")
        else:
            idx = (self._cdf[nodes] <= u[:, None]).sum(axis=1)
        return np.minimum(idx + 1, self.max_delay)

    def draw(self, rng: np.random.Generator, node: int) -> int:
        """One delay draw in {1..max_delay} (consumes one uniform)."""
        return int(self.draw_batch(np.array([rng.random()]), np.array([node]))[0])

    def max_delay_prob(self, node: int) -> float:
        return self._rows()[self.row_index(node)][self.max_delay - 1]

    def min_max_delay_prob(self, n: int) -> float:
        """min over nodes of the probability of drawing the max delay."""
        if self.per_node_pmf is not None:
            if len(self.per_node_pmf) != n:
                raise ValueError(
                    f"per_node_pmf has {len(self.per_node_pmf)} rows for n={n}"
                )
            return min(row[self.max_delay - 1] for row in self.per_node_pmf)
        return self._rows()[0][self.max_delay - 1]


@dataclass(frozen=True)
class InFlightEntry:
    """Log entry for one transmitted message batch.

    emit_step is the step at which the sender's processing cycle began;
    ready_step is the step whose state first includes the message at the
    receiver.  Their difference is the drawn delay, always in [1, B].
    """

    message: OutboundMessage
    emit_step: int
    ready_step: int


class EmissionLog:
    """Every message batch a run transmitted, stored one record per step.

    A step that transmitted appends one record: the step its messages
    become ready; per splitting node, its id, the step its cycle began
    and its message count; and per message, its destination and
    (c_y, c_z) totals.  The log sizes and iterates per message: len()
    counts messages, and iteration yields one InFlightEntry per message
    in emission order (by step, then by sender, then by the sender's
    out-neighbor order).
    """

    def __init__(self) -> None:
        # (ready_step, senders, emit_steps, counts, dst, c_y, c_z)
        self._records: list[tuple] = []
        self._messages = 0

    def append(
        self, ready_step: int, senders: np.ndarray, emit_steps: np.ndarray, counts: np.ndarray,
        dst: np.ndarray, c_y: np.ndarray, c_z: np.ndarray,
    ) -> None:
        self._records.append((ready_step, senders, emit_steps, counts, dst, c_y, c_z))
        self._messages += len(dst)

    def __len__(self) -> int:
        return self._messages

    def __iter__(self) -> Iterator[InFlightEntry]:
        for ready_step, senders, emit_steps, counts, dst, c_y, c_z in self._records:
            columns = (np.repeat(senders, counts), np.repeat(emit_steps, counts), dst, c_y, c_z)
            for src, emit_step, d, cy, cz in zip(*(c.tolist() for c in columns)):
                yield InFlightEntry(
                    message=OutboundMessage(src=src, dst=d, c_y=cy, c_z=cz),
                    emit_step=emit_step,
                    ready_step=ready_step,
                )


class AsyncEngine:
    """Mutable run state for the bounded-delay protocol."""

    def __init__(self, cfg: RunConfig, delay_model: DelayModel):
        self.cfg = cfg
        self.delay_model = delay_model
        self.d_used = _validate_config(cfg)
        self.window = self.d_used * delay_model.max_delay
        if cfg.max_steps < self.window:
            raise ValueError(
                f"max_steps={cfg.max_steps} is below one window ({self.window})"
            )
        g = cfg.graph
        self.n = g.n
        delay_model.min_max_delay_prob(self.n)  # validates per-node table size
        self.out_csr = g.out_csr
        self.in_csr = g.in_csr
        # hold = the locked processing batch (post-split: the kept part);
        # pend = arrivals queued for the node's next cycle
        self.hold_y = 2 * np.asarray(cfg.y0, dtype=np.int64)
        self.hold_z = 2 * np.asarray(cfg.z0, dtype=np.int64)
        self.pend_y = np.zeros(self.n, dtype=np.int64)
        self.pend_z = np.zeros(self.n, dtype=np.int64)
        self.y_initial = self.hold_y.copy()
        self.estimate = ceil_div(self.hold_y, self.hold_z)
        self.vote_max = self.estimate.copy()
        self.vote_min = floor_div(self.hold_y, self.hold_z)
        self.flag = np.zeros(self.n, dtype=bool)
        self.cycle_start = np.zeros(self.n, dtype=np.int64)
        self.next_start = np.ones(self.n, dtype=np.int64)
        self.busy_until = np.zeros(self.n, dtype=np.int64)
        self.route_rng = np.random.default_rng([cfg.seed, ROUTE_STREAM])
        self.delay_rng = np.random.default_rng([cfg.seed, DELAY_STREAM])
        self.expected_y_total = int(self.hold_y.sum())
        self.expected_z_total = int(self.hold_z.sum())
        self.steps_done = 0
        self.flag_step: Optional[int] = None
        self._window_start_max: Optional[np.ndarray] = None
        self._window_start_min: Optional[np.ndarray] = None
        self.emission_log: Optional[EmissionLog] = None
        self.trajectory: Optional[list[TrajectoryRecord]] = None
        if cfg.record_trajectory:
            self.trajectory = [self._snapshot(0)]
            self.emission_log = EmissionLog()

    @property
    def out_nbrs(self) -> list[np.ndarray]:
        """Per-node out-neighbor arrays (views into the out-edge CSR)."""
        indptr, targets = self.out_csr
        return [targets[indptr[j]:indptr[j + 1]] for j in range(self.n)]

    def total_y(self) -> np.ndarray:
        return self.hold_y + self.pend_y

    def total_z(self) -> np.ndarray:
        return self.hold_z + self.pend_z

    def _snapshot(self, step: int) -> TrajectoryRecord:
        return TrajectoryRecord(
            step=step,
            y=self.total_y(),
            z=self.total_z(),
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

        # window-start refresh is clock-synchronized bookkeeping: every
        # active node resets its votes from its full visible holdings
        if (k - 1) % self.window == 0:
            active = np.flatnonzero(~self.flag)
            ty = self.hold_y[active] + self.pend_y[active]
            tz = self.hold_z[active] + self.pend_z[active]
            self.vote_max[active] = ceil_div(ty, tz)
            self.vote_min[active] = floor_div(ty, tz)
            if self.cfg.check_invariants:
                self._window_start_max = self.vote_max.copy()
                self._window_start_min = self.vote_min.copy()

        # cycle starts: fold queued arrivals in, lock the batch, draw the delay
        starting = np.flatnonzero((self.next_start == k) & ~self.flag)
        if starting.size:
            self.hold_y[starting] += self.pend_y[starting]
            self.hold_z[starting] += self.pend_z[starting]
            self.pend_y[starting] = 0
            self.pend_z[starting] = 0
            lam = self.delay_model.draw_batch(self.delay_rng.random(starting.size), starting)
            self.cycle_start[starting] = k
            self.busy_until[starting] = k + lam - 1
            self.next_start[starting] = k + lam

        completing = np.flatnonzero((self.busy_until == k) & ~self.flag)

        # asynchronous vote rule: completing nodes read their neighbors'
        # exposed values as of this instant and fold them in; terminated
        # nodes expose nothing
        flood_votes(self.vote_max, self.vote_min, self.flag, completing, self.in_csr)

        # processing completes: split the locked batch and transmit; the
        # pieces land in the receivers' queues at this step's end.  A node
        # holding a single token has nothing to split this cycle.
        splitting = completing[self.hold_z[completing] > 1]
        if splitting.size:
            self.estimate[splitting] = ceil_div(self.hold_y[splitting], self.hold_z[splitting])
            sent, dst, c_y, c_z = route_pieces(
                self.hold_y, self.hold_z, splitting, self.out_csr, self.route_rng
            )
            if self.cfg.check_invariants and self.flag[dst].any():
                raise InvariantError(f"step {k}: mass arrived at a terminated node")
            np.add.at(self.pend_y, dst, c_y)
            np.add.at(self.pend_z, dst, c_z)
            if self.emission_log is not None and dst.size:
                self.emission_log.append(
                    k + 1, splitting, self.cycle_start[splitting], sent, dst, c_y, c_z
                )

        # stretched-window termination check
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
        if self._window_start_max is None:
            return
        want_max = int(self._window_start_max.max())
        want_min = int(self._window_start_min.min())
        if (self.vote_max != want_max).any() or (self.vote_min != want_min).any():
            raise InvariantError(
                f"step {k}: asynchronous vote flooding missed the global extrema "
                f"({want_max}, {want_min}) within one stretched window"
            )

    def _check_conservation(self, k: int) -> None:
        got_y = int(self.hold_y.sum() + self.pend_y.sum())
        got_z = int(self.hold_z.sum() + self.pend_z.sum())
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
            final_y=self.total_y(),
            final_z=self.total_z(),
            trajectory=self.trajectory,
        )

    def run(self) -> RunOutcome:
        while not self.all_flagged() and self.steps_done < self.cfg.max_steps:
            self.step()
        if not self.all_flagged():
            logger.info("run did not converge within max_steps=%d", self.cfg.max_steps)
        return self.outcome()


def step_async(engine: AsyncEngine) -> AsyncEngine:
    """Advance the engine one step (test-facing decomposition of run_async)."""
    engine.step()
    return engine


def run_async(cfg: RunConfig, delay_model: DelayModel) -> RunOutcome:
    """Run the bounded-delay protocol to termination or the step cap."""
    return AsyncEngine(cfg, delay_model).run()
