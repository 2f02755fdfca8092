"""The protocol engine: mass splitting, vote flooding and termination.

Each node works in cycles: it locks in the mass it holds, draws a
processing delay in {1..B}, and only when the cycle completes does it
split the locked batch and transmit the pieces (a piece from a cycle
begun at step s lands at its receiver at step s + delay).  While
processing, the batch stays in the node's buffer and counts toward its
visible state, so at every vote-refresh instant the token-weighted mean
of node ratios equals the conserved global quotient; mass arriving
mid-cycle queues up and joins the node's next cycle.  At its completion
instants a node folds in its in-neighbors' currently exposed votes, so
the same per-cycle delay governs both mass and votes.  Vote windows
stretch to D*B steps so the extrema still flood the whole network
between refresh and check; all nodes flip their flags at one window
boundary, and afterwards the engine is quiescent.

With B = 1 every node completes a cycle every step and its arrivals
join its state at once: that is the synchronous protocol, and the
engine then keeps no arrival queue or cycle bookkeeping and draws no
delays.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .digraph import Digraph
from .errors import ConservationError, InvariantError, MassOverflowError
from .metrics import TrajectoryRecord
from .protocol import ceil_div, flood_votes, floor_div, routing_slots, split_route

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


UNIT_DELAY = DelayModel(max_delay=1)


@dataclass(frozen=True)
class InFlightEntry:
    """One transmitted message: c_y mass on c_z tokens from src to dst.

    emit_step is the step at which the sender's processing cycle began;
    ready_step is the step whose state first includes the message at the
    receiver.  Their difference is the drawn delay, always in [1, B].
    """

    src: int
    dst: int
    c_y: int
    c_z: int
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
            columns = (np.repeat(senders, counts), dst, c_y, c_z, np.repeat(emit_steps, counts))
            for src, d, cy, cz, emit_step in zip(*(c.tolist() for c in columns)):
                yield InFlightEntry(src, d, cy, cz, emit_step, ready_step)


class Engine:
    """Mutable run state of the protocol under a delay model.

    y/z hold each node's locked batch (after a split: the kept part).
    Under delays (B > 1) pend_y/pend_z queue the arrivals for the node's
    next cycle, busy_until is the step its current cycle completes and
    cycle_start the step it began; with B = 1 these are None and
    arrivals land in y/z directly.  y and pend_y are the rows of
    y_rows, z and pend_z those of z_rows.

    Flags flip all at once, at flag_step, and a flipped engine no longer
    steps; so every step runs at every node.
    """

    def __init__(self, cfg: RunConfig, delay_model: DelayModel = UNIT_DELAY):
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
        self.nodes = np.arange(self.n)
        self.slots = routing_slots(g.out_csr)
        self.in_csr = g.in_csr
        delayed = delay_model.max_delay > 1
        # initialization doubles both values so z >= 2 everywhere
        self.y_rows = np.zeros((1 + delayed, self.n), dtype=np.int64)
        self.z_rows = np.zeros((1 + delayed, self.n), dtype=np.int64)
        self.y, self.z = self.y_rows[0], self.z_rows[0]
        self.y[:] = 2 * np.asarray(cfg.y0, dtype=np.int64)
        self.z[:] = 2 * np.asarray(cfg.z0, dtype=np.int64)
        self.y_initial = self.y.copy()
        self.estimate = ceil_div(self.y, self.z)
        self.vote_max = self.estimate.copy()
        self.vote_min = floor_div(self.y, self.z)
        self.flag = np.zeros(self.n, dtype=bool)
        self.pend_y = self.pend_z = self.busy_until = self.cycle_start = None
        if delayed:
            self.pend_y, self.pend_z = self.y_rows[1], self.z_rows[1]
            self.busy_until = np.zeros(self.n, dtype=np.int64)
            self.cycle_start = np.zeros(self.n, dtype=np.int64)
            self.delay_rng = np.random.default_rng([cfg.seed, DELAY_STREAM])
            # the nodes whose cycle completed at the last step: at step 1, all
            self._completed = self.nodes
        self.route_rng = np.random.default_rng([cfg.seed, ROUTE_STREAM])
        self.expected_y_total = int(self.y.sum())
        self.expected_z_total = int(self.z.sum())
        self.steps_done = 0
        self.flag_step: Optional[int] = None
        # the global vote extrema of the current window, set at its start;
        # flooding runs until every node holds both
        self._window_max = self._window_min = 0
        self._flooding = True
        self.emission_log: Optional[EmissionLog] = None
        self.trajectory: Optional[list[TrajectoryRecord]] = None
        if cfg.record_trajectory:
            self.trajectory = [self._snapshot(0)]
            self.emission_log = EmissionLog()

    def total_y(self) -> np.ndarray:
        """Each node's visible mass: its locked batch plus queued arrivals."""
        return self.y_rows.sum(axis=0)

    def total_z(self) -> np.ndarray:
        return self.z_rows.sum(axis=0)

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
        return self.flag_step is not None

    def _votes_saturated(self) -> bool:
        """Whether every node holds the window's global vote extrema."""
        return not (
            np.count_nonzero(self.vote_max != self._window_max)
            or np.count_nonzero(self.vote_min != self._window_min)
        )

    def step(self) -> Engine:
        """Run one protocol step and return the engine (a no-op once flagged)."""
        if self.flag_step is not None:
            return self
        k = self.steps_done + 1
        delayed = self.pend_y is not None

        # window-start refresh is clock-synchronized bookkeeping: every
        # node resets its votes from its full visible holdings
        # ((k-1) mod window == 0 covers a one-step window too)
        if (k - 1) % self.window == 0:
            y, z = self.total_y(), self.total_z()
            self.vote_max[:] = ceil_div(y, z)
            self.vote_min[:] = floor_div(y, z)
            self._window_max = int(self.vote_max.max())
            self._window_min = int(self.vote_min.min())
            self._flooding = not self._votes_saturated()

        if delayed:
            # cycle starts, at the nodes whose last cycle completed at the
            # previous step: fold queued arrivals in, lock the batch, draw
            # the delay
            starting = self._completed
            if starting.size:
                self.y[starting] += self.pend_y[starting]
                self.z[starting] += self.pend_z[starting]
                self.pend_y[starting] = 0
                self.pend_z[starting] = 0
                lam = self.delay_model.draw_batch(self.delay_rng.random(starting.size), starting)
                self.cycle_start[starting] = k
                self.busy_until[starting] = k + lam - 1
            completing = self._completed = (self.busy_until == k).nonzero()[0]
        else:
            completing = self.nodes

        # completing nodes read their neighbors' exposed votes as of this
        # instant and fold them in.  Once every node holds the window's
        # extrema no hop can change a vote until the next refresh, so
        # flooding stops there.
        if self._flooding and completing.size:
            flood_votes(self.vote_max, self.vote_min, completing, self.in_csr)
            self._flooding = not self._votes_saturated()

        # processing completes: split the locked batch and transmit.  The
        # pieces join the receivers' state at this step's end, queued for
        # their next cycle under delays.  A node holding a single token
        # has nothing to split this cycle.
        splitting = completing[self.z[completing] > 1] if delayed else (self.z > 1).nonzero()[0]
        if splitting.size:
            log = self.emission_log
            estimate, dst, c_y, c_z, sent = split_route(
                self.y, self.z, splitting, self.slots, self.route_rng, log is not None
            )
            self.estimate[splitting] = estimate
            # flags are all clear while the engine steps, unless set from outside
            if self.cfg.check_invariants and np.count_nonzero(self.flag) and self.flag[dst].any():
                raise InvariantError(f"step {k}: mass arrived at a terminated node")
            np.add.at(self.pend_y if delayed else self.y, dst, c_y)
            np.add.at(self.pend_z if delayed else self.z, dst, c_z)
            if log is not None and dst.size:
                emitted = self.cycle_start[splitting] if delayed else np.full(splitting.size, k)
                log.append(k + 1, splitting, emitted, sent, dst, c_y, c_z)

        # window-boundary termination check: every node flips, or none
        if k % self.window == 0:
            flipping = np.count_nonzero(self.vote_max - self.vote_min <= 1)
            if flipping == self.n:
                self.estimate[:] = self.vote_min
                self.flag[:] = True
                self.flag_step = k
                logger.debug("all nodes terminated at step %d", k)
            elif flipping:
                raise InvariantError(
                    f"step {k}: termination flags did not flip simultaneously"
                )
            if self.cfg.check_invariants:
                self._audit_votes(k)

        if self.cfg.check_invariants:
            self._check_conservation(k)
        self.steps_done = k
        if self.trajectory is not None:
            self.trajectory.append(self._snapshot(k))
        return self

    def _audit_votes(self, k: int) -> None:
        """At a check, flooded extrema must equal the window-start extrema."""
        if not self._votes_saturated():
            raise InvariantError(
                f"step {k}: vote flooding missed the global extrema "
                f"({self._window_max}, {self._window_min}) within one window"
            )

    def _check_conservation(self, k: int) -> None:
        got_y = int(self.y_rows.sum())
        got_z = int(self.z_rows.sum())
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
        while self.flag_step is None and self.steps_done < self.cfg.max_steps:
            self.step()
        if self.flag_step is None:
            logger.info("run did not converge within max_steps=%d", self.cfg.max_steps)
        return self.outcome()
