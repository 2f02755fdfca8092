"""The protocol engine: mass splitting, vote flooding and termination.

Each node works in cycles: it locks in the mass it holds as its batch,
draws a processing delay in {1..B}, and only when the cycle completes
does it split the batch and transmit the pieces (a piece from a cycle
begun at step s lands at its receiver at step s + delay).  While
processing, the batch stays in the node's held pair, so at every
vote-refresh instant the token-weighted mean of node ratios equals the
conserved global quotient; mass arriving mid-cycle joins the held pair
behind the batch and the node's next cycle.  At its completion
instants a node folds in its in-neighbors' currently exposed votes, so
the same per-cycle delay governs both mass and votes.  Vote windows
stretch to D*B steps so the extrema still flood the whole network
between refresh and check; all nodes flip their flags at one window
boundary, and afterwards the engine is quiescent.

Every step is one masked pass over all n nodes: the nodes that complete
a cycle split their batches at once.  With B = 1 every node completes
every step and its batch is its whole held pair: that is the
synchronous protocol, which runs the same step with the batch rows
aliasing the held rows, keeps no cycle bookkeeping and draws no delays.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .digraph import Digraph, _integral
from .errors import ConservationError, InvariantError, MassOverflowError
from .protocol import RouteStream, flood_votes, route_bound, route_messages, routing_slots, split_route

logger = logging.getLogger(__name__)

INT64_MAX = int(np.iinfo(np.int64).max)

# the step cap when none is given, and experiments' ceiling on 100x a
# completion bound (1e9-1e15 steps), so that a stuck trial is censored
DEFAULT_MAX_STEPS = 100_000

# Sub-stream tags: a run draws all its routing from one PCG64 stream
# seeded by (seed, ROUTE_STREAM), read through a RouteStream, and all its
# delays from one generator seeded by (seed, DELAY_STREAM).
ROUTE_STREAM = 0
DELAY_STREAM = 1
# delays are drawn this many at a time (4 KiB): one call to the delay
# generator, and for a shared pmf one inverse-CDF pass, per block
_DELAY_BLOCK = 512


@dataclass(frozen=True)
class TrajectoryRecord:
    """Every node's state at the end of a step: masses, votes, estimates, flags.

    y and z are the held pairs, so they alone carry the conservation ledger.
    """

    step: int
    y: np.ndarray
    z: np.ndarray
    estimate: np.ndarray
    vote_max: np.ndarray
    vote_min: np.ndarray
    flag: np.ndarray

    def mass_totals(self) -> tuple[int, int]:
        """(total y, total z) over all nodes."""
        return int(self.y.sum()), int(self.z.sum())


@dataclass
class RunConfig:
    """Inputs of one protocol run.

    diameter_bound may exceed the true diameter (a known upper bound);
    None uses the exact diameter.  recovery maps (node_id, estimate) to
    the node's reported solution; None reports the estimate itself.
    record_trajectory keeps a full snapshot of every step and the
    emission log; record_masses keeps only each step's visible masses,
    all an error curve reads.
    """

    graph: Digraph
    y0: Sequence[int]
    z0: Sequence[int]
    seed: int = 0
    diameter_bound: Optional[int] = None
    max_steps: int = DEFAULT_MAX_STEPS
    record_trajectory: bool = False
    record_masses: bool = False
    recovery: Optional[Callable[[int, int], float]] = None
    check_invariants: bool = True


@dataclass
class RunOutcome:
    """Result of one run; censored runs keep the full final state.

    With record_masses, row k of mass_y/mass_z holds every node's
    visible y/z after step k (row 0: the doubled initial values).
    """

    converged: bool
    termination_step: Optional[int]
    final_estimate: np.ndarray
    recovered_solution: Optional[list]
    steps_run: int
    final_y: np.ndarray
    final_z: np.ndarray
    trajectory: Optional[list[TrajectoryRecord]] = field(default=None, repr=False)
    mass_y: Optional[np.ndarray] = field(default=None, repr=False)
    mass_z: Optional[np.ndarray] = field(default=None, repr=False)


def _refuse_non_integers(name: str, values) -> None:
    """Raise ValueError naming the first entry of `values` that is not an integer."""
    if (isinstance(values, np.ndarray) and values.dtype.kind in "iu") or all(map(_integral, set(map(type, values)))):
        return
    j = next(j for j, v in enumerate(values) if not _integral(type(v)))
    raise ValueError(f"{name}[{j}]={values[j]!r} is not an integer")


def _validate_config(cfg: RunConfig) -> tuple[int, np.ndarray, np.ndarray]:
    """Common config validation; returns the window basis (D used) and y0, z0 as arrays (of objects past int64)."""
    n = cfg.graph.n
    if len(cfg.y0) != n or len(cfg.z0) != n:
        raise ValueError(
            f"initial value lists must have length n={n}, "
            f"got {len(cfg.y0)} and {len(cfg.z0)}"
        )
    if not _integral(type(cfg.max_steps)):
        raise ValueError(f"max_steps={cfg.max_steps!r} is not an integer")
    if cfg.diameter_bound is not None and not _integral(type(cfg.diameter_bound)):
        raise ValueError(f"diameter_bound={cfg.diameter_bound!r} is not an integer")
    _refuse_non_integers("y0", cfg.y0)
    _refuse_non_integers("z0", cfg.z0)
    y0, z0 = np.asarray(cfg.y0), np.asarray(cfg.z0)
    # the first bad node is named, its token count checked before its mass
    if np.minimum.reduce(z0) < 1 or np.minimum.reduce(y0) < 0:
        j = int(((z0 < 1) | (y0 < 0)).argmax())
        if z0[j] < 1:
            raise ValueError(f"z0[{j}]={cfg.z0[j]} < 1: every node needs a token")
        raise ValueError(f"y0[{j}]={cfg.y0[j]} < 0: negative masses unsupported")
    # every per-node and in-transit quantity of a run is bounded by the
    # doubled totals, so they alone must fit the int64 state arrays
    for name, values in (("y0", y0), ("z0", z0)):
        doubled = 2 * sum(values.tolist())
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
    return d_used, y0, z0


@dataclass(frozen=True)
class DelayModel:
    """Bounded discrete distribution over processing times {1..B}.

    pmf[i] is the probability of delay i+1; per_node_pmf[j] is node j's
    row instead, and a model takes at most one of the two.  With neither
    the delays are uniform.  The probability of drawing the maximum delay
    B is what the delayed walk bounds need, exposed as min_max_delay_prob.
    """

    max_delay: int
    pmf: Optional[tuple[float, ...]] = None
    per_node_pmf: Optional[tuple[tuple[float, ...], ...]] = None

    def __post_init__(self) -> None:
        if not _integral(type(self.max_delay)):
            raise ValueError(f"max_delay={self.max_delay!r} is not an integer")
        if self.max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {self.max_delay}")
        if self.pmf is not None and self.per_node_pmf is not None:
            raise ValueError("give pmf or per_node_pmf, not both")
        for row in self.rows():
            if len(row) != self.max_delay:
                raise ValueError(
                    f"pmf must have {self.max_delay} entries, got {len(row)}"
                )
            if not all(map(math.isfinite, row)):
                raise ValueError(f"pmf entries must be finite, got {list(row)}")
            if any(p < 0 for p in row):
                raise ValueError("pmf entries must be nonnegative")
            if abs(sum(row) - 1.0) > 1e-9:
                raise ValueError(f"pmf must sum to 1, got {sum(row)}")

    def rows(self) -> tuple[tuple[float, ...], ...]:
        """The given pmf rows: the per-node table, else (pmf,); none for the
        uniform model, so a large uniform max_delay allocates nothing here."""
        if self.per_node_pmf is not None:
            return self.per_node_pmf
        return () if self.pmf is None else (self.pmf,)

    @cached_property
    def _cdf(self) -> np.ndarray:
        rows = self.rows() or ((1.0 / self.max_delay,) * self.max_delay,)
        return np.cumsum(np.asarray(rows, dtype=np.float64), axis=1)

    def draw_batch(self, u: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Delays in {1..max_delay} by inverse CDF: nodes[i] draws with u[i].

        `nodes` is read only under a per-node table.
        """
        if self.per_node_pmf is None:
            below = self._cdf[0].searchsorted(u, side="right")
        else:
            # the count of each draw's CDF entries at or below u; rows by
            # delay, columns by draw, so the sum runs over whole rows
            below = (self._cdf[nodes].T <= u).sum(axis=0)
        return np.minimum(below + 1, self.max_delay)

    def draw(self, rng: np.random.Generator, node: int) -> int:
        """One delay draw in {1..max_delay} (consumes one uniform)."""
        return int(self.draw_batch(np.array([rng.random()]), np.array([node]))[0])

    def min_max_delay_prob(self, n: int) -> float:
        """min over nodes of the probability of drawing the max delay."""
        if self.per_node_pmf is not None and len(self.per_node_pmf) != n:
            raise ValueError(f"per_node_pmf has {len(self.per_node_pmf)} rows for n={n}")
        rows = self.rows()
        return min(row[-1] for row in rows) if rows else 1.0 / self.max_delay


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


class Engine:
    """Mutable run state of the protocol under a delay model.

    held is one (2, n) array of each node's visible (y, z), its locked
    batch and the arrivals behind it: the ledger, which the vote refresh,
    mass record and snapshots read; y and z are its rows.  batch holds
    the locked batches, copied from held under the mask of the nodes
    starting a cycle; with B = 1 batch is held itself.  A step splits
    under two masks over all n nodes: the nodes whose cycle completes
    (all with B = 1), and of those the ones whose batch has z > 1.  Under
    delays busy_until is the step a node's cycle completes and
    cycle_start the step it began, else None.  vote_max and vote_min are
    the rows of one votes array, compared at once with the extrema.

    Termination is the one value flag_step: every node's flag flips
    there at once, and a flipped engine no longer steps.
    """

    def __init__(self, cfg: RunConfig, delay_model: DelayModel = UNIT_DELAY):
        self.cfg = cfg
        self.delay_model = delay_model
        self.d_used, y0, z0 = _validate_config(cfg)
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
        self.route_rng = RouteStream(np.random.PCG64([cfg.seed, ROUTE_STREAM]))
        # every draw's bounds are slot counts, so one check covers them all
        self._route_draw = partial(self.route_rng.draw, most=route_bound(self.slots[1]))
        self.voting = routing_slots(g.in_csr)
        self.held = np.zeros((2, self.n), dtype=np.int64)
        self.y, self.z = self.held
        # initialization doubles both values so z >= 2 everywhere
        self.y[:], self.z[:] = y0, z0
        self.held += self.held
        self._votes = np.empty((2, self.n), dtype=np.int64)
        self.vote_max, self.vote_min = self._votes[0], self._votes[1]
        self._refresh_votes(self.y.copy(), self.z)
        # each node's last split batch (before its first: its doubled pair)
        self._last_split = self.held.copy()
        # the nodes whose cycle completed at the last step (at step 1, all)
        # as a mask and as ids
        self._done, self._completed = np.ones(self.n, dtype=bool), self.nodes
        self.batch, self.busy_until, self.cycle_start = self.held, None, None
        if delay_model.max_delay > 1:
            self.batch = self.held.copy()
            self.busy_until = np.zeros(self.n, dtype=np.int64)
            self.cycle_start = np.zeros(self.n, dtype=np.int64)
            self.delay_rng = np.random.default_rng([cfg.seed, DELAY_STREAM])
            # the delay stream's values drawn ahead, unused from _delay_next
            # on: delays under a shared pmf, uniforms under a per-node table
            self._per_node_delays = delay_model.per_node_pmf is not None
            self._delay_block = np.empty(0, dtype=np.float64 if self._per_node_delays else np.int64)
            self._delay_next = 0
        self._expected_totals = np.add.reduce(self.held, axis=1).tolist()
        self.steps_done = 0
        self.flag_step: Optional[int] = None
        # the global vote extrema of the current window, set at its start,
        # in the votes' layout: flooding runs until the two arrays match
        self._extrema = np.zeros((2, self.n), dtype=np.int64)
        self._flooding = True
        record = cfg.record_trajectory
        self.trajectory: Optional[list[TrajectoryRecord]] = [self._snapshot(0)] if record else None
        # each transmitted message, by step, sender and out-neighbor order
        self.emission_log: Optional[list[InFlightEntry]] = [] if record else None
        # each step's held pairs, when cfg.record_masses
        self._mass_rows = [self.held.copy()] if cfg.record_masses else None

    def _snapshot(self, step: int) -> TrajectoryRecord:
        flag = np.full(self.n, self.flag_step is not None, dtype=np.int8)
        return TrajectoryRecord(step, *self.held.copy(), self.estimate, *self._votes.copy(), flag)

    @property
    def estimate(self) -> np.ndarray:
        """Each node's estimate: ceil(y/z) of the batch it last split, its min vote once flagged."""
        y, z = self._last_split
        return -(-y // z) if self.flag_step is None else self.vote_min.copy()

    def all_flagged(self) -> bool:
        return self.flag_step is not None

    def _refresh_votes(self, y: np.ndarray, z: np.ndarray) -> None:
        """Votes floor(y/z) and ceil(y/z) = floor + sign(remainder), as a split keeps z >= 1; overwrites y."""
        np.divmod(y, z, out=(self.vote_min, y))
        np.add(self.vote_min, np.sign(y, out=y), out=self.vote_max)

    def _votes_saturated(self) -> bool:
        """Whether every node holds the window's global vote extrema."""
        return not np.count_nonzero(self._votes != self._extrema)

    def step(self) -> Engine:
        """Run one protocol step and return the engine (a no-op once flagged)."""
        if self.flag_step is not None:
            return self
        k = self.steps_done + 1
        held, done = self.held, self._done

        # window-start refresh is clock-synchronized bookkeeping: every node
        # resets its votes from its held pair ((k-1) mod window == 0 covers
        # a one-step window too)
        if (k - 1) % self.window == 0:
            self._refresh_votes(self.y.copy(), self.z)
            self._extrema[0] = np.maximum.reduce(self.vote_max)
            self._extrema[1] = np.minimum.reduce(self.vote_min)
            self._flooding = not self._votes_saturated()

        if self.busy_until is not None:
            # cycle starts, at the nodes whose last cycle completed at the
            # previous step: lock the batch, draw the delay
            starting = self._completed
            if starting.size:
                np.copyto(self.batch, held, where=done)
                self.cycle_start[starting] = k
                self.busy_until[starting] = self._delays(starting) + k
            np.equal(self.busy_until, k, out=done)
            self._completed = done.nonzero()[0]

        # completing nodes fold in their neighbors' exposed votes.  Once every
        # node holds the window's extrema no hop can change a vote until the
        # next refresh, so flooding stops there.
        if self._flooding and self._completed.size:
            flood_votes(self.vote_max, self.vote_min, self._completed, self.voting)
            self._flooding = not self._votes_saturated()

        # processing completes: split the locked batch and transmit.  The
        # pieces join the receivers' held pairs at this step's end.  A node
        # whose batch is a single token has nothing to split this cycle.
        split = (self.batch[1] > 1) & done
        np.copyto(self._last_split, self.batch, where=split)
        pieces, values = split_route(self.batch, held, split, self.slots, self._route_draw)
        if self.emission_log is not None:
            src, dst, c_y, c_z = route_messages(self.slots, pieces, values)
            emitted = np.full(src.size, k) if self.cycle_start is None else self.cycle_start[src]
            columns = (c.tolist() for c in (src, dst, c_y, c_z, emitted))
            self.emission_log.extend(map(InFlightEntry, *columns, repeat(k + 1)))

        # window-boundary termination check: every node flips, or none
        if k % self.window == 0:
            flipping = np.count_nonzero(self.vote_max - self.vote_min <= 1)
            if flipping == self.n:
                self.flag_step = k
                logger.debug("all nodes terminated at step %d", k)
            elif flipping:
                raise InvariantError(f"step {k}: termination flags did not flip simultaneously")
            # the audit: flooded extrema must equal the window-start extrema
            if self.cfg.check_invariants and not self._votes_saturated():
                raise InvariantError(
                    f"step {k}: vote flooding missed the global extrema "
                    f"{tuple(self._extrema[:, 0].tolist())} within one window"
                )

        if self.cfg.check_invariants and np.add.reduce(held, axis=1).tolist() != self._expected_totals:
            (got_y, got_z), (want_y, want_z) = np.add.reduce(held, axis=1).tolist(), self._expected_totals
            raise ConservationError(f"step {k}: mass ledger off, y {got_y} != {want_y} or z {got_z} != {want_z}")
        self.steps_done = k
        if self.trajectory is not None:
            self.trajectory.append(self._snapshot(k))
        if self._mass_rows is not None:
            self._mass_rows.append(held.copy())
        return self

    def _delays(self, starting: np.ndarray) -> np.ndarray:
        """The delays, less one, of the cycles starting at `starting`, from the current block."""
        end = self._delay_next + starting.size
        if end > self._delay_block.size:
            # one draw of random(a + b) is random(a) then random(b), so the
            # stream reads the same values whatever the block size
            fresh = self.delay_rng.random(max(_DELAY_BLOCK, starting.size))
            if not self._per_node_delays:
                fresh = self.delay_model.draw_batch(fresh, None) - 1
            self._delay_block = np.concatenate((self._delay_block[self._delay_next :], fresh))
            self._delay_next, end = 0, starting.size
        drawn = self._delay_block[self._delay_next : end]
        self._delay_next = end
        return self.delay_model.draw_batch(drawn, starting) - 1 if self._per_node_delays else drawn

    def outcome(self) -> RunOutcome:
        converged = self.all_flagged()
        recovered = None
        if converged:
            recovered = self.estimate.tolist()
            if self.cfg.recovery is not None:
                recovered = [self.cfg.recovery(j, est) for j, est in enumerate(recovered)]
        mass_y = mass_z = None
        if self._mass_rows is not None:
            mass_y, mass_z = np.concatenate(self._mass_rows, axis=1).reshape(2, -1, self.n)
        return RunOutcome(
            converged=converged,
            termination_step=self.flag_step,
            final_estimate=self.estimate,
            recovered_solution=recovered,
            steps_run=self.steps_done,
            final_y=self.y.copy(),
            final_z=self.z.copy(),
            trajectory=self.trajectory,
            mass_y=mass_y,
            mass_z=mass_z,
        )

    def run(self) -> RunOutcome:
        while self.flag_step is None and self.steps_done < self.cfg.max_steps:
            self.step()
        if self.flag_step is None:
            logger.info("run did not converge within max_steps=%d", self.cfg.max_steps)
        return self.outcome()


class SyncEngine(Engine):
    """The engine with unit delays: the synchronous protocol."""

    def __init__(self, cfg: RunConfig):
        Engine.__init__(self, cfg)

    # bound in each class body so that the two classes' steps and runs can
    # be timed apart by patching one class alone
    step = Engine.step
    run = Engine.run


class AsyncEngine(Engine):
    """The engine under a `DelayModel`: the bounded-delay protocol."""

    def __init__(self, cfg: RunConfig, delay_model: DelayModel):
        Engine.__init__(self, cfg, delay_model)

    step = Engine.step
    run = Engine.run


# one step of an engine, which it returns (test-facing decompositions of the runs)
step_sync = SyncEngine.step
step_async = AsyncEngine.step


def run_sync(cfg: RunConfig) -> RunOutcome:
    """Run the synchronous protocol to termination or the step cap."""
    return SyncEngine(cfg).run()


def run_async(cfg: RunConfig, delay_model: DelayModel) -> RunOutcome:
    """Run the bounded-delay protocol to termination or the step cap."""
    return AsyncEngine(cfg, delay_model).run()
