"""Quadratic-cost mappings onto protocol initial values and back.

Node j's cost weighs its target rho_j by alpha_j, and the optimum is the
alpha-weighted mean of the rhos.  Three instances map onto it: the generic
problem, data-center task scheduling (balance CPU utilization across
heterogeneous servers) and federated model aggregation (dataset-size-
weighted average of quantized local parameters).  Each mapping chooses
(y0, z0) so the protocol's agreed quotient encodes the instance's optimum;
the two applications add a rule that recovers the domain answer from it.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Sequence

from .errors import CapacityExceededError, InvalidInstanceError

logger = logging.getLogger(__name__)

# field metadata of a per-node field: the least value a node may hold
FLOOR = "floor"


@functools.cache
def floors(cls) -> tuple[tuple[str, int], ...]:
    """(name, floor) of each per-node field of dataclass `cls`, read once per class."""
    return tuple((f.name, f.metadata[FLOOR]) for f in fields(cls) if FLOOR in f.metadata)


def check_floor(values: Sequence[int], floor: int, name_of: Callable[[int], str], error: type[Exception]) -> None:
    """Refuse the first of the per-node `values` below `floor` with `error`; node j is named name_of(j)."""
    if len(values) and min(values) < floor:
        j = next(j for j, v in enumerate(values) if v < floor)
        raise error(f"{name_of(j)}: must be >= {floor}, got {values[j]}")


def _check_nodes(columns: Sequence[tuple[str, Sequence[int], int]]) -> None:
    """Refuse an instance whose per-node columns, each given as (name, values,
    floor), differ in length, hold no node, or hold a value below their floor."""
    lengths = {len(values) for _, values, _ in columns}
    if len(lengths) > 1:
        raise InvalidInstanceError(f"{', '.join(name for name, _, _ in columns)}: lengths differ")
    if 0 in lengths:
        raise InvalidInstanceError("instance has no nodes")
    for name, values, floor in columns:
        check_floor(values, floor, lambda j: f"{name}[{j}]", InvalidInstanceError)


def _round_half_to_zero(num: int, den: int) -> int:
    """Nearest integer to num/den for positive den, ties toward zero."""
    base, rem = divmod(num, den)
    return base + 1 if 2 * rem > den else base


@dataclass(frozen=True)
class SchedulingInstance:
    """Per-server task workloads, occupied cycles, and CPU capacities."""

    workloads: tuple[int, ...] = field(metadata={FLOOR: 0})
    occupied: tuple[int, ...] = field(metadata={FLOOR: 0})
    capacity: tuple[int, ...] = field(metadata={FLOOR: 1})

    def __post_init__(self) -> None:
        _check_nodes([(name, getattr(self, name), floor) for name, floor in floors(type(self))])

    @property
    def n(self) -> int:
        return len(self.workloads)

    @property
    def total_demand(self) -> int:
        return sum(self.workloads)

    @property
    def available_capacity(self) -> int:
        return sum(c - u for c, u in zip(self.capacity, self.occupied))

    def check_capacity(self, error: type[Exception] = CapacityExceededError, prefix: str = "") -> None:
        """Refuse, with `error`, a total demand above the available capacity."""
        if self.total_demand > self.available_capacity:
            raise error(f"{prefix}total demand {self.total_demand} exceeds available capacity "
                        f"{self.available_capacity}")

    def exact_ratio(self) -> Fraction:
        """Capacity over demand: the quotient the protocol agrees on."""
        return Fraction(sum(self.capacity), sum(l + u for l, u in zip(self.workloads, self.occupied)))


def scheduling_init(inst: SchedulingInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Map a scheduling instance to protocol initial values.

    y0 is the CPU capacity, z0 the demand plus occupancy.  A node with
    zero demand and zero occupancy would drop out of the consensus; it
    gets a single token instead, with a warning.
    """
    inst.check_capacity()
    y0 = tuple(inst.capacity)
    z0 = []
    for j in range(inst.n):
        tokens = inst.workloads[j] + inst.occupied[j]
        if tokens == 0:
            logger.warning(
                "node %d has zero demand and occupancy; assigning one token", j
            )
            tokens = 1
        z0.append(tokens)
    return y0, tuple(z0)


def make_scheduling_recovery(inst: SchedulingInstance) -> Callable[[int, int], int]:
    """Per-node recovery hook: the workload to add, from the converged quotient.

    The quotient approximates capacity-per-utilized-cycle, so node j
    targets round(capacity[j] / quotient) utilized cycles and receives
    the difference to what it already runs.  An over-utilized node gets
    a negative value: load it should shed.
    """

    def recover(node_id: int, estimate: int) -> int:
        if estimate <= 0:
            raise InvalidInstanceError(f"converged estimate {estimate} is not positive")
        return _round_half_to_zero(inst.capacity[node_id], estimate) - inst.occupied[node_id]

    return recover


def scheduling_utilizations(inst: SchedulingInstance, added: Sequence[int]) -> list[Fraction]:
    """Resulting utilization (added + occupied) / capacity per node."""
    return [
        Fraction(w + u, c)
        for w, u, c in zip(added, inst.occupied, inst.capacity)
    ]


@dataclass(frozen=True)
class FederatedInstance:
    """Per-node dataset sizes and quantized local model parameters."""

    dataset_sizes: tuple[int, ...] = field(metadata={FLOOR: 1})
    local_params: tuple[int, ...] = field(metadata={FLOOR: 0})

    def __post_init__(self) -> None:
        _check_nodes([(name, getattr(self, name), floor) for name, floor in floors(type(self))])

    def exact_aggregate(self) -> Fraction:
        """Dataset-size-weighted average of the local parameters."""
        return Fraction(
            sum(r * w for r, w in zip(self.dataset_sizes, self.local_params)),
            sum(self.dataset_sizes),
        )


def federated_init(inst: FederatedInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """y0 = dataset_size * parameter, z0 = dataset_size: the agreed quotient is the aggregate exactly."""
    return tuple(r * w for r, w in zip(inst.dataset_sizes, inst.local_params)), tuple(inst.dataset_sizes)


def federated_recover(estimate: int) -> int:
    """The agreed quotient is the aggregated global parameter."""
    return estimate


@dataclass(frozen=True)
class GenericInstance:
    """Per-node cost weights alpha and targets rho of the quadratic problem."""

    alpha: tuple[int, ...] = field(metadata={FLOOR: 1})
    rho: tuple[int, ...] = field(metadata={FLOOR: 0})

    def __post_init__(self) -> None:
        _check_nodes([(name, getattr(self, name), floor) for name, floor in floors(type(self))])

    def exact_optimum(self) -> Fraction:
        """The alpha-weighted mean of the rhos: the problem's closed-form optimum."""
        return Fraction(sum(a * r for a, r in zip(self.alpha, self.rho)), sum(self.alpha))


def generic_init(inst: GenericInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """y0 = alpha * rho, z0 = alpha: the agreed quotient is the weighted mean exactly."""
    return tuple(a * r for a, r in zip(inst.alpha, inst.rho)), tuple(inst.alpha)
