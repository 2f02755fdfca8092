"""Application mappings onto protocol initial values and back.

Two domains ride on the same protocol: data-center task scheduling
(balance CPU utilization across heterogeneous servers) and federated
model aggregation (dataset-size-weighted average of quantized local
parameters).  Each mapping chooses (y0, z0) so the protocol's agreed
quotient encodes the domain optimum, plus a recovery rule that turns
the quotient back into the domain answer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import CapacityExceededError, InvalidInstanceError

logger = logging.getLogger(__name__)


def _round_half_to_zero(num: int, den: int) -> int:
    """Nearest integer to num/den for positive den, ties toward zero."""
    base, rem = divmod(num, den)
    return base + 1 if 2 * rem > den else base


@dataclass(frozen=True)
class SchedulingInstance:
    """Per-server task workloads, occupied cycles, and CPU capacities."""

    workloads: tuple[int, ...]
    occupied: tuple[int, ...]
    capacity: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.workloads)
        if len(self.occupied) != n or len(self.capacity) != n:
            raise InvalidInstanceError("workloads, occupied and capacity lengths differ")
        if n == 0:
            raise InvalidInstanceError("instance has no nodes")
        for j in range(n):
            if self.workloads[j] < 0 or self.occupied[j] < 0:
                raise InvalidInstanceError(f"node {j}: negative workload or occupancy")
            if self.capacity[j] < 1:
                raise InvalidInstanceError(f"node {j}: capacity must be positive")

    @property
    def n(self) -> int:
        return len(self.workloads)

    @property
    def total_demand(self) -> int:
        return sum(self.workloads)

    @property
    def available_capacity(self) -> int:
        return sum(c - u for c, u in zip(self.capacity, self.occupied))

    def exact_ratio(self) -> Fraction:
        """Capacity over demand: the quotient the protocol agrees on."""
        return Fraction(sum(self.capacity), sum(l + u for l, u in zip(self.workloads, self.occupied)))


def scheduling_init(inst: SchedulingInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Map a scheduling instance to protocol initial values.

    y0 is the CPU capacity, z0 the demand plus occupancy.  A node with
    zero demand and zero occupancy would drop out of the consensus; it
    gets a single token instead, with a warning.
    """
    if inst.total_demand > inst.available_capacity:
        raise CapacityExceededError(
            f"total demand {inst.total_demand} exceeds available capacity "
            f"{inst.available_capacity}"
        )
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

    dataset_sizes: tuple[int, ...]
    local_params: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.dataset_sizes) != len(self.local_params):
            raise InvalidInstanceError("dataset_sizes and local_params lengths differ")
        if len(self.dataset_sizes) == 0:
            raise InvalidInstanceError("instance has no nodes")
        for j, size in enumerate(self.dataset_sizes):
            if size < 1:
                raise InvalidInstanceError(f"node {j}: dataset size must be >= 1")
        for j, w in enumerate(self.local_params):
            if w < 0:
                raise InvalidInstanceError(
                    f"node {j}: negative parameter {w}; shift parameters to be nonnegative"
                )

    @property
    def n(self) -> int:
        return len(self.dataset_sizes)

    def exact_aggregate(self) -> Fraction:
        """Dataset-size-weighted average of the local parameters."""
        return Fraction(
            sum(r * w for r, w in zip(self.dataset_sizes, self.local_params)),
            sum(self.dataset_sizes),
        )


def federated_init(
    inst: FederatedInstance,
    literal_init: bool = False,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Map a federated instance to protocol initial values.

    Default: y0 = dataset_size * parameter, z0 = dataset_size, so the
    agreed quotient equals the weighted aggregate exactly.  literal_init
    keeps y0 = parameter (compatibility mode; the resulting quotient is
    the unweighted-mass ratio, not the weighted aggregate).
    """
    if literal_init:
        y0 = tuple(inst.local_params)
    else:
        y0 = tuple(r * w for r, w in zip(inst.dataset_sizes, inst.local_params))
    return y0, tuple(inst.dataset_sizes)


def federated_recover(estimate: int) -> int:
    """The agreed quotient is the aggregated global parameter."""
    return estimate


def generic_init(
    alphas: Sequence[int],
    rhos: Sequence[int],
    literal_init: bool = False,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Initial values for the generic quadratic problem.

    Each node carries cost weight alpha and target rho; the optimum is
    the alpha-weighted mean of the rhos, so y0 = alpha * rho and
    z0 = alpha makes the agreed quotient hit it exactly.  literal_init
    instead sets z0 = rho (compatibility mode; its quotient is not the
    weighted mean unless all alphas are equal).
    """
    if len(alphas) != len(rhos):
        raise InvalidInstanceError("alphas and rhos lengths differ")
    for j, a in enumerate(alphas):
        if a < 1:
            raise InvalidInstanceError(f"node {j}: alpha must be a positive integer")
    for j, r in enumerate(rhos):
        if r < 0:
            raise InvalidInstanceError(f"node {j}: negative rho {r} unsupported")
    if literal_init:
        for j, r in enumerate(rhos):
            if r < 1:
                raise InvalidInstanceError(
                    f"node {j}: literal mode needs rho >= 1 to keep a token"
                )
        return tuple(a * r for a, r in zip(alphas, rhos)), tuple(rhos)
    return tuple(a * r for a, r in zip(alphas, rhos)), tuple(alphas)


def generic_optimum(alphas: Sequence[int], rhos: Sequence[int]) -> Fraction:
    """Closed-form optimum of the generic quadratic problem."""
    return Fraction(
        sum(a * r for a, r in zip(alphas, rhos)),
        sum(alphas),
    )
