"""The protocol rules shared by both engines, plus a per-node state machine.

A node holds an integer mass y and an integer token count z.  Each
round it partitions y into z near-equal integer pieces (values differ
by at most one), keeps one minimum-value piece, and routes the rest
uniformly at random over its out-neighbors and itself.  A parallel
max/min vote exchange certifies global agreement: when the flooded
extrema differ by at most one after a full window, the node freezes
its estimate and terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInitializationError, ProtocolError, RoutingError


def floor_div(y, z):
    """Floor of y/z for nonnegative y and positive z (ints or int64 arrays)."""
    if np.min(z) <= 0:
        raise ProtocolError(f"division by token count {np.min(z)} <= 0")
    return y // z


def ceil_div(y, z):
    """Ceiling of y/z for nonnegative y and positive z (ints or int64 arrays)."""
    if np.min(z) <= 0:
        raise ProtocolError(f"division by token count {np.min(z)} <= 0")
    return -(-y // z)


@dataclass(slots=True)
class NodeState:
    """One node's protocol variables.

    y and z are the current mass/token pair; y_initial keeps the value
    of y right after the initialization doubling (needed by recovery
    rules at termination).  vote_max/vote_min carry the flooded window
    extrema, estimate the node's current quantized state, and flag is 1
    once the node has certified convergence and gone quiet.
    """

    node_id: int
    y: int
    z: int
    y_initial: int
    vote_max: int
    vote_min: int
    estimate: int
    flag: int = 0


@dataclass(frozen=True, slots=True)
class OutboundMessage:
    """A coalesced batch of mass pieces addressed to one out-neighbor."""

    src: int
    dst: int
    c_y: int
    c_z: int

    def __post_init__(self) -> None:
        if self.c_z < 1:
            raise ProtocolError(f"message with c_z={self.c_z} < 1 must never be emitted")


@dataclass(frozen=True, slots=True)
class VoteMessage:
    """One node's current max/min vote pair."""

    src: int
    vote_max: int
    vote_min: int

    def __post_init__(self) -> None:
        if self.vote_max < self.vote_min:
            raise ProtocolError(
                f"vote pair max={self.vote_max} < min={self.vote_min} is malformed"
            )


def init_node(node_id: int, y0: int, z0: int) -> NodeState:
    """Initialize a node, doubling both initial values.

    The doubling guarantees z >= 2, so every node can split at least
    once and keeps one token forever after.
    """
    if z0 <= 0:
        raise InvalidInitializationError(
            f"node {node_id}: z0={z0} <= 0, a node with no tokens cannot participate"
        )
    if y0 < 0:
        raise InvalidInitializationError(
            f"node {node_id}: negative initial mass y0={y0} is not supported"
        )
    y = 2 * y0
    z = 2 * z0
    return NodeState(
        node_id=node_id,
        y=y,
        z=z,
        y_initial=y,
        vote_max=ceil_div(y, z),
        vote_min=floor_div(y, z),
        estimate=ceil_div(y, z),
    )


def split_batch(
    y: np.ndarray,
    z: np.ndarray,
    degrees: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Partition and route the mass of several nodes with one draw.

    Node i splits y[i] into z[i] near-equal pieces, floor(y/z) or
    ceil(y/z) with exactly (y mod z) large ones.  It keeps one
    minimum-value piece; each of its other z[i] - 1 pieces draws a slot
    uniformly over its degrees[i] out-neighbors plus self.  The pieces of
    all nodes are drawn by one rng.integers call, node by node in the
    given order, and the first (y mod z) routed pieces of a node are its
    large ones.  Pieces routed to the same slot are coalesced;
    self-routed pieces fold into the kept pair.

    Returns (kept_y, kept_z, c_y, c_z): the kept pair of each node, and
    per-slot totals over the nodes' out-neighbor slots laid end to end
    (node i's degrees[i] slots, in out-neighbor order, then node i+1's).
    """
    y = np.asarray(y, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    if z.min() <= 1:
        raise ProtocolError(f"split requires z > 1, got z={z.min()} (caller must hold)")
    if y.min() < 0:
        raise ProtocolError(f"split requires y >= 0, got y={y.min()}")
    delta, large = np.divmod(y, z)
    slots = degrees + 1
    # node i owns slots block[i] .. block[i] + degrees[i]; the last is self
    block = np.cumsum(slots) - slots
    # each node's routed pieces as two runs, its large ones then its small
    # ones; a piece's key is 2 * slot + (1 if large else 0)
    runs = np.column_stack((large, z - 1 - large)).ravel()
    bound = np.repeat(np.repeat(slots, 2), runs)
    key_base = np.repeat((2 * block[:, None] + [1, 0]).ravel(), runs)
    key = key_base + 2 * rng.integers(0, bound)
    total = int(block[-1] + slots[-1])
    counts = np.bincount(key, minlength=2 * total).reshape(total, 2)
    slot_z = counts[:, 0] + counts[:, 1]
    slot_y = np.repeat(delta, slots) * slot_z + counts[:, 1]
    # the kept pair is the self slot plus the minimum-value piece kept back
    self_slot = block + degrees
    kept_z = slot_z[self_slot] + 1
    kept_y = slot_y[self_slot] + delta
    out = np.ones(total, dtype=bool)
    out[self_slot] = False
    return kept_y, kept_z, slot_y[out], slot_z[out]


def split_pieces(
    y: int,
    z: int,
    degree: int,
    rng: np.random.Generator,
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Partition mass y into z near-equal pieces and route them.

    The one-node case of split_batch.  Returns (kept_y, kept_z, c_y,
    c_z) where c_y/c_z are per-slot totals of length `degree` (slot i =
    i-th out-neighbor).
    """
    kept_y, kept_z, c_y, c_z = split_batch([y], [z], [degree], rng)
    return int(kept_y[0]), int(kept_z[0]), c_y, c_z


def route_pieces(
    y: np.ndarray,
    z: np.ndarray,
    nodes: np.ndarray,
    out_csr: tuple[np.ndarray, np.ndarray],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split every node in `nodes` in place and address its pieces.

    y and z are whole-network state arrays; the split nodes are left
    holding their kept pairs.  Returns (sent, dst, c_y, c_z): sent[i] is
    the number of nonempty messages nodes[i] sent, and the messages are
    laid out by sender as in `nodes`, then by out-neighbor order.
    """
    indptr, targets = out_csr
    first = indptr[nodes]
    degrees = indptr[nodes + 1] - first
    kept_y, kept_z, c_y, c_z = split_batch(y[nodes], z[nodes], degrees, rng)
    y[nodes] = kept_y
    z[nodes] = kept_z
    sent = np.flatnonzero(c_z)
    end = np.cumsum(degrees)
    who = np.searchsorted(end, sent, side="right")
    edge = first[who] + sent - (end - degrees)[who]
    return np.bincount(who, minlength=nodes.size), targets[edge], c_y[sent], c_z[sent]


def flood_votes(
    vote_max: np.ndarray,
    vote_min: np.ndarray,
    flag: np.ndarray,
    nodes: np.ndarray,
    in_csr: tuple[np.ndarray, np.ndarray],
) -> None:
    """One max/min flooding hop into `nodes`, in place.

    Each node folds in its in-neighbors' votes as they stood before the
    hop; terminated (flagged) nodes expose nothing.  Every node needs an
    in-neighbor, which strong connectivity with n >= 2 guarantees.
    """
    if nodes.size == 0:
        return
    indptr, sources = in_csr
    shown_max, shown_min = vote_max, vote_min
    if flag.any():
        shown_max = np.where(flag, np.iinfo(np.int64).min, vote_max)
        shown_min = np.where(flag, np.iinfo(np.int64).max, vote_min)
    if nodes.size == flag.size:
        starts, senders = indptr[:-1], sources
    else:
        first = indptr[nodes]
        degrees = indptr[nodes + 1] - first
        starts = np.cumsum(degrees) - degrees
        senders = sources[np.arange(int(degrees.sum())) + np.repeat(first - starts, degrees)]
    vote_max[nodes] = np.maximum(shown_max[nodes], np.maximum.reduceat(shown_max[senders], starts))
    vote_min[nodes] = np.minimum(shown_min[nodes], np.minimum.reduceat(shown_min[senders], starts))


def split_mass(
    state: NodeState,
    out_neighbors: Sequence[int],
    rng: np.random.Generator,
) -> tuple[tuple[int, int], list[OutboundMessage]]:
    """Split the node's mass; returns the kept pair and outbound messages.

    Updates state.estimate to ceil(y/z) before splitting.  The caller
    owns delivery and must afterwards rebuild the node state with
    absorb(); this function does not touch state.y/state.z.
    """
    for l in out_neighbors:
        if l == state.node_id:
            raise ProtocolError(f"node {state.node_id} lists itself as an out-neighbor")
    state.estimate = ceil_div(state.y, state.z)
    kept_y, kept_z, c_y, c_z = split_pieces(state.y, state.z, len(out_neighbors), rng)
    outbound = [
        OutboundMessage(src=state.node_id, dst=int(out_neighbors[i]), c_y=int(c_y[i]), c_z=int(c_z[i]))
        for i in np.flatnonzero(c_z)
    ]
    return (kept_y, kept_z), outbound


def absorb(
    state: NodeState,
    kept: tuple[int, int],
    received: Iterable[OutboundMessage],
) -> NodeState:
    """Fold the kept pair and all arrived messages into the node state."""
    y, z = kept
    for msg in received:
        if msg.dst != state.node_id:
            raise RoutingError(
                f"message for node {msg.dst} delivered to node {state.node_id}"
            )
        y += msg.c_y
        z += msg.c_z
    state.y = y
    state.z = z
    return state


def refresh_votes(state: NodeState) -> NodeState:
    """Reset the vote pair from the node's current mass ratio."""
    state.vote_max = ceil_div(state.y, state.z)
    state.vote_min = floor_div(state.y, state.z)
    return state


def merge_votes(state: NodeState, incoming: Iterable[VoteMessage]) -> NodeState:
    """Fold arrived votes: max over maxima, min over minima."""
    vote_max = state.vote_max
    vote_min = state.vote_min
    for msg in incoming:
        if msg.vote_max > vote_max:
            vote_max = msg.vote_max
        if msg.vote_min < vote_min:
            vote_min = msg.vote_min
    state.vote_max = vote_max
    state.vote_min = vote_min
    return state


def finalize_if_converged(state: NodeState) -> NodeState:
    """Window-boundary termination check.

    When the flooded extrema differ by at most one, the node freezes
    its estimate at the minimum and raises its flag; the engine's
    recovery rule turns frozen estimates into reported solutions.
    """
    if state.vote_max - state.vote_min <= 1:
        state.estimate = state.vote_min
        state.flag = 1
    return state
