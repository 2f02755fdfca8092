"""The protocol rules, over arrays of nodes.

A node holds an integer mass y and an integer token count z.  Each
round it partitions y into z near-equal integer pieces (values differ
by at most one), keeps one minimum-value piece, and routes the rest
uniformly at random over its out-neighbors and itself.  A parallel
max/min vote exchange certifies global agreement: when the flooded
extrema differ by at most one after a full window, the node freezes
its estimate and terminates.  This module holds the splitting and
flooding rules; `qcs.engine` applies them and owns the vote refresh,
delays and the flip rule.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ProtocolError


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


def routing_slots(out_csr: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The routing slots of every node, laid out from the out-edge CSR.

    Node j owns count[j] = out-degree + 1 slots, first[j] ..
    first[j] + count[j] - 1 of `dst`: its out-neighbors in order, then j
    itself.  Returns (first, count, dst).
    """
    indptr, targets = out_csr
    n = indptr.size - 1
    first = indptr[:-1] + np.arange(n)
    return first, np.diff(indptr) + 1, np.insert(targets, indptr[1:], np.arange(n))


def split_route(
    y: np.ndarray,
    z: np.ndarray,
    nodes: np.ndarray,
    slots: tuple[np.ndarray, np.ndarray, np.ndarray],
    rng: np.random.Generator,
    count_sent: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Split every node in the nonempty `nodes` in place and address its pieces.

    y and z are whole-network state arrays and `slots` is the layout of
    `routing_slots`.  Node j splits y[j] into z[j] near-equal pieces,
    floor(y/z) or ceil(y/z) with exactly (y mod z) large ones.  It keeps
    one minimum-value piece; each of its other z[j] - 1 pieces draws one
    of j's slots uniformly.  One rng.integers call draws the pieces of
    all nodes, node by node in the given order, and the first (y mod z)
    pieces a node routes are its large ones.  Pieces drawn to the same
    slot are coalesced; self-drawn pieces join the kept pair, which the
    node is left holding.

    Returns (estimate, dst, c_y, c_z, sent).  estimate[i] is ceil(y/z)
    of nodes[i] before its split.  The nonempty messages are laid out by
    sender as in `nodes`, then by out-neighbor order.  With count_sent,
    sent[i] is the number of messages nodes[i] sent; otherwise None.
    """
    first, count, targets = slots
    ys = y[nodes]
    zs = z[nodes]
    if zs.min() <= 1:
        raise ProtocolError(f"split requires z > 1, got z={zs.min()} (caller must hold)")
    if ys.min() < 0:
        raise ProtocolError(f"split requires y >= 0, got y={ys.min()}")
    delta, large = np.divmod(ys, zs)
    width = count[nodes]
    routed = zs - 1
    draws = rng.integers(0, width.repeat(routed))
    # the split nodes' slots laid end to end: node i's are block[i] ..
    # end[i] - 1, its own the last.  A piece's key is 2 * slot, plus 1 if
    # large; each node's routed pieces come as two runs, large then small
    end = width.cumsum()
    block = end - width
    runs = np.empty(2 * nodes.size, dtype=np.int64)
    runs[0::2] = large
    runs[1::2] = routed - large
    base = np.empty(2 * nodes.size, dtype=np.int64)
    base[1::2] = 2 * block
    base[0::2] = base[1::2] + 1
    draws += draws
    draws += base.repeat(runs)
    total = int(end[-1])
    counts = np.bincount(draws, minlength=2 * total).reshape(total, 2)
    large_count = counts[:, 1]
    slot_z = counts[:, 0] + large_count
    # the kept pair is the own slot plus the minimum-value piece kept back
    own = end - 1
    kept_z = slot_z[own] + 1
    z[nodes] = kept_z
    y[nodes] = delta * kept_z + large_count[own]
    slot_z[own] = 0
    sent = slot_z.nonzero()[0]
    who = end.searchsorted(sent, side="right")
    dst = targets[sent + (first[nodes] - block)[who]]
    c_z = slot_z[sent]
    c_y = delta[who] * c_z + large_count[sent]
    per_sender = np.bincount(who, minlength=nodes.size) if count_sent else None
    return delta + (large > 0), dst, c_y, c_z, per_sender


def split_pieces(
    y: int,
    z: int,
    degree: int,
    rng: np.random.Generator,
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Partition mass y into z near-equal pieces and route them.

    The one-node case of split_route, for a node with `degree`
    out-neighbors.  Returns (kept_y, kept_z, c_y, c_z) where c_y/c_z are
    per-slot totals of length `degree` (slot i = i-th out-neighbor).
    """
    ys = np.array([y], dtype=np.int64)
    zs = np.array([z], dtype=np.int64)
    # node 0 with out-neighbors 1 .. degree
    slots = (np.zeros(1, dtype=np.int64), np.array([degree + 1]), np.roll(np.arange(degree + 1), -1))
    _, dst, c_y, c_z, _ = split_route(ys, zs, np.zeros(1, dtype=np.int64), slots, rng)
    per_slot = np.zeros((2, degree), dtype=np.int64)
    per_slot[:, dst - 1] = c_y, c_z
    return int(ys[0]), int(zs[0]), per_slot[0], per_slot[1]


def flood_votes(
    vote_max: np.ndarray,
    vote_min: np.ndarray,
    nodes: np.ndarray,
    in_csr: tuple[np.ndarray, np.ndarray],
) -> None:
    """One max/min flooding hop into `nodes`, in place.

    Each node folds in its in-neighbors' votes as they stood before the
    hop.  Every node needs an in-neighbor, which strong connectivity with
    n >= 2 guarantees.
    """
    if nodes.size == 0:
        return
    indptr, sources = in_csr
    if nodes.size == vote_max.size:
        np.maximum(vote_max, np.maximum.reduceat(vote_max[sources], indptr[:-1]), out=vote_max)
        np.minimum(vote_min, np.minimum.reduceat(vote_min[sources], indptr[:-1]), out=vote_min)
        return
    first = indptr[nodes]
    degrees = indptr[nodes + 1] - first
    starts = np.cumsum(degrees) - degrees
    senders = sources[np.arange(int(degrees.sum())) + np.repeat(first - starts, degrees)]
    vote_max[nodes] = np.maximum(vote_max[nodes], np.maximum.reduceat(vote_max[senders], starts))
    vote_min[nodes] = np.minimum(vote_min[nodes], np.minimum.reduceat(vote_min[senders], starts))
