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
