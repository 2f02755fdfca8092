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

import functools
from typing import Callable, Optional

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


# the stream's raw words in little-endian byte order, so that a uint32
# view reads each word's low half first
_WORDS = np.dtype("<u8")
_HALVES = np.dtype("<u4")
_HALF_RANGE = 1 << 32
# a uint64 scalar: a Python int operand costs a type resolution per call
_TWO = np.uint64(2)
# the raw words a stream reads ahead at once, and the rejection scan's
# block: 64 KiB of scratch memory beside a draw's bounds and output
_CHUNK_WORDS = 1 << 13
# the edges up to which a flooding hop into some nodes folds every in-edge:
# that pass still wins at 2,422 edges, and gathering wins at 4,988 with a
# fifth of the nodes hopping (flood_crossover in BENCH_step_trim.json)
WHOLE_GRAPH_EDGES = 2500


class RouteStream:
    """The route draws of `Generator.integers`, read from raw PCG64 words.

    `integers(0, high)` returns exactly what `np.random.Generator(bg)
    .integers(0, high)` returns for a 1-D array of bounds in 2 ..
    2**32 - 1, and successive calls, of it or of `draw`, continue that
    Generator's sequence.
    It follows numpy's rule: each draw takes the next 32-bit half of the
    stream (the halves of each 64-bit word, low half first) and keeps the
    high 32 bits of half * bound unless the low 32 bits fall below 2**32
    mod bound (Lemire's multiply-shift with rejection), in which case it
    takes the next half.  The stream reads its halves from a buffer of
    `_CHUNK_WORDS` raw words, refilled by one `random_raw` call when it
    runs out, so the bit generator runs ahead of the draws and the
    stream must own `bit_generator`.  A call draws all its pieces in a
    few array passes instead of numpy's per-element loop.
    """

    def __init__(self, bit_generator: np.random.BitGenerator):
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(f"a route stream reads PCG64 words, got {type(bit_generator).__name__}")
        self.bit_generator = bit_generator
        # the buffered halves; those from _next on are not yet drawn
        self._halves = np.empty(0, dtype=_HALVES)
        self._next = 0

    def _fill(self, out: np.ndarray) -> None:
        """Write the stream's next out.size halves into the uint64 array `out`."""
        have, end = 0, self._next + out.size
        while end > self._halves.size:
            # the buffer runs out: take what it holds, then refill it
            take = self._halves.size - self._next
            out[have : have + take] = self._halves[self._next :]
            have += take
            raw = self.bit_generator.random_raw(_CHUNK_WORDS)
            self._halves = raw.astype(_WORDS, copy=False).view(_HALVES)
            self._next, end = 0, out.size - have
        out[have:] = self._halves[self._next : end]
        self._next = end

    def integers(self, low: int, high) -> np.ndarray:
        """One uniform int64 draw from 0 .. high[i] - 1 for each bound."""
        if low != 0:
            raise ValueError(f"a route stream draws from 0, got low={low}")
        bounds = np.asarray(high, dtype=np.int64)
        if bounds.ndim != 1:
            raise ValueError(f"route bounds must be a 1-D array, got shape {bounds.shape}")
        return self.draw(bounds, route_bound(bounds) if bounds.size else 2).astype(np.int64)

    def draw(self, bounds: np.ndarray, most: int) -> np.ndarray:
        """The values of integers(0, bounds), as a uint32 view, for int64
        bounds known to lie in 2 .. most < 2**32: the unchecked entry."""
        width = bounds.view(_WORDS)
        end = self._next + width.size
        if end <= self._halves.size:
            draw = np.multiply(self._halves[self._next : end], width, dtype=_WORDS)
            self._next = end
        else:
            draw = np.empty(width.size, dtype=_WORDS)
            self._fill(draw)
            draw *= width
        halves = draw.view(_HALVES)
        # only a low half below the bound can fall below 2**32 mod bound
        low_half = halves[0::2]
        first = 0 if draw.size and np.minimum.reduce(low_half) < most else None
        while first is not None and (first := _first_rejected(low_half, width, first)) is not None:
            # the rejected draw takes the next half and every later draw
            # moves up by one: recover their halves, shift, multiply
            tail = draw[first + 1 :]
            tail //= width[first + 1 :]
            draw[first:-1] = tail
            self._fill(draw[-1:])
            draw[first:] *= width[first:]
        # each value is the high half of its product
        return halves[1::2]


def route_bound(bounds: np.ndarray) -> int:
    """The largest of nonempty int64 route bounds, all in 2 .. 2**32 - 1."""
    # the bounds 2 .. 2**32 - 1 are those whose uint64 (bound - 2) stays
    # below 2**32 - 2: one pass checks both ends
    most = int(np.maximum.reduce(np.subtract(bounds.view(_WORDS), _TWO, dtype=_WORDS))) + 2
    if most >= _HALF_RANGE:
        raise ValueError(f"route bounds must lie in 2 .. 2**32 - 1, got {bounds.min()} .. {bounds.max()}")
    return most


def _first_rejected(low_half: np.ndarray, width: np.ndarray, start: int) -> Optional[int]:
    """The first draw from `start` on whose low half falls below 2**32 mod
    its bound, or None; scanned in blocks so its scratch memory stays small."""
    for lo in range(start, width.size, 2 * _CHUNK_WORDS):
        hi = lo + 2 * _CHUNK_WORDS
        hits = np.flatnonzero(low_half[lo:hi] < _HALF_RANGE % width[lo:hi])
        if hits.size:
            return lo + int(hits[0])
    return None


def routing_slots(csr: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node's slots, laid out from a CSR of its neighbors.

    Node j owns count[j] = degree + 1 slots, first[j] .. first[j] +
    count[j] - 1 of `to`: its neighbors in order, then j itself.  Over
    the out-edge CSR the slots are routing targets, whose last is the
    node's own; over the in-edge CSR they are the voters `flood_votes`
    reads.  Returns (first, count, to).
    """
    indptr, targets = csr
    nodes = np.arange(indptr.size - 1)
    degree = indptr[1:] - indptr[:-1]
    first = indptr[:-1] + nodes
    to = np.empty(targets.size + nodes.size, dtype=np.int64)
    # edge e of node j moves up by the j own slots laid out before it
    to[np.arange(targets.size) + nodes.repeat(degree)] = targets
    to[indptr[1:] + nodes] = nodes
    return first, degree + 1, to


def split_route(
    batch: np.ndarray, held: np.ndarray, split: np.ndarray, slots: tuple[np.ndarray, np.ndarray, np.ndarray],
    draw: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Split the batch of every node in the mask `split` and deliver its pieces, in place.

    batch and held are (2, n) int64 (y, z) rows over the nodes `slots`
    lays out (`routing_slots`): held[:, j] is what node j holds and
    batch[:, j] the part of it locked for its cycle (y >= 0); held may
    be batch itself.  Node j in `split` splits its batch y into z
    near-equal pieces, floor(y/z) or ceil(y/z) with exactly (y mod z)
    large ones.  It keeps one
    minimum-value piece; each of its other z - 1 pieces draws one of j's
    slots uniformly and joins the held pair of that slot's receiver, j
    for its own slot.  `draw(bounds)` draws from 0 .. bounds[i] - 1 for
    each bound, as `RouteStream.draw` or Generator.integers(0, bounds);
    one call draws all pieces, node by node in id order, a node's large
    ones first.  Returns each routed piece's slot and value in draw
    order, for `route_messages`.
    """
    first, count, to = slots
    batch_y, batch_z = batch
    n = batch_z.size
    # scratch: each node's routed pieces as two runs, large then small (row 0
    # their lengths, row 1 their values), and what it gives up: its batch
    # but the minimum-value piece it keeps back
    scratch = np.empty((2, 3 * n), dtype=np.int64)
    runs, given = scratch[:, : 2 * n], scratch[:, 2 * n :]
    routed = np.subtract(batch_z, 1, out=given[1])
    routed *= split
    z_split = routed + 1  # a node outside `split` divides by one and routes nothing
    # a split batch holds z > 1, and every batch y >= 0; a failure names
    # a bad z before a bad y
    if np.minimum.reduce(np.minimum(routed - split, batch_y)) < 0:
        if np.minimum.reduce(batch_z[split], initial=2) <= 1:
            raise ProtocolError(f"split requires z > 1, got z={batch_z[split].min()} (caller must hold)")
        raise ProtocolError(f"split requires y >= 0, got y={batch_y.min()}")
    if held is not batch and np.count_nonzero(held < batch):
        raise ProtocolError("split requires the batch within the held pair")
    delta, large = np.divmod(batch_y, z_split, out=(runs[1, 1::2], runs[0, 0::2]))
    np.subtract(batch_y, delta, out=given[0])
    np.subtract(routed, large, out=runs[0, 1::2])
    np.add(delta, 1, out=runs[1, 0::2])
    pieces = first.repeat(routed)
    pieces += draw(count.repeat(routed))
    values = runs[1].repeat(runs[0])
    # the giving goes first, so that no sum exceeds the ledger's; then each
    # receiver, the sender itself for a self-drawn piece, takes its pieces
    receiver = to.take(pieces)
    held -= given
    held[1] += np.bincount(receiver, minlength=n)
    np.add.at(held[0], receiver, values)
    return pieces, values


def route_messages(
    slots: tuple[np.ndarray, np.ndarray, np.ndarray], pieces: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The messages of one split_route call: its pieces coalesced by slot.

    Returns (src, dst, c_y, c_z), one entry per out-neighbor slot that
    drew a piece, in slot order: by sender, then by out-neighbor order.
    Self-drawn pieces stay with their sender.
    """
    first, count, to = slots
    c_z = np.bincount(pieces, minlength=to.size)
    c_z[first + count - 1] = 0  # the own slots
    sent = np.flatnonzero(c_z)
    c_y = np.zeros(to.size, dtype=np.int64)
    np.add.at(c_y, pieces, values)
    return first.searchsorted(sent, side="right") - 1, to[sent], c_y[sent], c_z[sent]


def split_pieces(y: int, z: int, degree: int, rng: np.random.Generator) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Partition mass y into z near-equal pieces and route them.

    The one-node case of split_route, for a node with `degree`
    out-neighbors.  Returns (kept_y, kept_z, c_y, c_z) where c_y/c_z are
    per-slot totals of length `degree` (slot i = i-th out-neighbor).
    """
    # node 0 with out-neighbors 1 .. degree, which have none and hold no
    # mass on one token each
    held = np.zeros((2, degree + 1), dtype=np.int64)
    held[:, 0] = y, z
    held[1, 1:] = 1
    slots = routing_slots((np.r_[0, np.full(degree + 1, degree)], np.arange(1, degree + 1)))
    split_route(held, held, np.arange(degree + 1) == 0, slots, functools.partial(rng.integers, 0))
    return int(held[0, 0]), int(held[1, 0]), held[0, 1:], held[1, 1:] - 1


def flood_votes(
    vote_max: np.ndarray,
    vote_min: np.ndarray,
    nodes: np.ndarray,
    voting: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """One max/min flooding hop into `nodes`, in place.

    Each node folds in its voters' votes as they stood before the hop:
    its in-neighbors' and its own, the slots `routing_slots(in_csr)` lays
    out.  Up to WHOLE_GRAPH_EDGES in-edges, or into every node, the hop
    folds every node's voters and keeps the result at `nodes`; otherwise
    it gathers those of `nodes`.
    """
    if nodes.size == 0:
        return
    first, count, voters = voting
    if nodes.size == vote_max.size or voters.size - vote_max.size <= WHOLE_GRAPH_EDGES:
        keep = slice(None) if nodes.size == vote_max.size else nodes
        hi = np.maximum.reduceat(vote_max[voters], first)
        lo = np.minimum.reduceat(vote_min[voters], first)
        vote_max[keep], vote_min[keep] = hi[keep], lo[keep]
        return
    counts = count[nodes]
    ends = np.add.accumulate(counts)
    starts = ends - counts
    senders = voters[np.arange(ends[-1]) + (first[nodes] - starts).repeat(counts)]
    vote_max[nodes] = np.maximum.reduceat(vote_max[senders], starts)
    vote_min[nodes] = np.minimum.reduceat(vote_min[senders], starts)
