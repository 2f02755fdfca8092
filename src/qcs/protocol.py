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

from typing import Optional, Union

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
# uint64 scalars: a Python int operand costs a type resolution per call
_TWO, _SHIFT = np.uint64(2), np.uint64(32)
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
    2**32 - 1, and successive calls continue that Generator's sequence.
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
        width = bounds.view(np.uint64)
        # the bounds 2 .. 2**32 - 1 are those whose uint64 (bound - 2)
        # stays below 2**32 - 2: one pass checks both ends
        draw = np.subtract(width, _TWO, dtype=_WORDS)
        if not draw.size:
            return draw.view(np.int64)
        most = int(np.maximum.reduce(draw)) + 2
        if most >= _HALF_RANGE:
            raise ValueError(
                f"route bounds must lie in 2 .. 2**32 - 1, got {bounds.min()} .. {bounds.max()}"
            )
        self._fill(draw)
        draw *= width
        # only a low half below the bound can fall below 2**32 mod bound
        low_half = draw.view(_HALVES)[0::2]
        first = 0
        while np.minimum.reduce(low_half[first:]) < most:
            first = _first_rejected(low_half, width, first)
            if first is None:
                break
            # the rejected draw takes the next half and every later draw
            # moves up by one: recover their halves, shift, multiply
            tail = draw[first + 1 :]
            tail //= width[first + 1 :]
            draw[first:-1] = tail
            self._fill(draw[-1:])
            draw[first:] *= width[first:]
        draw >>= _SHIFT
        return draw.view(np.int64)


def _first_rejected(low_half: np.ndarray, width: np.ndarray, start: int) -> Optional[int]:
    """The first draw from `start` on whose low half falls below 2**32 mod
    its bound, or None; scanned in blocks so its scratch memory stays small."""
    for lo in range(start, width.size, 2 * _CHUNK_WORDS):
        hi = lo + 2 * _CHUNK_WORDS
        hits = np.flatnonzero(low_half[lo:hi] < _HALF_RANGE % width[lo:hi])
        if hits.size:
            return lo + int(hits[0])
    return None


def routing_slots(out_csr: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The routing slots of every node, laid out from the out-edge CSR.

    Node j owns count[j] = out-degree + 1 slots, first[j] ..
    first[j] + count[j] - 1 of `to`, the slots' receivers: its
    out-neighbors in order, then its own slot, the virtual receiver
    n + j.  Returns (first, count, to).
    """
    indptr, targets = out_csr
    nodes = np.arange(indptr.size - 1)
    degree = indptr[1:] - indptr[:-1]
    first = indptr[:-1] + nodes
    to = np.empty(targets.size + nodes.size, dtype=np.int64)
    # out-edge e of node j moves up by the j own slots laid out before it
    to[np.arange(targets.size) + nodes.repeat(degree)] = targets
    to[indptr[1:] + nodes] = nodes + nodes.size
    return first, degree + 1, to


def split_route(
    y: np.ndarray, z: np.ndarray, nodes: np.ndarray, slots: tuple[np.ndarray, np.ndarray, np.ndarray],
    rng: Union[np.random.Generator, RouteStream], inbox: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split every node in the nonempty `nodes` in place and deliver its pieces.

    y and z hold the n nodes `slots` lays out (`routing_slots`), `nodes`
    distinct ids in ascending order.  Node j splits y[j] into z[j]
    near-equal pieces, floor(y/z) or ceil(y/z) with exactly (y mod z)
    large ones.  It keeps one minimum-value piece; each of its other
    z[j] - 1 pieces draws one of j's slots uniformly.  `rng` is a
    Generator or a RouteStream; one rng.integers call draws the pieces of
    all nodes, node by node in the given order, and the first (y mod z)
    pieces a node routes are its large ones.  Pieces drawn to
    out-neighbors are added into inbox = (into_y, into_z), n entries each
    (y and z themselves deliver at once); self-drawn pieces join the kept
    pair, which the node is left holding.  Returns (estimate, pieces,
    values): ceil(y/z) of each node before its split, and each routed
    piece's slot and value in draw order, for `route_messages`.
    """
    first, count, to = slots
    n = y.size
    whole = nodes.size == n  # every node splits (the usual sync step): y and z are read and written whole
    ys, zs = (y, z) if whole else (y[nodes], z[nodes])
    # z > 1 and y >= 0 in one test; a failure names a bad z before a bad y
    if np.minimum.reduce(np.minimum(zs - 2, ys)) < 0:
        if zs.min() <= 1:
            raise ProtocolError(f"split requires z > 1, got z={zs.min()} (caller must hold)")
        raise ProtocolError(f"split requires y >= 0, got y={ys.min()}")
    # each node's routed pieces come as two runs, large then small: row 0
    # holds the runs' lengths, row 1 their values
    runs = np.empty((2, 2 * nodes.size), dtype=np.int64)
    delta, large = np.divmod(ys, zs, out=(runs[1, 1::2], runs[0, 0::2]))
    if not whole:
        first, count = first[nodes], count[nodes]
    routed = zs - 1
    np.subtract(routed, large, out=runs[0, 1::2])
    np.add(delta, 1, out=runs[1, 0::2])
    pieces = rng.integers(0, count.repeat(routed))
    pieces += first.repeat(routed)
    values = runs[1].repeat(runs[0])
    # receivers 0 .. n - 1 take the arrivals, n + j is node j's own slot
    receiver = to[pieces]
    tokens = np.bincount(receiver, minlength=2 * n)
    mass = np.zeros(2 * n, dtype=np.int64)
    np.add.at(mass, receiver, values)
    # the kept pair, self-drawn pieces plus the minimum-value piece kept
    # back, is written before a delivery into y and z themselves
    if whole:
        np.add(tokens[n:], 1, out=z)
        np.add(mass[n:], delta, out=y)
    else:
        z[nodes] = tokens[n:][nodes] + 1
        y[nodes] = mass[n:][nodes] + delta
    into_y, into_z = inbox
    into_y += mass[:n]
    into_z += tokens[:n]
    return delta + np.sign(large), pieces, values


def route_messages(
    slots: tuple[np.ndarray, np.ndarray, np.ndarray], pieces: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The messages of one split_route call: its pieces coalesced by slot.

    Returns (src, dst, c_y, c_z), one entry per out-neighbor slot that
    drew a piece, in slot order: by sender, then by out-neighbor order.
    Self-drawn pieces stay with their sender.
    """
    first, _, to = slots
    c_z = np.bincount(pieces, minlength=to.size)
    c_y = np.zeros(to.size, dtype=np.int64)
    np.add.at(c_y, pieces, values)
    sent = np.flatnonzero((c_z > 0) & (to < first.size))
    return first.searchsorted(sent, side="right") - 1, to[sent], c_y[sent], c_z[sent]


def split_pieces(y: int, z: int, degree: int, rng: np.random.Generator) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Partition mass y into z near-equal pieces and route them.

    The one-node case of split_route, for a node with `degree`
    out-neighbors.  Returns (kept_y, kept_z, c_y, c_z) where c_y/c_z are
    per-slot totals of length `degree` (slot i = i-th out-neighbor).
    """
    # node 0 with out-neighbors 1 .. degree, which have none
    state, inbox = np.zeros((2, 2, degree + 1), dtype=np.int64)
    state[:, 0] = y, z
    slots = routing_slots((np.r_[0, np.full(degree + 1, degree)], np.arange(1, degree + 1)))
    split_route(*state, np.zeros(1, dtype=np.int64), slots, rng, inbox)
    return int(state[0, 0]), int(state[1, 0]), inbox[0, 1:], inbox[1, 1:]


def flood_votes(
    vote_max: np.ndarray,
    vote_min: np.ndarray,
    nodes: np.ndarray,
    in_csr: tuple[np.ndarray, np.ndarray],
) -> None:
    """One max/min flooding hop into `nodes`, in place.

    Each node folds in its in-neighbors' votes as they stood before the
    hop.  Every node needs an in-neighbor, which strong connectivity with
    n >= 2 guarantees.  Up to WHOLE_GRAPH_EDGES edges, or into every
    node, the hop folds all in-edges and keeps the result at `nodes`;
    otherwise it gathers the in-edges of `nodes` alone.
    """
    if nodes.size == 0:
        return
    indptr, sources = in_csr
    if nodes.size == vote_max.size or sources.size <= WHOLE_GRAPH_EDGES:
        keep = slice(None) if nodes.size == vote_max.size else nodes
        hi = np.maximum(vote_max, np.maximum.reduceat(vote_max[sources], indptr[:-1]))
        lo = np.minimum(vote_min, np.minimum.reduceat(vote_min[sources], indptr[:-1]))
        vote_max[keep], vote_min[keep] = hi[keep], lo[keep]
        return
    first = indptr[nodes]
    degrees = indptr[nodes + 1] - first
    ends = degrees.cumsum()
    starts = ends - degrees
    senders = sources[np.arange(ends[-1]) + (first - starts).repeat(degrees)]
    vote_max[nodes] = np.maximum(vote_max[nodes], np.maximum.reduceat(vote_max[senders], starts))
    vote_min[nodes] = np.minimum(vote_min[nodes], np.minimum.reduceat(vote_min[senders], starts))
