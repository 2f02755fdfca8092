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
        have = 0
        while True:
            take = min(out.size - have, self._halves.size - self._next)
            out[have : have + take] = self._halves[self._next : self._next + take]
            have += take
            self._next += take
            if have == out.size:
                return
            raw = self.bit_generator.random_raw(_CHUNK_WORDS)
            self._halves = raw.astype(_WORDS, copy=False).view(_HALVES)
            self._next = 0

    def integers(self, low: int, high) -> np.ndarray:
        """One uniform int64 draw from 0 .. high[i] - 1 for each bound."""
        if low != 0:
            raise ValueError(f"a route stream draws from 0, got low={low}")
        bounds = np.asarray(high, dtype=np.int64)
        if bounds.ndim != 1:
            raise ValueError(f"route bounds must be a 1-D array, got shape {bounds.shape}")
        width = bounds.view(np.uint64)
        draw = np.empty(width.size, dtype=_WORDS)
        if not draw.size:
            return draw.view(np.int64)
        # the bounds 2 .. 2**32 - 1 are those whose uint64 (bound - 2)
        # stays below 2**32 - 2: one pass checks both ends
        np.subtract(width, _TWO, out=draw)
        most = int(draw.max()) + 2
        if most >= _HALF_RANGE:
            raise ValueError(
                f"route bounds must lie in 2 .. 2**32 - 1, got {bounds.min()} .. {bounds.max()}"
            )
        self._fill(draw)
        draw *= width
        # only a low half below the bound can fall below 2**32 mod bound
        low_half = draw.view(_HALVES)[0::2]
        first = 0
        while low_half[first:].min() < most:
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
    first[j] + count[j] - 1 of `dst`: its out-neighbors in order, then j
    itself.  Returns (first, count, dst).
    """
    indptr, targets = out_csr
    nodes = np.arange(indptr.size - 1)
    count = np.diff(indptr) + 1
    first = indptr[:-1] + nodes
    dst = np.empty(targets.size + nodes.size, dtype=np.int64)
    # out-edge e of node j moves up by the j own slots laid out before it
    dst[np.arange(targets.size) + nodes.repeat(count - 1)] = targets
    dst[first + count - 1] = nodes
    return first, count, dst


def split_route(
    y: np.ndarray,
    z: np.ndarray,
    nodes: np.ndarray,
    slots: tuple[np.ndarray, np.ndarray, np.ndarray],
    rng: Union[np.random.Generator, RouteStream],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split every node in the nonempty `nodes` in place and address its pieces.

    y and z are whole-network state arrays, `nodes` holds distinct ids in
    ascending order and `slots` is the layout of `routing_slots`.  Node j
    splits y[j] into z[j] near-equal pieces, floor(y/z) or ceil(y/z) with
    exactly (y mod z) large ones.  It keeps one minimum-value piece; each
    of its other z[j] - 1 pieces draws one of j's slots uniformly.  `rng`
    is a Generator or a RouteStream; one rng.integers call draws the
    pieces of all nodes, node by node in the given order, and the first
    (y mod z) pieces a node routes are its large ones.  Pieces drawn to
    the same slot are coalesced; self-drawn pieces join the kept pair,
    which the node is left holding.

    Returns (estimate, dst, c_y, c_z, who).  estimate[i] is ceil(y/z)
    of nodes[i] before its split.  The nonempty messages are laid out by
    sender as in `nodes`, then by out-neighbor order; message m was sent
    by nodes[who[m]].
    """
    first, count, targets = slots
    ys = y[nodes]
    zs = z[nodes]
    # z > 1 and y >= 0 in one test; a failure names a bad z before a bad y
    if np.minimum(zs - 2, ys).min() < 0:
        if zs.min() <= 1:
            raise ProtocolError(f"split requires z > 1, got z={zs.min()} (caller must hold)")
        raise ProtocolError(f"split requires y >= 0, got y={ys.min()}")
    delta, large = np.divmod(ys, zs)
    # the split nodes' slots laid end to end: node i's are block[i] ..
    # end[i] - 1, its own the last.  When every node splits in order that
    # is the whole layout.
    whole = nodes.size == y.size
    if whole:
        width, block = count, first
        end = first + count
    else:
        width = count[nodes]
        end = width.cumsum()
        block = end - width
    routed = zs - 1
    draws = rng.integers(0, width.repeat(routed))
    # a piece's key is 2 * slot, plus 1 if large; each node's routed
    # pieces come as two runs, large then small
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
    dst = targets[sent] if whole else targets[sent + (first[nodes] - block)[who]]
    c_z = slot_z[sent]
    c_y = delta[who] * c_z + large_count[sent]
    return delta + (large > 0), dst, c_y, c_z, who


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
    ends = degrees.cumsum()
    starts = ends - degrees
    senders = sources[np.arange(ends[-1]) + (first - starts).repeat(degrees)]
    vote_max[nodes] = np.maximum(vote_max[nodes], np.maximum.reduceat(vote_max[senders], starts))
    vote_min[nodes] = np.minimum(vote_min[nodes], np.minimum.reduceat(vote_min[senders], starts))
