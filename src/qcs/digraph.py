"""Strongly connected directed communication topologies.

Construction and validation of the digraphs every other module consumes:
seeded random generation with rejection sampling, strong-connectivity
checks, exact diameter computation, and a plain-text edge-list
serialization.

A graph is stored as CSR arrays (one offset array plus one flat neighbor
array); its checks, transpose and diameter are array operations on them.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GraphGenerationError, NotStronglyConnectedError


class Digraph:
    """Immutable directed graph over dense node ids 0..n-1.

    Edges live in read-only int64 CSR arrays, `out_csr = (indptr,
    targets)`: node j's out-neighbors are targets[indptr[j]:indptr[j + 1]],
    sorted ascending so that iteration order is deterministic.
    Construction validates shape (no self-loops, distinct sorted ids in
    range) and strong connectivity; the diameter is computed exactly on
    first access.  Two graphs are equal when they have the same nodes and
    the same edge set.
    """

    def __init__(self, n: int, out_neighbors: Sequence[Sequence[int]]):
        sources, targets = _edge_arrays(out_neighbors, n)
        if n >= 2 and len(out_neighbors) != n:  # n < 2 is refused first, in _set_edges
            raise ValueError(f"out_neighbors has {len(out_neighbors)} rows for n={n}")
        self._set_edges(n, sources, targets)

    @classmethod
    def _from_edges(cls, n: int, sources: np.ndarray, targets: np.ndarray) -> "Digraph":
        g = cls.__new__(cls)
        g._set_edges(n, sources, targets)
        return g

    def _set_edges(self, n: int, sources: np.ndarray, targets: np.ndarray) -> None:
        """The one construction path: check the edges sources[k] -> targets[k],
        sources ascending, and store them as CSR arrays."""
        if n < 2:
            raise ValueError(f"digraph needs at least 2 nodes, got n={n}")
        _check_edges(n, sources, targets)
        # fewer edges than nodes leaves some node with no out-edge
        if targets.size < n or not _strongly_connected(n, sources, targets):
            raise NotStronglyConnectedError(
                "digraph is not strongly connected; every ordered pair must be reachable"
            )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.accumulate(np.bincount(sources, minlength=n), out=indptr[1:])
        self.__dict__.update(n=n, out_csr=(_frozen(indptr), _frozen(targets)), _sources=_frozen(sources))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Digraph is immutable; cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and all(map(np.array_equal, self.out_csr, other.out_csr))

    def __hash__(self) -> int:
        return hash((self.n, self.out_csr[1].tobytes(), self.out_csr[0].tobytes()))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, edges={self.edge_count})"

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Out-neighbor lists as tuples of ints, ascending."""
        return _csr_rows(*self.out_csr)

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """In-neighbor lists as tuples of ints, ascending (the exact transpose)."""
        return _csr_rows(*self.in_csr)

    @cached_property
    def diameter(self) -> int:
        """Longest shortest directed path over all ordered node pairs.

        Frontier expansion from every source at once: after `level`
        products with (I + A), row s of `reach` marks the nodes within
        `level` hops of s.  float32 products of 0/1 matrices are exact
        counts below 2**24; strong connectivity bounds the loop by n - 1.
        """
        step = np.eye(self.n, dtype=np.float32)
        step[self._sources, self.out_csr[1]] = 1.0
        reach, level = step, 1
        while not reach.all():
            reach = (reach @ step > 0.0).astype(np.float32)
            level += 1
        return level

    @cached_property
    def out_degrees(self) -> tuple[int, ...]:
        return tuple(np.diff(self.out_csr[0]).tolist())

    @property
    def max_out_degree(self) -> int:
        return max(self.out_degrees)

    @property
    def edge_count(self) -> int:
        return len(self.out_csr[1])

    def out_neighbor_arrays(self) -> list[np.ndarray]:
        """Out-neighbor lists as read-only int64 views into `out_csr`."""
        indptr, targets = self.out_csr
        return np.split(targets, indptr[1:-1])

    def in_neighbor_arrays(self) -> list[np.ndarray]:
        indptr, sources = self.in_csr
        return np.split(sources, indptr[1:-1])

    @cached_property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """In-edges as read-only (indptr, sources) int64 arrays, sources ascending."""
        targets = self.out_csr[1]
        # stable keeps sources ascending per target; in the narrowest dtype
        # that holds the ids, numpy radix-sorts 8- and 16-bit keys
        order = np.argsort(targets.astype(np.min_scalar_type(self.n - 1)), kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.add.accumulate(np.bincount(targets, minlength=self.n), out=indptr[1:])
        return _frozen(indptr), _frozen(self._sources[order])

    def to_edge_list_text(self) -> str:
        """Serialize as 'n m' header plus one 'src dst' line per edge."""
        lines = [f"{self.n} {self.edge_count}"]
        lines += [f"{j} {l}" for j, l in zip(self._sources.tolist(), self.out_csr[1].tolist())]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list_text(cls, text: str) -> "Digraph":
        """Parse the 'n m' / 'src dst' edge-list format (edges in any order)."""
        # a text that fails the array check is scanned line by line to name its fault
        if not _two_tokens_per_line(text):
            _check_lines(text)
        tokens = text.split()
        if not tokens:
            raise ValueError(_NO_HEADER)
        n, m = int(tokens[0]), int(tokens[1])
        if len(tokens) // 2 - 1 != m:
            raise ValueError(f"header declares {m} edges but {len(tokens) // 2 - 1} lines follow")
        edges = np.array(tokens[2:], dtype=np.int64).reshape(m, 2)
        outside = ((edges < 0) | (edges >= n)).any(axis=1)
        if outside.any():
            src, dst = edges[np.argmax(outside)].tolist()
            raise ValueError(f"edge ({src}, {dst}) outside node range 0..{n - 1}")
        if n > _MAX_KEYED_N:
            raise ValueError(f"header n={n} is too large; edge lists hold at most {_MAX_KEYED_N} nodes")
        # src * n + dst orders edges as (src, dst) pairs do, and fits int64 while n * n does
        key = edges[:, 0] * n + edges[:, 1]
        key.sort()
        repeated = np.diff(key) == 0
        if repeated.any():
            src, dst = divmod(int(key[np.argmax(repeated)]), n)
            raise ValueError(f"duplicate edge ({src}, {dst})")
        return cls._from_edges(n, *np.divmod(key, n))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_edge_list_text(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Digraph":
        return cls.from_edge_list_text(Path(path).read_text(encoding="utf-8"))


_NO_HEADER = "edge-list must start with a 'n m' header line"
_MAX_KEYED_N = 3_037_000_499  # the largest n with n * n below 2**63
# the ASCII characters str.split() splits on, and those str.splitlines() breaks on
_SPACE = np.array([chr(c).isspace() for c in range(128)])
_BREAK = np.array([len(f"a{chr(c)}a".splitlines()) == 2 for c in range(128)])


def _two_tokens_per_line(text: str) -> bool:
    """Whether every nonblank line of an ASCII text holds exactly two tokens."""
    if not text.isascii():
        return False
    chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    space = _SPACE[chars]
    start = ~space
    start[1:] &= space[:-1]
    # each token's line: the number of line breaks before it
    line = np.flatnonzero(_BREAK[chars]).searchsorted(np.flatnonzero(start))
    if line.size % 2:
        return False
    first, second = line[0::2], line[1::2]
    return bool((first == second).all() and (first[1:] > second[:-1]).all())


def _check_lines(text: str) -> None:
    """Raise ValueError at the first faulty line of an edge list, if any."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError(_NO_HEADER)
    _, m = int(rows[0][0]), int(rows[0][1])  # n is parsed first, as the parser does
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(rows) - 1} lines follow")
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"malformed edge line: {' '.join(row)!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _integral(kind: type) -> bool:
    """Whether values of type `kind` are integers: ints and numpy ints, not bools."""
    return issubclass(kind, (int, np.integer)) and kind is not bool


def _edge_arrays(rows: Sequence[Sequence[int]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges of adjacency lists on nodes 0..n-1 as int64 (sources, targets) arrays, in row order."""
    if not all(map(_integral, set(map(type, chain.from_iterable(rows))))):
        j, v = next((j, v) for j, row in enumerate(rows) for v in row if not _integral(type(v)))
        raise ValueError(f"node {j}: out-neighbor id {v!r} is not an integer")
    degrees = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    try:
        targets = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(degrees.sum()))
    except OverflowError:
        raise ValueError(f"out-neighbor ids must lie in 0..{n - 1}") from None
    return np.repeat(np.arange(len(rows), dtype=np.int64), degrees), targets


def _csr_rows(indptr: np.ndarray, indices: np.ndarray) -> tuple[tuple[int, ...], ...]:
    flat, ptr = indices.tolist(), indptr.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))


def _check_edges(n: int, sources: np.ndarray, targets: np.ndarray) -> None:
    """Raise ValueError unless every row is sorted, distinct, in range and loop-free."""
    if _edges_ordered(n, sources, targets):
        return  # else scan for the first fault, to name it
    outside = (targets < 0) | (targets >= n)
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"node {sources[k]} has out-neighbor {targets[k]} outside 0..{n - 1}")
    loops = targets == sources
    if loops.any():
        raise ValueError(f"self-loop at node {sources[np.argmax(loops)]} is not allowed")
    unsorted = (np.diff(targets) <= 0) & (sources[1:] == sources[:-1])
    if unsorted.any():
        raise ValueError(f"neighbors of node {sources[np.argmax(unsorted)]} must be sorted and distinct")


def _edges_ordered(n: int, sources: np.ndarray, targets: np.ndarray) -> bool:
    """_check_edges's one test for int64 edges, sources ascending: with every target in 0..n-1 (a negative
    one is huge as uint64) and loop-free, keys src * n + dst strictly increase iff each row does."""
    key = sources * n
    key += targets
    return not (np.maximum.reduce(targets.view(np.uint64), initial=0) >= n or np.count_nonzero(key[1:] <= key[:-1])
                or np.count_nonzero(targets == sources))


def _reaches_all(n: int, tails: np.ndarray, heads: np.ndarray) -> bool:
    """True iff node 0 reaches every node along the edges tails[k] -> heads[k]."""
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    count = 1
    # each pass follows every edge out of the reached set, in four calls
    while count < n:
        reached[heads[reached[tails]]] = True
        count, before = np.count_nonzero(reached), count
        if count == before:
            return False
    return True


def _strongly_connected(n: int, sources: np.ndarray, targets: np.ndarray) -> bool:
    # node 0 reaches everyone, and everyone reaches node 0 (0 reaches all on the transpose)
    return _reaches_all(n, sources, targets) and _reaches_all(n, targets, sources)


def is_strongly_connected(out_neighbors: Sequence[Sequence[int]] | Digraph) -> bool:
    """True iff every node reaches every other along directed paths.

    Accepts raw adjacency lists (a candidate graph, whose ids must lie in
    0..n-1) or a Digraph.  Two frontier expansions suffice: from node 0
    forward and from node 0 on the transpose.
    """
    if isinstance(out_neighbors, Digraph):
        return _strongly_connected(out_neighbors.n, out_neighbors._sources, out_neighbors.out_csr[1])
    n = len(out_neighbors)
    if n == 0:
        return False
    sources, targets = _edge_arrays(out_neighbors, n)
    if np.count_nonzero(targets.view(np.uint64) >= n):  # a negative id is huge as uint64
        raise ValueError(f"out-neighbor ids must lie in 0..{n - 1}")
    return _strongly_connected(n, sources, targets)


def generate_random_digraph(
    n: int,
    edge_prob: float,
    seed: int,
    max_retries: int = 100,
) -> Digraph:
    """Sample a strongly connected digraph by rejection.

    Each ordered pair (i, j), i != j, carries an edge independently with
    probability edge_prob; draws that are not strongly connected are
    rejected and re-sampled.  Identical (n, edge_prob, seed) arguments
    yield identical graphs.

    Raises GraphGenerationError when max_retries draws all fail.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < edge_prob <= 1.0:
        raise ValueError(f"edge_prob must be in (0, 1], got {edge_prob}")
    if max_retries < 1:
        raise ValueError(f"max_retries must be positive, got {max_retries}")
    rng = np.random.default_rng(seed)
    for _ in range(max_retries):
        mat = rng.random((n, n)) < edge_prob
        mat.flat[:: n + 1] = False
        # row-major order: sources ascending, targets ascending within a row
        try:
            return Digraph._from_edges(n, *np.divmod(np.flatnonzero(mat), n))
        except NotStronglyConnectedError:
            continue
    raise GraphGenerationError(
        f"no strongly connected digraph with n={n}, edge_prob={edge_prob} "
        f"after max_retries={max_retries} draws"
    )

