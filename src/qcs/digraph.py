"""Strongly connected directed communication topologies.

Construction and validation of the digraphs every other module consumes:
seeded random generation with rejection sampling, strong-connectivity
checks, exact diameter computation, the per-node uniform transmission
distribution, and a plain-text edge-list serialization.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GraphGenerationError, NotStronglyConnectedError

# Above this size, all-pairs distances switch from per-source BFS to
# dense frontier expansion (float32 matmul, exact for 0/1 values).
_DENSE_DIAMETER_THRESHOLD = 64


@dataclass(frozen=True)
class Digraph:
    """Immutable directed graph over dense node ids 0..n-1.

    Neighbor lists are sorted ascending so that iteration order is
    deterministic and independent of hash/set internals.  Construction
    validates shape (no self-loops, distinct sorted ids) and strong
    connectivity; the diameter is computed exactly on first access.
    """

    n: int
    out_neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"digraph needs at least 2 nodes, got n={self.n}")
        if len(self.out_neighbors) != self.n:
            raise ValueError(
                f"out_neighbors has {len(self.out_neighbors)} rows for n={self.n}"
            )
        for j, nbrs in enumerate(self.out_neighbors):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"neighbors of node {j} must be sorted and distinct")
            for l in nbrs:
                if l == j:
                    raise ValueError(f"self-loop at node {j} is not allowed")
                if not 0 <= l < self.n:
                    raise ValueError(f"node {j} has out-neighbor {l} outside 0..{self.n - 1}")
        if not is_strongly_connected(self.out_neighbors):
            raise NotStronglyConnectedError(
                "digraph is not strongly connected; every ordered pair must be reachable"
            )

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Exact transpose of the out-neighbor lists."""
        inv: list[list[int]] = [[] for _ in range(self.n)]
        for j, nbrs in enumerate(self.out_neighbors):
            for l in nbrs:
                inv[l].append(j)
        return tuple(tuple(sorted(row)) for row in inv)

    @cached_property
    def diameter(self) -> int:
        """Longest shortest directed path over all ordered node pairs."""
        return int(_all_pairs_distances(self.out_neighbors).max())

    @cached_property
    def out_degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.out_neighbors)

    @property
    def max_out_degree(self) -> int:
        return max(self.out_degrees)

    @property
    def edge_count(self) -> int:
        return sum(self.out_degrees)

    def out_neighbor_arrays(self) -> list[np.ndarray]:
        """Out-neighbor lists as int64 arrays (engine hot path)."""
        return [np.asarray(nbrs, dtype=np.int64) for nbrs in self.out_neighbors]

    def in_neighbor_arrays(self) -> list[np.ndarray]:
        return [np.asarray(nbrs, dtype=np.int64) for nbrs in self.in_neighbors]

    @cached_property
    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Out-edges as read-only (indptr, targets) int64 arrays.

        Node j's out-neighbors are targets[indptr[j]:indptr[j + 1]], in
        ascending order, so edge positions follow out-neighbor order.
        """
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.out_degrees, out=indptr[1:])
        targets = np.fromiter(
            (l for nbrs in self.out_neighbors for l in nbrs), dtype=np.int64, count=int(indptr[-1])
        )
        return _frozen(indptr), _frozen(targets)

    @cached_property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """In-edges as read-only (indptr, sources) int64 arrays, sources ascending."""
        out_ptr, targets = self.out_csr
        senders = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(out_ptr))
        order = np.argsort(targets, kind="stable")  # keeps senders ascending per target
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(targets, minlength=self.n), out=indptr[1:])
        return _frozen(indptr), _frozen(senders[order])

    def to_edge_list_text(self) -> str:
        """Serialize as 'n m' header plus one 'src dst' line per edge."""
        lines = [f"{self.n} {self.edge_count}"]
        for j, nbrs in enumerate(self.out_neighbors):
            for l in nbrs:
                lines.append(f"{j} {l}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list_text(cls, text: str) -> "Digraph":
        """Parse the 'n m' / 'src dst' edge-list format."""
        rows = [line.split() for line in text.splitlines() if line.strip()]
        if not rows or len(rows[0]) != 2:
            raise ValueError("edge-list must start with a 'n m' header line")
        n, m = int(rows[0][0]), int(rows[0][1])
        if len(rows) - 1 != m:
            raise ValueError(f"header declares {m} edges but {len(rows) - 1} lines follow")
        adj: list[set[int]] = [set() for _ in range(n)]
        for row in rows[1:]:
            if len(row) != 2:
                raise ValueError(f"malformed edge line: {' '.join(row)!r}")
            src, dst = int(row[0]), int(row[1])
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"edge ({src}, {dst}) outside node range 0..{n - 1}")
            if dst in adj[src]:
                raise ValueError(f"duplicate edge ({src}, {dst})")
            adj[src].add(dst)
        return cls(n=n, out_neighbors=tuple(tuple(sorted(s)) for s in adj))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_edge_list_text(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Digraph":
        return cls.from_edge_list_text(Path(path).read_text(encoding="utf-8"))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _reachable_from(adj: Sequence[Sequence[int]], src: int) -> list[bool]:
    seen = [False] * len(adj)
    seen[src] = True
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return seen


def is_strongly_connected(out_neighbors: Sequence[Sequence[int]] | Digraph) -> bool:
    """True iff every node reaches every other along directed paths.

    Accepts raw adjacency lists (a candidate graph) or a Digraph.  Two
    traversals suffice: forward from node 0 and forward from node 0 on
    the transpose.
    """
    if isinstance(out_neighbors, Digraph):
        out_neighbors = out_neighbors.out_neighbors
    n = len(out_neighbors)
    if n == 0:
        return False
    if not all(_reachable_from(out_neighbors, 0)):
        return False
    inv: list[list[int]] = [[] for _ in range(n)]
    for j, nbrs in enumerate(out_neighbors):
        for l in nbrs:
            inv[l].append(j)
    return all(_reachable_from(inv, 0))


def _all_pairs_distances(out_neighbors: Sequence[Sequence[int]]) -> np.ndarray:
    """Exact all-pairs shortest directed path lengths (BFS layering).

    Raises NotStronglyConnectedError when some ordered pair is unreachable.
    """
    n = len(out_neighbors)
    if n > _DENSE_DIAMETER_THRESHOLD:
        return _all_pairs_distances_dense(out_neighbors)
    dist = np.zeros((n, n), dtype=np.int64)
    for src in range(n):
        d = [-1] * n
        d[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in out_neighbors[u]:
                if d[v] < 0:
                    d[v] = d[u] + 1
                    queue.append(v)
        if min(d) < 0:
            raise NotStronglyConnectedError(
                f"node {d.index(-1)} is unreachable from node {src}"
            )
        dist[src] = d
    return dist


def _all_pairs_distances_dense(out_neighbors: Sequence[Sequence[int]]) -> np.ndarray:
    n = len(out_neighbors)
    adj = np.zeros((n, n), dtype=np.float32)
    for j, nbrs in enumerate(out_neighbors):
        adj[j, list(nbrs)] = 1.0
    dist = np.zeros((n, n), dtype=np.int64)
    reached = np.eye(n, dtype=bool)
    frontier = reached.astype(np.float32)
    level = 0
    while True:
        level += 1
        new = (frontier @ adj > 0.0) & ~reached
        if not new.any():
            break
        dist[new] = level
        reached |= new
        frontier = new.astype(np.float32)
    if not reached.all():
        src, dst = np.argwhere(~reached)[0]
        raise NotStronglyConnectedError(f"node {dst} is unreachable from node {src}")
    return dist


def diameter(g: Digraph) -> int:
    """The graph's exact diameter (validated positive integer)."""
    return g.diameter


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
        np.fill_diagonal(mat, False)
        if _matrix_strongly_connected(mat):
            nbrs = tuple(tuple(int(v) for v in np.flatnonzero(mat[j])) for j in range(n))
            return Digraph(n=n, out_neighbors=nbrs)
    raise GraphGenerationError(
        f"no strongly connected digraph with n={n}, edge_prob={edge_prob} "
        f"after max_retries={max_retries} draws"
    )


def _matrix_strongly_connected(mat: np.ndarray) -> bool:
    return _matrix_reaches_all(mat, 0) and _matrix_reaches_all(mat.T, 0)


def _matrix_reaches_all(mat: np.ndarray, src: int) -> bool:
    n = mat.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[src] = True
    frontier = reached
    while True:
        new = mat[frontier].any(axis=0) & ~reached
        if not new.any():
            return bool(reached.all())
        reached = reached | new
        frontier = new


@dataclass(frozen=True)
class TransmissionDistribution:
    """Per-node transmission probabilities over out-neighbors plus self.

    Row j holds exactly 1/(1 + out_degree(j)) on each supported node and
    zero elsewhere, stored as exact rationals so the unit-mass invariant
    holds without rounding.
    """

    rows: tuple[tuple[Fraction, ...], ...]

    def row(self, j: int) -> tuple[Fraction, ...]:
        return self.rows[j]

    def support(self, j: int) -> tuple[int, ...]:
        return tuple(l for l, p in enumerate(self.rows[j]) if p > 0)


def transmission_distribution(g: Digraph) -> TransmissionDistribution:
    """Build the uniform self-inclusive transmission distribution of g."""
    rows = []
    for j in range(g.n):
        p = Fraction(1, 1 + g.out_degrees[j])
        row = [Fraction(0)] * g.n
        row[j] = p
        for l in g.out_neighbors[j]:
            row[l] = p
        rows.append(tuple(row))
    return TransmissionDistribution(rows=tuple(rows))
