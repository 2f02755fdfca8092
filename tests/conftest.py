"""Shared builders for test graphs and independent oracles."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from qcs import Digraph


def ring(n: int) -> Digraph:
    """Directed ring 0 -> 1 -> ... -> n-1 -> 0."""
    return Digraph(n=n, out_neighbors=tuple((((j + 1) % n),) for j in range(n)))


def complete(n: int) -> Digraph:
    return Digraph(
        n=n,
        out_neighbors=tuple(tuple(l for l in range(n) if l != j) for j in range(n)),
    )


def bidirectional_pair() -> Digraph:
    return Digraph(n=2, out_neighbors=((1,), (0,)))


def in_neighbors(g: Digraph) -> tuple[tuple[int, ...], ...]:
    """Each node's in-neighbors, ascending: the transpose of g.out_neighbors."""
    rows = [[] for _ in range(g.n)]
    for j, nbrs in enumerate(g.out_neighbors):
        for l in nbrs:
            rows[l].append(j)
    return tuple(map(tuple, rows))


def quotient(y0, z0) -> Fraction:
    return Fraction(sum(y0), sum(z0))


def quotient_floor_ceil(y0, z0) -> tuple[int, int]:
    q = quotient(y0, z0)
    return q.numerator // q.denominator, -(-q.numerator // q.denominator)


def random_instance(seed: int, n_range=(3, 20), p_range=(0.3, 0.8),
                    y_range=(0, 100), z_range=(1, 10)):
    """Seeded (graph, y0, z0) triple for randomized protocol tests."""
    import qcs

    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    p = float(rng.uniform(p_range[0], p_range[1]))
    g = qcs.generate_random_digraph(n, p, seed=seed)
    y0 = [int(v) for v in rng.integers(y_range[0], y_range[1] + 1, n)]
    z0 = [int(v) for v in rng.integers(z_range[0], z_range[1] + 1, n)]
    return g, y0, z0
