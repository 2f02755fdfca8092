"""Digraph construction, connectivity, diameter, and the transmission law."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcs import (
    Digraph,
    GraphGenerationError,
    NotStronglyConnectedError,
    generate_random_digraph,
    is_strongly_connected,
    token_walk_probability,
)

from qcs.digraph import _check_edges, _edges_ordered

from conftest import complete, ring


def floyd_warshall(out_neighbors):
    """Independent all-pairs oracle for small graphs."""
    n = len(out_neighbors)
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for i, nbrs in enumerate(out_neighbors):
        for j in nbrs:
            dist[i][j] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def matrix_power_distances(out_neighbors):
    """Second oracle: smallest k with (A^k)[i][j] > 0 via boolean powers."""
    n = len(out_neighbors)
    adj = np.zeros((n, n), dtype=bool)
    for i, nbrs in enumerate(out_neighbors):
        adj[i, list(nbrs)] = True
    dist = np.where(np.eye(n, dtype=bool), 0, -1)
    power = np.eye(n, dtype=bool)
    for k in range(1, n):
        power = (power.astype(np.int64) @ adj.astype(np.int64)) > 0
        new = power & (dist < 0)
        dist[new] = k
    return dist


class TestStrongConnectivity:
    def test_directed_ring_is_strongly_connected(self):
        assert is_strongly_connected([(1,), (2,), (0,)])

    def test_one_way_pair_is_not(self):
        assert not is_strongly_connected([(1,), ()])

    def test_two_disjoint_cycles_are_not(self):
        assert not is_strongly_connected([(1,), (0,), (3,), (2,)])

    def test_digraph_constructor_rejects_disconnected(self):
        with pytest.raises(NotStronglyConnectedError):
            Digraph(n=2, out_neighbors=((1,), ()))


class TestDiameter:
    def test_complete_graph_diameter_is_one(self):
        for n in (2, 3, 5, 9):
            assert complete(n).diameter == 1

    def test_three_ring_diameter(self):
        assert ring(3).diameter == 2

    def test_five_ring_matches_floyd_warshall(self):
        g = ring(5)
        fw = floyd_warshall(g.out_neighbors)
        expect = max(fw[i][j] for i in range(5) for j in range(5))
        assert expect == 4
        assert g.diameter == expect

    def test_random_graph_diameter_matches_both_oracles(self):
        for seed in range(60):
            n = 3 + seed % 6
            g = generate_random_digraph(n, 0.4, seed=seed)
            fw = floyd_warshall(g.out_neighbors)
            mp = matrix_power_distances(g.out_neighbors)
            want = max(fw[i][j] for i in range(n) for j in range(n))
            assert want == int(mp.max())
            assert g.diameter == want
            assert g.diameter <= n - 1

    def test_sparse_eighty_nodes_matches_floyd_warshall(self):
        # a sparse draw has a long diameter, so the frontier runs many levels
        g = generate_random_digraph(80, 0.08, seed=5)
        fw = floyd_warshall(g.out_neighbors)
        want = max(max(row) for row in fw)
        assert want >= 4
        assert g.diameter == want


class TestGeneration:
    def test_two_node_complete_at_p_one(self):
        g = generate_random_digraph(2, 1.0, seed=0)
        assert g.out_neighbors == ((1,), (0,))
        assert g.diameter == 1

    def test_twenty_nodes_half_probability(self):
        # dense 20-node draws have tiny diameters, typically 2
        diameters = []
        for seed in range(10):
            g = generate_random_digraph(20, 0.5, seed=seed)
            assert is_strongly_connected(g)
            diameters.append(g.diameter)
        assert all(d <= 3 for d in diameters)
        assert 2 in diameters

    def test_determinism(self):
        a = generate_random_digraph(15, 0.35, seed=42)
        b = generate_random_digraph(15, 0.35, seed=42)
        assert a.out_neighbors == b.out_neighbors
        c = generate_random_digraph(15, 0.35, seed=43)
        assert a.out_neighbors != c.out_neighbors

    def test_sparse_generation_fails_with_overwhelming_probability(self):
        # oracle: strong connectivity needs every out-degree >= 1, so one
        # ER(5, 0.01) draw succeeds with probability at most
        # (1 - 0.99^4)^5; three draws all escaping rejection has
        # probability below 3 * that, far under 1e-3
        p = Fraction(1, 100)
        per_draw_upper = (1 - (1 - p) ** 4) ** 5
        assert 3 * per_draw_upper < Fraction(1, 1000)
        with pytest.raises(GraphGenerationError, match=r"n=5.*edge_prob=0.01.*max_retries=3"):
            generate_random_digraph(5, 0.01, seed=11, max_retries=3)

    def test_generated_invariants(self):
        for seed in range(30):
            g = generate_random_digraph(4 + seed % 5, 0.5, seed=seed)
            assert is_strongly_connected(g)
            assert g.diameter <= g.n - 1
            for j, nbrs in enumerate(g.out_neighbors):
                assert j not in nbrs
                assert list(nbrs) == sorted(set(nbrs))

    def test_in_neighbors_is_exact_transpose(self):
        g = generate_random_digraph(12, 0.3, seed=3)
        for j in range(g.n):
            for l in g.out_neighbors[j]:
                assert j in g.in_neighbors[l]
        assert sum(len(r) for r in g.in_neighbors) == g.edge_count

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_random_digraph(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_random_digraph(5, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_random_digraph(5, 1.5, seed=0)


class TestTransmissionDistribution:
    """The uniform self-inclusive routing law, read as one walk step."""

    def test_degree_one_splits_half_half(self):
        g = ring(3)
        assert [token_walk_probability(g, 0, t, 1) for t in range(3)] == [Fraction(1, 2), Fraction(1, 2), 0]

    def test_degree_three_gives_four_quarters(self):
        g = Digraph(n=4, out_neighbors=((1, 2, 3), (0,), (0,), (0,)))
        assert all(token_walk_probability(g, 0, t, 1) == Fraction(1, 4) for t in range(4))

    def test_support_and_exact_unit_mass(self):
        for seed in range(10):
            g = generate_random_digraph(4 + seed, 0.5, seed=seed)
            for j in range(g.n):
                row = [token_walk_probability(g, j, t, 1) for t in range(g.n)]
                support = tuple(t for t, p in enumerate(row) if p > 0)
                assert support == tuple(sorted((*g.out_neighbors[j], j)))
                share = Fraction(1, g.out_degrees[j] + 1)
                if g.n <= 12:  # the walk is exact up to n = 12
                    assert sum(row) == 1  # exact rational sum
                    assert {p for p in row if p > 0} == {share}
                else:
                    assert abs(sum(row) - 1) < 1e-15
                    assert all(abs(row[t] - share) < 1e-15 for t in support)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = generate_random_digraph(9, 0.4, seed=21)
        text = g.to_edge_list_text()
        back = Digraph.from_edge_list_text(text)
        assert back.out_neighbors == g.out_neighbors

    def test_header_shape(self):
        text = ring(3).to_edge_list_text()
        lines = text.strip().splitlines()
        assert lines[0] == "3 3"
        assert len(lines) == 4

    def test_file_round_trip(self, tmp_path):
        g = generate_random_digraph(6, 0.5, seed=2)
        path = tmp_path / "g.txt"
        g.save(path)
        assert Digraph.load(path).out_neighbors == g.out_neighbors

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            Digraph.from_edge_list_text("3\n0 1\n")
        with pytest.raises(ValueError):
            Digraph.from_edge_list_text("3 2\n0 1\n")
        with pytest.raises(ValueError):
            Digraph.from_edge_list_text("2 2\n0 1\n0 1\n")

    def test_names_a_bad_line_when_the_token_count_fits(self):
        # six tokens, as a header and two edge lines would hold
        with pytest.raises(ValueError, match=r"^malformed edge line: '0 1 2'$"):
            Digraph.from_edge_list_text("3 2\n0 1 2\n1\n")

    @given(
        lines=st.lists(
            st.lists(st.sampled_from(["0", "1", "2", "x"]), max_size=3).map(" ".join),
            max_size=6,
        ),
        breaks=st.lists(st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\x0b", "\x1c", " "]), min_size=6, max_size=6),
        pad=st.sampled_from(["", " ", "\t", "\x1f"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_refuses_lines_as_the_line_scan_does(self, lines, breaks, pad):
        text = "".join(pad + line + pad + brk for line, brk in zip(lines, breaks))
        try:
            expected = line_scan_fault(text)
        except ValueError as exc:
            expected = str(exc)
        try:
            Digraph.from_edge_list_text(text)
            got = None
        except (ValueError, NotStronglyConnectedError) as exc:
            got = str(exc)
        if expected is None:
            assert got is None or not got.startswith(("edge-list", "header", "malformed"))
        else:
            assert got == expected


def line_scan_fault(text):
    """The line fault the per-line parser named first, or None; int()
    errors of the header propagate, as they did there."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        return "edge-list must start with a 'n m' header line"
    _, m = int(rows[0][0]), int(rows[0][1])
    if len(rows) - 1 != m:
        return f"header declares {m} edges but {len(rows) - 1} lines follow"
    for row in rows[1:]:
        if len(row) != 2:
            return f"malformed edge line: {' '.join(row)!r}"
    return None


# sha256 of the little-endian int64 bytes of out_csr (indptr, then targets),
# recorded from the tuple-based generator the CSR one replaced
PINNED_EDGE_SETS = {
    (20, 0.3, 0): "034c4cf403865d1faaf72dd86831bb3b311f3b4d3065e9ed4233b747ff1baa71",
    (20, 0.3, 1): "5dc036162cbeaad7cd71f0a82796eb5ebd27bcba30f58af65924137b49aa772f",
    (20, 0.3, 2): "c572f72460848c424a9e800befc2732fb939565a1d86809f362587bde797059d",
    (20, 0.5, 0): "f369ab25afb0240a96c84e38d2b0d9438bbaae0ab21359720631e64fa063a214",
    (20, 0.5, 1): "885d41d8c42b4e0a5722875bd46770fabf7afdbcbc512eeac9aacb93dbf8a259",
    (20, 0.5, 2): "08d2029a029971a4613786b2e16b7396b54889e8e72b6be1b45e6d8dbeaac8de",
    (100, 0.3, 0): "0e0047dcfa4b596f185fd87985a9ce4ef0a86c2fdca7f56d7ec4da758b5b4d70",
    (100, 0.3, 1): "d58a4ad81039179c1791a0eb8fb64c6039dadfe4e6f2507d1b00c9cc012901bf",
    (100, 0.3, 2): "975e658e4188e82e11abeb4f536655231b5c2ef2c41c75c6dae1612b11cfdafb",
    (100, 0.5, 0): "e37b0d5cc50b57d93f38555681fb2c0b41f6ab64bf5d6a4f536b513532217f1b",
    (100, 0.5, 1): "470ff3d9083008fdb7b70f7cca7be0e06ec61308a2516e4c379b5f4054c65bc1",
    (100, 0.5, 2): "e62e83233a899bd67bb3e95e3bdecd435ae201e28bee21bb0715111e46992dc1",
    (300, 0.3, 0): "fdbd003055bbf645b0c699e945ecc78360904bf3cdc9d39d233601a4d2eb187c",
    (300, 0.3, 1): "58e3dd6c99e38536432abfc749bfb3162ed4d2e8802e9918fee4dd10b0913512",
    (300, 0.3, 2): "48d3b42c9a9ba06a6a26883990c8af1f3b219724207a9fb4d595b7a699386525",
    (300, 0.5, 0): "1fa6d3b347c1584e455f47f287302a93e6bdf2cfae0bc5a393dbfda33be7ee78",
    (300, 0.5, 1): "e7c301236c1687726e74f285d62ea532cb833a196dc86def62fc6011190ad26e",
    (300, 0.5, 2): "1d46b2cb8c3782c896ec85ee2e9b9f5c9e3b30a94f2d6adf31be16f4539ab01a",
}


class TestPinnedEdgeSets:
    @pytest.mark.parametrize("key", sorted(PINNED_EDGE_SETS))
    def test_generated_edge_set_is_unchanged(self, key):
        indptr, targets = generate_random_digraph(*key).out_csr
        raw = indptr.astype("<i8").tobytes() + targets.astype("<i8").tobytes()
        assert hashlib.sha256(raw).hexdigest() == PINNED_EDGE_SETS[key]


def reference_rows(n, edges):
    """Sorted out- and in-neighbor tuples of an edge set, built with plain Python."""
    out = tuple(tuple(sorted(d for s, d in edges if s == j)) for j in range(n))
    inn = tuple(tuple(sorted(s for s, d in edges if d == j)) for j in range(n))
    return out, inn


def reference_csr(rows):
    indptr = [0]
    for row in rows:
        indptr.append(indptr[-1] + len(row))
    return indptr, [v for row in rows for v in row]


def reference_strongly_connected(rows):
    n = len(rows)
    for src in range(n):
        seen, stack = {src}, [src]
        while stack:
            for v in rows[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) < n:
            return False
    return n > 0


@st.composite
def edge_sets(draw, connected=True, min_n=2, max_n=12):
    """(n, edge set) without self-loops; `connected` adds a random Hamiltonian cycle."""
    n = draw(st.integers(min_n, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = set(draw(st.lists(pairs, max_size=3 * n)))
    if connected:
        order = draw(st.permutations(range(n)))
        edges |= {(order[k], order[(k + 1) % n]) for k in range(n)}
    return n, edges


class TestCsrMatchesReference:
    @given(edge_sets())
    @settings(max_examples=200, deadline=None)
    def test_arrays_rows_and_diameter(self, case):
        n, edges = case
        out_rows, in_rows = reference_rows(n, edges)
        g = Digraph(n=n, out_neighbors=out_rows)
        assert [a.tolist() for a in g.out_csr] == list(reference_csr(out_rows))
        assert [a.tolist() for a in g.in_csr] == list(reference_csr(in_rows))
        assert g.out_neighbors == out_rows
        assert g.in_neighbors == in_rows
        assert [a.tolist() for a in g.out_neighbor_arrays()] == [list(r) for r in out_rows]
        assert [a.tolist() for a in g.in_neighbor_arrays()] == [list(r) for r in in_rows]
        assert g.out_degrees == tuple(len(r) for r in out_rows)
        assert g.edge_count == len(edges)
        fw = floyd_warshall(out_rows)
        assert g.diameter == max(max(row) for row in fw)

    @given(edge_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_every_construction_path_gives_an_equal_graph(self, case, rnd):
        n, edges = case
        out_rows, _ = reference_rows(n, edges)
        g = Digraph(n=n, out_neighbors=out_rows)
        lines = [f"{s} {d}" for s, d in edges]
        rnd.shuffle(lines)
        parsed = Digraph.from_edge_list_text("\n".join([f"{n} {len(edges)}", *lines]))
        listed = Digraph(n=n, out_neighbors=[list(r) for r in out_rows])
        assert parsed == g and listed == g and hash(parsed) == hash(g)
        assert Digraph.from_edge_list_text(g.to_edge_list_text()) == g

    @given(edge_sets(connected=False, min_n=1))
    @settings(max_examples=200, deadline=None)
    def test_is_strongly_connected_on_raw_lists(self, case):
        n, edges = case
        out_rows, _ = reference_rows(n, edges)
        want = reference_strongly_connected(out_rows)
        assert is_strongly_connected(out_rows) == want
        assert is_strongly_connected([list(r) for r in out_rows]) == want
        if n >= 2 and want:
            assert is_strongly_connected(Digraph(n=n, out_neighbors=out_rows))

    @pytest.mark.parametrize("rows", [[[-1], [0]], [[5], [0]], [[1], [2**63]], [[1], [0, -2**70]]],
                             ids=["negative", "past_n", "past_int64", "below_int64"])
    def test_is_strongly_connected_refuses_ids_outside_the_nodes(self, rows):
        # -1 would wrap to node 1, 5 index past the last node, 2**63 overflow int64
        with pytest.raises(ValueError, match=r"^out-neighbor ids must lie in 0\.\.1$"):
            is_strongly_connected(rows)

    def test_graphs_with_different_edges_differ(self):
        assert ring(4) != complete(4)
        assert ring(3) != ring(4)
        assert ring(4) == Digraph(n=4, out_neighbors=[[1], [2], [3], [0]])

    def test_graph_is_immutable(self):
        g = ring(3)
        with pytest.raises(AttributeError):
            g.n = 4
        with pytest.raises(ValueError):
            g.out_csr[1][0] = 2


def scan_fault(n, sources, targets):
    """The fault the per-edge scans named first, or None: the whole of
    the edge check before the one-test key check was put in front of it."""
    outside = (targets < 0) | (targets >= n)
    if outside.any():
        k = int(np.argmax(outside))
        return f"node {sources[k]} has out-neighbor {targets[k]} outside 0..{n - 1}"
    loops = targets == sources
    if loops.any():
        return f"self-loop at node {sources[np.argmax(loops)]} is not allowed"
    unsorted = (np.diff(targets) <= 0) & (sources[1:] == sources[:-1])
    if unsorted.any():
        return f"neighbors of node {sources[np.argmax(unsorted)]} must be sorted and distinct"
    return None


@st.composite
def edge_arrays(draw, max_n=7):
    """(n, sources, targets) of adjacency rows, sources ascending: each row
    valid (sorted, distinct, in range, loop-free) or any list of ids, which
    may be unsorted, repeat an id, hold a self-loop or an id outside
    0..n-1; any row may be empty."""
    n = draw(st.integers(2, max_n))
    rows = []
    for j in range(n):
        if draw(st.booleans()):
            rows.append(sorted(set(draw(st.lists(st.integers(0, n - 1), max_size=n))) - {j}))
        else:
            rows.append(draw(st.lists(st.integers(-2, n + 1), max_size=n + 1)))
    sources = np.repeat(np.arange(n, dtype=np.int64), [len(r) for r in rows])
    return n, sources, np.array([v for r in rows for v in r], dtype=np.int64)


class TestEdgeKeyCheck:
    """The one-test key check accepts exactly the edges the scans accept,
    and a refused edge set is named by the scans' first fault."""

    @given(edge_arrays())
    @settings(max_examples=1000, deadline=None)
    def test_key_check_and_scans_agree(self, case):
        n, sources, targets = case
        fault = scan_fault(n, sources, targets)
        assert _edges_ordered(n, sources, targets) == (fault is None)
        if fault is None:
            assert _check_edges(n, sources, targets) is None
        else:
            with pytest.raises(ValueError) as err:
                _check_edges(n, sources, targets)
            assert str(err.value) == fault

    @pytest.mark.parametrize("n, rows, fault", [
        (3, [[1, 2], [], [0]], None),
        (3, [[2, 1], [0], [0]], "neighbors of node 0 must be sorted and distinct"),
        (3, [[1, 1], [0], [0]], "neighbors of node 0 must be sorted and distinct"),
        (3, [[1], [1], [0]], "self-loop at node 1 is not allowed"),
        (3, [[1], [-1], [0]], "node 1 has out-neighbor -1 outside 0..2"),
        (3, [[1], [0], [3]], "node 2 has out-neighbor 3 outside 0..2"),
        # a row that runs past n can keep the keys increasing into the next row
        (3, [[1, 4], [], [0]], "node 0 has out-neighbor 4 outside 0..2"),
        (3, [[], [], []], None),
    ], ids=["valid", "unsorted", "repeated", "self-loop", "negative", "past-n", "past-n-keys-increasing", "no-edges"])
    def test_each_fault_kind(self, n, rows, fault):
        sources = np.repeat(np.arange(n, dtype=np.int64), [len(r) for r in rows])
        targets = np.array([v for r in rows for v in r], dtype=np.int64)
        assert scan_fault(n, sources, targets) == fault
        assert _edges_ordered(n, sources, targets) == (fault is None)


class TestMalformedInputs:
    """Each malformed input raises the same exception type as the tuple-based class."""

    @staticmethod
    def rejects(exc_type, n, rows):
        with pytest.raises(exc_type) as info:
            Digraph(n=n, out_neighbors=rows)
        assert info.type is exc_type

    @given(edge_sets(min_n=3))
    @settings(max_examples=100, deadline=None)
    def test_each_malformation_is_refused(self, case):
        n, edges = case
        rows = [list(r) for r in reference_rows(n, edges)[0]]
        self.rejects(ValueError, n, rows[:-1])
        self.rejects(ValueError, n, rows + [[0]])
        j = max(range(n), key=lambda k: len(rows[k]))
        if len(rows[j]) >= 2:
            self.rejects(ValueError, n, rows[:j] + [rows[j][::-1]] + rows[j + 1:])
        self.rejects(ValueError, n, rows[:j] + [sorted(rows[j] + [rows[j][0]])] + rows[j + 1:])
        self.rejects(ValueError, n, rows[:j] + [sorted(rows[j] + [j])] + rows[j + 1:])
        self.rejects(ValueError, n, rows[:j] + [rows[j] + [n]] + rows[j + 1:])
        self.rejects(ValueError, n, rows[:j] + [[-1] + rows[j]] + rows[j + 1:])
        no_way_in = [[v for v in row if v != j] for row in rows]
        self.rejects(NotStronglyConnectedError, n, no_way_in)

    def test_too_few_nodes(self):
        self.rejects(ValueError, 1, [[]])
        self.rejects(ValueError, 0, [])

    def test_id_beyond_int64_is_a_value_error(self):
        self.rejects(ValueError, 2, [[2**70], [0]])

    def test_edge_list_rejects_self_loop_and_out_of_range(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph.from_edge_list_text("2 3\n0 1\n1 0\n1 1\n")
        with pytest.raises(ValueError, match="outside node range"):
            Digraph.from_edge_list_text("2 2\n0 1\n1 2\n")
        with pytest.raises(NotStronglyConnectedError):
            Digraph.from_edge_list_text("2 1\n0 1\n")


# parses each text under a 2 GiB address-space limit and prints the error
# each one raises, so an n-sized allocation fails with MemoryError in the
# child instead of using up the machine's memory
_LIMITED_PARSE = """
import json, resource, sys
from qcs import Digraph
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
errors = []
for text in json.loads(sys.argv[1]):
    try:
        Digraph.from_edge_list_text(text)
        errors.append(None)
    except Exception as exc:
        errors.append([type(exc).__name__, str(exc)])
print(json.dumps(errors))
"""


class TestLargeHeaders:
    """A header's n is refused before any array of n entries is built."""

    NOT_CONNECTED = ["NotStronglyConnectedError", "digraph is not strongly connected; every ordered pair must be reachable"]
    CASES = {
        # 19 bytes: fewer edges than nodes leaves a node with no out-edge
        "1000000000 1\n0 1\n": NOT_CONNECTED,
        "3037000499 1\n0 1\n": NOT_CONNECTED,
        "3037000500 1\n0 1\n": [
            "ValueError", "header n=3037000500 is too large; edge lists hold at most 3037000499 nodes"
        ],
        "4000000000 2\n0 1\n1 0\n": [
            "ValueError", "header n=4000000000 is too large; edge lists hold at most 3037000499 nodes"
        ],
    }

    def test_refused_under_a_memory_limit(self):
        texts = list(self.CASES)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", _LIMITED_PARSE, json.dumps(texts)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert dict(zip(texts, json.loads(proc.stdout))) == self.CASES

    def test_negative_header_without_edges_needs_two_nodes(self):
        with pytest.raises(ValueError, match=r"^digraph needs at least 2 nodes, got n=-3$"):
            Digraph.from_edge_list_text("-3 0\n")

    def test_names_the_first_duplicate_in_edge_order(self):
        with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
            Digraph.from_edge_list_text("3 6\n2 0\n2 0\n1 2\n0 1\n1 2\n1 0\n")
