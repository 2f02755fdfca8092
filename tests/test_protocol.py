"""Per-node state machine: init, splitting, absorption, votes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcs import (
    InvalidInitializationError,
    NodeState,
    OutboundMessage,
    ProtocolError,
    VoteMessage,
    absorb,
    ceil_div,
    finalize_if_converged,
    floor_div,
    init_node,
    merge_votes,
    refresh_votes,
    split_mass,
    split_pieces,
)
from qcs.protocol import flood_votes, route_pieces, split_batch

from conftest import random_instance


def exhaustive_near_equal_partitions(y: int, z: int) -> set[tuple[int, ...]]:
    """Oracle: all sorted z-tuples of integers differing by <= 1 summing to y."""
    lo, hi = y // z, -(-y // z)
    out = set()
    for big in range(z + 1):
        if big * hi + (z - big) * lo == y:
            out.add(tuple(sorted([hi] * big + [lo] * (z - big))))
    return out


class TestDivisionHelpers:
    def test_floor_and_ceil(self):
        assert floor_div(7, 3) == 2
        assert ceil_div(7, 3) == 3
        assert floor_div(6, 3) == ceil_div(6, 3) == 2
        assert ceil_div(0, 2) == 0

    def test_zero_tokens_rejected(self):
        with pytest.raises(ProtocolError):
            floor_div(1, 0)


class TestInit:
    def test_doubles_both_values(self):
        s = init_node(0, y0=5, z0=1)
        assert (s.y, s.z) == (10, 2)
        assert s.y_initial == 10
        assert s.flag == 0

    def test_zero_mass_preserved(self):
        s = init_node(1, y0=0, z0=3)
        assert (s.y, s.z) == (0, 6)

    def test_tokenless_node_rejected(self):
        with pytest.raises(InvalidInitializationError):
            init_node(2, y0=4, z0=0)

    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidInitializationError):
            init_node(2, y0=-1, z0=1)


class TestSplit:
    def test_even_split_keeps_half(self):
        rng = np.random.default_rng(0)
        s = init_node(0, y0=5, z0=1)  # y=10, z=2
        kept, out = split_mass(s, out_neighbors=[1, 2], rng=rng)
        total_y = kept[0] + sum(m.c_y for m in out)
        total_z = kept[1] + sum(m.c_z for m in out)
        assert (total_y, total_z) == (10, 2)
        # two pieces of 5: whichever is routed, piece values are equal
        assert kept[0] == 5 * kept[1]
        assert s.estimate == 5

    def test_uneven_split_matches_partition_oracle(self):
        # the only near-equal partition of 7 into 3 pieces is {3, 2, 2}
        assert exhaustive_near_equal_partitions(7, 3) == {(2, 2, 3)}
        s = NodeState(node_id=0, y=7, z=3, y_initial=7, vote_max=3, vote_min=2, estimate=3)
        rng = np.random.default_rng(1)
        kept, out = split_mass(s, out_neighbors=[1], rng=rng)
        pieces_out_y = sum(m.c_y for m in out)
        assert kept[0] + pieces_out_y == 7
        assert kept[1] + sum(m.c_z for m in out) == 3
        # the kept batch contains the minimum-value piece
        assert kept[0] - 2 * kept[1] <= kept[1] - 1 or kept[1] == 1

    def test_zero_mass_split(self):
        s = NodeState(node_id=0, y=0, z=4, y_initial=0, vote_max=0, vote_min=0, estimate=0)
        rng = np.random.default_rng(2)
        kept, out = split_mass(s, out_neighbors=[1, 2, 3], rng=rng)
        assert kept[0] == 0
        assert sum(m.c_y for m in out) == 0
        assert kept[1] + sum(m.c_z for m in out) == 4
        assert all(m.c_z >= 1 for m in out)

    def test_split_requires_plural_tokens(self):
        with pytest.raises(ProtocolError):
            split_pieces(5, 1, 2, np.random.default_rng(0))

    def test_self_neighbor_rejected(self):
        s = init_node(0, y0=3, z0=2)
        with pytest.raises(ProtocolError):
            split_mass(s, out_neighbors=[0, 1], rng=np.random.default_rng(0))

    @given(
        y=st.integers(min_value=0, max_value=500),
        z=st.integers(min_value=2, max_value=60),
        degree=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=300, deadline=None)
    def test_split_properties(self, y, z, degree, seed):
        rng = np.random.default_rng(seed)
        kept_y, kept_z, c_y, c_z = split_pieces(y, z, degree, rng)
        delta, large = divmod(y, z)
        # conservation
        assert kept_y + int(c_y.sum()) == y
        assert kept_z + int(c_z.sum()) == z
        # the node always retains at least one token
        assert kept_z >= 1
        # per-slot coalesced values decompose into near-equal pieces
        big_out = 0
        for cy, cz in zip(c_y.tolist(), c_z.tolist()):
            if cz == 0:
                assert cy == 0  # mass never travels without a token
            else:
                assert delta * cz <= cy <= (delta + 1) * cz
                big_out += cy - delta * cz
        kept_big = kept_y - delta * kept_z
        assert 0 <= kept_big <= kept_z
        # exactly (y mod z) pieces take the larger value, and the piece
        # the node keeps for itself is a minimum-value one
        assert big_out + kept_big == large
        assert kept_big <= kept_z - 1


node_batches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),  # y
        st.integers(min_value=2, max_value=60),  # z
        st.integers(min_value=0, max_value=8),  # out-degree
    ),
    min_size=1,
    max_size=8,
)


class TestSplitBatch:
    @given(nodes=node_batches, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=300, deadline=None)
    def test_batch_properties(self, nodes, seed):
        y, z, deg = (np.array(col, dtype=np.int64) for col in zip(*nodes))
        kept_y, kept_z, c_y, c_z = split_batch(y, z, deg, np.random.default_rng(seed))
        assert len(c_y) == len(c_z) == deg.sum()
        first = np.cumsum(deg) - deg
        for i, (yi, zi, di) in enumerate(nodes):
            cy = c_y[first[i]:first[i] + di].tolist()
            cz = c_z[first[i]:first[i] + di].tolist()
            delta, large = divmod(yi, zi)
            # kept plus sent is the node's whole pair
            assert int(kept_y[i]) + sum(cy) == yi
            assert int(kept_z[i]) + sum(cz) == zi
            assert kept_z[i] >= 1
            big_out = 0
            for v, t in zip(cy, cz):
                assert t >= 0
                if t == 0:
                    assert v == 0  # no zero-token message carries mass
                else:
                    assert delta * t <= v <= (delta + 1) * t
                    big_out += v - delta * t
            kept_big = int(kept_y[i]) - delta * int(kept_z[i])
            # the large pieces, kept and sent, number exactly y mod z
            assert 0 <= kept_big <= kept_z[i] - 1
            assert big_out + kept_big == large

    @given(nodes=node_batches, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_batch_is_the_per_node_rule_on_one_stream(self, nodes, seed):
        y, z, deg = (np.array(col, dtype=np.int64) for col in zip(*nodes))
        kept_y, kept_z, c_y, c_z = split_batch(y, z, deg, np.random.default_rng(seed))
        # a one-node batch is split_pieces for the same generator state
        one = split_batch(y[:1], z[:1], deg[:1], np.random.default_rng(seed))
        single = split_pieces(int(y[0]), int(z[0]), int(deg[0]), np.random.default_rng(seed))
        assert (int(one[0][0]), int(one[1][0])) == single[:2]
        assert (one[2] == single[2]).all() and (one[3] == single[3]).all()
        # and the whole batch takes its pieces node by node from the stream
        rng = np.random.default_rng(seed)
        first = np.cumsum(deg) - deg
        for i, (yi, zi, di) in enumerate(nodes):
            ky, kz, cy, cz = split_pieces(yi, zi, di, rng)
            assert (ky, kz) == (kept_y[i], kept_z[i])
            assert (cy == c_y[first[i]:first[i] + di]).all()
            assert (cz == c_z[first[i]:first[i] + di]).all()

    def test_rejects_a_single_token_or_negative_mass_anywhere(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ProtocolError, match="z > 1"):
            split_batch([4, 4], [3, 1], [1, 1], rng)
        with pytest.raises(ProtocolError, match="y >= 0"):
            split_batch([4, -1], [3, 3], [1, 1], rng)

    def test_masses_near_int64_stay_exact(self):
        y = np.array([2**62 + 5, 2**61 + 3], dtype=np.int64)
        z = np.array([7, 3], dtype=np.int64)
        kept_y, kept_z, c_y, c_z = split_batch(y, z, [3, 2], np.random.default_rng(4))
        assert int(kept_y[0]) + int(c_y[:3].sum()) == 2**62 + 5
        assert int(kept_y[1]) + int(c_y[3:].sum()) == 2**61 + 3


class TestRouteAndFlood:
    def test_routed_messages_follow_the_out_edges(self):
        for seed in range(10):
            g, y0, z0 = random_instance(seed + 700)
            y = 2 * np.array(y0, dtype=np.int64)
            z = 2 * np.array(z0, dtype=np.int64)
            total = (int(y.sum()), int(z.sum()))
            nodes = np.flatnonzero(np.arange(g.n) % 3 != 1)
            before_y, before_z = y.copy(), z.copy()
            sent, dst, c_y, c_z = route_pieces(y, z, nodes, g.out_csr, np.random.default_rng(seed))
            src = np.repeat(nodes, sent)
            assert len(sent) == len(nodes) and sent.sum() == len(dst)
            assert (c_z >= 1).all()
            assert all(d in g.out_neighbors[s] for s, d in zip(src.tolist(), dst.tolist()))
            # ordered by sender, then by out-neighbor order
            keys = [(s, g.out_neighbors[s].index(d)) for s, d in zip(src.tolist(), dst.tolist())]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            untouched = np.setdiff1d(np.arange(g.n), nodes)
            assert (y[untouched] == before_y[untouched]).all()
            np.add.at(y, dst, c_y)
            np.add.at(z, dst, c_z)
            assert (int(y.sum()), int(z.sum())) == total

    def test_flood_matches_the_per_node_merge(self):
        for seed in range(10):
            g, y0, z0 = random_instance(seed + 720)
            rng = np.random.default_rng(seed)
            hi = rng.integers(0, 100, g.n)
            lo = hi - rng.integers(0, 5, g.n)
            if seed % 2:  # a subset of nodes, some senders terminated
                flag = rng.random(g.n) < 0.2
                nodes = np.flatnonzero(~flag & (rng.random(g.n) < 0.7))
            else:  # every node, none terminated
                flag = np.zeros(g.n, dtype=bool)
                nodes = np.arange(g.n)
            want = []
            for j in nodes.tolist():
                s = NodeState(j, 1, 1, 1, vote_max=int(hi[j]), vote_min=int(lo[j]), estimate=0)
                shown = [VoteMessage(i, int(hi[i]), int(lo[i])) for i in g.in_neighbors[j] if not flag[i]]
                merge_votes(s, shown)
                want.append((s.vote_max, s.vote_min))
            vote_max, vote_min = hi.copy(), lo.copy()
            flood_votes(vote_max, vote_min, flag, nodes, g.in_csr)
            assert list(zip(vote_max[nodes].tolist(), vote_min[nodes].tolist())) == want
            rest = np.setdiff1d(np.arange(g.n), nodes)
            assert (vote_max[rest] == hi[rest]).all() and (vote_min[rest] == lo[rest]).all()


class TestAbsorb:
    def test_no_arrivals(self):
        s = init_node(0, 5, 1)
        absorb(s, kept=(5, 1), received=[])
        assert (s.y, s.z) == (5, 1)

    def test_single_arrival(self):
        s = init_node(0, 5, 1)
        absorb(s, kept=(5, 1), received=[OutboundMessage(src=1, dst=0, c_y=3, c_z=1)])
        assert (s.y, s.z) == (8, 2)

    def test_multiple_arrivals_sum(self):
        s = init_node(0, 5, 1)
        msgs = [OutboundMessage(1, 0, 4, 2), OutboundMessage(2, 0, 1, 1)]
        absorb(s, kept=(2, 1), received=msgs)
        assert (s.y, s.z) == (7, 4)

    def test_misaddressed_message_rejected(self):
        from qcs import RoutingError

        s = init_node(0, 5, 1)
        with pytest.raises(RoutingError):
            absorb(s, kept=(5, 1), received=[OutboundMessage(1, 3, 1, 1)])


class TestVotes:
    def test_refresh(self):
        s = NodeState(0, y=7, z=3, y_initial=7, vote_max=0, vote_min=0, estimate=0)
        refresh_votes(s)
        assert (s.vote_max, s.vote_min) == (3, 2)
        s.y, s.z = 6, 3
        refresh_votes(s)
        assert (s.vote_max, s.vote_min) == (2, 2)
        s.y, s.z = 0, 2
        refresh_votes(s)
        assert (s.vote_max, s.vote_min) == (0, 0)

    def test_merge_takes_extrema(self):
        s = NodeState(0, 1, 1, 1, vote_max=3, vote_min=2, estimate=3)
        merge_votes(s, [VoteMessage(1, 5, 1)])
        assert (s.vote_max, s.vote_min) == (5, 1)

    def test_merge_empty_is_identity(self):
        s = NodeState(0, 1, 1, 1, vote_max=3, vote_min=3, estimate=3)
        merge_votes(s, [])
        assert (s.vote_max, s.vote_min) == (3, 3)

    def test_merge_at_consensus(self):
        s = NodeState(0, 1, 1, 1, vote_max=2, vote_min=2, estimate=2)
        merge_votes(s, [VoteMessage(1, 2, 2), VoteMessage(2, 2, 2)])
        assert (s.vote_max, s.vote_min) == (2, 2)

    @given(
        own=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
        votes=st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_merge_is_a_semilattice(self, own, votes):
        hi, lo = max(own), min(own)
        msgs = [VoteMessage(i, max(v), min(v)) for i, v in enumerate(votes)]

        def merged(ms):
            s = NodeState(0, 1, 1, 1, vote_max=hi, vote_min=lo, estimate=hi)
            merge_votes(s, ms)
            return (s.vote_max, s.vote_min)

        once = merged(msgs)
        # idempotent over multisets, commutative, associative
        assert merged(msgs + msgs) == once
        assert merged(list(reversed(msgs))) == once
        s = NodeState(0, 1, 1, 1, vote_max=hi, vote_min=lo, estimate=hi)
        for m in msgs:
            merge_votes(s, [m])
        assert (s.vote_max, s.vote_min) == once


class TestFinalize:
    def test_gap_one_flips(self):
        s = NodeState(0, 1, 1, 1, vote_max=7, vote_min=6, estimate=9)
        finalize_if_converged(s)
        assert (s.flag, s.estimate) == (1, 6)

    def test_gap_two_holds(self):
        s = NodeState(0, 1, 1, 1, vote_max=7, vote_min=5, estimate=9)
        finalize_if_converged(s)
        assert (s.flag, s.estimate) == (0, 9)

    def test_exact_consensus_flips(self):
        s = NodeState(0, 1, 1, 1, vote_max=4, vote_min=4, estimate=9)
        finalize_if_converged(s)
        assert (s.flag, s.estimate) == (1, 4)


class TestMessages:
    def test_empty_message_never_exists(self):
        with pytest.raises(ProtocolError):
            OutboundMessage(src=0, dst=1, c_y=0, c_z=0)

    def test_vote_message_orders_pair(self):
        with pytest.raises(ProtocolError):
            VoteMessage(src=0, vote_max=1, vote_min=2)
