"""The protocol rules: initialization, splitting, delivery, votes and the
flip rule, checked on the array kernels of `qcs.protocol` and on the engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcs import (
    AsyncEngine,
    DelayModel,
    Digraph,
    InvariantError,
    ProtocolError,
    RunConfig,
    SyncEngine,
    ceil_div,
    floor_div,
    split_pieces,
)
from qcs.protocol import flood_votes, route_pieces, split_batch

from conftest import bidirectional_pair, complete, random_instance, ring

ENGINES = (SyncEngine, lambda cfg: AsyncEngine(cfg, DelayModel(max_delay=3)))


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
        for make in ENGINES:
            eng = make(RunConfig(graph=ring(3), y0=[5, 0, 7], z0=[1, 3, 2]))
            assert eng.y.tolist() == [10, 0, 14]
            assert eng.z.tolist() == [2, 6, 4]
            assert (eng.y_initial == eng.y).all()
            assert not eng.flag.any()

    def test_zero_mass_preserved(self):
        for make in ENGINES:
            eng = make(RunConfig(graph=ring(3), y0=[0, 0, 0], z0=[3, 1, 2], seed=1))
            assert eng.y.tolist() == [0, 0, 0] and eng.z.tolist() == [6, 2, 4]
            out = eng.run()
            assert out.converged and (out.final_estimate == 0).all()
            assert out.final_y.sum() == 0 and out.final_z.sum() == 12

    def test_tokenless_node_rejected(self):
        for make in ENGINES:
            with pytest.raises(ValueError, match=r"z0\[2\]"):
                make(RunConfig(graph=ring(3), y0=[4, 4, 4], z0=[1, 1, 0]))

    def test_negative_mass_rejected(self):
        for make in ENGINES:
            with pytest.raises(ValueError, match=r"y0\[1\]"):
                make(RunConfig(graph=ring(3), y0=[4, -1, 4], z0=[1, 1, 1]))


class TestSplit:
    def test_even_split_keeps_half(self):
        for seed in range(20):
            kept_y, kept_z, c_y, c_z = split_pieces(10, 2, 2, np.random.default_rng(seed))
            assert (kept_y + int(c_y.sum()), kept_z + int(c_z.sum())) == (10, 2)
            # two pieces of 5: whichever is routed, piece values are equal
            assert kept_y == 5 * kept_z

    def test_uneven_split_matches_partition_oracle(self):
        # the only near-equal partition of 7 into 3 pieces is {3, 2, 2}
        assert exhaustive_near_equal_partitions(7, 3) == {(2, 2, 3)}
        for seed in range(20):
            kept_y, kept_z, c_y, c_z = split_pieces(7, 3, 1, np.random.default_rng(seed))
            assert (kept_y + int(c_y.sum()), kept_z + int(c_z.sum())) == (7, 3)
            # the kept batch contains the minimum-value piece, so at most
            # kept_z - 1 of its pieces are the large one
            assert 0 <= kept_y - 2 * kept_z <= kept_z - 1

    def test_zero_mass_split(self):
        g = complete(4)
        for seed in range(10):
            y = np.zeros(4, dtype=np.int64)
            z = np.array([4, 2, 2, 2], dtype=np.int64)
            sent, dst, c_y, c_z = route_pieces(y, z, np.array([0]), g.out_csr, np.random.default_rng(seed))
            assert y[0] == 0 and (c_y == 0).all()
            assert z[0] + int(c_z.sum()) == 4
            assert (c_z >= 1).all() and sent[0] == len(dst)

    def test_split_requires_plural_tokens(self):
        with pytest.raises(ProtocolError):
            split_pieces(5, 1, 2, np.random.default_rng(0))

    def test_self_neighbor_rejected(self):
        # a node routes over its out-neighbors plus itself (the kept pair),
        # so a graph that lists a node as its own out-neighbor is refused
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(n=2, out_neighbors=((0, 1), (0,)))

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
                shown = [i for i in g.in_neighbors[j] if not flag[i]]
                want.append((max([int(hi[j])] + [int(hi[i]) for i in shown]),
                             min([int(lo[j])] + [int(lo[i]) for i in shown])))
            vote_max, vote_min = hi.copy(), lo.copy()
            flood_votes(vote_max, vote_min, flag, nodes, g.in_csr)
            assert list(zip(vote_max[nodes].tolist(), vote_min[nodes].tolist())) == want
            rest = np.setdiff1d(np.arange(g.n), nodes)
            assert (vote_max[rest] == hi[rest]).all() and (vote_min[rest] == lo[rest]).all()


def delivery_cases(seeds=range(6)):
    """(kept, arrivals, after) per node and step of recorded sync runs.

    kept is the node's (y, z) at the step's start less what it sent, as
    logged; arrivals are the (c_y, c_z) of the messages logged to it.
    """
    for seed in seeds:
        g, y0, z0 = random_instance(seed + 900)
        eng = SyncEngine(RunConfig(graph=g, y0=y0, z0=z0, seed=seed, record_trajectory=True))
        while not eng.all_flagged():
            kept_y, kept_z = eng.y.copy(), eng.z.copy()
            logged = len(eng.emission_log)
            eng.step()
            arrivals = [[] for _ in range(eng.n)]
            for m in list(eng.emission_log)[logged:]:
                kept_y[m.src] -= m.c_y
                kept_z[m.src] -= m.c_z
                arrivals[m.dst].append((m.c_y, m.c_z))
            for j in range(eng.n):
                yield (int(kept_y[j]), int(kept_z[j])), arrivals[j], (int(eng.y[j]), int(eng.z[j]))


def absorbed(kept, arrivals):
    return kept[0] + sum(a[0] for a in arrivals), kept[1] + sum(a[1] for a in arrivals)


class TestAbsorb:
    """A node ends a step holding its kept pair plus every message sent to it."""

    def test_no_arrivals(self):
        cases = [(k, a, after) for k, a, after in delivery_cases() if not a]
        assert cases
        assert all(after == kept for kept, _, after in cases)

    def test_single_arrival(self):
        cases = [(k, a, after) for k, a, after in delivery_cases() if len(a) == 1]
        assert cases
        assert all(after == absorbed(kept, a) for kept, a, after in cases)

    def test_multiple_arrivals_sum(self):
        cases = [(k, a, after) for k, a, after in delivery_cases() if len(a) > 1]
        assert cases
        assert all(after == absorbed(kept, a) for kept, a, after in cases)

    def test_misaddressed_message_rejected(self):
        # mass must never reach a node that has stopped
        eng = SyncEngine(RunConfig(graph=complete(5), y0=[50] * 5, z0=[10] * 5, seed=0))
        eng.flag[4] = True
        with pytest.raises(InvariantError, match="terminated node"):
            eng.step()


def star_merge(own, votes):
    """A node's (max, min) votes after one flood from in-neighbors holding `votes`."""
    m = len(votes)
    g = Digraph(n=m + 1, out_neighbors=(tuple(range(1, m + 1)),) + ((0,),) * m)
    vote_max = np.array([own[0]] + [v[0] for v in votes], dtype=np.int64)
    vote_min = np.array([own[1]] + [v[1] for v in votes], dtype=np.int64)
    flood_votes(vote_max, vote_min, np.zeros(m + 1, dtype=bool), np.array([0]), g.in_csr)
    return int(vote_max[0]), int(vote_min[0])


class TestVotes:
    def test_refresh(self):
        # votes start at (ceil, floor) of each node's own ratio
        for make in ENGINES:
            eng = make(RunConfig(graph=ring(3), y0=[7, 6, 0], z0=[3, 3, 2]))
            assert eng.vote_max.tolist() == [3, 2, 0]
            assert eng.vote_min.tolist() == [2, 2, 0]

    def test_merge_takes_extrema(self):
        assert star_merge((3, 2), [(5, 1)]) == (5, 1)

    def test_merge_empty_is_identity(self):
        # a terminated in-neighbor exposes nothing, and an empty hop is a no-op
        in_csr = bidirectional_pair().in_csr
        vote_max, vote_min = np.array([3, 9]), np.array([3, 0])
        flood_votes(vote_max, vote_min, np.array([False, True]), np.array([0]), in_csr)
        flood_votes(vote_max, vote_min, np.zeros(2, dtype=bool), np.array([], dtype=np.int64), in_csr)
        assert vote_max.tolist() == [3, 9] and vote_min.tolist() == [3, 0]

    def test_merge_at_consensus(self):
        assert star_merge((2, 2), [(2, 2), (2, 2)]) == (2, 2)

    @given(
        own=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
        votes=st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_merge_is_a_semilattice(self, own, votes):
        own = (max(own), min(own))
        votes = [(max(v), min(v)) for v in votes]
        once = star_merge(own, votes)
        assert once == (max([own[0]] + [v[0] for v in votes]), min([own[1]] + [v[1] for v in votes]))
        # idempotent over multisets, commutative, associative
        assert star_merge(own, votes + votes) == once
        assert star_merge(own, list(reversed(votes))) == once
        state = own
        for v in votes:
            state = star_merge(state, [v])
        assert state == once


class TestFinalize:
    """At a window boundary every node flips when the flooded window-start
    votes differ by at most one, freezing its estimate at the min vote."""

    def test_gap_one_flips(self):
        # ratios 3 and 3.5: window-start votes max 4, min 3
        for make in ENGINES:
            eng = make(RunConfig(graph=ring(4), y0=[6, 7, 6, 7], z0=[2] * 4, seed=1))
            out = eng.run()
            assert out.termination_step == eng.window
            assert (out.final_estimate == 3).all()

    def test_gap_two_holds(self):
        # ratios 3 and 4.5: window-start votes max 5, min 3
        for make in ENGINES:
            eng = make(RunConfig(graph=ring(4), y0=[6, 9, 6, 9], z0=[2] * 4, seed=1))
            for _ in range(eng.window):
                eng.step()
            assert (eng.vote_max == 5).all() and (eng.vote_min == 3).all()
            assert not eng.flag.any()
            out = eng.run()
            assert out.converged and out.termination_step > eng.window

    def test_exact_consensus_flips(self):
        for make in ENGINES:
            eng = make(RunConfig(graph=ring(4), y0=[4, 8, 12, 4], z0=[1, 2, 3, 1], seed=1))
            out = eng.run()
            assert out.termination_step == eng.window
            assert (out.final_estimate == 4).all()


class TestMessages:
    def test_empty_message_never_exists(self):
        # a node with few tokens and many out-neighbors leaves most slots
        # empty; routing returns only the nonempty ones
        g = complete(9)
        for seed in range(20):
            y = np.full(9, 5, dtype=np.int64)
            z = np.full(9, 3, dtype=np.int64)
            sent, dst, c_y, c_z = route_pieces(y, z, np.array([0, 4]), g.out_csr, np.random.default_rng(seed))
            assert (sent <= 2).all() and sent.sum() == len(dst)
            assert (c_z >= 1).all()

    def test_vote_message_orders_pair(self):
        # every node's vote pair stays ordered, max over min, at every step
        for make in ENGINES:
            for seed in range(5):
                g, y0, z0 = random_instance(seed + 950)
                out = make(RunConfig(graph=g, y0=y0, z0=z0, seed=seed, record_trajectory=True)).run()
                assert all((rec.vote_max >= rec.vote_min).all() for rec in out.trajectory)
