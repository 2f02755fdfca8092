"""The protocol rules: initialization, splitting, delivery, votes and the
flip rule, checked on the array kernels of `qcs.protocol` and on the engine."""

from __future__ import annotations

from functools import partial

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
from qcs.engine import _validate_config
from qcs.protocol import WHOLE_GRAPH_EDGES, RouteStream, flood_votes, route_messages, routing_slots, split_route

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


def split_and_send(y, z, nodes, slots, rng):
    """split_route of `nodes` on the batch (y, z), held apart from it, and
    its messages: ((src, dst, c_y, c_z), held), where held is what each
    node holds afterwards."""
    batch = np.array((y, z), dtype=np.int64)
    held = batch.copy()
    split = np.zeros(y.size, dtype=bool)
    split[nodes] = True
    pieces, values = split_route(batch, held, split, slots, partial(rng.integers, 0))
    assert (batch == (y, z)).all()  # the batch is only read
    return route_messages(slots, pieces, values), held


def message_totals(n, at, *columns):
    """The columns' totals at each of n nodes, summed by the node `at` names."""
    out = np.zeros((len(columns), n), dtype=np.int64)
    for row, c in zip(out, columns):
        np.add.at(row, at, c)
    return out


def kept_pairs(y, z, messages, held):
    """(kept, received): what each node holds less what it received, and
    the message totals it received; after asserting that every node
    holds its batch less what it sent plus what it received."""
    src, dst, c_y, c_z = messages
    received = message_totals(y.size, dst, c_y, c_z)
    assert (held == np.array((y, z)) - message_totals(y.size, src, c_y, c_z) + received).all()
    return held - received, received


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
            assert not eng.all_flagged()

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
        slots = routing_slots(complete(4).out_csr)
        for seed in range(10):
            y = np.zeros(4, dtype=np.int64)
            z = np.array([4, 2, 2, 2], dtype=np.int64)
            messages, held = split_and_send(y, z, np.array([0]), slots, np.random.default_rng(seed))
            src, dst, c_y, c_z = messages
            (kept_y, kept_z), received = kept_pairs(y, z, messages, held)
            assert kept_y[0] == 0 and (c_y == 0).all()
            assert kept_z[0] + int(c_z.sum()) == 4
            assert (c_z >= 1).all() and (src == 0).all()
            assert (held[0] == 0).all() and received[1, dst].tolist() == c_z.tolist()

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


def batch_network(nodes):
    """(y, z, out_neighbors, slots) for split nodes 0..len(nodes)-1.

    Node i's out-neighbors are the next out-degree ids after it, modulo
    len(nodes) + 8, so nine or more ids and no self-loop; the ids past
    the split nodes only receive, and hold no mass on one token.
    """
    y, z, deg = (np.array(col, dtype=np.int64) for col in zip(*nodes))
    n = len(nodes) + 8
    out = [[(i + 1 + t) % n for t in range(d)] for i, d in enumerate(deg.tolist())]
    out += [[] for _ in range(8)]
    indptr = np.cumsum([0] + [len(row) for row in out])
    targets = np.array([t for row in out for t in row], dtype=np.int64)
    pad = np.zeros(8, dtype=np.int64)
    return np.concatenate((y, pad)), np.concatenate((z, pad + 1)), out, routing_slots((indptr, targets))


def per_slot(out_neighbors, i, src, dst, c):
    """Node i's message totals per out-neighbor slot, zeros where it sent none."""
    totals = np.zeros(len(out_neighbors[i]), dtype=np.int64)
    for s_, d_, v in zip(src.tolist(), dst.tolist(), c.tolist()):
        if s_ == i:
            totals[out_neighbors[i].index(d_)] = v
    return totals


class TestSplitBatch:
    """split_route on a batch of nodes: the split, the kept pairs and the messages."""

    @given(nodes=node_batches, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=300, deadline=None)
    def test_batch_properties(self, nodes, seed):
        y, z, out, slots = batch_network(nodes)
        split = np.arange(len(nodes))
        messages, held = split_and_send(y, z, split, slots, np.random.default_rng(seed))
        src, dst, c_y, c_z = messages
        assert len(src) == len(dst) == len(c_y) == len(c_z)
        # every node holds its kept pair plus the message totals sent to it
        (kept_y, kept_z), _ = kept_pairs(y, z, messages, held)
        # messages travel on out-edges only, ordered by sender then by
        # out-neighbor order, and none is empty
        keys = [(s_, out[s_].index(d_)) for s_, d_ in zip(src.tolist(), dst.tolist())]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert (c_z >= 1).all()
        for i, (yi, zi, _) in enumerate(nodes):
            mine = src == i
            cy, cz = c_y[mine].tolist(), c_z[mine].tolist()
            delta, large = divmod(yi, zi)
            # kept plus sent is the node's whole pair
            assert int(kept_y[i]) + sum(cy) == yi
            assert int(kept_z[i]) + sum(cz) == zi
            assert kept_z[i] >= 1
            big_out = 0
            for v, t in zip(cy, cz):
                assert delta * t <= v <= (delta + 1) * t
                big_out += v - delta * t
            kept_big = int(kept_y[i]) - delta * int(kept_z[i])
            # the large pieces, kept and sent, number exactly y mod z, and
            # the piece the node keeps for itself is a minimum-value one
            assert 0 <= kept_big <= kept_z[i] - 1
            assert big_out + kept_big == large
        # the receive-only ids keep their own pair
        assert (kept_y[len(nodes):] == 0).all() and (kept_z[len(nodes):] == 1).all()

    @given(nodes=node_batches, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_batch_is_the_per_node_rule_on_one_stream(self, nodes, seed):
        y, z, out, slots = batch_network(nodes)
        split = np.arange(len(nodes))
        messages, held = split_and_send(y, z, split, slots, np.random.default_rng(seed))
        src, dst, c_y, c_z = messages
        (kept_y, kept_z), _ = kept_pairs(y, z, messages, held)
        # the batch takes its pieces node by node from the stream, each as
        # split_pieces, the one-node case, would for the same generator state
        rng = np.random.default_rng(seed)
        for i, (yi, zi, di) in enumerate(nodes):
            ky, kz, cy, cz = split_pieces(yi, zi, di, rng)
            assert (ky, kz) == (kept_y[i], kept_z[i])
            assert (cy == per_slot(out, i, src, dst, c_y)).all()
            assert (cz == per_slot(out, i, src, dst, c_z)).all()

    @pytest.mark.parametrize("batch, message", [
        ([[4, 4], [3, 1]], r"^split requires z > 1, got z=1 \(caller must hold\)$"),
        ([[4, -1], [3, 3]], r"^split requires y >= 0, got y=-1$"),
        # with both faults, the token count is named
        ([[-1, 4], [3, 1]], r"^split requires z > 1, got z=1 \(caller must hold\)$"),
    ])
    def test_rejects_a_single_token_or_negative_mass_anywhere(self, batch, message):
        slots = routing_slots(bidirectional_pair().out_csr)
        batch = np.array(batch, dtype=np.int64)
        for held in (batch, batch.copy()):
            before = held.copy()
            with pytest.raises(ProtocolError, match=message):
                split_route(batch, held, np.ones(2, dtype=bool), slots, partial(np.random.default_rng(0).integers, 0))
            assert (held == before).all()

    def test_a_single_token_outside_the_mask_holds_but_negative_mass_does_not(self):
        slots = routing_slots(bidirectional_pair().out_csr)
        draw = partial(np.random.default_rng(0).integers, 0)
        batch = np.array([[7, 0], [3, 1]], dtype=np.int64)
        held = batch.copy()
        pieces, values = split_route(batch, held, np.array([True, False]), slots, draw)
        assert len(pieces) == len(values) == 2
        assert held.sum(axis=1).tolist() == [7, 4] and held[1].min() >= 1
        batch[0, 1] = -1
        with pytest.raises(ProtocolError, match=r"^split requires y >= 0, got y=-1$"):
            split_route(batch, batch.copy(), np.array([True, False]), slots, draw)

    def test_refuses_a_batch_beyond_the_held_pair(self):
        # a node can only split what it holds, and a batch beyond it is
        # refused at any node; an alias of the batch always holds it
        slots = routing_slots(bidirectional_pair().out_csr)
        batch = np.array([[4, 4], [3, 3]], dtype=np.int64)
        for row in (0, 1):
            for split in (np.ones(2, dtype=bool), np.array([True, False])):
                held = batch.copy()
                held[row, 1] -= 1
                before = held.copy()
                with pytest.raises(ProtocolError, match="^split requires the batch within the held pair$"):
                    split_route(batch, held, split, slots, partial(np.random.default_rng(0).integers, 0))
                assert (held == before).all()

    def test_masses_near_int64_stay_exact(self):
        y = np.array([2**62 + 5, 2**61 + 3], dtype=np.int64)
        z = np.array([7, 3], dtype=np.int64)
        slots = routing_slots(bidirectional_pair().out_csr)
        messages, held = split_and_send(y, z, np.array([0, 1]), slots, np.random.default_rng(4))
        src, dst, c_y, c_z = messages
        (kept_y, _), received = kept_pairs(y, z, messages, held)
        # on a pair, each node's messages are the other's arrivals
        assert src.tolist() == [1 - d for d in dst.tolist()]
        assert int(kept_y[0]) + int(received[0, 1]) == 2**62 + 5
        assert int(kept_y[1]) + int(received[0, 0]) == 2**61 + 3
        assert int(held[0].sum()) == 2**62 + 2**61 + 8

    def test_slots_list_out_neighbors_then_self(self):
        g, _, _ = random_instance(710)
        first, count, dst = routing_slots(g.out_csr)
        for j in range(g.n):
            # the own slot names the node itself
            assert dst[first[j]:first[j] + count[j]].tolist() == list(g.out_neighbors[j]) + [j]
        assert first[-1] + count[-1] == len(dst)

    def test_slots_equal_the_insert_layout(self):
        # the layout as np.insert builds it: node j's own slot, receiver
        # j, after its out-edges
        for seed in range(30):
            g, _, _ = random_instance(seed + 730, n_range=(2, 40), p_range=(0.35, 1.0))
            indptr, targets = g.out_csr
            first, count, dst = routing_slots(g.out_csr)
            assert dst.tolist() == np.insert(targets, indptr[1:], np.arange(g.n)).tolist()
            assert first.tolist() == (indptr[:-1] + np.arange(g.n)).tolist()
            assert count.tolist() == (np.diff(indptr) + 1).tolist()
            assert dst.dtype == np.int64

    def test_every_node_splitting_matches_a_partial_batch(self):
        # every node splitting gives what the same split gives when an
        # extra receive-only node makes the batch partial
        for seed in range(20):
            g, y0, z0 = random_instance(seed + 740)
            y = 2 * np.array(y0, dtype=np.int64)
            z = 2 * np.array(z0, dtype=np.int64)
            indptr, targets = g.out_csr
            padded = (np.append(indptr, indptr[-1]), targets)
            y1, z1 = np.append(y, 0), np.append(z, 1)
            whole = split_and_send(y, z, np.arange(g.n), routing_slots(g.out_csr), np.random.default_rng(seed))
            part = split_and_send(y1, z1, np.arange(g.n), routing_slots(padded), np.random.default_rng(seed))
            for a, b in zip(whole[0], part[0]):
                assert a.tolist() == b.tolist()
            assert whole[1].tolist() == part[1][:, :-1].tolist() and part[1][:, -1].tolist() == [0, 1]


def reference_split(g, y, z, nodes, seed):
    """The split of `nodes`, piece by piece in Python, from the draws
    split_route takes with a Generator seeded `seed`: (kept pairs by
    node, messages as (src, dst, c_y, c_z) by sender, then by
    out-neighbor order)."""
    widths = np.array([len(g.out_neighbors[j]) + 1 for j in nodes.tolist()], dtype=np.int64)
    draws = iter(np.random.default_rng(seed).integers(0, widths.repeat(z[nodes] - 1)).tolist())
    kept, messages = {}, {}
    for j in nodes.tolist():
        yj, zj = int(y[j]), int(z[j])
        delta, large = divmod(yj, zj)
        kept_y, kept_z = delta, 1
        for i in range(zj - 1):
            slot = next(draws)
            value = delta + 1 if i < large else delta
            if slot == len(g.out_neighbors[j]):
                kept_y, kept_z = kept_y + value, kept_z + 1
            else:
                msg = messages.setdefault((j, slot), [j, g.out_neighbors[j][slot], 0, 0])
                msg[2] += value
                msg[3] += 1
        kept[j] = (kept_y, kept_z)
    return kept, [tuple(messages[key]) for key in sorted(messages)]


class TestDeliveryByReceiver:
    """split_route's by-receiver delivery against a per-piece reference
    and route_messages, on whole, partial and single-node batches, with
    the held pairs the batch itself or apart from it."""

    @pytest.mark.parametrize("delayed", [False, True])
    def test_kernel_matches_the_per_piece_rule(self, delayed):
        for seed in range(60):
            g, y0, z0 = random_instance(seed + 760, n_range=(2, 12), y_range=(0, 10**4), z_range=(1, 12))
            y = 2 * np.array(y0, dtype=np.int64)
            z = 2 * np.array(z0, dtype=np.int64)
            pick = np.random.default_rng(seed)
            nodes = (
                np.arange(g.n),
                np.flatnonzero(pick.random(g.n) < 0.5),
                pick.integers(g.n, size=1),
            )[seed % 3]
            if not nodes.size:
                continue
            kept, messages = reference_split(g, y, z, nodes, seed)
            batch = np.array((y, z))
            # under delays a node holds arrivals queued behind its batch
            queued = pick.integers(0, 50, (2, g.n)) if delayed else np.zeros((2, g.n), dtype=np.int64)
            want = batch + queued
            for j, pair in kept.items():
                want[:, j] = queued[:, j] + pair
            for _, d, cy, cz in messages:
                want[:, d] += (cy, cz)
            held = batch + queued if delayed else batch
            total = held.sum(axis=1).tolist()
            slots = routing_slots(g.out_csr)
            split = np.isin(np.arange(g.n), nodes)
            pieces, values = split_route(batch, held, split, slots, partial(np.random.default_rng(seed).integers, 0))
            src, dst, c_y, c_z = route_messages(slots, pieces, values)
            assert list(zip(*(a.tolist() for a in (src, dst, c_y, c_z)))) == messages
            # each node holds its queue, its kept pair or unsplit batch,
            # and the sum of the messages to it
            assert (held == want).all()
            assert held.sum(axis=1).tolist() == total
            if delayed:
                assert (batch == (y, z)).all()

    def test_recording_leaves_the_run_unchanged(self):
        # the emission log is built beside the run, never in its path
        for make in ENGINES:
            for seed in range(8):
                g, y0, z0 = random_instance(seed + 790, n_range=(2, 12))
                plain, recording = (
                    make(RunConfig(graph=g, y0=y0, z0=z0, seed=seed, record_trajectory=record))
                    for record in (False, True)
                )
                plain.run(), recording.run()
                assert recording.emission_log is not None and plain.emission_log is None
                assert (plain.flag_step, plain.steps_done) == (recording.flag_step, recording.steps_done)
                for name in ("held", "batch", "estimate", "vote_max", "vote_min", "busy_until", "cycle_start"):
                    a, b = getattr(plain, name), getattr(recording, name)
                    assert (a is None and b is None) or a.tolist() == b.tolist()


class TestRouteAndFlood:
    def test_routed_messages_follow_the_out_edges(self):
        for seed in range(10):
            g, y0, z0 = random_instance(seed + 700)
            y = 2 * np.array(y0, dtype=np.int64)
            z = 2 * np.array(z0, dtype=np.int64)
            total = (int(y.sum()), int(z.sum()))
            nodes = np.flatnonzero(np.arange(g.n) % 3 != 1)
            messages, held = split_and_send(y, z, nodes, routing_slots(g.out_csr), np.random.default_rng(seed))
            src, dst, c_y, c_z = messages
            assert len(src) == len(dst)
            assert (c_z >= 1).all()
            assert all(d in g.out_neighbors[s] for s, d in zip(src.tolist(), dst.tolist()))
            # ordered by sender, then by out-neighbor order
            keys = [(s, g.out_neighbors[s].index(d)) for s, d in zip(src.tolist(), dst.tolist())]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            # every node holds its batch less what it sent plus what it
            # received, and a node outside `nodes` sent nothing
            kept, _ = kept_pairs(y, z, messages, held)
            untouched = np.setdiff1d(np.arange(g.n), nodes)
            assert (kept[:, untouched] == (y[untouched], z[untouched])).all()
            assert tuple(held.sum(axis=1).tolist()) == total

    def test_sender_index_per_message(self):
        g, y0, z0 = random_instance(705)
        y = 2 * np.array(y0, dtype=np.int64)
        z = 2 * np.array(z0, dtype=np.int64)
        (src, dst, _, _), _ = split_and_send(y, z, np.arange(g.n), routing_slots(g.out_csr), np.random.default_rng(0))
        # one sender per message, nondecreasing, each on an out-edge of its sender
        assert len(src) == len(dst) and (np.diff(src) >= 0).all()
        assert all(d in g.out_neighbors[s] for s, d in zip(src.tolist(), dst.tolist()))

    def test_voters_are_the_in_neighbors_then_the_node(self):
        for seed in range(20):
            g, _, _ = random_instance(seed + 770, n_range=(2, 40), p_range=(0.35, 1.0))
            first, count, voters = routing_slots(g.in_csr)
            for j in range(g.n):
                assert voters[first[j]:first[j] + count[j]].tolist() == list(g.in_neighbors[j]) + [j]
            # the segments tile the voters in node order
            assert first.tolist() == (np.cumsum(count) - count).tolist() and count.sum() == voters.size
            assert voters.dtype == np.int64

    def test_flood_matches_the_per_node_merge(self):
        # graphs of up to 20 nodes lie below WHOLE_GRAPH_EDGES, and those of
        # 75 to 90 nodes at p >= 0.5 above it, so both paths run
        for seed in range(20):
            small = seed < 10
            g, y0, z0 = random_instance(seed + 720, n_range=(3, 20) if small else (75, 90),
                                        p_range=(0.3, 0.8) if small else (0.5, 0.8))
            assert (g.in_csr[1].size <= WHOLE_GRAPH_EDGES) == small
            rng = np.random.default_rng(seed)
            hi = rng.integers(0, 100, g.n)
            lo = hi - rng.integers(0, 5, g.n)
            if seed % 2:  # a subset of nodes
                nodes = np.flatnonzero(rng.random(g.n) < 0.7)
            else:  # every node
                nodes = np.arange(g.n)
            want = []
            for j in nodes.tolist():
                shown = g.in_neighbors[j]
                want.append((max([int(hi[j])] + [int(hi[i]) for i in shown]),
                             min([int(lo[j])] + [int(lo[i]) for i in shown])))
            vote_max, vote_min = hi.copy(), lo.copy()
            flood_votes(vote_max, vote_min, nodes, routing_slots(g.in_csr))
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


def star_merge(own, votes):
    """A node's (max, min) votes after one flood from in-neighbors holding `votes`."""
    m = len(votes)
    g = Digraph(n=m + 1, out_neighbors=(tuple(range(1, m + 1)),) + ((0,),) * m)
    vote_max = np.array([own[0]] + [v[0] for v in votes], dtype=np.int64)
    vote_min = np.array([own[1]] + [v[1] for v in votes], dtype=np.int64)
    flood_votes(vote_max, vote_min, np.array([0]), routing_slots(g.in_csr))
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
        # an empty hop is a no-op
        in_csr = bidirectional_pair().in_csr
        vote_max, vote_min = np.array([3, 9]), np.array([3, 0])
        flood_votes(vote_max, vote_min, np.array([], dtype=np.int64), routing_slots(in_csr))
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
            assert not eng.all_flagged()
            out = eng.run()
            assert out.converged and out.termination_step > eng.window

    def test_partial_flip_is_refused_without_invariant_checks(self):
        # flags flip all at once or not at all, also with checks off
        for make in ENGINES:
            eng = make(RunConfig(graph=ring(4), y0=[6, 7, 6, 7], z0=[2] * 4, seed=1, check_invariants=False))
            for _ in range(eng.window - 1):
                eng.step()
            eng.vote_max[0] += 5  # one hop spreads it to one more node at most
            with pytest.raises(InvariantError, match="simultaneously"):
                eng.step()
            assert not eng.all_flagged()

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
        slots = routing_slots(complete(9).out_csr)
        for seed in range(20):
            y = np.full(9, 5, dtype=np.int64)
            z = np.full(9, 3, dtype=np.int64)
            (src, dst, c_y, c_z), _ = split_and_send(y, z, np.array([0, 4]), slots, np.random.default_rng(seed))
            assert set(src.tolist()) <= {0, 4} and (np.bincount(src, minlength=5) <= 2).all()
            assert (c_z >= 1).all()

    def test_vote_message_orders_pair(self):
        # every node's vote pair stays ordered, max over min, at every step
        for make in ENGINES:
            for seed in range(5):
                g, y0, z0 = random_instance(seed + 950)
                out = make(RunConfig(graph=g, y0=y0, z0=z0, seed=seed, record_trajectory=True)).run()
                assert all((rec.vote_max >= rec.vote_min).all() for rec in out.trajectory)


# bounds for route draws: small widths, widths around 2**31 where about
# half of all draws are rejected, and any width up to 2**32 - 1
route_bounds = st.one_of(
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=2**31 - 2**10, max_value=2**31 + 2**20),
    st.integers(min_value=2**32 - 2**10, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=2**32 - 1),
)


def stream_pair(seed: int) -> tuple[RouteStream, np.random.Generator]:
    """A route stream and a Generator seeded alike, as the engine seeds routing."""
    return RouteStream(np.random.PCG64([seed, 0])), np.random.default_rng([seed, 0])


class TestRouteStream:
    @given(
        calls=st.lists(st.lists(route_bounds, max_size=200), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_draws_what_generator_integers_draws(self, calls, seed):
        stream, gen = stream_pair(seed)
        for bounds in calls:
            high = np.array(bounds, dtype=np.int64)
            got = stream.integers(0, high)
            assert got.dtype == np.int64
            assert got.tolist() == gen.integers(0, high).tolist()
        # both stand at the same point afterwards, whichever half is next
        for high in ([3, 2**31 + 1, 7], [2**31 + 5] * 4):
            high = np.array(high, dtype=np.int64)
            assert stream.integers(0, high).tolist() == gen.integers(0, high).tolist()

    def test_draws_past_one_fill(self):
        # more halves than one buffer of raw words holds, after an odd
        # call that leaves a word's high half unread; then bounds of
        # 2**31 + 1, which reject about half their draws, past the first
        # 2**14-draw scan block and at the very end, so rejections shift
        # tails across fill boundaries (here 6 rejections, all from index
        # 16,384 on)
        stream, gen = stream_pair(11)
        rng = np.random.default_rng(3)
        heavy = rng.integers(2, 1000, size=40_000)
        heavy[[16_384, 16_390, 20_000, 24_999, 32_773, 35_000, 39_990, 39_998, 39_999]] = 2**31 + 1
        for high in (np.array([5]), rng.integers(2, 1000, size=40_001), heavy, rng.integers(2, 2**32, size=3)):
            assert stream.integers(0, high).tolist() == gen.integers(0, high).tolist()
        # a buffer holds 2 * 2**13 halves: a call that ends exactly at its
        # end, then one that refills it (no draw here is rejected)
        stream, gen = stream_pair(13)
        for size, end in ((2**14 - 10, 2**14 - 10), (10, 2**14), (7, 7)):
            high = rng.integers(2, 1000, size=size)
            assert stream.integers(0, high).tolist() == gen.integers(0, high).tolist()
            assert stream._next == end

    @pytest.mark.parametrize(
        "high", [[1], [4, 1, 4], [0], [-3], [2**32], [5, 2**40]], ids=str
    )
    def test_refuses_bounds_outside_2_to_2_32(self, high):
        stream, gen = stream_pair(5)
        stream.integers(0, np.array([9]))
        gen.integers(0, np.array([9]))
        with pytest.raises(ValueError, match="2 .. 2\\*\\*32 - 1"):
            stream.integers(0, np.array(high, dtype=np.int64))
        # a refused call draws nothing
        assert stream.integers(0, np.array([9, 9])).tolist() == gen.integers(0, np.array([9, 9])).tolist()

    def test_refuses_low_other_than_zero(self):
        stream, _ = stream_pair(5)
        with pytest.raises(ValueError, match="low=1"):
            stream.integers(1, np.array([4]))

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.MT19937(1), np.random.PCG64DXSM(1), np.random.Philox(1), np.random.default_rng(1)],
        ids=lambda bg: type(bg).__name__,
    )
    def test_refuses_other_bit_generators(self, bit_generator):
        with pytest.raises(TypeError, match="PCG64"):
            RouteStream(bit_generator)


class TestEngineRouteDraw:
    """RouteStream.draw, the unchecked entry the engine routes through,
    against Generator(PCG64(s)).integers(0, bounds)."""

    @staticmethod
    def _check(seed, calls, most=None):
        stream = RouteStream(np.random.PCG64(seed))
        gen = np.random.Generator(np.random.PCG64(seed))
        for bounds in calls:
            high = np.array(bounds, dtype=np.int64)
            bound = most or (int(high.max()) if high.size else 2)
            assert stream.draw(high, bound).tolist() == gen.integers(0, high).tolist()
        return stream

    @pytest.mark.parametrize("most", [None, 2**32 - 1])
    def test_small_and_mixed_slot_counts(self, most):
        # the bound the engine passes is the trial's largest slot count,
        # so any bound at or above a call's largest must draw the same
        counts = routing_slots(random_instance(12, n_range=(30, 30))[0].out_csr)[1]
        self._check(1, [[2] * 50, [3] * 51, counts.repeat(7), [2, 3] * 40 + [3]], most)

    @pytest.mark.parametrize("heavy", [2**31 + 1, 2**32 - 1])
    def test_rejection_heavy_bounds(self, heavy):
        rng = np.random.default_rng(heavy)
        mixed = rng.integers(2, 60, 3000)
        mixed[rng.integers(0, 3000, 300)] = heavy
        self._check(2, [[heavy] * 2000, mixed, [heavy, 2, heavy]])

    def test_draws_across_buffer_refills(self):
        # a buffer holds 2**14 halves: calls that end at its end, cross one
        # refill and cross several in one call
        rng = np.random.default_rng(5)
        sizes = (2**14 - 3, 3, 2**14 + 1, 3 * 2**14 + 7, 1)
        stream = self._check(3, [rng.integers(2, 100, size) for size in sizes])
        assert stream._next == sum(sizes) % 2**14  # none of these draws is rejected

    def test_empty_draws_take_nothing(self):
        stream = self._check(4, [[], [5, 6], [], [], [7]])
        assert stream._next == 3
        assert stream.draw(np.empty(0, dtype=np.int64), 2).tolist() == []

    def test_successive_calls_continue_one_sequence(self):
        rng = np.random.default_rng(6)
        calls = [rng.integers(2, 40, int(size)) for size in rng.integers(0, 900, 40)]
        whole = np.concatenate(calls)
        split = self._check(7, calls)
        stream = RouteStream(np.random.PCG64(7))
        assert stream.draw(whole, 40).tolist() == np.random.Generator(np.random.PCG64(7)).integers(0, whole).tolist()
        assert stream._next == split._next


def old_first_bad_node(y0, z0):
    """The per-node scan config validation used to make: the message of
    the first node with z0 < 1 or y0 < 0, its z0 checked first."""
    for j in range(len(y0)):
        if z0[j] < 1:
            return f"z0[{j}]={z0[j]} < 1: every node needs a token"
        if y0[j] < 0:
            return f"y0[{j}]={y0[j]} < 0: negative masses unsupported"
    return None


class TestConfigValidation:
    @given(
        values=st.lists(
            st.tuples(st.integers(min_value=-2, max_value=3), st.integers(min_value=-2, max_value=3)),
            min_size=5, max_size=5,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_names_the_first_bad_node_z0_first(self, values):
        y0, z0 = (list(col) for col in zip(*values))
        expected = old_first_bad_node(y0, z0)
        cfg = RunConfig(graph=ring(5), y0=y0, z0=z0)
        if expected is None:
            assert _validate_config(cfg)[0] == cfg.graph.diameter
        else:
            with pytest.raises(ValueError) as err:
                _validate_config(cfg)
            assert str(err.value) == expected
