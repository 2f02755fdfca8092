"""The one engine behind both protocols, and the names it is measured by."""

from __future__ import annotations

import hashlib
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcs import (
    AsyncEngine,
    ConservationError,
    DelayModel,
    Digraph,
    InvariantError,
    MassOverflowError,
    ProtocolError,
    RunConfig,
    SyncEngine,
    engine,
    protocol,
)

from conftest import random_instance, ring


class TestUnitDelays:
    @pytest.mark.parametrize("make", [SyncEngine, lambda cfg: AsyncEngine(cfg, DelayModel(max_delay=1))])
    def test_no_queue_and_no_delay_draws(self, make, monkeypatch):
        def no_draws(self, u, nodes):
            raise AssertionError("a unit-delay run drew a delay")

        monkeypatch.setattr(DelayModel, "draw_batch", no_draws)
        g, y0, z0 = random_instance(5)
        eng = make(RunConfig(graph=g, y0=y0, z0=z0, seed=5))
        assert eng.batch is eng.held and eng.busy_until is None and eng.cycle_start is None
        assert eng.run().converged


# every cycle takes three steps, so all nodes start at steps 1, 4, 7, ...
# and complete at steps 3, 6, 9, ...
LOCKSTEP_3 = DelayModel(max_delay=3, pmf=(0.0, 0.0, 1.0))


class TestLedger:
    @pytest.mark.parametrize("max_delay, row", [(1, "y"), (1, "z"), (3, "y"), (3, "z")])
    def test_a_unit_off_anywhere_fails_the_next_step(self, max_delay, row):
        # y and z are the rows of the held pairs, the ledger
        g, y0, z0 = random_instance(7)
        cfg = RunConfig(graph=g, y0=y0, z0=z0, seed=7)
        eng = SyncEngine(cfg) if max_delay == 1 else AsyncEngine(cfg, DelayModel(max_delay))
        eng.step()
        getattr(eng, row)[-1] += 1
        with pytest.raises(ConservationError, match=r"^step 2: mass ledger off, y \d+ != \d+ or z \d+ != \d+$"):
            eng.step()

    @pytest.mark.parametrize("row", [0, 1])
    def test_a_unit_off_in_a_locked_batch_fails_the_next_step(self, row):
        # the batches locked at step 4 split at step 6, and no node
        # completes in between, so nothing arrives behind them: a batch
        # one unit over its held pair is refused at the next step, before
        # its node splits it
        g, y0, z0 = random_instance(7)
        eng = AsyncEngine(RunConfig(graph=g, y0=y0, z0=z0, seed=7), LOCKSTEP_3)
        for _ in range(4):
            eng.step()
        eng.batch[row, -1] += 1
        with pytest.raises(ProtocolError, match="^split requires the batch within the held pair$"):
            eng.step()
        assert eng.steps_done == 4


class TestRouteBounds:
    """Every route draw's bounds are slot counts, checked once at init."""

    @pytest.mark.parametrize("bad", [1, 0, 2**32], ids=str)
    def test_a_slot_count_outside_2_to_2_32_is_refused_before_step_1(self, bad, monkeypatch):
        def slots_with(out_csr):
            first, count, to = protocol.routing_slots(out_csr)
            count = count.copy()
            count[-1] = bad
            return first, count, to

        def no_split(*args):
            raise AssertionError("a refused engine split")

        monkeypatch.setattr(engine, "routing_slots", slots_with)
        monkeypatch.setattr(engine, "split_route", no_split)
        g, y0, z0 = random_instance(10)
        for make in (SyncEngine, lambda cfg: AsyncEngine(cfg, DelayModel(max_delay=3))):
            with pytest.raises(ValueError, match=r"^route bounds must lie in 2 \.\. 2\*\*32 - 1, got "):
                make(RunConfig(graph=g, y0=y0, z0=z0, seed=10))


class TestMaskedStep:
    """The masked split at its edges: nodes that hold, steps where no node
    completes, empty batches, per-node delay tables."""

    def test_single_token_nodes_keep_their_pair_and_estimate(self):
        # z0 = 1 doubles to 2, so after one split many nodes hold one token
        held_any = 0
        for seed in range(6):
            g, y0, z0 = random_instance(seed + 60, z_range=(1, 1))
            eng = SyncEngine(RunConfig(graph=g, y0=y0, z0=z0, seed=seed, record_trajectory=True))
            while not eng.all_flagged():
                single = eng.z == 1
                before, estimate, logged = eng.held.copy(), eng.estimate.copy(), len(eng.emission_log)
                eng.step()
                if eng.all_flagged():
                    break
                arrived = np.zeros_like(before)
                for m in eng.emission_log[logged:]:
                    assert not single[m.src]
                    arrived[:, m.dst] += (m.c_y, m.c_z)
                assert (eng.held[:, single] == (before + arrived)[:, single]).all()
                assert (eng.estimate[single] == estimate[single]).all()
                held_any += np.count_nonzero(single)
        assert held_any > 0

    def test_a_split_sets_the_estimate_to_its_batch_ceiling(self):
        # each node's estimate is ceil(y/z) of the batch it last split (the
        # batch stays locked until its next cycle starts); the others keep
        # theirs, and a flagged engine reports its min votes
        split_any = 0
        for seed in range(4):
            g, y0, z0 = random_instance(seed + 80)
            eng = AsyncEngine(RunConfig(graph=g, y0=y0, z0=z0, seed=seed), DelayModel(max_delay=3))
            while not eng.all_flagged():
                estimate = eng.estimate
                eng.step()
                if eng.all_flagged():
                    assert (eng.estimate == eng.vote_min).all()
                    break
                split = (eng.busy_until == eng.steps_done) & (eng.batch[1] > 1)
                assert (eng.estimate[split] == -(-eng.batch[0, split] // eng.batch[1, split])).all()
                assert (eng.estimate[~split] == estimate[~split]).all()
                split_any += np.count_nonzero(split)
        assert split_any > 0

    def test_steps_without_completions_route_nothing(self):
        g, y0, z0 = random_instance(8)
        eng = AsyncEngine(RunConfig(graph=g, y0=y0, z0=z0, seed=8), LOCKSTEP_3)
        pieces = []
        draw = eng._route_draw
        eng._route_draw = lambda high: pieces.append(len(high)) or draw(high)
        stream = eng.route_rng
        before = (eng.held.copy(), eng.estimate.copy(), stream.bit_generator.state, stream._next)
        eng.step().step()
        assert pieces == [0, 0]
        assert (eng.held == before[0]).all() and (eng.estimate == before[1]).all()
        assert (stream.bit_generator.state, stream._next) == before[2:]
        eng.step()
        assert pieces[2] > 0 and (eng.cycle_start == 1).all() and (eng.busy_until == 3).all()

    def test_an_empty_batch_splits_into_empty_pieces(self):
        eng = SyncEngine(RunConfig(graph=ring(4), y0=[0, 4, 8, 4], z0=[3, 1, 1, 1], seed=2, record_trajectory=True))
        eng.step()
        mine = [m for m in eng.emission_log if m.src == 0]
        assert mine and all(m.c_y == 0 and m.c_z >= 1 for m in mine)
        arrived = [(m.c_y, m.c_z) for m in eng.emission_log if m.dst == 0]
        kept = (int(eng.y[0]) - sum(a[0] for a in arrived), int(eng.z[0]) - sum(a[1] for a in arrived))
        assert eng.estimate[0] == 0 and kept == (0, 6 - sum(m.c_z for m in mine))

    def test_per_node_tables_draw_in_node_order(self):
        # node j's delays come from its own row with the stream's uniforms
        # taken in node order, also when only some nodes start a cycle
        g, y0, z0 = random_instance(9, n_range=(12, 12))
        rows = np.random.default_rng(9).dirichlet(np.ones(4), g.n)
        dm = DelayModel(max_delay=4, per_node_pmf=tuple(map(tuple, rows.tolist())))
        eng = AsyncEngine(RunConfig(graph=g, y0=y0, z0=z0, seed=9), dm)
        uniforms = iter(np.random.default_rng([9, engine.DELAY_STREAM]).random(engine._DELAY_BLOCK).tolist())
        cdf = np.cumsum(rows, axis=1)
        partial_starts = 0
        while not eng.all_flagged() and eng.steps_done < 12:
            k = eng.steps_done + 1
            starting = np.flatnonzero(eng.busy_until == k - 1)
            eng.step()
            want = [min(int((cdf[j] <= next(uniforms)).sum()) + 1, 4) for j in starting.tolist()]
            assert (eng.busy_until[starting] - k + 1).tolist() == want
            assert (eng.cycle_start[starting] == k).all()
            partial_starts += 0 < starting.size < g.n
        assert partial_starts > 0


def saturated(vote_max, vote_min) -> bool:
    return bool((vote_max == vote_max[0]).all() and (vote_min == vote_min[0]).all())


class TestEventDrivenFlooding:
    """Votes flood only until every node holds the window's extrema."""

    @pytest.mark.parametrize("max_delay", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_floods_from_each_window_start_until_saturation(self, max_delay, seed, monkeypatch):
        g, y0, z0 = random_instance(seed + 40)
        # a gap of two between the ratios keeps the first window from
        # flipping, and a loose diameter bound leaves room after saturation
        y0 = [2 * v if j % 2 else 0 for j, v in enumerate(y0)]
        cfg = RunConfig(graph=g, y0=y0, z0=z0, seed=seed, diameter_bound=g.diameter + 2, record_trajectory=True)
        eng = SyncEngine(cfg) if max_delay == 1 else AsyncEngine(cfg, DelayModel(max_delay))
        flooded = []

        def counted(vote_max, vote_min, nodes, in_csr):
            flooded.append(eng.steps_done + 1)
            return protocol.flood_votes(vote_max, vote_min, nodes, in_csr)

        monkeypatch.setattr(engine, "flood_votes", counted)
        completes = [True]
        while not eng.all_flagged():
            eng.step()
            completes.append(eng.busy_until is None or bool((eng.busy_until == eng.steps_done).any()))
        trajectory = eng.trajectory
        assert eng.steps_done > eng.window  # more than one window
        skipped = []
        for k in range(1, eng.steps_done + 1):
            before = trajectory[k - 1]
            if (k - 1) % eng.window == 0:
                # the refresh sets each node's votes from its own ratio
                start = (-(-before.y // before.z), before.y // before.z)
            else:
                start = (before.vote_max, before.vote_min)
            # a hop runs exactly when a node completes and could still learn
            assert (k in flooded) == (completes[k] and not saturated(*start)), k
            if completes[k] and k not in flooded:
                skipped.append(k)
        assert skipped
        if max_delay == 1:
            # flooding stopped within a window and resumed at the next start
            assert any((k - 1) % eng.window == 0 and k - 1 in skipped for k in flooded)

    def test_consensus_never_floods(self, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "flood_votes", lambda *args: calls.append(args))
        out = SyncEngine(RunConfig(graph=ring(4), y0=[4, 8, 12, 4], z0=[1, 2, 3, 1], seed=1)).run()
        assert out.converged and calls == []


def assert_initial_state(eng, y0, z0):
    """The engine's state before step 1, against Python integers: doubled
    values, votes and estimate from y // z and -(-y // z), the ledger totals."""
    y2, z2 = [2 * v for v in y0], [2 * v for v in z0]
    assert eng.y.tolist() == y2 and eng.z.tolist() == z2
    ceil = [-(-y // z) for y, z in zip(y2, z2)]
    assert eng.vote_max.tolist() == ceil and eng.estimate.tolist() == ceil
    assert eng.vote_min.tolist() == [y // z for y, z in zip(y2, z2)]
    assert eng._expected_totals == [sum(y2), sum(z2)]
    assert all(type(v) is int for v in eng._expected_totals)


def make_engine(cfg, max_delay):
    return SyncEngine(cfg) if max_delay == 1 else AsyncEngine(cfg, DelayModel(max_delay=max_delay))


class TestInitialState:
    """Votes and estimate come from one divmod of the doubled values, and
    the ledger totals from one sum over the ledger."""

    @pytest.mark.parametrize("max_delay", [1, 3])
    @pytest.mark.parametrize("y0, z0", [
        ([0, 0, 5, 7], [1, 1, 1, 2]),
        ([0, 3, 2**61 - 1, 1], [1, 2, 1, 2**61 - 5]),
        ([2**61, 2**61 - 8, 0, 2], [3, 1, 2**61 + 1, 1]),
        ([2**62 - 4, 0, 1, 0], [1, 1, 1, 2**62 - 4]),
    ])
    def test_edges_of_the_value_range(self, y0, z0, max_delay):
        assert_initial_state(make_engine(RunConfig(graph=ring(4), y0=y0, z0=z0, seed=1), max_delay), y0, z0)

    @pytest.mark.parametrize("max_delay", [1, 3])
    def test_step_1_refreshes_to_the_same_votes(self, max_delay):
        g, y0, z0 = random_instance(11)
        eng = make_engine(RunConfig(graph=g, y0=y0, z0=z0, seed=11), max_delay)
        before = eng._votes.copy()
        eng.step()
        assert eng._extrema[:, 0].tolist() == [before[0].max(), before[1].min()]

    @pytest.mark.parametrize("max_delay", [1, 3])
    @given(values=st.lists(st.tuples(st.integers(0, 2**61), st.integers(1, 2**61)), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_any_values_that_fit(self, values, max_delay):
        y0, z0 = (list(col) for col in zip(*values))
        assume(2 * max(sum(y0), sum(z0)) <= engine.INT64_MAX)
        assert_initial_state(make_engine(RunConfig(graph=ring(4), y0=y0, z0=z0, seed=1), max_delay), y0, z0)

    def test_numpy_inputs_and_the_overflow_refusal(self):
        y0, z0 = np.array([0, 9, 2**61, 4]), np.array([1, 2, 7, 2**61])
        assert_initial_state(SyncEngine(RunConfig(graph=ring(4), y0=y0, z0=z0)), y0.tolist(), z0.tolist())
        # totals past int64 still take the object-array path to MassOverflowError
        with pytest.raises(MassOverflowError, match=r"2\*sum\(y0\)"):
            SyncEngine(RunConfig(graph=ring(4), y0=[2**63, 2**64, 0, 1], z0=[1] * 4))


class TestVoteAudit:
    """With flooding switched off, the audit refuses the first flip check."""

    CFG = RunConfig(graph=ring(5), y0=[0, 10, 20, 30, 40], z0=[1] * 5, seed=3)

    @pytest.mark.parametrize(
        "make, step", [(SyncEngine, 4), (lambda cfg: AsyncEngine(cfg, DelayModel(max_delay=3)), 12)]
    )
    def test_unflooded_votes_raise(self, make, step, monkeypatch):
        monkeypatch.setattr(engine, "flood_votes", lambda *args: None)
        with pytest.raises(
            InvariantError,
            match=rf"^step {step}: vote flooding missed the global extrema \(40, 0\) within one window$",
        ):
            make(self.CFG).run()

    def test_without_the_audit_the_run_flips_on_its_own_votes(self, monkeypatch):
        # each node still votes its own estimate, so the flip check sees no spread
        monkeypatch.setattr(engine, "flood_votes", lambda *args: None)
        out = SyncEngine(replace(self.CFG, check_invariants=False)).run()
        assert out.converged and out.termination_step == 4
        assert out.final_estimate.tolist() == [0, 10, 20, 30, 40]


class TestBenchmarkPatchPoints:
    """`bench/spans.py` times each engine and kernel by patching these names."""

    @pytest.mark.parametrize("cls", [SyncEngine, AsyncEngine])
    def test_each_engine_class_binds_its_own_entry_points(self, cls):
        assert {"__init__", "step", "run"} <= set(vars(cls))

    def test_patched_functions_exist(self):
        assert callable(protocol.split_pieces)
        assert callable(DelayModel.draw)
        for name in ("out_neighbor_arrays", "in_neighbor_arrays"):
            assert callable(vars(Digraph)[name])
        assert callable(vars(Digraph)["diameter"].func)

    def test_patching_one_engine_leaves_the_other(self, monkeypatch):
        calls = []
        original = vars(SyncEngine)["step"]

        def counted(self):
            calls.append(type(self).__name__)
            return original(self)

        monkeypatch.setattr(SyncEngine, "step", counted)
        g, y0, z0 = random_instance(6)
        cfg = RunConfig(graph=g, y0=y0, z0=z0, seed=6)
        sync_steps = SyncEngine(cfg).run().steps_run
        AsyncEngine(cfg, DelayModel(max_delay=2)).run()
        assert calls == ["SyncEngine"] * sync_steps


def _digest(*parts) -> str:
    """sha256 over scalars (by repr) and int64 arrays (by bytes), in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _outcome_parts(out):
    return out.termination_step, out.steps_run, out.final_y, out.final_z, out.final_estimate


class TestPinnedStreams:
    """Exact results of fixed runs, pinned by sha256.

    Every engine change that keeps the route and delay streams must
    reproduce these bit for bit; a change that alters the streams on
    purpose updates the pins and says so.
    """

    SEEDS = range(3000, 3012)
    OUTCOMES = {
        1: "4b72d4f884458e9e4aca07d7c25dba9ac47edbffa43ea9140be796e1a64f413d",
        2: "3e4137894dabad3fad6afb973f309e505c8f26a0d7fec69fdad01a3244230c6e",
        5: "fc3cb067a618bd54ccccf1962ec71cbe4a5769ecc361ac03cc9d938c28ce78c3",
        10: "9b14260b855ca3e5931c84c0edf3225ccb739c29d57f7507cddc234264ba7407",
    }
    RECORDED = {
        1: "45a62ee8475ecd72834b34f5b12c1f9513db888337021d9731a5bf7258fc0f6b",
        3: "f6a196e94e7d141606e939fc04b07a31c75bf54b4934d06c7808eda83f3da8e2",
    }

    @staticmethod
    def _engine(seed: int, max_delay: int, record: bool = False):
        g, y0, z0 = random_instance(seed)
        cfg = RunConfig(graph=g, y0=y0, z0=z0, seed=seed, record_trajectory=record)
        if max_delay == 1:
            return SyncEngine(cfg)
        return AsyncEngine(cfg, DelayModel(max_delay=max_delay))

    @pytest.mark.parametrize("max_delay", sorted(OUTCOMES))
    def test_outcomes(self, max_delay):
        parts = [p for seed in self.SEEDS for p in _outcome_parts(self._engine(seed, max_delay).run())]
        assert _digest(*parts) == self.OUTCOMES[max_delay]

    @pytest.mark.parametrize("max_delay", sorted(RECORDED))
    def test_emission_log_and_trajectory(self, max_delay):
        eng = self._engine(3100 + max_delay, max_delay, record=True)
        out = eng.run()
        assert out.converged and len(out.trajectory) == out.steps_run + 1
        parts = list(_outcome_parts(out))
        for rec in out.trajectory:
            parts += [rec.step, rec.y, rec.z, rec.estimate, rec.vote_max, rec.vote_min, rec.flag]
        parts += [astuple(entry) for entry in eng.emission_log]
        assert len(eng.emission_log) > 0
        assert _digest(*parts) == self.RECORDED[max_delay]

    # async n = 60, B = 10 runs long enough to draw over three blocks of
    # 512 delays and to route over three buffers of 2**14 halves
    LONG = {
        "uniform": "d690062c90ef2042686fd41841c707eb5f8231a0b6df13d8a629ecf2e529f612",
        "pmf": "0f4f3ab3cdf15c2de7a176097be693055af4871c55695af285617aa1f9d0f900",
        "per_node_pmf": "21d0d77a123d1cb4f06e19b36100001099e89c373b69378e35028fb5ad62d73b",
    }

    @staticmethod
    def _delay_model(kind: str, n: int) -> DelayModel:
        if kind == "uniform":
            return DelayModel(max_delay=10)
        if kind == "pmf":
            return DelayModel(max_delay=10, pmf=(0.05,) * 6 + (0.1, 0.1, 0.2, 0.3))
        rows = np.random.default_rng(n).dirichlet(np.ones(10), n)
        return DelayModel(max_delay=10, per_node_pmf=tuple(map(tuple, rows.tolist())))

    @pytest.mark.parametrize("kind", sorted(LONG))
    def test_long_delayed_runs(self, kind):
        n = 60
        g, y0, z0 = random_instance(4000, n_range=(n, n), p_range=(0.1, 0.1), y_range=(0, 500), z_range=(10, 60))
        cfg = RunConfig(graph=g, y0=y0, z0=z0, seed=4000, diameter_bound=g.diameter + 8, record_masses=True)
        eng = AsyncEngine(cfg, self._delay_model(kind, n))
        pieces = []
        draw = eng._route_draw
        eng._route_draw = lambda high: pieces.append(len(high)) or draw(high)
        starts = 0
        while not eng.all_flagged():
            eng.step()
            starts += np.count_nonzero(eng.cycle_start == eng.steps_done)
        assert starts > 3 * engine._DELAY_BLOCK and sum(pieces) > 3 * 2 * protocol._CHUNK_WORDS
        out = eng.outcome()
        assert _digest(*_outcome_parts(out), out.mass_y, out.mass_z) == self.LONG[kind]
