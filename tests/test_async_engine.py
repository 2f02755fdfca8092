"""Bounded-delay engine: delay model, golden B=1 match, window audits."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from qcs import (
    AsyncEngine,
    DelayModel,
    RunConfig,
    run_async,
    generate_random_digraph,
    run_sync,
    step_async,
)

from conftest import quotient_floor_ceil, random_instance, ring


def cfg_for(g, y0, z0, **kw):
    return RunConfig(graph=g, y0=y0, z0=z0, **kw)


class TestDelayModel:
    def test_uniform_default(self):
        dm = DelayModel(max_delay=4)
        assert dm.min_max_delay_prob(5) == pytest.approx(0.25)

    def test_uniform_cdf_and_max_delay_prob_keep_their_values(self):
        # the uniform row is built only to draw from; its values must not move
        for b in range(1, 13):
            dm = DelayModel(max_delay=b)
            row = tuple(1.0 / b for _ in range(b))
            assert np.array_equal(dm._cdf, np.cumsum(np.asarray((row,), dtype=np.float64), axis=1))
            assert dm.min_max_delay_prob(2) == row[-1]

    def test_pmf_validation(self):
        with pytest.raises(ValueError):
            DelayModel(max_delay=2, pmf=(0.5, 0.6))
        with pytest.raises(ValueError):
            DelayModel(max_delay=3, pmf=(0.5, 0.5))
        with pytest.raises(ValueError):
            DelayModel(max_delay=2, pmf=(-0.2, 1.2))
        with pytest.raises(ValueError):
            DelayModel(max_delay=0)
        for bad in ((float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 0.0)):
            with pytest.raises(ValueError, match="finite"):
                DelayModel(max_delay=2, pmf=bad)
            with pytest.raises(ValueError, match="finite"):
                DelayModel(max_delay=2, per_node_pmf=((0.5, 0.5), bad))

    def test_draws_cover_the_support(self):
        dm = DelayModel(max_delay=3, pmf=(0.2, 0.3, 0.5))
        rng = np.random.default_rng(0)
        draws = [dm.draw(rng, 0) for _ in range(3000)]
        assert set(draws) == {1, 2, 3}
        assert np.isclose(np.mean([d == 3 for d in draws]), 0.5, atol=0.05)

    def test_per_node_table(self):
        dm = DelayModel(max_delay=2, per_node_pmf=((1.0, 0.0), (0.25, 0.75)))
        # each node draws from its own row: node 0 always 1, node 1 2 above u = 0.25
        assert dm.draw_batch(np.array([0.9, 0.9, 0.1]), np.array([0, 1, 1])).tolist() == [1, 2, 1]
        assert dm.min_max_delay_prob(2) == 0.0
        with pytest.raises(ValueError):
            dm.min_max_delay_prob(3)


class FixedUniforms:
    """Stands in for a Generator whose random() yields the given values."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


class TestBatchedDelayDraw:
    MODELS = {
        "uniform": DelayModel(max_delay=4),
        "pmf": DelayModel(max_delay=3, pmf=(0.2, 0.3, 0.5)),
        "per_node": DelayModel(
            max_delay=3,
            per_node_pmf=((1.0, 0.0, 0.0), (0.25, 0.25, 0.5), (0.0, 0.5, 0.5), (0.1, 0.1, 0.8)),
        ),
    }

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_equals_one_node_draws(self, kind):
        dm = self.MODELS[kind]
        nodes = np.tile(np.arange(4), 60)
        u = np.random.default_rng(8).random(nodes.size)
        # the CDF breakpoints themselves, and the ends of [0, 1)
        u[:12] = [0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9, 0.5, 0.25, 1 - 2**-53]
        batched = dm.draw_batch(u, nodes)
        one_by_one = [dm.draw(FixedUniforms([v]), int(j)) for v, j in zip(u.tolist(), nodes)]
        assert batched.tolist() == one_by_one
        assert set(one_by_one) <= set(range(1, dm.max_delay + 1))

    @pytest.mark.parametrize("kind", ["uniform", "pmf"])
    def test_a_shared_pmf_decodes_as_a_binary_search(self, kind):
        dm = self.MODELS[kind]
        cdf = np.cumsum(dm.pmf or (1 / dm.max_delay,) * dm.max_delay)
        # the CDF breakpoints and the floats just below them
        u = np.concatenate((np.random.default_rng(9).random(600), cdf[:-1], np.nextafter(cdf[:-1], 0)))
        want = np.minimum(np.searchsorted(cdf, u, side="right") + 1, dm.max_delay)
        assert dm.draw_batch(u, None).tolist() == want.tolist()

    @pytest.mark.parametrize("b", [1, 2, 3, 10, 1000])
    def test_the_binary_search_equals_the_per_node_count(self, b):
        # a per-node table of one repeated row decodes by counting CDF
        # entries <= u; the shared row decodes by binary search
        pmf = np.random.default_rng(b).random(b)
        pmf[1::3] = 0.0  # repeated CDF entries, where side="right" matters
        for row in (None, tuple((pmf / pmf.sum()).tolist())):
            shared = DelayModel(max_delay=b, pmf=row)
            cdf = shared._cdf[0]
            counted = DelayModel(max_delay=b, per_node_pmf=(tuple(np.diff(cdf, prepend=0.0).tolist()),) * 3)
            # draws, every CDF entry, the floats either side of it, and u above the last entry
            u = np.concatenate((
                np.random.default_rng(b + 1).random(500), cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 2),
                [1 - 2**-53, 1.0, 1.5],
            ))
            nodes = np.arange(u.size) % 3
            assert np.array_equal(counted._cdf[0], cdf)
            assert shared.draw_batch(u, None).tolist() == counted.draw_batch(u, nodes).tolist()

    def test_a_shared_block_at_a_large_bound_stays_small(self):
        dm = DelayModel(max_delay=10**5)
        u = np.random.default_rng(3).random(512)
        dm.draw_batch(u, None)  # warm: builds the cached CDF row
        tracemalloc.start()
        try:
            dm.draw_batch(u, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_per_node_rows_are_honoured(self):
        dm = self.MODELS["per_node"]
        u = np.full(4, 0.3)
        assert dm.draw_batch(u, np.arange(4)).tolist() == [1, 2, 2, 3]


class TestUnitDelayGolden:
    def test_b1_reproduces_sync_bit_for_bit(self):
        # B = 1 through AsyncEngine and SyncEngine run the same engine
        # with unit delays; the whole trajectory must match
        for seed in range(12):
            g, y0, z0 = random_instance(seed + 100)
            cfg = cfg_for(g, y0, z0, seed=seed, record_trajectory=True)
            s = run_sync(cfg)
            a = run_async(cfg, DelayModel(max_delay=1))
            assert s.termination_step == a.termination_step
            assert (s.final_estimate == a.final_estimate).all()
            assert len(s.trajectory) == len(a.trajectory)
            for rs, ra in zip(s.trajectory, a.trajectory):
                assert (rs.y == ra.y).all()
                assert (rs.z == ra.z).all()
                assert (rs.vote_max == ra.vote_max).all()
                assert (rs.vote_min == ra.vote_min).all()
                assert (rs.estimate == ra.estimate).all()
                assert (rs.flag == ra.flag).all()

    def test_queue_path_with_unit_delays_matches_sync(self):
        # B = 2 with all its probability on delay 1 takes the arrival-queue and
        # cycle path, yet every delay is 1: a node's arrivals wait in its
        # queue one step and join its next cycle, which starts at once.
        # So the visible state matches the unit-delay run step by step;
        # only the doubled window moves the termination step.
        for seed in range(12):
            g, y0, z0 = random_instance(seed + 100)
            cfg = cfg_for(g, y0, z0, seed=seed, record_trajectory=True)
            unit = run_sync(cfg)
            queued = run_async(cfg, DelayModel(max_delay=2, pmf=(1.0, 0.0)))
            assert unit.converged and queued.converged
            assert queued.termination_step > unit.termination_step
            for ru, rq in zip(unit.trajectory, queued.trajectory[: unit.termination_step + 1]):
                assert ru.step == rq.step
                assert (ru.y == rq.y).all() and (ru.z == rq.z).all(), (seed, ru.step)
            assert (unit.final_estimate == queued.final_estimate).all()


class TestAgreementUnderDelay:
    def test_agreement_and_window_alignment(self):
        for seed in range(25):
            g, y0, z0 = random_instance(seed + 300, n_range=(3, 15))
            b = 2 + seed % 4
            out = run_async(cfg_for(g, y0, z0, seed=seed), DelayModel(max_delay=b))
            assert out.converged
            lo, hi = quotient_floor_ceil(y0, z0)
            est = int(out.final_estimate[0])
            assert (out.final_estimate == est).all()
            assert est in (lo, hi)
            assert out.termination_step % (g.diameter * b) == 0

    def test_conservation_including_processing_buffers(self):
        g, y0, z0 = random_instance(333)
        out = run_async(
            cfg_for(g, y0, z0, seed=3, record_trajectory=True), DelayModel(max_delay=4)
        )
        want = (2 * sum(y0), 2 * sum(z0))
        for rec in out.trajectory:
            assert rec.mass_totals() == want

    def test_skewed_pmf_still_converges(self):
        g, y0, z0 = random_instance(77)
        dm = DelayModel(max_delay=5, pmf=(0.05, 0.05, 0.1, 0.1, 0.7))
        out = run_async(cfg_for(g, y0, z0, seed=7), dm)
        assert out.converged


def vote_steps(seed, b=3):
    """Per step of a delayed run: (engine, nodes that completed, votes before, votes after)."""
    g, y0, z0 = random_instance(seed, n_range=(5, 15))
    eng = AsyncEngine(cfg_for(g, y0, z0, seed=seed), DelayModel(max_delay=b))
    while not eng.all_flagged():
        before = (eng.vote_max.copy(), eng.vote_min.copy())
        step_async(eng)
        completing = np.flatnonzero(eng.busy_until == eng.steps_done)
        yield eng, completing, before, (eng.vote_max.copy(), eng.vote_min.copy())


class TestAsyncVoteRule:
    def test_no_arrivals_between_updates_keeps_votes(self):
        # a node folds in votes only when its cycle completes; outside the
        # window-start refresh, the votes of every other node stay put
        held = 0
        for seed in range(6):
            for eng, completing, before, after in vote_steps(seed + 800):
                if (eng.steps_done - 1) % eng.window == 0:
                    continue
                waiting = np.setdiff1d(np.arange(eng.n), completing)
                held += waiting.size
                assert (after[0][waiting] == before[0][waiting]).all()
                assert (after[1][waiting] == before[1][waiting]).all()
        assert held > 0

    def test_arrived_maximum_wins(self):
        # a completing node takes the max of the maxima and the min of the
        # minima over itself and its in-neighbors' exposed votes
        merged = 0
        for seed in range(6):
            for eng, completing, before, after in vote_steps(seed + 800):
                if (eng.steps_done - 1) % eng.window == 0:
                    continue
                ins = eng.cfg.graph.in_neighbors
                for j in completing.tolist():
                    want_max = max([before[0][j]] + [before[0][i] for i in ins[j]])
                    want_min = min([before[1][j]] + [before[1][i] for i in ins[j]])
                    assert (after[0][j], after[1][j]) == (want_max, want_min)
                    merged += 1
        assert merged > 0

    def test_flooding_reaches_global_extrema_within_stretched_window(self):
        # pick values spread enough that no flip happens in window one,
        # then check the first-window flood hit the global extrema exactly
        g = ring(4)
        y0, z0 = [40, 0, 0, 0], [1, 1, 1, 1]
        b = 3
        eng = AsyncEngine(
            cfg_for(g, y0, z0, seed=2, record_trajectory=True), DelayModel(max_delay=b)
        )
        window = g.diameter * b
        for _ in range(window):
            step_async(eng)
        want_max = max(-(-2 * y) // (2 * z) for y, z in zip(y0, z0))
        want_min = min((2 * y) // (2 * z) for y, z in zip(y0, z0))
        assert (eng.vote_max == want_max).all()
        assert (eng.vote_min == want_min).all()

    def test_internal_window_audit_runs_at_every_check(self):
        # audits raise InvariantError on any missed flood; a clean run
        # with check_invariants on is the assertion
        for seed in range(8):
            g, y0, z0 = random_instance(seed + 500, n_range=(3, 12))
            out = run_async(
                cfg_for(g, y0, z0, seed=seed, check_invariants=True),
                DelayModel(max_delay=2 + seed % 3),
            )
            assert out.converged


class TestEmissionBookkeeping:
    def test_latency_always_within_bound(self):
        g, y0, z0 = random_instance(600)
        b = 4
        eng = AsyncEngine(
            cfg_for(g, y0, z0, seed=1, record_trajectory=True), DelayModel(max_delay=b)
        )
        eng.run()
        assert eng.emission_log
        for entry in eng.emission_log:
            assert 1 <= entry.ready_step - entry.emit_step <= b
            assert entry.c_z >= 1

    def test_quiescence_no_emission_after_flags(self):
        g, y0, z0 = random_instance(601)
        eng = AsyncEngine(
            cfg_for(g, y0, z0, seed=2, record_trajectory=True), DelayModel(max_delay=3)
        )
        eng.run()
        assert eng.all_flagged()
        completion_steps = [e.ready_step - 1 for e in eng.emission_log]
        assert max(completion_steps) <= eng.flag_step
        before = (eng.y.copy(), eng.steps_done)
        step_async(step_async(eng))
        assert (eng.y == before[0]).all()
        assert eng.steps_done == before[1]

    def test_determinism(self):
        g, y0, z0 = random_instance(602)
        dm = DelayModel(max_delay=3)
        a = run_async(cfg_for(g, y0, z0, seed=5, record_trajectory=True), dm)
        b = run_async(cfg_for(g, y0, z0, seed=5, record_trajectory=True), dm)
        assert a.termination_step == b.termination_step
        for ra, rb in zip(a.trajectory, b.trajectory):
            assert (ra.y == rb.y).all() and (ra.z == rb.z).all()


def stepped_changes(eng):
    """Run `eng` to the end.  Keyed by each step's ready step k + 1: the
    change in every held pair over step k, and the nodes that completed
    a cycle at step k."""
    changed, done = {}, {}
    while not eng.all_flagged():
        k = eng.steps_done + 1
        before = eng.held.copy()
        step_async(eng)
        done[k + 1] = eng.busy_until == k
        changed[k + 1] = eng.held - before
    return changed, done


def logged_flows(eng, steps):
    """Per ready step: the (y, z) totals the emission log sends to and
    from each node, as two (2, n) arrays."""
    flows = {r: (np.zeros((2, eng.n), dtype=np.int64), np.zeros((2, eng.n), dtype=np.int64)) for r in steps}
    for e in eng.emission_log:
        into, out = flows[e.ready_step]
        into[:, e.dst] += (e.c_y, e.c_z)
        out[:, e.src] += (e.c_y, e.c_z)
    return flows


class TestBatchedEmissionLog:
    """The emission log holds one entry per message, built from each step's batched split."""

    SEEDS = (600, 601, 602, 333)

    def _engine(self, seed, b=4, record=True):
        g, y0, z0 = random_instance(seed)
        return AsyncEngine(
            cfg_for(g, y0, z0, seed=seed % 7, record_trajectory=record),
            DelayModel(max_delay=b),
        )

    def test_length_counts_iterated_messages(self):
        for seed in self.SEEDS:
            eng = self._engine(seed)
            assert not eng.emission_log  # empty before the first step
            eng.run()
            entries = list(eng.emission_log)
            assert len(eng.emission_log) == len(entries) > 0
            assert entries == list(eng.emission_log)  # iterates repeatably

    def test_logged_mass_matches_arrivals_per_step(self):
        for seed in self.SEEDS:
            eng = self._engine(seed)
            changed, done = stepped_changes(eng)
            for r, (got_in, got_out) in logged_flows(eng, changed).items():
                # a node's held pair gains what is logged to it and loses
                # what it logs, and only a node that completed logs any
                assert (got_in - got_out == changed[r]).all()
                assert (got_out[:, ~done[r]] == 0).all()

    def test_entries_are_nonempty_and_delayed_within_bound(self):
        for seed in self.SEEDS:
            b = 2 + seed % 4
            eng = self._engine(seed, b=b)
            eng.run()
            for e in eng.emission_log:
                assert e.c_z >= 1
                assert 1 <= e.ready_step - e.emit_step <= b
                assert e.dst in eng.cfg.graph.out_neighbors[e.src]

    def test_recording_does_not_change_the_run(self):
        for seed in self.SEEDS:
            on = self._engine(seed, record=True).run()
            off = self._engine(seed, record=False).run()
            assert (on.final_estimate == off.final_estimate).all()
            assert on.termination_step == off.termination_step
            assert on.steps_run == off.steps_run


class TestBenchmarkScale:
    """n = 100, p = 0.5: the scale of the curves-async-n100 benchmark workload."""

    SEEDS = (0, 1, 2)
    B = 10

    @staticmethod
    def _cfg(seed):
        g = generate_random_digraph(100, 0.5, seed=seed)
        rng = np.random.default_rng([seed, 99])
        y0 = [int(v) for v in rng.integers(0, 10_000, g.n)]
        z0 = [int(v) for v in rng.integers(1, 20, g.n)]
        return cfg_for(g, y0, z0, seed=seed, record_trajectory=True)

    @pytest.fixture(scope="class")
    def stepped(self):
        """Per seed: a delayed run stepped to the end, with each step's
        change in the held pairs and its completed nodes."""
        runs = {}
        for seed in self.SEEDS:
            eng = AsyncEngine(self._cfg(seed), DelayModel(max_delay=self.B))
            runs[seed] = (eng, *stepped_changes(eng))
        return runs

    def test_unit_delay_matches_sync_snapshot_by_snapshot(self):
        for seed in self.SEEDS:
            s = run_sync(self._cfg(seed))
            a = run_async(self._cfg(seed), DelayModel(max_delay=1))
            assert s.converged and s.termination_step == a.termination_step
            assert len(s.trajectory) == len(a.trajectory)
            for rs, ra in zip(s.trajectory, a.trajectory):
                for name in ("y", "z", "estimate", "vote_max", "vote_min", "flag"):
                    assert (getattr(rs, name) == getattr(ra, name)).all(), (seed, rs.step, name)

    def test_rerun_is_bit_identical(self, stepped):
        for seed in self.SEEDS:
            first = stepped[seed][0]
            again = AsyncEngine(self._cfg(seed), DelayModel(max_delay=self.B))
            again.run()
            assert first.flag_step == again.flag_step
            assert len(first.trajectory) == len(again.trajectory)
            for ra, rb in zip(first.trajectory, again.trajectory):
                assert (ra.y == rb.y).all() and (ra.z == rb.z).all()
                assert (ra.vote_max == rb.vote_max).all() and (ra.vote_min == rb.vote_min).all()
            assert list(first.emission_log) == list(again.emission_log)

    def test_log_iterates_by_step_then_sender_then_out_neighbor(self, stepped):
        for seed in self.SEEDS:
            eng = stepped[seed][0]
            out = eng.cfg.graph.out_neighbors
            keys = [
                (e.ready_step, e.src, out[e.src].index(e.dst))
                for e in eng.emission_log
            ]
            assert len(keys) == len(eng.emission_log) > 0
            assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_log_sums_to_arrivals_per_ready_step(self, stepped):
        for seed in self.SEEDS:
            eng, changed, done = stepped[seed]
            assert all(1 <= e.ready_step - e.emit_step <= self.B for e in eng.emission_log)
            for r, (got_in, got_out) in logged_flows(eng, changed).items():
                assert (got_in - got_out == changed[r]).all(), (seed, r)
                assert (got_out[:, ~done[r]] == 0).all(), (seed, r)


class TestMonotoneContractionAsync:
    def test_extreme_ratios_contract(self):
        # The visible state (the held pairs) does not contract
        # monotonically: arrivals can queue behind a locked batch that is
        # about to split away.  What holds is the per-buffer envelope.  The
        # buffers are the locked batch and, when it holds a token, the
        # queue behind it (held - batch) of every node still in its cycle,
        # and the held pair of every node that completed at the last step.
        # The min of their floors never falls, and the max of their
        # ceilings never rises.  At a split the floor holds exactly: the
        # node keeps a minimum-value piece, so its kept pair (its batch
        # less what it logs) has its batch's floor.
        def envelope(eng):
            busy = eng.busy_until > eng.steps_done
            queue = eng.held - eng.batch
            y, z = np.concatenate((eng.batch[:, busy], queue[:, busy & (queue[1] > 0)], eng.held[:, ~busy]), axis=1)
            return int((y // z).min()), int((-(-y // z)).max())

        for inst in range(600, 620):
            g, y0, z0 = random_instance(inst)
            for seed in (inst % 7, 7 + inst % 5):
                eng = AsyncEngine(cfg_for(g, y0, z0, seed=seed, record_trajectory=True), DelayModel(max_delay=4))
                lo, hi = envelope(eng)
                while not eng.all_flagged():
                    logged = len(eng.emission_log)
                    step_async(eng)
                    new_lo, new_hi = envelope(eng)
                    assert new_lo >= lo and new_hi <= hi, (inst, seed, eng.steps_done)
                    lo, hi = new_lo, new_hi
                    kept = eng.batch.copy()
                    for e in eng.emission_log[logged:]:
                        kept[:, e.src] -= (e.c_y, e.c_z)
                    done = eng.busy_until == eng.steps_done
                    floor = eng.batch[0, done] // eng.batch[1, done]
                    assert (kept[0, done] // kept[1, done] == floor).all(), (inst, seed, eng.steps_done)
