"""Synchronous engine: agreement, conservation, determinism, quiescence."""

from __future__ import annotations

import numpy as np
import pytest

from qcs import DelayModel, MassOverflowError, RunConfig, SyncEngine, run_async, run_sync, step_sync

from conftest import complete, quotient_floor_ceil, random_instance, ring


def cfg_for(g, y0, z0, **kw):
    return RunConfig(graph=g, y0=y0, z0=z0, **kw)


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SyncEngine(cfg_for(ring(3), [1, 2], [1, 1, 1]))

    def test_tokenless_node(self):
        with pytest.raises(ValueError, match=r"z0\[1\]"):
            SyncEngine(cfg_for(ring(3), [1, 2, 3], [1, 0, 1]))

    def test_negative_mass(self):
        with pytest.raises(ValueError, match=r"y0\[0\]"):
            SyncEngine(cfg_for(ring(3), [-1, 2, 3], [1, 1, 1]))

    def test_diameter_bound_below_diameter(self):
        with pytest.raises(ValueError, match="diameter_bound=2.*diameter\n?.*3|diameter_bound=2"):
            SyncEngine(cfg_for(ring(4), [1] * 4, [1] * 4, diameter_bound=2))

    def test_diameter_upper_bound_accepted(self):
        out = run_sync(cfg_for(complete(4), [3, 9, 1, 5], [1, 2, 1, 1], diameter_bound=3))
        assert out.converged
        assert out.termination_step % 3 == 0

    def test_max_steps_below_window(self):
        with pytest.raises(ValueError, match="max_steps"):
            SyncEngine(cfg_for(ring(4), [1] * 4, [1] * 4, max_steps=2))


ENGINES = {
    "sync": run_sync,
    "async": lambda cfg: run_async(cfg, DelayModel(max_delay=3)),
}


class TestInt64Headroom:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_doubled_total_past_int64_refused(self, engine):
        # 2*sum = 2**64: the ledger used to wrap to 0 and still converge
        with pytest.raises(MassOverflowError, match=r"2\*sum\(y0\)"):
            ENGINES[engine](cfg_for(complete(4), [2**61] * 4, [1] * 4))

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_doubling_past_int64_refused(self, engine):
        # each 2*y0[j] = 2**63 wraps negative; this used to surface as a
        # ProtocolError from the first split
        with pytest.raises(MassOverflowError, match=r"2\*sum\(y0\)"):
            ENGINES[engine](cfg_for(complete(4), [2**62] * 4, [1] * 4))

    def test_token_total_checked_too(self):
        with pytest.raises(MassOverflowError, match=r"2\*sum\(z0\)"):
            SyncEngine(cfg_for(complete(4), [1] * 4, [2**61] * 4))

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_largest_total_that_fits_runs_exactly(self, engine):
        y0 = [2**62 - 4, 1, 1, 1]  # 2*sum = 2**63 - 2, the largest even value that fits
        out = ENGINES[engine](cfg_for(complete(4), y0, [1] * 4, seed=1, record_trajectory=True))
        assert out.converged
        assert (out.final_estimate == (2**62 - 1) // 4).all()
        assert out.trajectory[-1].mass_totals() == (2**63 - 2, 8)


class TestTermination:
    def test_identical_ratio_flags_at_first_window(self):
        # every node holds ratio 3 forever, so the first check fires
        for g in (ring(5), complete(6)):
            out = run_sync(cfg_for(g, [6] * g.n, [2] * g.n, seed=1))
            assert out.converged
            assert out.termination_step == g.diameter
            assert (out.final_estimate == 3).all()

    def test_agreement_matches_quotient_oracle(self):
        for seed in range(40):
            g, y0, z0 = random_instance(seed)
            out = run_sync(cfg_for(g, y0, z0, seed=seed))
            assert out.converged
            lo, hi = quotient_floor_ceil(y0, z0)
            est = int(out.final_estimate[0])
            assert (out.final_estimate == est).all()
            assert est in (lo, hi)
            assert out.termination_step % g.diameter == 0

    def test_non_convergence_is_a_report_not_a_crash(self):
        g = ring(5)
        out = run_sync(cfg_for(g, [100, 0, 0, 0, 0], [1] * 5, max_steps=g.diameter))
        assert not out.converged
        assert out.termination_step is None
        assert out.steps_run == g.diameter
        assert out.final_y.sum() == 200  # full state carried in the report
        assert out.recovered_solution is None


class TestStepDecomposition:
    def test_stepping_equals_running(self):
        g, y0, z0 = random_instance(11)
        a = SyncEngine(cfg_for(g, y0, z0, seed=4, record_trajectory=True))
        while not a.all_flagged():
            step_sync(a)
        b = run_sync(cfg_for(g, y0, z0, seed=4, record_trajectory=True))
        assert a.flag_step == b.termination_step
        assert (a.outcome().final_estimate == b.final_estimate).all()
        for ra, rb in zip(a.trajectory, b.trajectory):
            assert (ra.y == rb.y).all() and (ra.z == rb.z).all()

    def test_mass_totals_constant_each_step(self):
        g, y0, z0 = random_instance(12)
        eng = SyncEngine(cfg_for(g, y0, z0, seed=5, record_trajectory=True))
        want = (2 * sum(y0), 2 * sum(z0))
        for _ in range(25):
            eng.step()
        for rec in eng.trajectory:
            assert rec.mass_totals() == want

    def test_fully_flagged_engine_is_a_noop(self):
        g, y0, z0 = random_instance(13)
        eng = SyncEngine(cfg_for(g, y0, z0, seed=6))
        eng.run()
        assert eng.all_flagged()
        before = (eng.y.copy(), eng.z.copy(), eng.steps_done)
        step_sync(step_sync(eng))
        assert (eng.y == before[0]).all()
        assert (eng.z == before[1]).all()
        assert eng.steps_done == before[2]


class TestDeterminism:
    def test_equal_configs_give_identical_outcomes(self):
        g, y0, z0 = random_instance(21)
        a = run_sync(cfg_for(g, y0, z0, seed=9, record_trajectory=True))
        b = run_sync(cfg_for(g, y0, z0, seed=9, record_trajectory=True))
        assert a.termination_step == b.termination_step
        assert (a.final_estimate == b.final_estimate).all()
        for ra, rb in zip(a.trajectory, b.trajectory):
            assert (ra.y == rb.y).all() and (ra.z == rb.z).all()

    def test_seed_changes_the_run(self):
        g, y0, z0 = random_instance(22, y_range=(0, 1000))
        a = run_sync(cfg_for(g, y0, z0, seed=1, record_trajectory=True))
        b = run_sync(cfg_for(g, y0, z0, seed=2, record_trajectory=True))
        assert any(
            (ra.y != rb.y).any()
            for ra, rb in zip(a.trajectory, b.trajectory)
        )


class TestMonotoneContraction:
    def test_extreme_ratios_contract_monotonically(self):
        # max ceiling never rises, min floor never falls: every new piece
        # value lies inside the current global piece-value envelope
        for seed in (31, 32, 33):
            g, y0, z0 = random_instance(seed)
            out = run_sync(cfg_for(g, y0, z0, seed=seed, record_trajectory=True))
            tops = [int(np.max(-(-rec.y // rec.z))) for rec in out.trajectory]
            bots = [int(np.min(rec.y // rec.z)) for rec in out.trajectory]
            assert all(a >= b for a, b in zip(tops, tops[1:]))
            assert all(a <= b for a, b in zip(bots, bots[1:]))


class TestVoteWindowMonotonicity:
    def test_votes_only_widen_between_refreshes(self):
        # within one window each node's max vote never drops and its min
        # never rises; only the refresh at a window start may reset them
        for seed in (51, 52):
            g, y0, z0 = random_instance(seed)
            out = run_sync(cfg_for(g, y0, z0, seed=seed, record_trajectory=True))
            window = g.diameter
            for prev, rec in zip(out.trajectory, out.trajectory[1:]):
                if (rec.step - 1) % window == 0:
                    continue  # refresh step: votes may reset inward
                live = rec.flag == prev.flag  # skip the freeze at the flip
                assert (rec.vote_max[live] >= prev.vote_max[live]).all()
                assert (rec.vote_min[live] <= prev.vote_min[live]).all()


class TestFlags:
    def test_flags_flip_together_at_window_boundary(self):
        g, y0, z0 = random_instance(41)
        out = run_sync(cfg_for(g, y0, z0, seed=8, record_trajectory=True))
        flips = [
            rec.step
            for prev, rec in zip(out.trajectory, out.trajectory[1:])
            if prev.flag.sum() == 0 and rec.flag.sum() > 0
        ]
        assert flips == [out.termination_step]
        assert out.trajectory[-1].flag.sum() == g.n
        assert out.termination_step % g.diameter == 0

    def test_recovery_rule_applied(self):
        g = complete(3)
        out = run_sync(
            cfg_for(g, [6] * 3, [2] * 3, recovery=lambda j, q: (j, 10 * q))
        )
        assert out.recovered_solution == [(0, 30), (1, 30), (2, 30)]
