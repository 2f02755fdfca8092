"""The one engine behind both protocols, and the names it is measured by."""

from __future__ import annotations

import hashlib
from dataclasses import astuple

import numpy as np
import pytest

from qcs import AsyncEngine, DelayModel, Digraph, RunConfig, SyncEngine, ceil_div, engine, floor_div, protocol

from conftest import random_instance, ring


class TestUnitDelays:
    @pytest.mark.parametrize("make", [SyncEngine, lambda cfg: AsyncEngine(cfg, DelayModel(max_delay=1))])
    def test_no_queue_and_no_delay_draws(self, make, monkeypatch):
        def no_draws(self, u, nodes):
            raise AssertionError("a unit-delay run drew a delay")

        monkeypatch.setattr(DelayModel, "draw_batch", no_draws)
        g, y0, z0 = random_instance(5)
        eng = make(RunConfig(graph=g, y0=y0, z0=z0, seed=5))
        assert eng.pend_y is None and eng.busy_until is None and eng.cycle_start is None
        assert eng.run().converged


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
                start = (ceil_div(before.y, before.z), floor_div(before.y, before.z))
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
