"""The one engine behind both protocols, and the names it is measured by."""

from __future__ import annotations

import pytest

from qcs import AsyncEngine, DelayModel, Digraph, RunConfig, SyncEngine, protocol

from conftest import random_instance


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
