"""The benchmark's span wrappers install on the current qcs and undo cleanly.

`bench/spans.py` replaces qcs functions, methods and a cached property by
name under `--trace 1`; a rename or deletion of one of them breaks the
traced benchmark, which the tier-1 suite does not otherwise run.  The
spans named below must also record calls, so a wrapper around code that
no longer runs shows.
"""

from __future__ import annotations

import importlib
from collections import Counter
from pathlib import Path

import qcs
from qcs import bounds, experiments
from qcs.async_engine import AsyncEngine
from qcs.digraph import Digraph
from qcs.sync_engine import SyncEngine

BENCH = Path(__file__).resolve().parent.parent / "bench"

BASE = {
    "graph": {"random": {"n": 8, "edge_prob": 0.5}},
    "initial": {"uniform": {"y0_range": [0, 20], "z0_range": [1, 4]}},
    "trials": 2,
    "epsilon": 0.1,
}


def _bound_names(spans) -> list:
    """Every attribute the span wrappers replace, as it is bound now."""
    return [
        experiments.run_one_trial,
        qcs.run_one_trial,
        *(vars(bounds)[name] for name in spans._BOUNDS_FUNCTIONS),
        *(vars(cls)[attr] for cls in (SyncEngine, AsyncEngine) for attr in ("__init__", "step", "run")),
        vars(Digraph)["diameter"],
    ]


def test_spans_install_and_undo_on_current_qcs(monkeypatch):
    # imported the way bench/test_smoke.py imports it: bench/ on sys.path
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    before = _bound_names(spans)
    rec, patches = spans.Recorder(), spans.Patches()
    spans.install(rec, patches)
    try:
        assert all(a is not b for a, b in zip(_bound_names(spans), before))
        experiments.run_experiment(qcs.parse_config({**BASE, "mode": "sync"}))
        experiments.run_experiment(qcs.parse_config({**BASE, "mode": "async", "delay": {"max_delay": 3}}))
    finally:
        patches.undo()
    assert all(a is b for a, b in zip(_bound_names(spans), before))
    # a name is registered when its wrapper is built; only a span shows a call
    calls = Counter(rec.names[i] for i in rec.name)
    for name in ("sync_engine.step", "async_engine.step", "bounds.completion_step_bound_delayed",
                 "digraph.generate", "digraph.diameter", "experiments.run_one_trial",
                 "experiments.build_trial_instance"):
        assert calls[name] > 0, name
