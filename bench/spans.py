"""Outside-in spans around calls into the qcs modules.

`install` replaces public functions, methods and one cached property of
the qcs modules with timing wrappers that pass arguments and return
values through unchanged; `Patches.undo` puts the originals back.  The
one wrapper that hands back a different object is the scheduling
recovery hook: `make_scheduling_recovery` returns it inside a closure
that counts calls and forwards them untouched.

A span is (name, start, end, parent, trial).  Spans stay in compact
arrays in memory and are written once, at the end of a traced run.
The layer of a span is its name up to the first dot, which is the qcs
module it times.  A layer's self time is the time its spans do not
spend in child spans.  Small helpers called per node (`ceil_div`,
`floor_div`) are not wrapped; their time stays in their caller's self
time.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

LAYERS = (
    "digraph", "protocol", "sync_engine", "async_engine",
    "bounds", "applications", "metrics", "experiments",
)

# (name, unit) of every per-layer metric, in report order.  "ms/trial"
# is a mean over the traced trials; "/pass" counts cover the workload's
# whole trial set and repeat exactly for a given workload seed.
PER_LAYER = (
    ("digraph.generate_ms", "ms/trial"),
    ("digraph.diameter_ms", "ms/trial"),
    ("digraph.neighbor_arrays_ms", "ms/trial"),
    ("digraph.generate_calls", "count/pass"),
    ("digraph.edges", "count/pass"),
    ("protocol.split_calls", "count/pass"),
    ("protocol.pieces_routed", "count/pass"),
    ("protocol.split_ms", "ms/trial"),
    ("sync_engine.init_ms", "ms/trial"),
    ("sync_engine.step_ms_p50", "ms"),
    ("sync_engine.step_ms_p99", "ms"),
    ("sync_engine.step_self_ms", "ms/trial"),
    ("sync_engine.steps", "count/pass"),
    ("sync_engine.windows", "count/pass"),
    ("async_engine.init_ms", "ms/trial"),
    ("async_engine.step_ms_p50", "ms"),
    ("async_engine.step_ms_p99", "ms"),
    ("async_engine.step_self_ms", "ms/trial"),
    ("async_engine.delay_draws", "count/pass"),
    ("async_engine.delay_draw_ms", "ms/trial"),
    ("async_engine.steps", "count/pass"),
    ("async_engine.windows", "count/pass"),
    ("async_engine.trajectory_records", "count/pass"),
    ("async_engine.emission_log_entries", "count/pass"),
    ("metrics.normalized_error_ms", "ms/trial"),
    ("applications.init_ms", "ms/trial"),
    ("applications.recovery_calls", "count/pass"),
    ("experiments.instances_built", "count/pass"),
    ("experiments.trial_self_ms", "ms/trial"),
    ("experiments.write_artifacts_ms", "ms/trial"),
    ("experiments.artifact_bytes", "bytes/pass"),
    *((f"{layer}.self_ms", "ms/trial") for layer in LAYERS),
    ("bench.loop_ms", "ms/trial"),
    ("bench.trace_overhead_pct", "%"),
)

_BOUNDS_FUNCTIONS = (
    "bounds_report", "target_quotient", "initial_state_error",
    "windows_for_confidence", "windows_for_confidence_delayed",
    "completion_step_bound", "completion_step_bound_delayed",
)
_APPLICATION_INITS = ("scheduling_init", "federated_init", "generic_init")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def set_function(self, fn: Callable, value: Callable) -> None:
        """Rebind `fn` to `value` in every qcs module that holds it."""
        for mod in [m for k, m in sys.modules.items() if k == "qcs" or k.startswith("qcs.")]:
            for attr, bound in list(vars(mod).items()):
                if bound is fn:
                    self.set(mod, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Recorder:
    """Span store: parallel arrays indexed by span number."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_trial = -1
        self.trials_seen = 0
        self.counts: Counter = Counter()

    def timed(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """`fn` wrapped in a span; `after(args, result)` runs once it closes."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, trials = self.name, self.parent, self.trial
        starts, ends, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            trials.append(self.current_trial)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return span

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            trial=np.frombuffer(self.trial, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def install(rec: Recorder, patches: Patches) -> None:
    """Wrap every measured qcs entry point; `patches.undo()` removes them."""
    from qcs import applications, bounds, digraph, experiments, metrics, protocol
    from qcs.async_engine import AsyncEngine, DelayModel
    from qcs.digraph import Digraph
    from qcs.sync_engine import SyncEngine

    counts = rec.counts

    def wrap_function(layer: str, fn: Callable, after: Optional[Callable] = None, name: str = "") -> None:
        patches.set_function(fn, rec.timed(f"{layer}.{name or fn.__name__}", fn, after))

    def wrap_method(layer: str, cls, attr: str, name: str, after: Optional[Callable] = None) -> None:
        patches.set(cls, attr, rec.timed(f"{layer}.{name}", vars(cls)[attr], after))

    # digraph
    def count_edges(args, g):
        counts["digraph.edges"] += sum(len(row) for row in g.out_neighbors)

    wrap_function("digraph", digraph.generate_random_digraph, count_edges, name="generate")
    diameter = functools.cached_property(rec.timed("digraph.diameter", vars(Digraph)["diameter"].func))
    diameter.__set_name__(Digraph, "diameter")
    patches.set(Digraph, "diameter", diameter)
    wrap_method("digraph", Digraph, "out_neighbor_arrays", "out_neighbor_arrays")
    wrap_method("digraph", Digraph, "in_neighbor_arrays", "in_neighbor_arrays")

    # protocol
    def count_pieces(args, result):
        counts["protocol.pieces_routed"] += args[1] - 1

    wrap_function("protocol", protocol.split_pieces, count_pieces)

    # engines
    def count_run(layer: str):
        def after(args, outcome):
            engine = args[0]
            counts[f"{layer}.windows"] += -(-engine.steps_done // engine.window)
            if getattr(engine, "trajectory", None) is not None:
                counts[f"{layer}.trajectory_records"] += len(engine.trajectory)
            if getattr(engine, "emission_log", None) is not None:
                counts[f"{layer}.emission_log_entries"] += len(engine.emission_log)

        return after

    for layer, cls in (("sync_engine", SyncEngine), ("async_engine", AsyncEngine)):
        wrap_method(layer, cls, "__init__", "init")
        wrap_method(layer, cls, "step", "step")
        wrap_method(layer, cls, "run", "run", count_run(layer))
    wrap_method("async_engine", DelayModel, "draw", "delay_draw")

    # bounds
    for name in _BOUNDS_FUNCTIONS:
        wrap_function("bounds", getattr(bounds, name))

    # applications
    for name in _APPLICATION_INITS:
        wrap_function("applications", getattr(applications, name))
    for cls in (applications.SchedulingInstance, applications.FederatedInstance):
        wrap_method("applications", cls, "__post_init__", f"{cls.__name__}.check")
    make_recovery = rec.timed("applications.make_scheduling_recovery", applications.make_scheduling_recovery)

    def counted_recovery(*args, **kwargs):
        hook = make_recovery(*args, **kwargs)

        def recover(node_id, estimate):
            counts["applications.recovery_calls"] += 1
            return hook(node_id, estimate)

        return recover

    patches.set_function(applications.make_scheduling_recovery, counted_recovery)

    # metrics
    wrap_function("metrics", metrics.normalized_error)
    wrap_function("metrics", metrics.trial_stats)

    # experiments
    def count_bytes(args, paths):
        counts["experiments.artifact_bytes"] += sum(os.path.getsize(p) for p in paths.values())

    wrap_function("experiments", experiments.run_experiment)
    wrap_function("experiments", experiments.run_trials)
    wrap_function("experiments", experiments.build_trial_instance)
    wrap_function("experiments", experiments.write_artifacts, count_bytes)
    one_trial = rec.timed("experiments.run_one_trial", experiments.run_one_trial)

    def trial_span(*args, **kwargs):
        rec.current_trial = rec.trials_seen
        rec.trials_seen += 1
        try:
            return one_trial(*args, **kwargs)
        finally:
            rec.current_trial = -1

    patches.set_function(experiments.run_one_trial, trial_span)


def analyze(rec: Recorder, traced_wall: float, traced_passes: int, overhead_pct: float) -> dict:
    """Per-layer metrics and the layer-share table of a traced run.

    `traced_wall` is the summed wall time of the traced chunk runs, which
    cover the trial set `traced_passes` times; `overhead_pct` compares
    them with the untraced runs of the same chunks.
    """
    ids = {n: i for i, n in enumerate(rec.names)}
    name = np.frombuffer(rec.name, dtype=np.intc)
    parent = np.frombuffer(rec.parent, dtype=np.intc)
    trial = np.frombuffer(rec.trial, dtype=np.intc)
    dur = np.frombuffer(rec.end, dtype=np.float64) - np.frombuffer(rec.start, dtype=np.float64)
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in rec.names] or [0], dtype=np.intc)
    span_layer = layer_of[name] if len(name) else name

    def mask(*names: str) -> np.ndarray:
        return np.isin(name, [ids[n] for n in names if n in ids])

    def count(*names: str) -> int:
        return int(mask(*names).sum())

    trials = count("experiments.run_one_trial")
    per_trial = 1e3 / max(trials, 1)  # seconds summed over the run -> ms per trial
    per_pass = 1.0 / max(traced_passes, 1)

    def dur_ms(*names: str) -> float:
        return float(dur[mask(*names)].sum()) * per_trial

    def self_ms(*names: str) -> float:
        return float(self_time[mask(*names)].sum()) * per_trial

    def pct(name_: str, q: float) -> float:
        d = dur[mask(name_)]
        return float(np.percentile(d, q)) * 1e3 if d.size else 0.0

    layer_self = np.bincount(span_layer, weights=self_time, minlength=len(LAYERS))
    in_trials = trial >= 0
    layer_self_in_trials = np.bincount(span_layer[in_trials], weights=self_time[in_trials], minlength=len(LAYERS))
    root_time = float(dur[~nested].sum())
    loop_time = traced_wall - root_time
    trial_time = float(dur[mask("experiments.run_one_trial")].sum())

    m = {
        "digraph.generate_ms": dur_ms("digraph.generate"),
        "digraph.diameter_ms": dur_ms("digraph.diameter"),
        "digraph.neighbor_arrays_ms": dur_ms("digraph.out_neighbor_arrays", "digraph.in_neighbor_arrays"),
        "digraph.generate_calls": count("digraph.generate") * per_pass,
        "digraph.edges": rec.counts["digraph.edges"] * per_pass,
        "protocol.split_calls": count("protocol.split_pieces") * per_pass,
        "protocol.pieces_routed": rec.counts["protocol.pieces_routed"] * per_pass,
        "protocol.split_ms": dur_ms("protocol.split_pieces"),
    }
    for layer in ("sync_engine", "async_engine"):
        m[f"{layer}.init_ms"] = self_ms(f"{layer}.init")
        m[f"{layer}.step_ms_p50"] = pct(f"{layer}.step", 50)
        m[f"{layer}.step_ms_p99"] = pct(f"{layer}.step", 99)
        m[f"{layer}.step_self_ms"] = self_ms(f"{layer}.step")
        m[f"{layer}.steps"] = count(f"{layer}.step") * per_pass
        m[f"{layer}.windows"] = rec.counts[f"{layer}.windows"] * per_pass
    m.update({
        "async_engine.delay_draws": count("async_engine.delay_draw") * per_pass,
        "async_engine.delay_draw_ms": dur_ms("async_engine.delay_draw"),
        "async_engine.trajectory_records": rec.counts["async_engine.trajectory_records"] * per_pass,
        "async_engine.emission_log_entries": rec.counts["async_engine.emission_log_entries"] * per_pass,
        "metrics.normalized_error_ms": dur_ms("metrics.normalized_error"),
        "applications.init_ms": dur_ms(
            *(f"applications.{n}" for n in _APPLICATION_INITS),
            "applications.make_scheduling_recovery",
            "applications.SchedulingInstance.check",
            "applications.FederatedInstance.check",
        ),
        "applications.recovery_calls": rec.counts["applications.recovery_calls"] * per_pass,
        "experiments.instances_built": count("experiments.build_trial_instance") * per_pass,
        "experiments.trial_self_ms": self_ms("experiments.run_one_trial", "experiments.build_trial_instance"),
        "experiments.write_artifacts_ms": dur_ms("experiments.write_artifacts"),
        "experiments.artifact_bytes": rec.counts["experiments.artifact_bytes"] * per_pass,
    })
    for i, layer in enumerate(LAYERS):
        m[f"{layer}.self_ms"] = float(layer_self[i]) * per_trial
    m["bench.loop_ms"] = loop_time * per_trial
    m["bench.trace_overhead_pct"] = overhead_pct

    table = [
        {
            "layer": layer,
            "self_ms_per_trial": float(layer_self[i]) * per_trial,
            "pct_of_trial_time": 100.0 * float(layer_self_in_trials[i]) / trial_time if trial_time else 0.0,
            "pct_of_traced_wall": 100.0 * float(layer_self[i]) / traced_wall,
        }
        for i, layer in enumerate(LAYERS)
    ]
    table.append({
        "layer": "bench loop",
        "self_ms_per_trial": loop_time * per_trial,
        "pct_of_trial_time": 0.0,
        "pct_of_traced_wall": 100.0 * loop_time / traced_wall,
    })
    accounted = (float(layer_self.sum()) + loop_time) / traced_wall
    return {
        "metrics": m,
        "layer_table": table,
        "traced_trials": trials,
        "spans": int(len(name)),
        "accounted_share": accounted,
        "min_self_ms": float(self_time.min()) * 1e3 if len(self_time) else 0.0,
    }
