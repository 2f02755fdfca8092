"""The benchmark's workloads: trial sets built from the qcs presets.

A workload turns a workload seed into a trial set, split into chunks.
A chunk is a list of labelled `ExperimentConfig`s that the benchmark
runs through `experiments.run_experiment`, one call per config; a pass
runs every chunk once.  Chunk c covers the trials with seeds
`base + c * trials .. base + (c + 1) * trials - 1`, so the chunks of a
pass are distinct trials and together form the workload's trial set.
Every config keeps `check_invariants` on, so the ledger and vote audits
are part of what is measured.

The workload seed is spread by `SEED_STRIDE` before it reaches a
config, because trial i of a config uses seed `cfg.seed + i`: adjacent
workload seeds would otherwise share most of their trials.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from qcs import experiments
from qcs.async_engine import DelayModel
from qcs.experiments import (
    ExperimentConfig,
    FederatedUniformInitial,
    RandomGraphSpec,
    SchedulingUniformInitial,
)

SEED_STRIDE = 1000  # more than any workload's trials per config in a pass

# chunks per pass and trials per config in a chunk at size "tiny"; two
# trials, because a config with one trial records its trajectory
TINY_CHUNKS, TINY_TRIALS = 2, 2

Chunk = list[tuple[str, ExperimentConfig]]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, int, bool], Chunk]  # (seed, trials, tiny) -> one chunk
    chunks: int
    chunk_trials: int
    needs_error_series: bool = False


def _presets(seed: int, trials: int, tiny: bool) -> Chunk:
    fig3 = experiments.fig3_configs(trials=trials, seed=seed)
    return [
        ("fig1", experiments.fig1_config(trials=trials, seed=seed)),
        ("fig3-sync", fig3["sync"]),
        ("fig3-async", fig3["async"]),
    ]


def _desk(seed: int, trials: int, tiny: bool) -> Chunk:
    (cfg,) = [c for n, b, c in experiments.fig2_grid(trials=trials, seed=seed) if (n, b) == (300, 10)]
    if tiny:
        cfg = dataclasses.replace(cfg, graph=RandomGraphSpec(n=30, edge_prob=0.5))
    return [("fig2-n300-B10", cfg)]


def _dense(seed: int, trials: int, tiny: bool) -> Chunk:
    cfg = ExperimentConfig(
        mode="sync",
        graph=RandomGraphSpec(n=80 if tiny else 1000, edge_prob=0.5),
        initial=SchedulingUniformInitial(load_range=(1, 100), capacity_pattern=(100, 300)),
        epsilon=0.05,
        trials=trials,
        seed=seed,
    )
    return [("dense-sync", cfg)]


def _curves(seed: int, trials: int, tiny: bool) -> Chunk:
    cfg = ExperimentConfig(
        mode="async",
        graph=RandomGraphSpec(n=20 if tiny else 100, edge_prob=0.5),
        initial=FederatedUniformInitial(size_range=(10, 100), param_range=(1000, 100000)),
        delay=DelayModel(max_delay=10),
        error_mode="direct",
        record_trajectory=True,
        trials=trials,
        seed=seed,
    )
    return [("curves-async", cfg)]


# BENCHMARK.json lists the workloads the benchmark is judged on and why
# each exists.  desk-async-n300 (the largest fig2-desk cell, where the
# async step loop is ~60% of the time) and dense-sync-n1000 (where graph
# generation, diameter and neighbor arrays are ~45%) stay runnable by
# name for per-layer study but are not listed there.  Their trials take
# 0.15-1 s and their step counts come in whole vote windows, dense with a
# heavy tail (4 to 26 steps), so on a shared 2-core machine the spread of
# their figures across workload seeds reached 0.3-0.5 of the median, and
# each listed workload costs 22 runs of the time budget.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("presets-n20", _presets, chunks=5, chunk_trials=20),
        Workload("desk-async-n300", _desk, chunks=10, chunk_trials=3),
        Workload("dense-sync-n1000", _dense, chunks=3, chunk_trials=3),
        Workload("curves-async-n100", _curves, chunks=12, chunk_trials=2, needs_error_series=True),
    )
}


def build_chunks(name: str, seed: int, tiny: bool = False) -> list[Chunk]:
    """The chunks one pass of workload `name` runs, in order."""
    w = WORKLOADS[name]
    chunks, trials = (TINY_CHUNKS, TINY_TRIALS) if tiny else (w.chunks, w.chunk_trials)
    base = seed * SEED_STRIDE
    return [w.build(base + c * trials, trials, tiny) for c in range(chunks)]
