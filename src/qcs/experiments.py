"""Declarative experiment configs, the seeded trial runner, and artifacts.

An experiment is `trials` independent runs of one configuration; trial
i uses seed base_seed + i for everything it samples (graph, initial
values, routing, delays), so a config file plus a seed pins every byte
of the output.  Results land as outcomes.csv / error_series.csv /
summary.json in the chosen output directory.
"""

from __future__ import annotations

import csv
import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import applications, bounds, metrics
from .async_engine import run_async
from .digraph import Digraph, generate_random_digraph
from .engine import DelayModel, RunConfig
from .errors import ConfigError, TrialError
from .sync_engine import run_sync

logger = logging.getLogger(__name__)

# entropy tag for initial-value sampling, distinct from the engine's
# ROUTE_STREAM (0) and DELAY_STREAM (1) tags under the same trial seed
_INIT_STREAM = 2

# the run length when max_steps is unset, and the ceiling on 100x the
# completion bound when epsilon is set: those bounds reach 1e9-1e15 steps,
# so without it a stuck trial would never be censored
DEFAULT_MAX_STEPS = 100_000


@dataclass(frozen=True)
class RandomGraphSpec:
    n: int
    edge_prob: float
    max_retries: int = 100


@dataclass(frozen=True)
class FileGraphSpec:
    path: str


GraphSpec = Union[RandomGraphSpec, FileGraphSpec]


@dataclass(frozen=True)
class ExplicitInitial:
    y0: tuple[int, ...]
    z0: tuple[int, ...]


@dataclass(frozen=True)
class UniformInitial:
    """Integer-uniform initial values, inclusive ranges, per-trial draws."""

    y0_range: tuple[int, int]
    z0_range: tuple[int, int]


@dataclass(frozen=True)
class GenericInitial:
    alphas: tuple[int, ...]
    rhos: tuple[int, ...]
    literal: bool = False


@dataclass(frozen=True)
class SchedulingInitial:
    workloads: tuple[int, ...]
    occupied: tuple[int, ...]
    capacity: tuple[int, ...]


@dataclass(frozen=True)
class FederatedInitial:
    dataset_sizes: tuple[int, ...]
    local_params: tuple[int, ...]
    literal: bool = False


@dataclass(frozen=True)
class SchedulingUniformInitial:
    """Random loads over a capacity pattern cycled by node id."""

    load_range: tuple[int, int]
    capacity_pattern: tuple[int, ...]
    occupied: int = 0


@dataclass(frozen=True)
class FederatedUniformInitial:
    size_range: tuple[int, int]
    param_range: tuple[int, int]


InitialSpec = Union[
    ExplicitInitial,
    UniformInitial,
    GenericInitial,
    SchedulingInitial,
    FederatedInitial,
    SchedulingUniformInitial,
    FederatedUniformInitial,
]


# initial kinds whose tuple fields list one value per node
_PER_NODE_KINDS = {
    ExplicitInitial: "explicit",
    GenericInitial: "generic",
    SchedulingInitial: "scheduling",
    FederatedInitial: "federated",
}


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    graph: GraphSpec
    initial: InitialSpec
    delay: Optional[DelayModel] = None
    diameter_bound: Optional[int] = None
    trials: int = 1
    seed: int = 0
    max_steps: Optional[int] = None
    epsilon: Optional[float] = None
    record_trajectory: Optional[bool] = None
    error_mode: str = "reciprocal"
    check_invariants: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("sync", "async"):
            raise ConfigError(f"mode: must be 'sync' or 'async', got {self.mode!r}")
        if self.mode == "async" and self.delay is None:
            raise ConfigError("delay: required when mode is 'async'")
        if self.trials < 1:
            raise ConfigError(f"trials: must be >= 1, got {self.trials}")
        if self.epsilon is not None and not 0 < self.epsilon < 1:
            raise ConfigError(f"epsilon: must be in (0, 1), got {self.epsilon}")
        if self.error_mode not in ("reciprocal", "direct"):
            raise ConfigError(f"error_mode: must be 'reciprocal' or 'direct'")
        if isinstance(self.graph, RandomGraphSpec):
            self._check_lengths(self.graph.n)

    def _check_lengths(self, n: int) -> None:
        """Per-node tables must have one entry per node of an n-node graph."""
        kind = _PER_NODE_KINDS.get(type(self.initial))
        if kind is not None:
            for attr, values in vars(self.initial).items():
                if isinstance(values, tuple) and len(values) != n:
                    raise ConfigError(
                        f"initial.{kind}.{_INITIAL_KEYS.get(attr, attr)}: "
                        f"{len(values)} values for a graph with {n} nodes"
                    )
        if self.delay is not None and self.delay.per_node_pmf is not None:
            rows = len(self.delay.per_node_pmf)
            if rows != n:
                raise ConfigError(f"delay.per_node_pmf: {rows} rows for a graph with {n} nodes")

    def records_trajectory(self) -> bool:
        if self.record_trajectory is not None:
            return self.record_trajectory
        return self.trials == 1


def _require(d: dict, key: str, ctx: str):
    if key not in d:
        raise ConfigError(f"{ctx}: missing required key '{key}'")
    return d[key]


def _int_pair(value, ctx: str) -> tuple[int, int]:
    try:
        lo, hi = int(value[0]), int(value[1])
    except (TypeError, ValueError, IndexError):
        raise ConfigError(f"{ctx}: expected a [low, high] integer pair") from None
    if lo > hi:
        raise ConfigError(f"{ctx}: low {lo} exceeds high {hi}")
    return lo, hi


def _parse_graph(d, ctx: str = "graph") -> GraphSpec:
    if not isinstance(d, dict) or len(d) != 1:
        raise ConfigError(f"{ctx}: expected exactly one of 'random' or 'file'")
    if "random" in d:
        spec = d["random"]
        n = int(_require(spec, "n", f"{ctx}.random"))
        p = float(_require(spec, "edge_prob", f"{ctx}.random"))
        if n < 2:
            raise ConfigError(f"{ctx}.random.n: must be >= 2, got {n}")
        if not 0 < p <= 1:
            raise ConfigError(f"{ctx}.random.edge_prob: must be in (0, 1], got {p}")
        return RandomGraphSpec(n=n, edge_prob=p, max_retries=int(spec.get("max_retries", 100)))
    if "file" in d:
        return FileGraphSpec(path=str(d["file"]))
    raise ConfigError(f"{ctx}: unknown graph kind {sorted(d)[0]!r}")


def _parse_initial(d, ctx: str = "initial") -> InitialSpec:
    if not isinstance(d, dict) or len(d) != 1:
        raise ConfigError(f"{ctx}: expected exactly one initial-value kind")
    kind, spec = next(iter(d.items()))
    if kind == "explicit":
        return ExplicitInitial(
            y0=tuple(int(v) for v in _require(spec, "y0", f"{ctx}.explicit")),
            z0=tuple(int(v) for v in _require(spec, "z0", f"{ctx}.explicit")),
        )
    if kind == "uniform":
        return UniformInitial(
            y0_range=_int_pair(_require(spec, "y0_range", f"{ctx}.uniform"), f"{ctx}.uniform.y0_range"),
            z0_range=_int_pair(_require(spec, "z0_range", f"{ctx}.uniform"), f"{ctx}.uniform.z0_range"),
        )
    if kind == "generic":
        return GenericInitial(
            alphas=tuple(int(v) for v in _require(spec, "alpha", f"{ctx}.generic")),
            rhos=tuple(int(v) for v in _require(spec, "rho", f"{ctx}.generic")),
            literal=bool(spec.get("literal", False)),
        )
    if kind == "scheduling":
        return SchedulingInitial(
            workloads=tuple(int(v) for v in _require(spec, "workloads", f"{ctx}.scheduling")),
            occupied=tuple(int(v) for v in _require(spec, "occupied", f"{ctx}.scheduling")),
            capacity=tuple(int(v) for v in _require(spec, "capacity", f"{ctx}.scheduling")),
        )
    if kind == "federated":
        return FederatedInitial(
            dataset_sizes=tuple(int(v) for v in _require(spec, "dataset_sizes", f"{ctx}.federated")),
            local_params=tuple(int(v) for v in _require(spec, "local_params", f"{ctx}.federated")),
            literal=bool(spec.get("literal", False)),
        )
    if kind == "scheduling_uniform":
        return SchedulingUniformInitial(
            load_range=_int_pair(
                _require(spec, "load_range", f"{ctx}.scheduling_uniform"),
                f"{ctx}.scheduling_uniform.load_range",
            ),
            capacity_pattern=tuple(
                int(v) for v in _require(spec, "capacity_pattern", f"{ctx}.scheduling_uniform")
            ),
            occupied=int(spec.get("occupied", 0)),
        )
    if kind == "federated_uniform":
        return FederatedUniformInitial(
            size_range=_int_pair(
                _require(spec, "size_range", f"{ctx}.federated_uniform"),
                f"{ctx}.federated_uniform.size_range",
            ),
            param_range=_int_pair(
                _require(spec, "param_range", f"{ctx}.federated_uniform"),
                f"{ctx}.federated_uniform.param_range",
            ),
        )
    raise ConfigError(f"{ctx}: unknown initial-value kind {kind!r}")


def _parse_delay(d, ctx: str = "delay") -> DelayModel:
    max_delay = int(_require(d, "max_delay", ctx))
    pmf = d.get("pmf")
    per_node = d.get("per_node_pmf")
    try:
        return DelayModel(
            max_delay=max_delay,
            pmf=None if pmf is None else tuple(float(p) for p in pmf),
            per_node_pmf=None
            if per_node is None
            else tuple(tuple(float(p) for p in row) for row in per_node),
        )
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from None


def parse_config(source: Union[str, Path, dict]) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a JSON file or a dict.

    Unknown keys and constraint violations raise ConfigError naming the
    offending field.
    """
    if isinstance(source, (str, Path)):
        try:
            data = json.loads(Path(source).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {source}: invalid JSON ({exc})") from None
    else:
        data = dict(source)
    known = {
        "mode", "graph", "initial", "delay", "diameter_bound", "trials",
        "seed", "max_steps", "epsilon", "record_trajectory", "error_mode",
        "check_invariants",
    }
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config key '{key}'")
    mode = str(_require(data, "mode", "config"))
    delay = _parse_delay(data["delay"]) if data.get("delay") is not None else None
    return ExperimentConfig(
        mode=mode,
        graph=_parse_graph(_require(data, "graph", "config")),
        initial=_parse_initial(_require(data, "initial", "config")),
        delay=delay,
        diameter_bound=None if data.get("diameter_bound") is None else int(data["diameter_bound"]),
        trials=int(data.get("trials", 1)),
        seed=int(data.get("seed", 0)),
        max_steps=None if data.get("max_steps") is None else int(data["max_steps"]),
        epsilon=None if data.get("epsilon") is None else float(data["epsilon"]),
        record_trajectory=data.get("record_trajectory"),
        error_mode=str(data.get("error_mode", "reciprocal")),
        check_invariants=bool(data.get("check_invariants", True)),
    )


# spec field -> config-file key, where the two differ
_INITIAL_KEYS = {"alphas": "alpha", "rhos": "rho"}


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-ready echo of a config (for the summary artifact).

    Lossless: parse_config(config_to_dict(cfg)) == cfg.
    """

    def initial_dict(spec: InitialSpec) -> dict:
        name = {
            ExplicitInitial: "explicit",
            UniformInitial: "uniform",
            GenericInitial: "generic",
            SchedulingInitial: "scheduling",
            FederatedInitial: "federated",
            SchedulingUniformInitial: "scheduling_uniform",
            FederatedUniformInitial: "federated_uniform",
        }[type(spec)]
        body = {
            _INITIAL_KEYS.get(k, k): (list(v) if isinstance(v, tuple) else v)
            for k, v in spec.__dict__.items()
        }
        return {name: body}

    if isinstance(cfg.graph, RandomGraphSpec):
        graph = {
            "random": {
                "n": cfg.graph.n,
                "edge_prob": cfg.graph.edge_prob,
                "max_retries": cfg.graph.max_retries,
            }
        }
    else:
        graph = {"file": cfg.graph.path}
    out = {
        "mode": cfg.mode,
        "graph": graph,
        "initial": initial_dict(cfg.initial),
        "diameter_bound": cfg.diameter_bound,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "max_steps": cfg.max_steps,
        "epsilon": cfg.epsilon,
        "record_trajectory": cfg.record_trajectory,
        "error_mode": cfg.error_mode,
        "check_invariants": cfg.check_invariants,
    }
    if cfg.delay is not None:
        per_node = cfg.delay.per_node_pmf
        out["delay"] = {
            "max_delay": cfg.delay.max_delay,
            "pmf": None if cfg.delay.pmf is None else list(cfg.delay.pmf),
            "per_node_pmf": None if per_node is None else [list(row) for row in per_node],
        }
    return out


@dataclass(frozen=True)
class TrialInstance:
    """Everything one trial runs on."""

    graph: Digraph
    y0: tuple[int, ...]
    z0: tuple[int, ...]
    recovery: Optional[object]
    quotient: Fraction


def _load_graph_file(path: str) -> Digraph:
    return Digraph.load(path)


def build_trial_instance(cfg: ExperimentConfig, trial: int) -> TrialInstance:
    """Materialize the graph and initial values for one trial."""
    trial_seed = cfg.seed + trial
    if isinstance(cfg.graph, RandomGraphSpec):
        g = generate_random_digraph(
            cfg.graph.n, cfg.graph.edge_prob, seed=trial_seed, max_retries=cfg.graph.max_retries
        )
    else:
        g = _load_graph_file(cfg.graph.path)
    rng = np.random.default_rng([trial_seed, _INIT_STREAM])
    spec = cfg.initial
    recovery = None
    if isinstance(spec, ExplicitInitial):
        y0, z0 = spec.y0, spec.z0
    elif isinstance(spec, UniformInitial):
        y0 = tuple(int(v) for v in rng.integers(spec.y0_range[0], spec.y0_range[1] + 1, size=g.n))
        z0 = tuple(int(v) for v in rng.integers(spec.z0_range[0], spec.z0_range[1] + 1, size=g.n))
    elif isinstance(spec, GenericInitial):
        y0, z0 = applications.generic_init(spec.alphas, spec.rhos, literal_init=spec.literal)
    elif isinstance(spec, SchedulingInitial):
        inst = applications.SchedulingInstance(spec.workloads, spec.occupied, spec.capacity)
        y0, z0 = applications.scheduling_init(inst)
        recovery = applications.make_scheduling_recovery(inst)
    elif isinstance(spec, FederatedInitial):
        inst = applications.FederatedInstance(spec.dataset_sizes, spec.local_params)
        y0, z0 = applications.federated_init(inst, literal_init=spec.literal)
    elif isinstance(spec, SchedulingUniformInitial):
        loads = tuple(
            int(v) for v in rng.integers(spec.load_range[0], spec.load_range[1] + 1, size=g.n)
        )
        pattern = spec.capacity_pattern
        inst = applications.SchedulingInstance(
            workloads=loads,
            occupied=tuple(spec.occupied for _ in range(g.n)),
            capacity=tuple(pattern[j % len(pattern)] for j in range(g.n)),
        )
        y0, z0 = applications.scheduling_init(inst)
        recovery = applications.make_scheduling_recovery(inst)
    elif isinstance(spec, FederatedUniformInitial):
        sizes = tuple(
            int(v) for v in rng.integers(spec.size_range[0], spec.size_range[1] + 1, size=g.n)
        )
        params = tuple(
            int(v) for v in rng.integers(spec.param_range[0], spec.param_range[1] + 1, size=g.n)
        )
        inst = applications.FederatedInstance(sizes, params)
        y0, z0 = applications.federated_init(inst)
    else:  # pragma: no cover - the parser only builds the kinds above
        raise ConfigError(f"initial: unsupported spec type {type(spec).__name__}")
    if len(y0) != g.n:
        raise ConfigError(
            f"initial: {len(y0)} values for a graph with {g.n} nodes"
        )
    return TrialInstance(
        graph=g, y0=tuple(y0), z0=tuple(z0), recovery=recovery,
        quotient=bounds.target_quotient(y0, z0),
    )


@dataclass(frozen=True)
class TrialResult:
    """Lightweight per-trial record (workers ship these back)."""

    trial: int
    converged: bool
    termination_step: Optional[int]
    steps_run: int
    estimate: int
    spread: int
    censored: bool
    quotient_floor: int
    quotient_ceil: int
    completion_bound: Optional[int] = None
    within_bound: Optional[bool] = None
    error_series: Optional[tuple[float, ...]] = None
    recovered: Optional[tuple[float, ...]] = None


def _trial_max_steps(cfg: ExperimentConfig, inst: TrialInstance) -> int:
    if cfg.max_steps is not None:
        return cfg.max_steps
    if cfg.epsilon is not None:
        return min(100 * _trial_bound(cfg, inst), DEFAULT_MAX_STEPS)
    return DEFAULT_MAX_STEPS


def _trial_bound(cfg: ExperimentConfig, inst: TrialInstance) -> int:
    err = bounds.initial_state_error(inst.y0, inst.quotient)
    diam = inst.graph.diameter
    deg = inst.graph.max_out_degree
    if cfg.mode == "sync":
        tau = bounds.windows_for_confidence(cfg.epsilon, diam, deg)
        return bounds.completion_step_bound(err, inst.graph.n, tau, diam)
    bp = cfg.delay.min_max_delay_prob(inst.graph.n)
    tau = bounds.windows_for_confidence_delayed(cfg.epsilon, diam, deg, bp)
    return bounds.completion_step_bound_delayed(err, inst.graph.n, tau, diam, cfg.delay.max_delay)


def run_one_trial(cfg: ExperimentConfig, trial: int) -> TrialResult:
    """Build and run a single trial; deterministic in (cfg, trial)."""
    inst = build_trial_instance(cfg, trial)
    run_cfg = RunConfig(
        graph=inst.graph,
        y0=inst.y0,
        z0=inst.z0,
        seed=cfg.seed + trial,
        diameter_bound=cfg.diameter_bound,
        max_steps=_trial_max_steps(cfg, inst),
        record_trajectory=cfg.records_trajectory(),
        recovery=inst.recovery,
        check_invariants=cfg.check_invariants,
    )
    if cfg.mode == "sync":
        outcome = run_sync(run_cfg)
    else:
        outcome = run_async(run_cfg, cfg.delay)
    bound = within = None
    if cfg.epsilon is not None:
        bound = _trial_bound(cfg, inst)
        within = outcome.converged and outcome.termination_step <= bound
    series = None
    if outcome.trajectory is not None:
        target = inst.quotient
        if cfg.error_mode == "reciprocal":
            x_star = float(1 / target) if target != 0 else 0.0
        else:
            x_star = float(target)
        series = tuple(
            float(v)
            for v in metrics.normalized_error(
                outcome.trajectory, x_star, mode=cfg.error_mode
            ).values
        )
    recovered = None
    if outcome.converged and outcome.recovered_solution is not None:
        recovered = tuple(float(v) for v in outcome.recovered_solution)
    est = outcome.final_estimate
    return TrialResult(
        trial=trial,
        converged=outcome.converged,
        termination_step=outcome.termination_step,
        steps_run=outcome.steps_run,
        estimate=int(est.min()),
        spread=int(est.max() - est.min()),
        censored=not outcome.converged,
        quotient_floor=int(np.floor(inst.quotient)),
        quotient_ceil=int(-(-inst.quotient.numerator // inst.quotient.denominator)),
        completion_bound=bound,
        within_bound=within,
        error_series=series,
        recovered=recovered,
    )


def _trial_worker(payload: tuple[ExperimentConfig, int]) -> TrialResult:
    """run_one_trial, with any failure re-raised as a TrialError naming it."""
    cfg, trial = payload
    try:
        return run_one_trial(cfg, trial)
    except Exception as exc:
        raise TrialError(trial, cfg.seed + trial, f"{type(exc).__name__}: {exc}") from exc


def run_trials(cfg: ExperimentConfig, workers: int = 1) -> list[TrialResult]:
    """Run all trials; results are ordered by trial index regardless of
    worker scheduling, so output artifacts do not depend on workers.

    A trial that raises fails the whole run with a TrialError naming the
    trial index and seed, on the serial and the pool path alike.
    """
    payloads = [(cfg, t) for t in range(cfg.trials)]
    if workers <= 1 or cfg.trials == 1:
        return [_trial_worker(p) for p in payloads]
    chunk = max(1, cfg.trials // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_trial_worker, payloads, chunksize=chunk))


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    results: list[TrialResult]
    stats: metrics.TrialStats
    bounds_block: Optional[dict]
    artifacts: dict = field(default_factory=dict)


def _outcomes_rows(results: Sequence[TrialResult]) -> list[dict]:
    return [
        {
            "trial": r.trial,
            "converged": int(r.converged),
            "steps": r.termination_step if r.converged else r.steps_run,
            "q_s": r.estimate,
            "spread": r.spread,
            "censored": int(r.censored),
        }
        for r in results
    ]


def write_artifacts(
    result: ExperimentResult,
    out_dir: Union[str, Path],
    fmt: str = "csv",
) -> dict:
    """Write outcomes, error series and summary; returns artifact paths."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: must be 'csv' or 'json', got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict = {}
    rows = _outcomes_rows(result.results)
    if fmt == "csv":
        path = out / "outcomes.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    else:
        path = out / "outcomes.json"
        path.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    paths["outcomes"] = str(path)

    series_rows = [
        (r.trial, k, e)
        for r in result.results
        if r.error_series is not None
        for k, e in enumerate(r.error_series)
    ]
    if series_rows:
        epath = out / "error_series.csv"
        with epath.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "k", "e_k"])
            writer.writerows([t, k, repr(e)] for t, k, e in series_rows)
        paths["error_series"] = str(epath)

    stats = result.stats
    summary = {
        "config": config_to_dict(result.config),
        "stats": {
            "trials": stats.trials,
            "converged": stats.converged_count,
            "mean_steps": stats.mean,
            "std_steps": stats.std,
            "min_steps": stats.min,
            "max_steps": stats.max,
            "fraction_within_bound": stats.fraction_within_bound,
        },
        "bounds": result.bounds_block,
        "meta": {"generated_at": datetime.now(timezone.utc).isoformat()},
    }
    spath = out / "summary.json"
    spath.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    paths["summary"] = str(spath)
    result.artifacts = paths
    return paths


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: Optional[Union[str, Path]] = None,
    fmt: str = "csv",
    workers: int = 1,
) -> ExperimentResult:
    """Run all trials, aggregate, and (optionally) write artifacts."""
    results = run_trials(cfg, workers=workers)
    stats = metrics.trial_stats(results)
    if cfg.epsilon is not None:
        within = [r for r in results if r.within_bound]
        stats = metrics.TrialStats(
            **{**stats.__dict__, "fraction_within_bound": len(within) / len(results)}
        )
    bounds_block = None
    if cfg.epsilon is not None:
        inst = build_trial_instance(cfg, 0)
        bounds_block = bounds.bounds_report(
            inst.graph,
            cfg.epsilon,
            inst.y0,
            inst.z0,
            max_delay=None if cfg.delay is None else cfg.delay.max_delay,
            min_max_delay_prob=None
            if cfg.delay is None
            else cfg.delay.min_max_delay_prob(inst.graph.n),
        )
    result = ExperimentResult(
        config=cfg, results=results, stats=stats, bounds_block=bounds_block
    )
    if out_dir is not None:
        write_artifacts(result, out_dir, fmt=fmt)
    return result


# ---------------------------------------------------------------------------
# presets: one-command reproductions of the headline experiments, desk scale


def fig1_config(trials: int = 100, seed: int = 0) -> ExperimentConfig:
    """Task-scheduling run: 20 nodes, p=0.5, loads U[1,100], capacities
    alternating 100/300 by node parity."""
    return ExperimentConfig(
        mode="sync",
        graph=RandomGraphSpec(n=20, edge_prob=0.5),
        initial=SchedulingUniformInitial(
            load_range=(1, 100), capacity_pattern=(100, 300), occupied=0
        ),
        trials=trials,
        seed=seed,
    )


def fig3_configs(trials: int = 100, seed: int = 0, max_delay: int = 5) -> dict:
    """Federated aggregation on matched instances, sync vs delayed.

    Both configs share the seed, so trial i uses the identical graph and
    instance under either mode.
    """
    base = dict(
        graph=RandomGraphSpec(n=20, edge_prob=0.5),
        initial=FederatedUniformInitial(size_range=(10, 100), param_range=(1000, 100000)),
        trials=trials,
        seed=seed,
        error_mode="direct",
    )
    return {
        "sync": ExperimentConfig(mode="sync", **base),
        "async": ExperimentConfig(mode="async", delay=DelayModel(max_delay=max_delay), **base),
    }


FIG2_DESK_SIZES = (50, 100, 200, 300)
FIG2_DESK_DELAYS = (5, 10, 15)
FIG2_FULL_SIZES = (50, 100, 200, 300, 500, 1000, 2000, 3000)
FIG2_FULL_DELAYS = (5, 10, 15, 20, 25, 30)


def fig2_grid(
    trials: int = 50,
    seed: int = 0,
    sizes: Sequence[int] = FIG2_DESK_SIZES,
    delays: Sequence[int] = FIG2_DESK_DELAYS,
    edge_prob: float = 0.5,
) -> list[tuple[int, int, ExperimentConfig]]:
    """(n, max_delay, config) cells of the delayed-convergence sweep.

    The defaults trim the published grid (FIG2_FULL_SIZES x
    FIG2_FULL_DELAYS) to desk scale: 4 sizes x 3 delay bounds at
    `trials` trials per cell.
    """
    cells = []
    for n in sizes:
        for b in delays:
            cells.append(
                (
                    n,
                    b,
                    ExperimentConfig(
                        mode="async",
                        graph=RandomGraphSpec(n=n, edge_prob=edge_prob),
                        initial=SchedulingUniformInitial(
                            load_range=(1, 100), capacity_pattern=(100, 300), occupied=0
                        ),
                        delay=DelayModel(max_delay=b),
                        trials=trials,
                        # cell seeds offset so no two cells share trial seeds
                        seed=seed + (n * 1000 + b) * 100_000,
                    ),
                )
            )
    return cells


def run_sweep(
    cells: Sequence[tuple[int, int, ExperimentConfig]],
    out_dir: Optional[Union[str, Path]] = None,
    workers: int = 1,
) -> list[dict]:
    """Run grid cells and summarize one row per cell."""
    rows = []
    for n, b, cfg in cells:
        res = run_experiment(cfg, out_dir=None, workers=workers)
        st = res.stats
        rows.append(
            {
                "n": n,
                "max_delay": b,
                "trials": st.trials,
                "converged": st.converged_count,
                "mean_steps": st.mean,
                "std_steps": st.std,
                "min_steps": st.min,
                "max_steps": st.max,
            }
        )
        logger.info("sweep cell n=%d B=%d: mean %.1f steps", n, b, st.mean)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "sweep_summary.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return rows
