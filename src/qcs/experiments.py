"""Declarative experiment configs, the seeded trial runner, and artifacts.

An experiment is `trials` independent runs of one configuration; trial
i uses seed base_seed + i for everything it samples (graph, initial
values, routing, delays), so a config file plus a seed pins every byte
of the output.  Results land as outcomes.csv / error_series.csv /
summary.json in the chosen output directory.

Each config object is a frozen dataclass whose fields are its config
keys: parse_spec builds one from JSON, config_to_dict echoes it, and
its __post_init__ refuses values no trial could run on.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import logging
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Optional, Sequence, Union

import numpy as np

from . import applications, bounds, metrics
from .digraph import Digraph, generate_random_digraph
from .engine import DEFAULT_MAX_STEPS, UNIT_DELAY, DelayModel, RunConfig, run_async, run_sync
from .errors import ConfigError, TrialError

logger = logging.getLogger(__name__)

# entropy tag for initial-value sampling, distinct from the engine's
# ROUTE_STREAM (0) and DELAY_STREAM (1) tags under the same trial seed
_INIT_STREAM = 2

# field metadata of a per-node field: the least value a node may hold
_FLOOR = "floor"


def _at_least(ctx: str, value: int, floor: int) -> None:
    if value < floor:
        raise ConfigError(f"{ctx}: must be >= {floor}, got {value}")


def _in_open_unit(ctx: str, value: float) -> None:
    if not 0 < value < 1:
        raise ConfigError(f"{ctx}: must be in (0, 1), got {value}")


def _check_floor(values: Sequence[int], floor: int, name_of: Callable[[int], str]) -> None:
    """Refuse the first of the per-node `values` below `floor`; node j is named name_of(j)."""
    if values and min(values) < floor:
        j = next(j for j, v in enumerate(values) if v < floor)
        _at_least(name_of(j), values[j], floor)


@dataclass(frozen=True)
class RandomGraphSpec:
    n: int
    edge_prob: float
    max_retries: int = 100
    # the generator draws an n x n float64 matrix: 2 GiB at this n
    MAX_N: ClassVar[int] = 16_384

    def __post_init__(self) -> None:
        _at_least("graph.random.n", self.n, 2)
        if self.n > self.MAX_N:
            raise ConfigError(f"graph.random.n: must be <= {self.MAX_N}, got {self.n}: its n x n "
                              f"edge draw would take {self.n**2 * 8 / 2**30:.2f} GiB")
        if not 0 < self.edge_prob <= 1:
            raise ConfigError(f"graph.random.edge_prob: must be in (0, 1], got {self.edge_prob}")
        _at_least("graph.random.max_retries", self.max_retries, 1)


@dataclass(frozen=True)
class FileGraphSpec:
    """A graph read from an edge-list file: once per spec object, at first use."""

    path: str

    @functools.cached_property
    def digraph(self) -> Digraph:
        """The file's graph, shared by every trial of the config."""
        try:
            return Digraph.load(self.path)
        except OSError as exc:
            raise ConfigError(f"graph.file {self.path}: cannot read ({exc.strerror})") from None
        except ValueError as exc:
            raise ConfigError(f"graph.file {self.path}: {exc}") from None

    def __getstate__(self) -> dict:
        # a pickled spec reads its file again: unpickled arrays would be writable
        return {"path": self.path}


GraphSpec = Union[RandomGraphSpec, FileGraphSpec]


class InitialSpec:
    """Base of the initial-value kinds, one frozen dataclass per kind.

    KIND is the kind's config name.  The fields with a _FLOOR are the
    per-node fields: each lists one value per node and refuses any
    node's value below its floor.
    """

    KIND: ClassVar[str]

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            floor = f.metadata.get(_FLOOR)
            if floor is not None:
                ctx = f"initial.{self.KIND}.{f.name}"
                _check_floor(getattr(self, f.name), floor, lambda j: f"{ctx}[{j}]")

    @classmethod
    def from_node_values(cls, body: dict[str, Sequence], name_of: Callable[[str, int], str]):
        """The spec whose per-node field `name` lists body[name], read as
        integers; a bad value of node j is named name_of(name, j)."""
        fields = {f.name: f for f in dataclasses.fields(cls)}
        columns = {}
        for name, raw in body.items():
            at = functools.partial(name_of, name)
            values = tuple(_int(v, at(j)) for j, v in enumerate(raw))
            floor = fields[name].metadata.get(_FLOOR)
            if floor is not None:
                _check_floor(values, floor, at)
            columns[name] = values
        return cls(**columns)

    def values(self, n: int, rng: np.random.Generator) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """One trial's (y0, z0) on an n-node graph, drawing from rng."""
        raise NotImplementedError

    def _check_range(self, key: str, floor: int) -> None:
        lo, hi = getattr(self, key)
        ctx = f"initial.{self.KIND}.{key}"
        if lo < floor:
            raise ConfigError(f"{ctx}: low end must be >= {floor}, got {lo}")
        if lo > hi:
            raise ConfigError(f"{ctx}: low {lo} exceeds high {hi}")


def _draw(rng: np.random.Generator, low_high: tuple[int, int], n: int) -> tuple[int, ...]:
    """n integer-uniform draws over the inclusive range low_high."""
    return tuple(rng.integers(low_high[0], low_high[1] + 1, size=n).tolist())


@dataclass(frozen=True)
class ExplicitInitial(InitialSpec):
    KIND: ClassVar[str] = "explicit"

    y0: tuple[int, ...] = field(metadata={_FLOOR: 0})
    z0: tuple[int, ...] = field(metadata={_FLOOR: 1})

    def values(self, n, rng):
        return self.y0, self.z0


@dataclass(frozen=True)
class UniformInitial(InitialSpec):
    """Integer-uniform initial values, inclusive ranges, per-trial draws."""

    KIND: ClassVar[str] = "uniform"

    y0_range: tuple[int, int]
    z0_range: tuple[int, int]

    def __post_init__(self) -> None:
        self._check_range("y0_range", 0)
        self._check_range("z0_range", 1)

    def values(self, n, rng):
        return _draw(rng, self.y0_range, n), _draw(rng, self.z0_range, n)


@dataclass(frozen=True)
class GenericInitial(InitialSpec):
    KIND: ClassVar[str] = "generic"

    alpha: tuple[int, ...] = field(metadata={_FLOOR: 1})
    rho: tuple[int, ...] = field(metadata={_FLOOR: 0})
    literal: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        # literal mode makes rho the token count
        if self.literal and self.rho and min(self.rho) < 1:
            j = self.rho.index(min(self.rho))
            raise ConfigError(f"initial.generic.rho[{j}]: must be >= 1 when literal, got {self.rho[j]}")

    def values(self, n, rng):
        return applications.generic_init(self.alpha, self.rho, literal_init=self.literal)


@dataclass(frozen=True)
class SchedulingInitial(InitialSpec):
    KIND: ClassVar[str] = "scheduling"

    workloads: tuple[int, ...] = field(metadata={_FLOOR: 0})
    occupied: tuple[int, ...] = field(metadata={_FLOOR: 0})
    capacity: tuple[int, ...] = field(metadata={_FLOOR: 1})

    def values(self, n, rng):
        inst = applications.SchedulingInstance(self.workloads, self.occupied, self.capacity)
        return applications.scheduling_init(inst)


@dataclass(frozen=True)
class FederatedInitial(InitialSpec):
    KIND: ClassVar[str] = "federated"

    dataset_sizes: tuple[int, ...] = field(metadata={_FLOOR: 1})
    local_params: tuple[int, ...] = field(metadata={_FLOOR: 0})
    literal: bool = False

    def values(self, n, rng):
        inst = applications.FederatedInstance(self.dataset_sizes, self.local_params)
        return applications.federated_init(inst, literal_init=self.literal)


@dataclass(frozen=True)
class SchedulingUniformInitial(InitialSpec):
    """Random loads over a capacity pattern cycled by node id."""

    KIND: ClassVar[str] = "scheduling_uniform"

    load_range: tuple[int, int]
    capacity_pattern: tuple[int, ...]
    occupied: int = 0

    def __post_init__(self) -> None:
        self._check_range("load_range", 0)
        if not self.capacity_pattern:
            raise ConfigError("initial.scheduling_uniform.capacity_pattern: must not be empty")
        _at_least("initial.scheduling_uniform.capacity_pattern", min(self.capacity_pattern), 1)
        _at_least("initial.scheduling_uniform.occupied", self.occupied, 0)

    def values(self, n, rng):
        # the draws go to the instance, which checks them, as the ranges were checked at parse time
        capacity = (self.capacity_pattern * -(-n // len(self.capacity_pattern)))[:n]
        inst = applications.SchedulingInstance(_draw(rng, self.load_range, n), (self.occupied,) * n, capacity)
        return applications.scheduling_init(inst)


@dataclass(frozen=True)
class FederatedUniformInitial(InitialSpec):
    KIND: ClassVar[str] = "federated_uniform"

    size_range: tuple[int, int]
    param_range: tuple[int, int]

    def __post_init__(self) -> None:
        self._check_range("size_range", 1)
        self._check_range("param_range", 0)

    def values(self, n, rng):
        sizes, params = _draw(rng, self.size_range, n), _draw(rng, self.param_range, n)
        return applications.federated_init(applications.FederatedInstance(sizes, params))


# every class above that derives from InitialSpec, by config name
_INITIAL_KINDS = {cls.KIND: cls for cls in InitialSpec.__subclasses__()}


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
        _at_least("trials", self.trials, 1)
        _at_least("seed", self.seed, 0)
        for key in ("max_steps", "diameter_bound"):
            if getattr(self, key) is not None:
                _at_least(key, getattr(self, key), 1)
        # D is known only per trial, where run_one_trial checks the window again
        self.check_window(self.diameter_bound or 1, self.max_steps or DEFAULT_MAX_STEPS)
        if self.epsilon is not None:
            _in_open_unit("epsilon", self.epsilon)
            # epsilon's delayed bounds charge each hop the chance of the maximum delay
            delay = self.delay_model()  # unit delays under sync
            rows = {"delay.pmf": delay.pmf} if delay.per_node_pmf is None else {
                f"delay.per_node_pmf[{j}]": row for j, row in enumerate(delay.per_node_pmf)}
            for key, row in rows.items():
                if row is not None and row[-1] == 0:
                    raise ConfigError(f"{key}: the maximum delay has probability 0; epsilon's bounds need it > 0")
        if self.error_mode not in ("reciprocal", "direct"):
            raise ConfigError(f"error_mode: must be 'reciprocal' or 'direct', got {self.error_mode!r}")
        if (
            self.error_mode == "reciprocal"
            and isinstance(self.initial, ExplicitInitial)
            and 0 in self.initial.y0
            and self.records_trajectory()
        ):
            raise ConfigError(
                f"error_mode: 'reciprocal' inverts every node's state, but "
                f"initial.explicit.y0[{self.initial.y0.index(0)}] is 0; use 'direct'"
            )
        if isinstance(self.graph, RandomGraphSpec):
            self._check_lengths(self.graph.n)

    def _check_lengths(self, n: int) -> None:
        """Per-node tables must have one entry per node of an n-node graph."""
        spec = self.initial
        for f in dataclasses.fields(spec):
            values = getattr(spec, f.name)
            if _FLOOR in f.metadata and len(values) != n:
                raise ConfigError(f"initial.{spec.KIND}.{f.name}: {len(values)} values for a graph with {n} nodes")
        if self.delay is not None and self.delay.per_node_pmf is not None:
            rows = len(self.delay.per_node_pmf)
            if rows != n:
                raise ConfigError(f"delay.per_node_pmf: {rows} rows for a graph with {n} nodes")

    def check_window(self, diameter: int, cap: int) -> None:
        """Refuse a step cap below one vote window, diameter*B steps."""
        max_delay = self.delay_model().max_delay
        window = diameter * max_delay
        if window > cap:
            if self.diameter_bound is not None:
                key = "diameter_bound"
            else:
                key = "delay.max_delay" if max_delay > 1 else "max_steps"
            raise ConfigError(f"{key}: one vote window of {window} steps exceeds the step cap of {cap}")

    def delay_model(self) -> DelayModel:
        """The delay model trials run under: unit delays under sync."""
        return self.delay if self.mode == "async" else UNIT_DELAY

    def records_trajectory(self) -> bool:
        if self.record_trajectory is not None:
            return self.record_trajectory
        return self.trials == 1


# ---------------------------------------------------------------------------
# parsing and echo: generic over the dataclass fields of each config object


def _typed(value, ctx: str, types, what: str):
    """`value` if it is one of `types`; a bool only where a bool is asked for."""
    if isinstance(value, types) and (types is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{ctx}: expected {what}, got {value!r}")


def _int(value, ctx: str) -> int:
    return int(_typed(value, ctx, (int, np.integer), "an integer"))


def _int_pair(value, ctx: str) -> tuple[int, int]:
    try:
        lo, hi = value
        return _int(lo, ctx), _int(hi, ctx)
    except (TypeError, ValueError, ConfigError):
        raise ConfigError(f"{ctx}: expected a [low, high] integer pair") from None


def _parse_graph(d, ctx: str) -> GraphSpec:
    if not isinstance(d, dict) or len(d) != 1:
        raise ConfigError(f"{ctx}: expected exactly one of 'random' or 'file'")
    if "random" in d:
        return parse_spec(RandomGraphSpec, d["random"], f"{ctx}.random")
    if "file" in d:
        return FileGraphSpec(path=_typed(d["file"], f"{ctx}.file", str, "a string"))
    raise ConfigError(f"{ctx}: unknown graph kind {sorted(d)[0]!r}")


def _parse_initial(d, ctx: str) -> InitialSpec:
    if not isinstance(d, dict) or len(d) != 1:
        raise ConfigError(f"{ctx}: expected exactly one initial-value kind")
    ((kind, spec),) = d.items()
    if kind not in _INITIAL_KINDS:
        raise ConfigError(f"{ctx}: unknown initial-value kind {kind!r}")
    return parse_spec(_INITIAL_KINDS[kind], spec, f"{ctx}.{kind}")


def _parse_delay(d, ctx: str) -> DelayModel:
    try:
        return parse_spec(DelayModel, d, ctx)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from None


# field annotation -> converter(value, ctx); Optional[...] and
# tuple[..., ...] wrap these in _convert
_CONVERTERS = {
    "int": _int,
    "float": lambda value, ctx: float(_typed(value, ctx, (int, float), "a number")),
    "bool": lambda value, ctx: _typed(value, ctx, bool, "true or false"),
    "str": lambda value, ctx: _typed(value, ctx, str, "a string"),
    "tuple[int, int]": _int_pair,
    "GraphSpec": _parse_graph,
    "InitialSpec": _parse_initial,
    "DelayModel": _parse_delay,
}


def _convert(annotation: str, value, ctx: str):
    if annotation.startswith("Optional["):
        if value is None:
            return None
        annotation = annotation[len("Optional[") : -1]
    if annotation.endswith(", ...]"):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{ctx}: expected a list, got {value!r}")
        item = annotation[len("tuple[") : -len(", ...]")]
        return tuple(_convert(item, v, f"{ctx}[{i}]") for i, v in enumerate(value))
    return _CONVERTERS[annotation](value, ctx)


def parse_spec(cls, spec, ctx: str = ""):
    """Build config dataclass `cls` from the JSON object `spec` at `ctx`.

    Each field is one key, converted by the field's annotation; a
    missing key takes the field's default.  Unknown keys, missing
    required keys and malformed values raise ConfigError naming the key.
    """
    where, prefix = (ctx, f"{ctx}.") if ctx else ("config", "")
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected an object, got {type(spec).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in spec:
        if key not in fields:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
    kwargs = {}
    for key, f in fields.items():
        if key in spec:
            kwargs[f.name] = _convert(f.type, spec[key], prefix + key)
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"{where}: missing required key '{key}'")
    return cls(**kwargs)


def read_json(path: Union[str, Path], what: str):
    """The JSON value in file `path`; an unreadable file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{what} {path}: cannot read ({exc.strerror})") from None
    except ValueError as exc:
        raise ConfigError(f"{what} {path}: invalid JSON ({exc})") from None


def parse_config(source: Union[str, Path, dict]) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a JSON file or a dict.

    Unknown keys and constraint violations raise ConfigError naming the
    offending field.
    """
    data = read_json(source, "config file") if isinstance(source, (str, Path)) else source
    return parse_spec(ExperimentConfig, data)


def _echo(value):
    """The JSON form of a config value: the inverse of parse_spec."""
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    if isinstance(value, FileGraphSpec):
        return {"file": value.path}
    if not dataclasses.is_dataclass(value):
        return value
    body = {f.name: _echo(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, RandomGraphSpec):
        return {"random": body}
    if isinstance(value, InitialSpec):
        return {value.KIND: body}
    return body


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-ready echo of a config (for the summary artifact).

    Lossless: parse_config(config_to_dict(cfg)) == cfg.
    """
    out = _echo(cfg)
    # the delay key comes last and only when set, as in every summary so far
    delay = out.pop("delay")
    if delay is not None:
        out["delay"] = delay
    return out


def build_trial_instance(cfg: ExperimentConfig, trial: int) -> RunConfig:
    """One trial's run inputs; run_one_trial sets max_steps once its bound is known."""
    trial_seed = cfg.seed + trial
    if isinstance(cfg.graph, RandomGraphSpec):
        g = generate_random_digraph(
            cfg.graph.n, cfg.graph.edge_prob, seed=trial_seed, max_retries=cfg.graph.max_retries
        )
    else:
        g = cfg.graph.digraph
        cfg._check_lengths(g.n)
    y0, z0 = cfg.initial.values(g.n, np.random.default_rng([trial_seed, _INIT_STREAM]))
    return RunConfig(
        graph=g, y0=tuple(y0), z0=tuple(z0), seed=trial_seed, diameter_bound=cfg.diameter_bound,
        record_masses=cfg.records_trajectory(), check_invariants=cfg.check_invariants,
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
    error_series: Optional[tuple[float, ...]] = None
    error_series_truncated: bool = False
    diameter: Optional[int] = None
    # trial 0's bound table (None without an epsilon), the bounds block
    bound_table: Optional[dict] = field(default=None, compare=False)


def _trial_max_steps(cfg: ExperimentConfig, bound: Optional[int]) -> int:
    """The trial's step cap: max_steps if set, else 100x its completion bound, capped."""
    if cfg.max_steps is not None:
        return cfg.max_steps
    if bound is not None:
        return min(100 * bound, DEFAULT_MAX_STEPS)
    return DEFAULT_MAX_STEPS


def _trial_bounds(cfg: ExperimentConfig, run_cfg: RunConfig) -> tuple[Optional[dict], Optional[int]]:
    """One trial's closed-form bound table, under its delay model and in
    the vote windows it runs, and its completion bound (both None without
    an epsilon).  Sets run_cfg.max_steps to the trial's step cap, which
    must hold one vote window."""
    block = bound = None
    if cfg.epsilon is not None:
        block = bounds.bounds_report(
            run_cfg.graph, cfg.epsilon, run_cfg.y0, run_cfg.z0, cfg.delay_model(),
            window_basis=cfg.diameter_bound,
        )
        # the table has a delayed half exactly when the trial runs delays
        bound = block.get("completion_step_bound_delayed", block["completion_step_bound"])
    run_cfg.max_steps = _trial_max_steps(cfg, bound)
    cfg.check_window(cfg.diameter_bound or run_cfg.graph.diameter, run_cfg.max_steps)
    return block, bound


def run_one_trial(cfg: ExperimentConfig, trial: int) -> TrialResult:
    """Build and run a single trial; deterministic in (cfg, trial)."""
    run_cfg = build_trial_instance(cfg, trial)
    table, bound = _trial_bounds(cfg, run_cfg)
    if cfg.mode == "sync":
        outcome = run_sync(run_cfg)
    else:
        outcome = run_async(run_cfg, cfg.delay)
    target = bounds.target_quotient(run_cfg.y0, run_cfg.z0)
    series = curve = None
    if outcome.mass_y is not None:
        if cfg.error_mode == "reciprocal":
            x_star = float(1 / target) if target != 0 else 0.0
        else:
            x_star = float(target)
        curve = metrics.normalized_error((outcome.mass_y, outcome.mass_z), x_star, mode=cfg.error_mode)
        series = tuple(float(v) for v in curve.values)
    est = outcome.final_estimate
    low, high = int(np.minimum.reduce(est)), int(np.maximum.reduce(est))
    return TrialResult(
        trial=trial,
        converged=outcome.converged,
        termination_step=outcome.termination_step,
        steps_run=outcome.steps_run,
        estimate=low,
        spread=high - low,
        censored=not outcome.converged,
        quotient_floor=target.numerator // target.denominator,
        quotient_ceil=int(-(-target.numerator // target.denominator)),
        completion_bound=bound,
        error_series=series,
        error_series_truncated=curve is not None and curve.truncated,
        diameter=run_cfg.graph.diameter,
        bound_table=table if trial == 0 else None,
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
    # imported here: the pool modules cost a serial run import time and memory
    from concurrent.futures import ProcessPoolExecutor

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


def _stats_row(st: metrics.TrialStats) -> dict:
    """The step statistics that summary.json and sweep_summary.csv both report."""
    return {
        "trials": st.trials,
        "converged": st.converged_count,
        "mean_steps": st.mean,
        "std_steps": st.std,
        "min_steps": st.min,
        "max_steps": st.max,
    }


def _write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """A CSV file of the header, then one line per row."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
        _write_csv(path, rows[0], map(dict.values, rows))
    else:
        path = out / "outcomes.json"
        path.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    paths["outcomes"] = str(path)

    series_rows = [
        (r.trial, k, repr(e))
        for r in result.results
        if r.error_series is not None
        for k, e in enumerate(r.error_series)
    ]
    if series_rows:
        epath = out / "error_series.csv"
        _write_csv(epath, ("trial", "k", "e_k"), series_rows)
        paths["error_series"] = str(epath)

    summary = {
        "config": config_to_dict(result.config),
        "stats": {
            **_stats_row(result.stats),
            "fraction_within_bound": result.stats.fraction_within_bound,
            "error_series_truncated": sum(r.error_series_truncated for r in result.results),
        },
        "bounds": result.bounds_block,
        "meta": {"generated_at": datetime.now(timezone.utc).isoformat()},
    }
    spath = out / "summary.json"
    spath.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    paths["summary"] = str(spath)
    result.artifacts = paths
    return paths


def bounds_report(cfg: ExperimentConfig) -> dict:
    """Trial 0's bound table, the one its completion_bound is read from.

    A diameter_bound below trial 0's diameter is refused: its windows
    are too short for the visit floor the bound counts on.  So is a step
    cap below one vote window, as trial 0's run would refuse it.
    """
    run_cfg = build_trial_instance(cfg, 0)
    diameter = run_cfg.graph.diameter
    if cfg.diameter_bound is not None and cfg.diameter_bound < diameter:
        raise ConfigError(f"diameter_bound: {cfg.diameter_bound} is below trial 0's diameter {diameter}")
    return _trial_bounds(cfg, run_cfg)[0]


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: Optional[Union[str, Path]] = None,
    fmt: str = "csv",
    workers: int = 1,
) -> ExperimentResult:
    """Run all trials, aggregate, and (optionally) write artifacts."""
    results = run_trials(cfg, workers=workers)
    bound = None if cfg.epsilon is None else [r.completion_bound for r in results]
    stats = metrics.trial_stats(results, bound=bound)
    bounds_block = results[0].bound_table
    result = ExperimentResult(
        config=cfg, results=results, stats=stats, bounds_block=bounds_block
    )
    if out_dir is not None:
        write_artifacts(result, out_dir, fmt=fmt)
    return result


# ---------------------------------------------------------------------------
# presets: one-command reproductions of the headline experiments, desk scale


# the scheduling workload of fig1 and of every fig2 cell
_SCHEDULING_PRESET = SchedulingUniformInitial(load_range=(1, 100), capacity_pattern=(100, 300))


def fig1_config(trials: int = 100, seed: int = 0) -> ExperimentConfig:
    """Task-scheduling run: 20 nodes, p=0.5, loads U[1,100], capacities
    alternating 100/300 by node parity."""
    return ExperimentConfig(
        mode="sync",
        graph=RandomGraphSpec(n=20, edge_prob=0.5),
        initial=_SCHEDULING_PRESET,
        trials=trials,
        seed=seed,
    )


def fig3_configs(trials: int = 100, seed: int = 0) -> dict:
    """Federated aggregation on matched instances, sync vs delayed (B = 5).

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
        "async": ExperimentConfig(mode="async", delay=DelayModel(max_delay=5), **base),
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
    # cell seeds are offset so no two cells share trial seeds
    return [
        (n, b, ExperimentConfig(
            mode="async",
            graph=RandomGraphSpec(n=n, edge_prob=edge_prob),
            initial=_SCHEDULING_PRESET,
            delay=DelayModel(max_delay=b),
            trials=trials,
            seed=seed + (n * 1000 + b) * 100_000,
        ))
        for n in sizes
        for b in delays
    ]


def run_sweep(
    cells: Sequence[tuple[int, int, ExperimentConfig]],
    out_dir: Optional[Union[str, Path]] = None,
    workers: int = 1,
) -> list[dict]:
    """Run grid cells and summarize one row per cell."""
    rows = []
    for n, b, cfg in cells:
        st = run_experiment(cfg, out_dir=None, workers=workers).stats
        rows.append({"n": n, "max_delay": b, **_stats_row(st)})
        logger.info("sweep cell n=%d B=%d: mean %.1f steps", n, b, st.mean)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "sweep_summary.csv", rows[0], map(dict.values, rows))
    return rows
