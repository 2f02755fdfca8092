"""Command-line front end.

Subcommands: run, sweep, bounds, fig1, fig2-desk, fig3, app-scheduling,
app-federated.  Every command builds ExperimentConfigs and hands them to
qcs.experiments.  QCS_LOG_LEVEL in {error, warn, info, debug} sets the
log level and nothing else; every run audits the mass ledger and the
votes at every step.

Instance file schemas (JSON):
  scheduling:  {"nodes": [{"l": 40, "u": 0, "pi_max": 100}, ...]}
  federated:   {"nodes": [{"r_size": 10, "w_local": 100}, ...]}
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import Optional

from . import experiments
from .applications import federated_recover, make_scheduling_recovery, scheduling_utilizations
from .engine import DelayModel
from .errors import ConfigError, QcsError
from .experiments import (
    ExperimentConfig,
    FederatedInitial,
    FileGraphSpec,
    RandomGraphSpec,
    SchedulingInitial,
    TrialResult,
    _at_least,
    _in_open_unit,
    _output_dir,
    parse_config,
    run_experiment,
)

logger = logging.getLogger(__name__)

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    name = os.environ.get("QCS_LOG_LEVEL", "warn").lower()
    if name not in _LOG_LEVELS:
        print(
            f"QCS_LOG_LEVEL must be one of {sorted(_LOG_LEVELS)}, got {name!r}",
            file=sys.stderr,
        )
        name = "warn"
    logging.basicConfig(
        level=_LOG_LEVELS[name],
        format="%(levelname)s %(name)s: %(message)s",
    )


_COMMON = {
    "trials": dict(type=int, default=None, help="number of trials"),
    "out": dict(type=Path, default=None, help="artifact output directory"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "workers": dict(type=int, default=None, help="trial worker processes"),
}


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """--seed, plus the named flags of _COMMON that the command reads."""
    p.add_argument("--seed", type=int, default=None, help="base seed (trial i adds i)")
    for flag in flags:
        p.add_argument(f"--{flag}", **_COMMON[flag])


def _check_out(out: Optional[Path]) -> None:
    """Refuse an --out that lies in or under a file, before any trial runs."""
    for path in () if out is None else (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"--out: {path} is not a directory")
            return


def _workers(args) -> int:
    if args.workers is not None:
        _at_least("--workers", args.workers, 1)
        return args.workers
    return max(1, os.cpu_count() or 1)


def _override(cfg: ExperimentConfig, args) -> ExperimentConfig:
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        changes["trials"] = args.trials
    if getattr(args, "graph_file", None) is not None:
        changes["graph"] = FileGraphSpec(path=str(args.graph_file))
    if getattr(args, "epsilon", None) is not None:
        changes["epsilon"] = args.epsilon
    return dataclasses.replace(cfg, **changes) if changes else cfg


def _run_configs(args, label: str, *cfgs: ExperimentConfig) -> int:
    """Run each config under the --seed, --trials and --graph-file
    overrides and print its stats.  Several configs (a preset's sync/async
    pair) write to --out/<mode> and print as `label-<mode>`.  Every
    output directory is checked before the first config runs."""
    runs = []
    for cfg in cfgs:
        cfg = _override(cfg, args)
        out, name = args.out, label
        if len(cfgs) > 1:
            out, name = None if out is None else out / cfg.mode, f"{label}-{cfg.mode}"
        _check_out(out)
        runs.append((cfg, out, name))
    for cfg, out, name in runs:
        res = run_experiment(cfg, out_dir=out, fmt=args.format, workers=_workers(args))
        st = res.stats
        print(
            f"{name}: {st.converged_count}/{st.trials} converged, "
            f"steps mean={st.mean:.1f} std={st.std:.1f} min={st.min} max={st.max}"
        )
        if st.fraction_within_bound is not None:
            print(f"{name}: fraction within completion bound = {st.fraction_within_bound:.3f}")
        for artifact, path in res.artifacts.items():
            print(f"{name}: wrote {artifact} -> {path}")
    return 0


def _load_instance(path: Path, cls, columns: dict[str, str]):
    """Config spec `cls` from an instance file; columns maps field -> node key.

    A bad value is named by its place in the file, `nodes[j].key`.
    """
    ctx = f"instance file {path}"
    data = experiments.read_json(path, "instance file")
    try:
        body = {name: [node[key] for node in data["nodes"]] for name, key in columns.items()}
    except KeyError as exc:
        raise ConfigError(f"{ctx}: missing key {exc}") from None
    except TypeError:
        raise ConfigError(f"{ctx}: expected an object with a 'nodes' list of objects") from None
    return cls.from_node_values(body, lambda name, j: f"{ctx}: nodes[{j}].{columns[name]}")


def load_scheduling_instance(path: Path) -> SchedulingInitial:
    columns = {"workloads": "l", "occupied": "u", "capacity": "pi_max"}
    return _load_instance(path, SchedulingInitial, columns)


def load_federated_instance(path: Path) -> FederatedInitial:
    columns = {"dataset_sizes": "r_size", "local_params": "w_local"}
    return _load_instance(path, FederatedInitial, columns)


def _cmd_run(args) -> int:
    return _run_configs(args, "run", parse_config(args.config))


def _run_sweep(args, **grid) -> int:
    cells = experiments.fig2_grid(
        trials=args.trials if args.trials is not None else 50, seed=args.seed or 0, **grid
    )
    rows = experiments.run_sweep(cells, out_dir=args.out, workers=_workers(args))
    for row in rows:
        print(
            f"n={row['n']} B={row['max_delay']}: mean={row['mean_steps']:.1f} "
            f"({row['converged']}/{row['trials']} converged)"
        )
    return 0


def _flag_ints(flag: str, text: str, floor: int) -> list[int]:
    """The comma-separated integers of `flag`, each at least `floor`."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated integers, got {text!r}") from None
    for v in values:
        _at_least(flag, v, floor)
    return values


def _cmd_sweep(args) -> int:
    return _run_sweep(
        args,
        sizes=_flag_ints("--sizes", args.sizes, 2),
        delays=_flag_ints("--delays", args.delays, 1),
        edge_prob=args.edge_prob,
    )


def _cmd_bounds(args) -> int:
    if args.epsilon is not None:
        _in_open_unit("--epsilon", args.epsilon)
    # --epsilon replaces the config's, so the config's checks on it apply
    cfg = _override(parse_config(args.config), args)
    if cfg.epsilon is None:
        print("bounds: an epsilon is required (config key or --epsilon)", file=sys.stderr)
        return 2
    report = experiments.bounds_report(cfg)
    width = max(len(k) for k in report)
    for key, value in report.items():
        print(f"{key:<{width}}  {value}")
    if args.out is not None:
        with _output_dir(args.out) as out:
            path = out / "bounds.json"
            path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"bounds: wrote {path}")
    return 0


def _cmd_fig1(args) -> int:
    return _run_configs(args, "fig1", experiments.fig1_config())


def _cmd_fig2_desk(args) -> int:
    if not args.full_scale:
        return _run_sweep(args)
    sizes, delays = experiments.FIG2_FULL_SIZES, experiments.FIG2_FULL_DELAYS
    logger.warning(
        "full-scale sweep: %d cells; at 50 trials per cell it took about 7 min with 2 workers on a 2-core VM",
        len(sizes) * len(delays),
    )
    return _run_sweep(args, sizes=sizes, delays=delays)


def _cmd_fig3(args) -> int:
    return _run_configs(args, "fig3", *experiments.fig3_configs().values())


def _run_app(args, initial, n: int) -> TrialResult:
    """Trial 0 of a one-trial config on `initial`, as `qcs run` would run it."""
    if args.mode == "async":
        _at_least("--max-delay", args.max_delay, 1)
    cfg = _override(ExperimentConfig(
        mode=args.mode,
        graph=RandomGraphSpec(n, args.edge_prob),
        initial=initial,
        delay=DelayModel(max_delay=args.max_delay) if args.mode == "async" else None,
        record_trajectory=False,
    ), args)
    cfg.check_before_trials()
    res = experiments.run_one_trial(cfg, 0)
    if res.converged:
        print(f"converged at step {res.termination_step} (diameter {res.diameter})")
    else:
        print("did not converge within the step cap", file=sys.stderr)
    return res


def _cmd_app_scheduling(args) -> int:
    inst = load_scheduling_instance(args.instance)
    res = _run_app(args, inst, inst.n)
    if not res.converged:
        return 1
    # every node holds the agreed estimate at termination
    recover = make_scheduling_recovery(inst)
    workloads = [recover(j, res.estimate) for j in range(inst.n)]
    for j, (w, u) in enumerate(zip(workloads, scheduling_utilizations(inst, workloads))):
        print(f"node {j}: w*={w} utilization={float(u):.4f}")
    return 0


def _cmd_app_federated(args) -> int:
    inst = load_federated_instance(args.instance)
    res = _run_app(args, inst, len(inst.dataset_sizes))
    if not res.converged:
        return 1
    aggregate = federated_recover(res.estimate)
    exact = inst.exact_aggregate()
    print(f"aggregate={aggregate} exact={float(exact):.4f} error={abs(aggregate - float(exact)):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcs",
        description="Quantized-consensus distributed optimization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment from a config file")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--graph-file", type=Path, default=None)
    _add_common(p, "trials", "out", "format", "workers")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="n x B async sweep over scheduling workloads")
    p.add_argument("--sizes", default=",".join(map(str, experiments.FIG2_DESK_SIZES)))
    p.add_argument("--delays", default=",".join(map(str, experiments.FIG2_DESK_DELAYS)))
    p.add_argument("--edge-prob", type=float, default=0.5)
    _add_common(p, "trials", "out", "workers")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("bounds", help="print the closed-form bound table for a config")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--graph-file", type=Path, default=None)
    _add_common(p, "out")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("fig1", help="task-scheduling preset (sync, 20 nodes)")
    _add_common(p, "trials", "out", "format", "workers")
    p.set_defaults(fn=_cmd_fig1)

    p = sub.add_parser("fig2-desk", help="delayed-convergence sweep preset")
    p.add_argument("--full-scale", action="store_true")
    _add_common(p, "trials", "out", "workers")
    p.set_defaults(fn=_cmd_fig2_desk)

    p = sub.add_parser("fig3", help="federated aggregation preset (sync + async)")
    _add_common(p, "trials", "out", "format", "workers")
    p.set_defaults(fn=_cmd_fig3)

    for name, fn in (("app-scheduling", _cmd_app_scheduling), ("app-federated", _cmd_app_federated)):
        p = sub.add_parser(name, help=f"{name.split('-')[1]} demo on an instance file")
        p.add_argument("--instance", type=Path, required=True)
        p.add_argument("--graph-file", type=Path, default=None)
        p.add_argument("--edge-prob", type=float, default=0.5)
        p.add_argument("--mode", choices=("sync", "async"), default="sync")
        p.add_argument("--max-delay", type=int, default=5)
        _add_common(p)
        p.set_defaults(fn=fn)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        _check_out(getattr(args, "out", None))
        return args.fn(args)
    except QcsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
