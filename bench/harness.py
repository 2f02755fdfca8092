"""Runs one workload of the qcs benchmark and reports it.

A workload's trial set is split into chunks (see workloads.py).  A chunk
runs exactly as `qcs run` / `qcs fig1` do: one
`experiments.run_experiment(cfg, out_dir=..., workers=1)` call per
config, artifacts included.  Passes over all chunks repeat until the
next one would end after `--seconds`.  Every chunk runs at least twice,
and each run of a chunk must reproduce its first run's output digest and
artifact bytes.  Every trial must pass the correctness gate in gate.py.

`--trace 0` reports the end-to-end metrics.  Their timings are wall
times scaled to a nominal machine speed: the reference in reference.py
runs before each config of a chunk and after the last, and each config's
wall time and trial times are scaled by `reference.NOMINAL_S` over the
mean of the two reference times around it.  `setup_s` is scaled the same
way by a fresh interpreter that imports numpy.  The unscaled figures are
kept in the report as `wall_*`.  A pass is timed as the sum of each
chunk's median scaled time over the passes, so that a burst of noise
moves a chunk's slowest runs and not the result.  `--trace 1` runs
every chunk untraced and then traced, reports the per-layer metrics
from the traced runs (spans.py) and compares the two for the tracing
overhead.  Full reports and the span arrays go to
`.bench_out/` in the checkout.

Imported by run.py once the qcs sources are on the import path.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import envinfo
import gate
import reference
import spans
import workloads
from qcs import experiments

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("trials_per_s", "1/s"),
    ("steps_per_s", "1/s"),
    ("trial_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 9
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile
ARTIFACT_FILES = ("outcomes.csv", "error_series.csv")  # summary.json holds a timestamp


def measure_setup(workload: str, seed: int, size: str) -> tuple[list[float], list[float]]:
    """Seconds of fresh interpreters that import qcs and build the chunks: scaled, and wall.

    Each probe is scaled by `reference.IMPORT_NOMINAL_S` over the mean of
    the numpy-import references run just before and after it.
    """
    cmd = [sys.executable, str(ROOT / "bench" / "setup_probe.py"), workload, str(seed), size]
    ref = [reference.import_seconds(ROOT)]
    scaled, walls = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, cwd=ROOT, check=True)
        walls.append(perf_counter() - t0)
        ref.append(reference.import_seconds(ROOT))
        scaled.append(walls[-1] * reference.IMPORT_NOMINAL_S / ((ref[-2] + ref[-1]) / 2))
    return scaled, walls


def trial_quantiles(times: list[float]) -> dict:
    """Median trial time in ms, and the 90th percentile once ten samples lie beyond it."""
    out = {"trial_ms_p50": statistics.median(times) * 1e3}
    if len(times) >= P90_MIN_SAMPLES:
        out["trial_ms_p90"] = statistics.quantiles(times, n=10)[-1] * 1e3
    return out


def artifact_hash(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in ARTIFACT_FILES:
        path = out_dir / name
        if path.is_file():
            h.update(name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs chunks, gates their trials and keeps every run's record."""

    def __init__(self, needs_error_series: bool, out_dir: Path):
        self.needs_error_series = needs_error_series
        self.out_dir = out_dir
        self.recorder = spans.Recorder()
        self.run_one_trial = experiments.run_one_trial
        self.trial_times: list[float] = []  # untraced runs only, scaled
        self.wall_trial_times: list[float] = []  # the same, unscaled
        self._timing_trials = False
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def timed_trial(self, cfg, trial):
        """Stands in for experiments.run_one_trial to time untraced trials."""
        t0 = perf_counter()
        result = self.run_one_trial(cfg, trial)
        if self._timing_trials:
            self.trial_times.append(perf_counter() - t0)
        return result

    def run_chunk(self, index: int, chunk: workloads.Chunk, traced: bool) -> dict:
        patches = spans.Patches()
        if traced:
            spans.install(self.recorder, patches)
        results = []
        self._timing_trials = not traced
        ref = [reference.seconds()]
        walls, scaled = [], []
        try:
            for label, cfg in chunk:
                first = len(self.trial_times)
                t0 = perf_counter()
                try:
                    res = experiments.run_experiment(cfg, out_dir=self.out_dir / f"chunk{index}" / label, workers=1)
                except Exception:  # a raising trial fails its whole config
                    self.failures.append(f"chunk {index} {label}: {traceback.format_exc(limit=3)}")
                    results.append(None)
                else:
                    results.append(res.results)
                walls.append(perf_counter() - t0)
                ref.append(reference.seconds())
                scale = reference.NOMINAL_S / ((ref[-2] + ref[-1]) / 2)
                scaled.append(walls[-1] * scale)
                self.wall_trial_times += self.trial_times[first:]
                self.trial_times[first:] = [t * scale for t in self.trial_times[first:]]
        finally:
            patches.undo()
        for (label, cfg), trials in zip(chunk, results):
            self.attempted += cfg.trials
            if trials is None:
                self.failed += cfg.trials
                continue
            for r in trials:
                reasons = gate.trial_failures(r, self.needs_error_series)
                if reasons:
                    self.failed += 1
                    self.failures.append(f"chunk {index} {label} trial {r.trial}: {', '.join(reasons)}")
        done = [trials for trials in results if trials is not None]
        return {
            "traced": traced,
            "wall": sum(walls),
            "scaled": sum(scaled),
            "reference_s": ref,
            "trials": sum(len(t) for t in done),
            "steps": sum(r.steps_run for t in done for r in t),
            "digest": gate.chunk_digest([t or () for t in results]),
            "artifacts": [artifact_hash(self.out_dir / f"chunk{index}" / label) for label, _ in chunk],
        }


def main(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    chunks = workloads.build_chunks(args.workload, args.seed, tiny=args.size == "tiny")
    setup_times, setup_walls = ([], []) if args.trace else measure_setup(args.workload, args.seed, args.size)
    runner = Runner(workload.needs_error_series, OUT / "artifacts" / args.workload)

    # every chunk runs twice: on two passes, or untraced and traced on one
    modes = (False, True) if args.trace else (False,)
    min_passes = 1 if args.trace else 2
    runs: list[list[dict]] = [[] for _ in chunks]
    passes = 0
    timer = spans.Patches()
    timer.set_function(experiments.run_one_trial, runner.timed_trial)
    deadline = perf_counter() + args.seconds
    try:
        while True:
            start = perf_counter()
            for i, chunk in enumerate(chunks):
                for traced in modes:
                    runs[i].append(runner.run_chunk(i, chunk, traced))
            passes += 1
            now = perf_counter()
            if passes >= min_passes and now + (now - start) > deadline:
                break
    finally:
        timer.undo()

    def pass_seconds(traced: bool, key: str = "scaled") -> float:
        """Seconds for one pass over the trial set: each chunk's median (scaled) wall time."""
        return sum(statistics.median(r[key] for r in chunk_runs if r["traced"] == traced) for chunk_runs in runs)

    digests_match = all(len({r["digest"] for r in chunk_runs}) == 1 for chunk_runs in runs)
    artifacts_match = all(len({tuple(r["artifacts"]) for r in chunk_runs}) == 1 for chunk_runs in runs)
    trials_per_pass = sum(chunk_runs[0]["trials"] for chunk_runs in runs)
    steps_per_pass = sum(chunk_runs[0]["steps"] for chunk_runs in runs)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": envinfo.environment(ROOT, args.seed),
        "chunks": len(chunks),
        "configs_per_chunk": [label for label, _ in chunks[0]],
        "passes": passes,
        "trials_per_pass": trials_per_pass,
        "steps_per_pass": steps_per_pass,
        "chunk_wall_s": [[r["wall"] for r in chunk_runs] for chunk_runs in runs],
        "chunk_scaled_s": [[r["scaled"] for r in chunk_runs] for chunk_runs in runs],
        "reference_ms_p50": 1e3 * statistics.median(t for chunk_runs in runs for r in chunk_runs for t in r["reference_s"]),
        "reference_nominal_ms": 1e3 * reference.NOMINAL_S,
        "digest": gate.combine_digests(chunk_runs[0]["digest"] for chunk_runs in runs),
        "digest_identical_across_runs": digests_match,
        "artifacts_identical_across_runs": artifacts_match,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures[:20],
    }
    # reported by name but not listed in BENCHMARK.json: the ratio is 0
    # on a correct run, and p90 needs >= 100 trial samples, which the
    # slower workloads do not reach; the unscaled wall_* timings move with
    # the machine's speed
    extra = {"failed_trial_ratio": (runner.failed / runner.attempted, "ratio")}
    correct = runner.failed == 0 and digests_match and artifacts_match

    if args.trace:
        traced_wall = sum(r["wall"] for chunk_runs in runs for r in chunk_runs if r["traced"])
        overhead = 100.0 * (pass_seconds(True) / pass_seconds(False) - 1.0)
        analysis = spans.analyze(runner.recorder, traced_wall, passes, overhead)
        runner.recorder.save(OUT / f"spans-{args.workload}.npz")
        # spans nest inside their parents, so no self time is negative
        correct = correct and analysis["min_self_ms"] > -1e-6 and abs(analysis["accounted_share"] - 1.0) < 1e-6
        metrics = {name: (analysis["metrics"][name], unit) for name, unit in spans.PER_LAYER}
        report.update({k: analysis[k] for k in ("layer_table", "traced_trials", "spans", "accounted_share")})
    else:
        quantiles = trial_quantiles(runner.trial_times)
        seconds = pass_seconds(False)
        wall_seconds = pass_seconds(False, "wall")
        metrics = {
            "trials_per_s": (trials_per_pass / seconds, "1/s"),
            "steps_per_s": (steps_per_pass / seconds, "1/s"),
            "trial_ms_p50": (quantiles["trial_ms_p50"], "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        if "trial_ms_p90" in quantiles:
            extra["trial_ms_p90"] = (quantiles["trial_ms_p90"], "ms")
        extra["wall_trials_per_s"] = (trials_per_pass / wall_seconds, "1/s")
        extra["wall_steps_per_s"] = (steps_per_pass / wall_seconds, "1/s")
        extra["wall_trial_ms_p50"] = (statistics.median(runner.wall_trial_times) * 1e3, "ms")
        extra["wall_setup_s"] = (statistics.median(setup_walls), "s")
        report["trial_ms_samples"] = len(runner.trial_times)
        report["setup_s_samples"] = setup_times
        report["wall_setup_s_samples"] = setup_walls

    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    report["extra_metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in extra.items()}
    report["correct"] = correct
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    print_report(report)
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": report["metrics"]}))
    return 0


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  size {report['size']}  trace {report['trace']}  "
          f"{report['passes']} passes x {report['chunks']} chunks, {report['trials_per_pass']} trials per pass")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print(f"digest {report['digest']}  identical across runs: {report['digest_identical_across_runs']}  "
          f"artifacts identical: {report['artifacts_identical_across_runs']}")
    print(f"trials attempted {report['attempted']}, failed {report['failed']}")
    for failure in report["failures"]:
        print("  FAILED " + failure.strip().replace("\n", "\n    "))
    print(f"reference median {report['reference_ms_p50']:.3f} ms; timings scaled to "
          f"{report['reference_nominal_ms']:g} ms, unscaled ones named wall_*")
    if "trial_ms_samples" in report:
        print(f"trial time samples {report['trial_ms_samples']}")
    for name, m in {**report["metrics"], **report["extra_metrics"]}.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    if "layer_table" in report:
        print(f"layer shares over {report['traced_trials']} traced trials ({report['spans']} spans, "
              f"{100 * report['accounted_share']:.3f}% of traced wall accounted):")
        print(f"  {'layer':14s} {'self ms/trial':>14s} {'% of trials':>12s} {'% of wall':>10s}")
        for row in report["layer_table"]:
            print(f"  {row['layer']:14s} {row['self_ms_per_trial']:14.3f} "
                  f"{row['pct_of_trial_time']:11.1f}% {row['pct_of_traced_wall']:9.1f}%")
