"""Smoke self-test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qcs.experiments import TrialResult  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_a_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = harness.END_TO_END if trace == 0 else spans.PER_LAYER
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(expected)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    report = json.loads((ROOT / ".bench_out" / f"{workload}-trace{trace}.json").read_text())
    assert report["extra_metrics"]["failed_trial_ratio"] == {"value": 0.0, "unit": "ratio"}
    assert report["digest_identical_across_runs"] and report["artifacts_identical_across_runs"]
    for key in ("python", "numpy", "blas_threads", "nproc", "git_sha", "workload_seed"):
        assert key in report["env"]
    if trace:
        assert [row["layer"] for row in report["layer_table"]] == [*spans.LAYERS, "bench loop"]
        assert abs(report["accounted_share"] - 1.0) < 1e-6


def test_p90_needs_ten_samples_beyond_it():
    assert "trial_ms_p90" not in harness.trial_quantiles([0.001] * (harness.P90_MIN_SAMPLES - 1))
    q = harness.trial_quantiles([i / 1000 for i in range(1, harness.P90_MIN_SAMPLES + 1)])
    assert q["trial_ms_p50"] == pytest.approx(50.5)
    assert q["trial_ms_p90"] == pytest.approx(90.9)


GOOD = TrialResult(
    trial=0, converged=True, termination_step=12, steps_run=12, estimate=7, spread=1,
    censored=False, quotient_floor=7, quotient_ceil=8, error_series=(1.0, 0.5, 0.0),
)


@pytest.mark.parametrize(
    "bad",
    [
        dataclasses.replace(GOOD, estimate=6),  # off-quotient, low
        dataclasses.replace(GOOD, estimate=8),  # 8..9 leaves floor..ceil
        dataclasses.replace(GOOD, spread=2, estimate=6),
        dataclasses.replace(GOOD, converged=False, termination_step=None, censored=True),
    ],
)
def test_gate_fails_fabricated_bad_trials(bad):
    assert gate.trial_failures(GOOD) == []
    assert gate.trial_failures(bad)


@pytest.mark.parametrize("series", [None, (), (1.0, float("nan")), (0.5, 0.1)])
def test_gate_fails_bad_error_series(series):
    bad = dataclasses.replace(GOOD, error_series=series)
    assert gate.trial_failures(GOOD, needs_error_series=True) == []
    assert gate.trial_failures(bad, needs_error_series=True)
    assert gate.trial_failures(bad) == []


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "presets-n20", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
