"""The benchmark's listed workloads reproduce pinned run digests and artifacts.

The digests were recorded before the engine's per-step overhead was
trimmed; a change that moves a single drawn value moves one of them.
`presets-n20` at size tiny runs sync and async steps at n = 20, where
flooding takes the whole-graph pass; the first full-size chunk of
`curves-async-n100` runs async steps at n = 100, where it gathers the
completing nodes' in-edges.  The artifact hash covers the bytes of each
config's `outcomes.csv` and `error_series.csv`, in chunk order.
"""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path

import pytest

from qcs import experiments

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 5

PINS = {
    ("presets-n20", True, None): (
        "2f3654caa36ab9eceb399d9c59ba1c30d44ec4ebc289b72ba1c28da17e0df2ff",
        "88e0dec12f046f52fdc3e4fc096858883fb3dc7c7d5c6a02c98f665c7d74957e",
    ),
    ("curves-async-n100", False, 1): (
        "ba510a4c9a50036370b7ad482f7a1f3debfe1c1f5ac96478559de70e00063830",
        "5a45a80285f84d4aaf6574897e28d2a6c7dd4c06bd689c04a0aedb46ca01aaf7",
    ),
}


@pytest.mark.parametrize("name, tiny, chunks", list(PINS), ids=lambda v: str(v))
def test_workload_digest_is_pinned(monkeypatch, tmp_path, name, tiny, chunks):
    # imported the way bench/test_smoke.py imports them: bench/ on sys.path
    monkeypatch.syspath_prepend(str(BENCH))
    gate = importlib.import_module("gate")
    workloads = importlib.import_module("workloads")
    digests, artifacts = [], hashlib.sha256()
    for c, chunk in enumerate(workloads.build_chunks(name, SEED, tiny=tiny)[:chunks]):
        results = []
        for label, cfg in chunk:
            out = tmp_path / f"chunk{c}" / label
            results.append(experiments.run_experiment(cfg, out_dir=out).results)
            for file in ("outcomes.csv", "error_series.csv"):
                if (out / file).is_file():
                    artifacts.update((out / file).read_bytes())
        digests.append(gate.chunk_digest(results))
    assert (gate.combine_digests(digests), artifacts.hexdigest()) == PINS[name, tiny, chunks]
