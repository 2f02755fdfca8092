"""The package's public surface."""

from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import qcs
from qcs import async_engine, engine, sync_engine


def test_all_lists_every_public_name_the_package_binds():
    bound = {
        name for name, value in vars(qcs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(qcs.__all__) == bound
    assert len(qcs.__all__) == len(bound)


def test_the_engine_modules_only_re_export_what_engine_defines():
    for stub, names in (
        (sync_engine, {"SyncEngine", "run_sync", "step_sync"}),
        (async_engine, {"AsyncEngine", "DelayModel", "run_async", "step_async"}),
    ):
        public = {name for name in vars(stub) if not name.startswith("_")}
        assert public == names
        for name in names:
            assert getattr(stub, name) is getattr(engine, name) is getattr(qcs, name)
            # defined in engine.py, not in the stub
            assert getattr(stub, name).__module__ == "qcs.engine"


def test_import_loads_neither_engine_module():
    code = "import sys, qcs; print(sorted({'qcs.sync_engine', 'qcs.async_engine'} & set(sys.modules)))"
    src = str(Path(qcs.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
