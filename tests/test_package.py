"""The package's public surface."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qcs
from qcs import async_engine, engine, sync_engine

ROOT = Path(__file__).resolve().parent.parent


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


def test_the_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10; this checks syntax
    # only, not library or standard-library differences
    with pytest.raises(SyntaxError, match="Exception groups"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    paths = sorted((ROOT / "src" / "qcs").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
