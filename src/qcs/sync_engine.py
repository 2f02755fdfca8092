"""Re-exports of the synchronous entry points, which `qcs.engine` defines; `bench/` imports them from here."""

from .engine import SyncEngine, run_sync, step_sync  # noqa: F401
