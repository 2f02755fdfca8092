"""Re-exports of the bounded-delay entry points, which `qcs.engine` defines; `bench/` imports them from here."""

from .engine import AsyncEngine, DelayModel, run_async, step_async  # noqa: F401
