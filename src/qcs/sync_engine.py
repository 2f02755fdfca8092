"""Lockstep driver: the engine with unit delays.

Every step runs the same ordered phases at all active nodes at once:
window-start vote refresh, one-hop vote flooding, mass splitting with
same-step delivery, and the window-boundary termination check.
"""

from __future__ import annotations

from .engine import Engine, RunConfig, RunOutcome


class SyncEngine(Engine):
    """Mutable run state for the synchronous protocol."""

    def __init__(self, cfg: RunConfig):
        Engine.__init__(self, cfg)

    # bound in this class body so that SyncEngine's steps and runs can be
    # timed apart from AsyncEngine's by patching this class alone
    step = Engine.step
    run = Engine.run


# one step of an engine, which it returns (test-facing decomposition of run_sync)
step_sync = SyncEngine.step


def run_sync(cfg: RunConfig) -> RunOutcome:
    """Run the synchronous protocol to termination or the step cap."""
    return SyncEngine(cfg).run()
