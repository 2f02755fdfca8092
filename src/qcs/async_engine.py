"""Bounded-delay driver: the engine with random per-node processing times.

Each node's cycle takes a delay drawn from a `DelayModel` over {1..B},
and vote windows stretch to D*B steps; see `qcs.engine` for the rules.
"""

from __future__ import annotations

from .engine import DelayModel, Engine, RunConfig, RunOutcome


class AsyncEngine(Engine):
    """Mutable run state for the bounded-delay protocol."""

    def __init__(self, cfg: RunConfig, delay_model: DelayModel):
        Engine.__init__(self, cfg, delay_model)

    # bound in this class body so that AsyncEngine's steps and runs can be
    # timed apart from SyncEngine's by patching this class alone
    step = Engine.step
    run = Engine.run


# one step of an engine, which it returns (test-facing decomposition of run_async)
step_async = AsyncEngine.step


def run_async(cfg: RunConfig, delay_model: DelayModel) -> RunOutcome:
    """Run the bounded-delay protocol to termination or the step cap."""
    return AsyncEngine(cfg, delay_model).run()
