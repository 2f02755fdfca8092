"""Exception types shared across the package."""


class QcsError(Exception):
    """Base class for all package-specific errors."""


class GraphGenerationError(QcsError):
    """Random graph generation exhausted its retry budget."""


class NotStronglyConnectedError(QcsError):
    """An operation requiring strong connectivity got a graph without it."""


class ProtocolError(QcsError):
    """A protocol-level contract was violated (caller bug)."""


class ConservationError(QcsError):
    """The mass-conservation ledger failed to balance."""


class InvariantError(QcsError):
    """A run-time invariant audit failed (diagnostic abort)."""


class CapacityExceededError(QcsError):
    """Total demand exceeds the available capacity of the network."""


class InvalidInstanceError(QcsError):
    """An application instance violates its own validity constraints."""


class ConfigError(QcsError):
    """An experiment configuration is malformed; message names the field."""


class MassOverflowError(QcsError):
    """Initial values whose doubled totals do not fit the int64 ledger."""


class TrialError(QcsError):
    """One trial of an experiment raised; names the trial and its seed.

    The arguments are kept as exception args so the error survives the
    pickling that carries it back from a worker process.
    """

    def __init__(self, trial: int, seed: int, reason: str):
        super().__init__(trial, seed, reason)
        self.trial = trial
        self.seed = seed
        self.reason = reason

    def __str__(self) -> str:
        return f"trial {self.trial} (seed {self.seed}) failed: {self.reason}"
