"""Exception types shared across the package.

Two broad families matter for the command-line interface: configuration
problems (bad input, caught before any numerics run) and numerical
failures (a computation ran and did not meet its target).
"""


class ConfigError(ValueError):
    """Invalid configuration or arguments, detected before computing."""


class NumericsError(RuntimeError):
    """A numerical routine failed to meet its contract.

    ``diagnostics`` holds what the routine recorded up to the failure
    (empty when it records nothing).
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class DomainTooSmallError(NumericsError):
    """Profile tails have not settled at the domain ends.

    Carries a suggested half-length in ``suggested_L``.
    """

    def __init__(self, message: str, suggested_L: float):
        super().__init__(message)
        self.suggested_L = suggested_L


class PoleSearchError(NumericsError):
    """Root search for a kernel pole left the trust ball or stalled."""


class PoleProximityError(NumericsError):
    """Symbol evaluation requested too close to a kernel pole."""


class NewtonDivergenceError(NumericsError):
    """Newton iteration failed to converge; diagnostics hold its step records."""


class KrylovStagnationError(NumericsError):
    """Inner linear solve stagnated; diagnostics hold its conditioning."""


class InsufficientDataError(NumericsError):
    """Not enough usable samples for a requested fit or measurement."""
