"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Inputs are structurally inconsistent (wrong shapes, bad parameters,
    codebook/queue mismatches).  Raised before any work is attempted."""


class FeasibilityError(RuntimeError):
    """A physical invariant was violated at runtime, e.g. a departure
    process overtaking its arrival process.  Signals a scheduling bug
    rather than bad user input.  ``scheduler`` is the index of the
    scheduler in a bank that hit it, if one did."""

    def __init__(self, message: str, scheduler: int | None = None):
        super().__init__(message)
        self.scheduler = scheduler


class SolverError(RuntimeError):
    """The optimizer failed for a reason other than infeasibility or
    unboundedness (iteration limit, numerical breakdown)."""
