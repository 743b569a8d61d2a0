"""Exception types shared across the package.

Each one survives pickling, so a sweep point that fails in a worker
process reaches the parent as the same exception.
"""


class CotrapError(Exception):
    """Base class for all package errors."""


class ConfigError(CotrapError):
    """Invalid or inconsistent configuration input."""


class UnstableAxisError(CotrapError):
    """A trap axis has no stable secular motion for the given drive."""

    def __init__(self, axis, value):
        self.axis = axis
        self.value = value
        super().__init__(
            f"axis '{axis}' is unstable: a + q^2/2 = {value:.3e} <= 0"
        )

    def __reduce__(self):
        return type(self), (self.axis, self.value)


class UnstableModeError(CotrapError):
    """A normal-mode eigenvalue is non-positive."""

    def __init__(self, omega_sq_plus, omega_sq_minus):
        self.omega_sq_plus = omega_sq_plus
        self.omega_sq_minus = omega_sq_minus
        super().__init__(
            "unstable normal modes: omega_plus^2 = "
            f"{omega_sq_plus:.3e}, omega_minus^2 = {omega_sq_minus:.3e}"
        )

    def __reduce__(self):
        return type(self), (self.omega_sq_plus, self.omega_sq_minus)


class IntegrationFault(CotrapError):
    """The time-domain integration failed (particle crossing or overflow)."""

    def __init__(self, reason, time):
        self.reason = reason
        self.time = time
        super().__init__(f"integration fault at t = {time:.6g} s: {reason}")

    def __reduce__(self):
        return type(self), (self.reason, self.time)


class AnalysisError(CotrapError):
    """An estimator's preconditions are not met."""
