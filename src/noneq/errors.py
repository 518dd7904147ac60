"""Exception types shared across the package."""

from __future__ import annotations


class SpecError(ValueError):
    """A process specification is malformed or inconsistent."""


class ConfigError(ValueError):
    """An experiment configuration file is malformed."""


class QuadratureError(RuntimeError):
    """Numerical integration could not reach the requested reliability."""


class BlowUpError(RuntimeError):
    """Too many simulated paths left the finite range."""


class PositivityError(RuntimeError):
    """A density or a positive field lost positivity beyond tolerance."""


class CertificateInfeasible(RuntimeError):
    """A decay certificate violates one of its matrix constraints.

    Attributes
    ----------
    constraint : str
        Name of the violated constraint.
    """

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        self.detail = detail
        msg = f"certificate constraint violated: {constraint}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def __reduce__(self):  # pickled (by a worker process) from the constructor's arguments
        return type(self), (self.constraint, self.detail)
