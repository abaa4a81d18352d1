"""Exception types shared across the package."""


class GutPatternsError(Exception):
    """Base class for all package errors."""


class ParameterError(GutPatternsError, ValueError):
    """Invalid model parameter, domain, or configuration value."""


class CalibrationError(GutPatternsError, ValueError):
    """Requested equilibrium is unreachable with a positive porosity feedback."""


class ConsistencyError(GutPatternsError, RuntimeError):
    """A quantity contradicts what the model guarantees.

    Raised when det(M) <= 0 at the equilibrium, which valid parameters rule
    out. Always signals an implementation bug, never bad user input.
    """


class InvariantError(GutPatternsError, RuntimeError):
    """A runtime invariant of the solver was violated beyond tolerance."""


class ConfigError(GutPatternsError, ValueError):
    """Config file could not be parsed or validated."""
