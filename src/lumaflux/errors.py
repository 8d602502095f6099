"""Exception hierarchy shared across the package.

Each class carries its CLI exit code: frame format (I/O) -> 2, config -> 3, numerical -> 4.
"""


class LumaFluxError(Exception):
    exit_code = 4


class DimensionError(LumaFluxError, ValueError):
    """Array extents do not line up."""


class DomainError(LumaFluxError, ValueError):
    """Sample values outside the valid domain of an operation."""


class FrameFormatError(LumaFluxError, ValueError):
    """A PFM frame or its JSON sidecar is malformed or unusable; an I/O failure."""
    exit_code = 2


class TagError(LumaFluxError, ValueError):
    """Image carries the wrong color-space tag for this operation."""


class ConfigError(LumaFluxError, ValueError):
    """Invalid configuration value."""
    exit_code = 3


class EvaluationError(LumaFluxError, RuntimeError):
    """A numeric evaluation produced a non-finite result."""


class FitError(LumaFluxError, RuntimeError):
    """An optimization run failed or diverged."""
