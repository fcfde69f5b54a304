"""Exception types shared across the package.

The CLI maps these onto exit codes: config/usage problems -> 1,
data/format problems -> 2, numeric failures -> 3. It also exits 4 when a
``train --jobs`` fold process dies and 130 on an interrupt (Ctrl-C).
"""


class SdscreenError(Exception):
    """Base class for all package errors."""


class ConfigError(SdscreenError):
    """Invalid or inconsistent configuration value."""


class ContractError(SdscreenError):
    """A call violated an operation's preconditions."""


class ShapeError(ContractError):
    """Tensor extents incompatible with the requested operation."""


class UndefinedMetricError(ContractError):
    """A metric's denominator is zero for the given counts."""


class NumericError(SdscreenError):
    """Non-finite value or other numeric failure."""


class FormatError(SdscreenError):
    """Malformed on-disk bytes (snapshot, frames file, manifest)."""


class DataError(SdscreenError):
    """Dataset-level problem: dangling reference, invalid record."""
