"""Exception types raised by the membrane package.

Every error raised on a user-facing path derives from MembraneError so
callers (and the CLI) can distinguish configuration mistakes from
numerical failures.  `config_number` and `config_keys` are the one
check of config values and keys, so a bad one always ends in ConfigError.
"""
import math
import numbers


class MembraneError(Exception):
    """Base class for all package errors."""


class ConfigError(MembraneError):
    """Invalid or incomplete run/study configuration."""


class MeshError(MembraneError):
    """Mesh construction, validation, or file parsing failure."""


class MaterialError(MembraneError):
    """Invalid material parameters or elastic matrix."""


class ElementError(MembraneError):
    """Per-element kernel failure (degenerate geometry etc.).

    Carries the offending triangle id when known; -1 means "not tied to
    a mesh element" (stand-alone coordinate input).
    """

    def __init__(self, message: str, element_id: int = -1):
        super().__init__(message)
        self.element_id = element_id


class AssemblyError(MembraneError):
    """Global system assembly or constraint application failure."""


class SolverError(MembraneError):
    """Numerical failure in factorization or time integration."""


def config_number(value, key: str, integer: bool = False):
    """A config value as a finite float, or as an int when `integer`.

    Only JSON numbers qualify: strings, booleans, null, non-finite
    values and (with `integer`) fractional values raise ConfigError
    naming `key`.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if integer and isinstance(value, numbers.Integral):
            return int(value)
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x) and (not integer or x.is_integer()):
            return int(x) if integer else x
    kind = "an integer" if integer else "a finite number"
    raise ConfigError(f"{key} must be {kind}, got {value!r}")


def config_keys(section: dict, allowed, where: str) -> None:
    """Reject a key of `section` outside `allowed`; "_" keys are notes."""
    for key in section:
        if key not in allowed and not key.startswith("_"):
            raise ConfigError(f"unknown config key: {where}{key}")
