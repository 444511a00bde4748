"""Exception types raised by the membrane package.

Every error raised on a user-facing path derives from MembraneError so
callers (and the CLI) can distinguish configuration mistakes from
numerical failures.  `config_section` reads a config section against
the one table of its keys, kinds and defaults, and `config_number`
checks one number, so a bad key or value always ends in ConfigError.
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


REQUIRED = object()  # the default of a key that must be present
_NOUNS = {dict: "an object", list: "a list", str: "a string"}


def config_section(section: dict, where: str, schema: dict) -> dict:
    """The values of config `section`, checked against `schema`.

    `schema` maps each key to `(kind, default)`; another key is rejected
    unless it starts with "_" (a note).  An absent key takes `default`,
    or is missing when that is REQUIRED; where the default is None, a
    null counts as absent.  Kinds: `float`, `int` (through
    `config_number`); `dict`, `list`, `str` (kept as is); `(float, n)`,
    `(int, n)` (a tuple of n numbers, any n when None); `object`
    (anything, for the caller to check).  `where` prefixes each key in
    messages ("case.load.").
    """
    for key in section:
        if key not in schema and not key.startswith("_"):
            # escaped, so a key holding a line break still gives a one-line message
            shown = key.encode("unicode_escape").decode("ascii")
            raise ConfigError(f"unknown config key: {where}{shown}")
    values = {}
    for key, (kind, default) in schema.items():
        value, name = section.get(key, default), where + key
        if value is REQUIRED:
            raise ConfigError(f"missing config key: {name}")
        if value is None and default is None or kind is object:
            values[key] = value
        elif kind in (float, int):
            values[key] = config_number(value, name, kind is int)
        elif isinstance(kind, tuple):
            item, length = kind
            if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
                size = "" if length is None else f"{length} "
                raise ConfigError(f"{name} must be a list of {size}numbers, got {value!r}")
            values[key] = tuple(
                config_number(v, f"{name}[{i}]", item is int) for i, v in enumerate(value)
            )
        elif isinstance(value, kind):
            values[key] = value
        else:
            prefix = "config key " if kind is dict else ""
            raise ConfigError(f"{prefix}{name} must be {_NOUNS[kind]}, got {value!r}")
    return values
