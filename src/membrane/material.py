"""Elastic constitutive matrices and material parameters.

Stress and strain vectors use the component order

    (xx, yy, zz, xy, yz, xz)

everywhere in this package: the three normal components first, then
the shear components with xy ahead of yz ahead of xz.  The 6x6 elastic
matrix maps the engineering strain vector in that order to the stress
vector in the same order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import REQUIRED, ConfigError, MaterialError, config_number, config_section

__all__ = [
    "VOIGT_COMPONENTS",
    "isotropic",
    "anisotropic",
    "packed_from_entries",
    "validate_elastic_matrix",
    "MaterialParams",
    "params_from_config",
    "max_wave_speed",
]

VOIGT_COMPONENTS = ("xx", "yy", "zz", "xy", "yz", "xz")

# relative eigenvalue floor below which the matrix counts as singular
_PD_RTOL = 1e-9


def validate_elastic_matrix(d: np.ndarray) -> None:
    """Require a symmetric positive-definite 6x6 elastic matrix.

    Positive definiteness is checked through the eigenvalues: the
    smallest one must exceed 1e-9 times the largest.  The error message
    names the offending eigenvalue.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (6, 6):
        raise MaterialError(f"elastic matrix must be 6x6, got {d.shape}")
    if not np.all(np.isfinite(d)):
        raise MaterialError("elastic matrix has non-finite entries (overflow?)")
    if not np.array_equal(d, d.T):
        raise MaterialError("elastic matrix must be exactly symmetric")
    w = np.linalg.eigvalsh(d)
    if w[0] <= _PD_RTOL * w[-1]:
        raise MaterialError(
            f"elastic matrix is singular or indefinite: eigenvalue {w[0]:.6e} "
            f"(largest {w[-1]:.6e})"
        )


def isotropic(E: float, nu: float) -> np.ndarray:
    """Isotropic elastic matrix from Young's modulus and Poisson's ratio.

    The normal block is E/((1+nu)(1-2nu)) * [[1-nu, nu, nu], ...] and the
    shear block is diagonal with the shear modulus E/(2(1+nu)); normal
    and shear components do not couple.

    Parameters
    ----------
    E : float
        Young's modulus, > 0.
    nu : float
        Poisson's ratio, inside (-1, 0.5).
    """
    if not E > 0.0:
        raise MaterialError(f"Young's modulus must be positive, got {E}")
    if not (-1.0 < nu < 0.5):
        raise MaterialError(f"Poisson's ratio must lie in (-1, 0.5), got {nu}")
    c = E / ((1.0 + nu) * (1.0 - 2.0 * nu))
    g = 0.5 * (1.0 - 2.0 * nu)  # times c this is the shear modulus
    d = np.zeros((6, 6))
    d[:3, :3] = c * nu
    np.fill_diagonal(d[:3, :3], c * (1.0 - nu))
    d[3, 3] = d[4, 4] = d[5, 5] = c * g
    return d


def anisotropic(upper: np.ndarray) -> np.ndarray:
    """Elastic matrix from its 21 independent moduli.

    Parameters
    ----------
    upper : array_like, shape (21,)
        Upper-triangle entries row-major: c11..c16, c22..c26, c33..c36,
        c44..c46, c55, c56, c66 (units as given, typically Pa).

    The matrix is symmetrized from the upper triangle.
    """
    upper = np.asarray(upper, dtype=float)
    if upper.shape != (21,):
        raise MaterialError(f"need 21 upper-triangle moduli, got shape {upper.shape}")
    d = np.zeros((6, 6))
    iu = np.triu_indices(6)
    d[iu] = upper
    return d + np.triu(d, 1).T


def packed_from_entries(entries) -> np.ndarray:
    """Pack sparse (i, j, value) moduli into the 21-vector for `anisotropic`.

    Indices are 1-based integer rows/columns of the 6x6 matrix; (i, j)
    and (j, i) address the same modulus.  Values must be finite numbers.
    Unspecified entries are zero; duplicates are rejected.
    """
    upper = np.zeros((6, 6))
    seen = set()
    for entry in entries:
        try:
            i, j, value = entry
        except (TypeError, ValueError) as exc:
            raise MaterialError(f"bad moduli entry {entry!r}: need (i, j, value)") from exc
        i, j = (config_number(k, f"moduli entry {entry!r}", integer=True) for k in (i, j))
        value = config_number(value, f"moduli entry {entry!r}")
        if not (1 <= i <= 6 and 1 <= j <= 6):
            raise MaterialError(f"moduli indices must be 1..6, got ({i}, {j})")
        a, b = (i - 1, j - 1) if i <= j else (j - 1, i - 1)
        if (a, b) in seen:
            raise MaterialError(f"duplicate moduli entry for ({i}, {j})")
        seen.add((a, b))
        upper[a, b] = value
    return upper[np.triu_indices(6)]


@dataclass(frozen=True)
class MaterialParams:
    """Bundle of material data used by the element kernels.

    Attributes
    ----------
    d : ndarray, shape (6, 6)
        Elastic matrix (component order per VOIGT_COMPONENTS).
    rho : float
        Mass density, > 0.
    h : float
        Membrane thickness, > 0.
    strain_threshold, stress_threshold : float or None
        Optional componentwise magnitudes above which an element is
        flagged in the per-element output; finite and non-negative.

    Every value is checked when made (`d` by `validate_elastic_matrix`).
    `d` is kept as a read-only float copy, compared and hashed by value.
    """

    d: np.ndarray = field(compare=False)
    rho: float
    h: float
    strain_threshold: float | None = None
    stress_threshold: float | None = None
    _moduli: tuple = field(init=False, repr=False)  # d's shape and entries, for == and hash

    def __post_init__(self):
        d = np.array(self.d, dtype=float)
        try:
            validate_elastic_matrix(d)
        except MaterialError as exc:
            raise ConfigError(f"invalid material: {exc}") from exc
        d.flags.writeable = False
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_moduli", (d.shape, tuple(d.flat)))
        for key in ("rho", "h"):
            if not config_number(getattr(self, key), f"material.{key}") > 0.0:
                raise ConfigError(f"material.{key} must be positive, got {getattr(self, key)}")
        for key in ("strain_threshold", "stress_threshold"):
            value = getattr(self, key)
            if value is not None and config_number(value, f"material.{key}") < 0.0:
                raise ConfigError(f"material.{key} must be non-negative, got {value}")


# the keys of a config's `material` section: these, plus the moduli of its type
_MATERIAL_KEYS = {
    "type": (object, REQUIRED),
    "rho": (float, REQUIRED),  # kg/m^3
    "h": (float, REQUIRED),  # m
    "strain_threshold": (float, None),
    "stress_threshold": (float, None),
}
_MODULI_KEYS = {
    "isotropic": {"E": (float, REQUIRED), "nu": (float, REQUIRED)},  # E in Pa
    # [i, j, value] entries in GPa, 1-based; unspecified entries are zero
    "anisotropic": {"moduli_gpa": (list, REQUIRED)},
}


def params_from_config(cfg: dict) -> MaterialParams:
    """Build MaterialParams from the `material` section of a JSON config.

    Its keys are those of _MATERIAL_KEYS and the type's _MODULI_KEYS.
    """
    if "type" not in cfg:
        raise ConfigError("missing config key: material.type")
    kind = cfg["type"]
    if not (isinstance(kind, str) and kind in _MODULI_KEYS):
        raise ConfigError(f"unknown material.type {kind!r}")
    values = config_section(cfg, "material.", {**_MODULI_KEYS[kind], **_MATERIAL_KEYS})
    try:
        if kind == "isotropic":
            d = isotropic(values.pop("E"), values.pop("nu"))
        else:
            with np.errstate(over="ignore"):  # GPa -> Pa; MaterialParams rejects an inf
                pa = packed_from_entries(values.pop("moduli_gpa")) * 1e9
            d = anisotropic(pa)
    except MaterialError as exc:
        raise ConfigError(f"invalid material: {exc}") from exc
    del values["type"]
    return MaterialParams(d=d, **values)


def max_wave_speed(material: MaterialParams) -> float:
    """sqrt(max diagonal modulus / rho), the speed scale of timesteps; not an
    upper bound (run_aniso: 9354.1 m/s, its fastest plane wave 9360.3 m/s).

    A speed that overflows to inf or underflows to zero (a density of
    1e-320, say) gives no timestep: it is a ConfigError.
    """
    modulus = np.max(np.diag(material.d))
    with np.errstate(over="ignore", under="ignore"):
        speed = float(np.sqrt(modulus / material.rho))
    if not 0.0 < speed < np.inf:
        raise ConfigError(f"material.rho = {material.rho!r} with largest modulus "
                          f"{float(modulus)!r} gives the wave speed {speed!r}; "
                          "a timestep needs a finite, nonzero one")
    return speed
