"""Mesh-refinement convergence studies.

A study solves the same scenario on a ladder of structured grids.
Level k doubles the cell counts of level k-1 and halves the timestep,
so level-k node positions contain every baseline node bitwise.  After
integrating all levels to the same final time, consecutive levels are
compared at the baseline node positions through the stacked vector of
displacements and velocities (u, v, w, u', v', w'); the decay of the
difference norms

    L1 = mean |d|,   L2 = sqrt(mean d^2),   Linf = max |d|

across levels yields the observed convergence rate: minus the
least-squares slope of log2(norm) against the level index.

The numbered cases are re-resolved on every level (central element
pair, nearest node to the center), mirroring how the discretization of
a strike follows the grid.  The base step count is snapped so that load
window edges land on shared step times of every level; otherwise the
levels would integrate slightly different impulses and the comparison
would pick up an O(tau) artifact.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import REQUIRED, ConfigError, MeshError, config_number, config_section
from .integrator import State, default_timestep
from .mesh import Mesh, StructuredSpec, generate_structured, refine
from .scenarios import (
    LoadSpec,
    ScenarioConfig,
    StrikeSpec,
    _read_json_object,
    _resolve_case,
    run,
    scenario_from_dict,
    step_count,
)

__all__ = [
    "StudySpec",
    "LevelDiff",
    "StudyResult",
    "NORMS",
    "norm",
    "fit_rate",
    "extract_at_positions",
    "run_study",
    "study_from_json",
]

NORMS = ("L1", "L2", "Linf")


@dataclass(frozen=True)
class StudySpec:
    """A scenario on a structured mesh spec plus the number of refinements to run."""

    scenario: ScenarioConfig
    k_max: int

    def __post_init__(self):
        if config_number(self.k_max, "k_max", integer=True) < 2:
            raise ConfigError(f"k_max must be >= 2 to fit a rate, got {self.k_max}")
        if not isinstance(self.scenario.mesh, StructuredSpec):
            raise ConfigError("a refinement study needs a structured mesh spec")
        case = self.scenario.case
        if isinstance(case, StrikeSpec):
            raise ConfigError("explicit strike node ids are mesh-bound; use a numbered case for studies")
        if isinstance(case, LoadSpec) and case.elements is not None:
            raise ConfigError("explicit element targets are mesh-bound; use a numbered case for studies")


# the keys a study config adds to a run config
_STUDY_KEYS = {"k_max": (int, REQUIRED)}


@dataclass(frozen=True)
class LevelDiff:
    """Difference norms between level `level` and level - 1.

    n_nodes and tau describe the finer of the two grids.  `joint` holds
    the norms of the stacked displacement+velocity vector (these feed
    the rate fit); `disp` and `vel` break the same norms out per field.
    """

    level: int
    n_nodes: int
    tau: float
    joint: dict
    disp: dict
    vel: dict


@dataclass(frozen=True)
class StudyResult:
    """All level differences plus fitted rates per norm."""

    diffs: list[LevelDiff]
    rates: dict
    tau0: float
    n_steps0: int
    levels: list[StructuredSpec] = field(default_factory=list)


def norm(d: np.ndarray, which: str) -> float:
    """One of the averaged difference norms over a stacked vector."""
    d = np.asarray(d, dtype=float)
    if which == "L1":
        return float(np.mean(np.abs(d)))
    if which == "L2":
        return float(np.sqrt(np.mean(d * d)))
    if which == "Linf":
        return float(np.max(np.abs(d)))
    raise ConfigError(f"unknown norm {which!r}")


def fit_rate(values, ks=None) -> float:
    """Observed rate: minus the least-squares slope of log2(values).

    Zero values cannot enter the log fit; they are excluded with a
    warning.  Returns NaN (with a warning) when fewer than two points
    remain.
    """
    values = np.asarray(values, dtype=float)
    ks = np.arange(1, values.size + 1, dtype=float) if ks is None else np.asarray(ks, dtype=float)
    good = values > 0.0
    if not good.all():
        warnings.warn("zero difference norm excluded from rate fit", stacklevel=2)
    if good.sum() < 2:
        warnings.warn("fewer than two usable norms; rate undefined", stacklevel=2)
        return float("nan")
    slope = np.polyfit(ks[good], np.log2(values[good]), 1)[0]
    return float(-slope)


def extract_at_positions(mesh: Mesh, state: State, positions: np.ndarray) -> np.ndarray:
    """Stack (u, v, w) then (u', v', w') at the given node positions.

    The mesh must be structured (`mesh.structure`, as `run_study`'s
    levels are).  Each position is looked up by grid index:
    i = rint(x*nx/Lx) and j = rint(y*ny/Ly), clipped to the grid, give
    node j*(nx+1) + i, `generate_structured`'s numbering.  That node
    must lie within 1e-12 of the local cell size of the position; a
    miss (a position off the grid's nodes, outside the rectangle, or
    not finite) means the refinement subset property is broken and
    raises MeshError.
    """
    spec = mesh.structure
    if spec is None:
        raise MeshError("study node lookup needs a structured mesh")
    p = np.asarray(positions, dtype=float).reshape(-1, 2)

    def index(x, cells: int, length: float) -> np.ndarray:
        # fmax/fmin take NaN to index 0, and the distance check then rejects it
        with np.errstate(over="ignore"):
            return np.fmin(np.fmax(np.rint(x * cells / length), 0), cells).astype(np.int64)

    idx = index(p[:, 1], spec.ny, spec.Ly) * (spec.nx + 1) + index(p[:, 0], spec.nx, spec.Lx)
    dist = np.hypot(*(mesh.nodes[idx] - p).T)
    tol = 1e-12 * mesh.min_edge_length()
    if not float(np.max(dist)) <= tol:
        raise MeshError(
            f"baseline node missing on refined grid (offset {np.max(dist):.3e})"
        )
    dofs = (3 * idx[:, None] + np.arange(3)[None, :]).ravel()
    return np.concatenate([state.a[dofs], state.adot[dofs]])


def _window_breakpoints(scenario: ScenarioConfig, base_mesh: Mesh) -> list[float]:
    case = _resolve_case(scenario.case, base_mesh, scenario.t_final)
    if isinstance(case, LoadSpec):
        return [t for t in case.window if 0.0 < t < scenario.t_final]
    return []


def _snap_steps(n0: int, t_final: float, breakpoints) -> int:
    """Smallest n >= n0 making every breakpoint an integer step of T/n.

    n must be a simultaneous multiple of every T/t_b, hence the lcm:
    snapping edges one at a time could undo an earlier edge.
    """
    divisors = []
    for tb in breakpoints:
        q = t_final / tb
        qi = round(q)
        if qi >= 1 and abs(q - qi) < 1e-9 * q:
            divisors.append(qi)
        else:
            warnings.warn(
                f"load window edge at t={tb} is not a simple fraction of T; "
                "levels will integrate slightly different impulses",
                stacklevel=2,
            )
    if divisors:
        l = math.lcm(*divisors)
        n0 = int(math.ceil(n0 / l)) * l
    return n0


def run_study(spec: StudySpec) -> StudyResult:
    """Solve all refinement levels and fit convergence rates.

    Levels run one after another in the calling thread, coarsest first.
    """
    scenario = spec.scenario
    base_mesh = generate_structured(scenario.mesh)

    tau_rule = scenario.tau if scenario.tau is not None else default_timestep(
        base_mesh, scenario.material
    )
    n0 = step_count(scenario.t_final, tau_rule)
    n0 = _snap_steps(n0, scenario.t_final, _window_breakpoints(scenario, base_mesh))
    tau0 = scenario.t_final / n0
    step_count(scenario.t_final, math.ldexp(tau0, -spec.k_max))  # the finest level, up front

    specs = [scenario.mesh]
    for k in range(1, spec.k_max + 1):
        try:
            specs.append(refine(specs[-1]))
        except MeshError as exc:
            raise ConfigError(f"study level {k} (k_max {spec.k_max}): {exc}") from None

    def solve_level(k: int) -> np.ndarray:
        cfg = replace(scenario, mesh=specs[k], tau=tau0 / 2**k)
        result = run(cfg, keep_snapshots=False)
        level_mesh = result.mesh
        return extract_at_positions(level_mesh, result.final_state, base_mesh.nodes)

    # a level's result is released when solve_level returns, before the next level runs
    sols = [solve_level(k) for k in range(spec.k_max + 1)]

    half = 3 * base_mesh.n_nodes
    diffs = []
    for k in range(spec.k_max):
        d = sols[k + 1] - sols[k]
        diffs.append(
            LevelDiff(
                level=k + 1,
                n_nodes=specs[k + 1].n_nodes,
                tau=tau0 / 2 ** (k + 1),
                joint={w: norm(d, w) for w in NORMS},
                disp={w: norm(d[:half], w) for w in NORMS},
                vel={w: norm(d[half:], w) for w in NORMS},
            )
        )
    rates = {
        w: fit_rate([ld.joint[w] for ld in diffs], ks=[ld.level for ld in diffs])
        for w in NORMS
    }
    return StudyResult(
        diffs=diffs, rates=rates, tau0=tau0, n_steps0=n0, levels=specs
    )


def study_from_json(source) -> StudySpec:
    """Load a StudySpec from a JSON file path or a parsed dict.

    The file is a scenario config plus the keys of _STUDY_KEYS, which
    are taken off a copy: a parsed dict is never changed.
    """
    data = dict(_read_json_object(source, "study"))
    study = config_section({k: data.pop(k) for k in _STUDY_KEYS if k in data}, "", _STUDY_KEYS)
    return StudySpec(scenario=scenario_from_dict(data), **study)
