"""Load cases, strikes, and the simulation driver.

The five built-in cases:

1. transverse strike by a constant load on the central element pair;
2. the same load tilted by pi/6 from the normal, in the x-z plane;
3. transverse strike at constant speed: the node nearest the domain
   center has its velocity held fixed;
4. the constant-speed strike tilted by pi/6, again in the x-z plane;
5. a steady distributed transverse load b(r) = b0*cos^2(r) inside its
   support, where r = pi/(2*size) times the distance from the center.

Cases 1 and 2 default to a load window of the first tenth of the run;
case 5 stays on for the whole run.  Strike constraints hold for the
entire simulation.  A fixed border constrains every boundary node to
zero velocity; a free border leaves the edge untouched.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .assembly import (
    CompiledLoad,
    Constraint,
    GlobalSystem,
    apply_constraints,
    assemble,
    build_load_vector,
    couples_normal,
    update_load,
)
from .errors import REQUIRED, ConfigError, MeshError, config_number, config_section
from .integrator import (
    NewmarkParams,
    State,
    default_timestep,
    factor_once,
    init_state,
    step,
)
from .material import MaterialParams, params_from_config
from .mesh import Mesh, StructuredSpec, boundary_nodes, central_element_pair, generate_structured, nearest_node, read_msh

__all__ = [
    "LoadSpec",
    "StrikeSpec",
    "CaseSpec",
    "ScenarioConfig",
    "SimulationResult",
    "build_case",
    "distributed_b",
    "compile_case",
    "build_mesh",
    "run",
    "config_from_json",
    "scenario_from_dict",
]

# tilt of the inclined strike cases, measured from the membrane normal,
# applied in the x-z plane
TILT_ANGLE = math.pi / 6.0

# most Newmark steps one run may take; more is a typo in T or tau
# (1e9 steps of even a 2x2 grid would run for hours)
MAX_STEPS = 10**9


# the keys of `case.load`, one per LoadSpec field: those of every load,
# and those of its kind
_LOAD_KEYS = {
    "kind": (object, REQUIRED),
    "direction": ((float, 3), REQUIRED),
    "b0": (float, REQUIRED),
    "window": ((float, 2), REQUIRED),
}
_LOAD_KIND_KEYS = {
    "element-uniform": {"elements": ((int, None), None)},
    "distributed-cos2": {"support_radius": (float, None)},
}

# the keys a numbered `case` reads besides "id", with their defaults, by
# id (CaseSpec.case_id): a load case reads b0 and window, a strike speed
_LOAD_CASE_KEYS = {"b0": (float, 1.0), "window": ((float, 2), None)}
_STRIKE_CASE_KEYS = {"speed": (float, 1.0)}
_CASE_KEYS = {
    1: _LOAD_CASE_KEYS,
    2: _LOAD_CASE_KEYS,
    3: _STRIKE_CASE_KEYS,
    4: _STRIKE_CASE_KEYS,
    5: {**_LOAD_CASE_KEYS, "support_radius": (float, None)},
}


def _variant_keys(tables: dict, variant) -> dict:
    """The keys of a case id in _CASE_KEYS or a load kind in _LOAD_KIND_KEYS."""
    try:
        return tables[variant]
    except (KeyError, TypeError):  # TypeError: an unhashable variant
        what = f"case id {variant} (valid: 1..5)" if tables is _CASE_KEYS else f"load kind {variant!r}"
        raise ConfigError(f"unknown {what}") from None


def _check_variant(spec, tables: dict, variant, where: str, common: dict) -> None:
    """Check the optional fields of `spec` (those None by default) against
    the keys of its `variant`: one they hold and `spec` left None takes
    its default there, any other must be None.  The values of these and
    of `common`'s fields are checked as `config_section` checks keys at
    `where`, and a load window (both specs have one) must run forward
    from t = 0."""
    keys = {**common, **_variant_keys(tables, variant)}
    for name in (f.name for f in fields(spec) if f.default is None):
        value = getattr(spec, name)
        if name not in keys and value is not None:
            raise ConfigError(f"{type(spec).__name__} {variant!r} does not read {name}, got {value!r}")
        if name in keys and value is None:
            object.__setattr__(spec, name, keys[name][1])
    config_section({key: getattr(spec, key) for key in keys}, where, keys)
    if spec.window is not None and not 0.0 <= spec.window[0] <= spec.window[1]:
        raise ConfigError(f"bad load window {spec.window}")


@dataclass(frozen=True)
class LoadSpec:
    """A volumetric load with a direction, magnitude, and time window.

    kind is "element-uniform" (constant b on the listed elements) or
    "distributed-cos2" (the case-5 field sampled per element at the
    centroid, all elements).  The window is closed: active for
    t_start <= t <= t_end.  Each kind reads its field in _LOAD_KIND_KEYS.
    """

    kind: str
    direction: tuple[float, float, float]
    b0: float
    window: tuple[float, float]
    elements: tuple[int, ...] | None = None
    support_radius: float | None = None

    def __post_init__(self):
        _check_variant(self, _LOAD_KIND_KEYS, self.kind, "case.load.", _LOAD_KEYS)
        if self.kind == "element-uniform" and (self.elements is None or len(self.elements) == 0):
            raise ConfigError("element-uniform load needs target elements")


@dataclass(frozen=True)
class StrikeSpec:
    """Constant-velocity strike: one node's velocity is held fixed."""

    node: int
    speed: float
    angle_to_normal: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.speed) and math.isfinite(self.angle_to_normal)):
            raise ConfigError(f"strike speed {self.speed!r} and angle {self.angle_to_normal!r} must be finite")
        config_section({key: getattr(self, key) for key in _STRIKE_KEYS}, "case.strike.", _STRIKE_KEYS)

    @property
    def v_fix(self) -> tuple[float, float, float]:
        s, c = math.sin(self.angle_to_normal), math.cos(self.angle_to_normal)
        return (self.speed * s, 0.0, self.speed * c)


# the keys of `case.strike`, one per StrikeSpec field
_STRIKE_KEYS = {
    "node": (int, REQUIRED),
    "speed": (float, REQUIRED),
    "angle_to_normal": (float, StrikeSpec.angle_to_normal),
}


@dataclass(frozen=True)
class CaseSpec:
    """Recipe for one numbered case, resolved against a concrete mesh.

    Keeping the recipe rather than element/node ids lets refinement
    studies rebuild the case on every grid level.  Each id reads the
    fields its _CASE_KEYS entry holds, with their defaults.
    """

    case_id: int
    b0: float | None = None
    speed: float | None = None
    window: tuple[float, float] | None = None
    support_radius: float | None = None

    def __post_init__(self):
        config_number(self.case_id, "case.id", integer=True)
        _check_variant(self, _CASE_KEYS, self.case_id, "case.", {})


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one simulation; `run` checks what needs the mesh."""

    mesh: StructuredSpec | Mesh | str
    material: MaterialParams
    case: CaseSpec | LoadSpec | StrikeSpec
    border: str
    t_final: float
    tau: float | None = None
    every_n_steps: int = 1
    out_dir: str | None = None
    initial_translation: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.border not in ("free", "fixed"):
            raise ConfigError(f"border must be 'free' or 'fixed', got {self.border!r}")
        if not config_number(self.t_final, "t_final") > 0.0:
            raise ConfigError(f"t_final must be positive, got {self.t_final}")
        if config_number(self.every_n_steps, "every_n_steps", integer=True) < 1:
            raise ConfigError(f"every_n_steps must be >= 1, got {self.every_n_steps}")
        if self.tau is not None and not 0.0 < self.tau < math.inf:
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if self.initial_translation is not None and np.shape(self.initial_translation) != (3,):
            raise ConfigError("initial_translation must have three components")
        for i, x in enumerate(() if self.initial_translation is None else self.initial_translation):
            config_number(x, f"initial_translation[{i}]")


# the keys of a run config, of its `output` section, and of its `mesh`
# section: a StructuredSpec, whose fields they name, or an MSH file
_RUN_KEYS = {
    "mesh": (dict, REQUIRED),
    "material": (dict, REQUIRED),
    "case": (dict, REQUIRED),
    "border": (object, REQUIRED),
    "T": (float, REQUIRED),
    "tau": (float, None),
    "output": (dict, {}),
    "initial_translation": ((float, None), None),
}
_OUTPUT_KEYS = {"directory": (str, None), "every_n_steps": (int, ScenarioConfig.every_n_steps)}
_GRID_KEYS = {
    "Lx": (float, REQUIRED),
    "Ly": (float, REQUIRED),
    "nx": (int, REQUIRED),
    "ny": (int, REQUIRED),
}
_MSH_KEYS = {"msh_path": (str, REQUIRED)}


@dataclass
class SimulationResult:
    """Run artifacts: mesh, system, snapshots, timing, and the size of
    the factored system (`solver`, as the run manifest records it)."""

    mesh: Mesh
    material: MaterialParams
    system: GlobalSystem
    params: NewmarkParams
    n_steps: int
    snapshots: list[State] = field(default_factory=list)
    final_state: State | None = None
    wall_time: float = 0.0
    solver: dict = field(default_factory=dict)


def build_case(case_id: int, mesh: Mesh, t_final: float, **fields):
    """Resolve `CaseSpec(case_id, **fields)` against a mesh (`_resolve_case`)."""
    return _resolve_case(CaseSpec(case_id, **fields), mesh, t_final)


def _resolve_case(case, mesh: Mesh, t_final: float):
    """A CaseSpec resolved on `mesh`, any other case as is.

    Cases 1, 2 and 5 give a LoadSpec (1 and 2 on the central element
    pair), 3 and 4 a StrikeSpec on the node nearest the bounding box's center.
    """
    if not isinstance(case, CaseSpec):
        return case
    angle = TILT_ANGLE if case.case_id in (2, 4) else 0.0
    if case.case_id in (3, 4):
        xmin, xmax, ymin, ymax = mesh.extent()
        node = nearest_node(mesh, (0.5 * (xmin + xmax), 0.5 * (ymin + ymax)))
        return StrikeSpec(node=node, speed=case.speed, angle_to_normal=angle)
    end = t_final if case.case_id == 5 else t_final / 10.0
    window = (0.0, end) if case.window is None else tuple(case.window)
    if case.case_id == 5:
        return LoadSpec("distributed-cos2", (0.0, 0.0, 1.0), case.b0, window,
                        support_radius=case.support_radius)
    return LoadSpec("element-uniform", (math.sin(angle), 0.0, math.cos(angle)), case.b0, window,
                    elements=central_element_pair(mesh))


def distributed_b(x, y, b0: float, size: float, support_radius=None, center=None):
    """The case-5 load field, vectorized over x and y.

    r = pi/(2*size) * distance from `center` (default (size/2, size/2));
    the value is b0*cos^2(r) where r <= cutoff and zero outside.  The
    cutoff defaults to `size` itself, matching the piecewise definition
    literally; pass `support_radius` to move it (e.g. pi/2 extends the
    support to the natural zero of cos^2).
    """
    if not size > 0.0:
        raise ConfigError(f"size must be positive, got {size}")
    cx, cy = (0.5 * size, 0.5 * size) if center is None else center
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = (math.pi / (2.0 * size)) * np.hypot(x - cx, y - cy)
    cutoff = size if support_radius is None else float(support_radius)
    return np.where(r <= cutoff, b0 * np.cos(r) ** 2, 0.0)


def compile_case(mesh: Mesh, material: MaterialParams, case, t_final: float):
    """Turn a case into assembled load vectors and node constraints.

    Returns (loads, constraints): CompiledLoad list and Constraint list.
    """
    case = _resolve_case(case, mesh, t_final)
    if isinstance(case, StrikeSpec):
        if not 0 <= case.node < mesh.n_nodes:
            raise ConfigError(f"strike node {case.node} out of range")
        return [], [Constraint(node=case.node, v_fix=case.v_fix)]
    if not isinstance(case, LoadSpec):
        raise ConfigError(f"unsupported case object {type(case).__name__}")

    if case.kind == "element-uniform":
        # checked as written, before numpy could overflow or wrap an id
        bad = next((e for e in case.elements if not 0 <= e < mesh.n_triangles), None)
        if bad is not None:
            raise ConfigError(f"load element id {bad} out of range 0..{mesh.n_triangles - 1}")
        ids, mags = np.asarray(case.elements), case.b0
    else:
        xmin, xmax, ymin, ymax = mesh.extent()
        size = xmax - xmin
        center = (0.5 * (xmin + xmax), 0.5 * (ymin + ymax))
        # loads are uniform within each element: one sample per triangle, at its centroid
        c = mesh.centroids()
        mags = distributed_b(c[:, 0], c[:, 1], case.b0, size,
                             support_radius=case.support_radius, center=center)
        ids = np.nonzero(mags)[0]
        if ids.size == 0:
            raise ConfigError("distributed load vanishes on every element")
        mags = mags[ids, None]
    # a load that overflows is a configuration error, not a numerical failure
    with np.errstate(over="ignore", invalid="ignore"):
        vec = build_load_vector(mesh, material, ids, mags * np.asarray(case.direction, dtype=float))
    if not np.isfinite(vec).all():
        raise ConfigError(f"load is not finite: b0={case.b0!r}, direction={case.direction!r}")
    return [CompiledLoad(vec, *case.window)], []


def build_mesh(spec) -> Mesh:
    if isinstance(spec, Mesh):
        return spec
    if isinstance(spec, StructuredSpec):
        return generate_structured(spec)
    if isinstance(spec, (str, os.PathLike)):
        return read_msh(spec)
    raise ConfigError(f"cannot build a mesh from {type(spec).__name__}")


def step_count(t_final: float, tau: float) -> int:
    """ceil(t_final/tau), at least 1, or ConfigError when that exceeds
    MAX_STEPS."""
    q = t_final / tau if tau > 0.0 else math.inf
    if not q <= MAX_STEPS:
        raise ConfigError(
            f"T/tau = {q:.3g} steps exceeds the limit of {MAX_STEPS:.0e}: T={t_final}, tau={tau}"
        )
    # a t_final far below tau still takes one step: the run never stops short
    return max(1, int(math.ceil(q - 1e-9)))


def _in_plane_undriven(material: MaterialParams, loads, constraints, a0) -> bool:
    """Whether nothing drives the in-plane field (u, v).

    True when the material does not couple w with u or v
    (`couples_normal`) and no load window, constraint or initial
    displacement `a0` (over every dof) has an in-plane entry: every
    in-plane right-hand side is then exactly zero at every step.
    """
    def in_plane(x) -> bool:
        return bool(np.reshape(x, (-1, 3))[:, :2].any())

    return (not couples_normal(material)
            and not any(in_plane(ld.vector) for ld in loads)
            and not in_plane([c.v_fix for c in constraints])
            and (a0 is None or not in_plane(a0)))


def run(config: ScenarioConfig, on_snapshot=None, keep_snapshots: bool = True) -> SimulationResult:
    """Integrate a scenario from rest over [0, t_final].

    Snapshots are emitted at step 0, every `every_n_steps` steps, and at
    the final step; `on_snapshot(state)` is called for each if given,
    and they are retained when `keep_snapshots` is true.  The number
    of steps is ceil(t_final/tau), so the run never stops short; above
    MAX_STEPS it is a ConfigError.  When nothing drives the in-plane
    field (`_in_plane_undriven`), it is held at rest: the system is
    assembled over the w dofs only, and the steps carry those.
    Snapshots and `final_state` span every dof, held ones exact zeros.
    """
    t_start = time.perf_counter()
    mesh = build_mesh(config.mesh)
    material = config.material
    loads, constraints = compile_case(mesh, material, config.case, config.t_final)
    if config.border == "fixed":
        border = boundary_nodes(mesh)
        for c in constraints:  # the strike's, if any
            if c.node in border:
                raise ConfigError(f"strike node {c.node} lies on the fixed border, "
                                  "whose nodes are held at rest")
        constraints += [Constraint(node=int(node), v_fix=(0.0, 0.0, 0.0)) for node in border]

    a0 = None
    if config.initial_translation is not None:
        a0 = np.tile(np.asarray(config.initial_translation, dtype=float), mesh.n_nodes)

    held = _in_plane_undriven(material, loads, constraints, a0)
    system = apply_constraints(assemble(mesh, material, w_only=held), constraints)
    carried = system.dofs
    loads = [replace(ld, vector=ld.vector[carried]) for ld in loads]

    tau = config.tau if config.tau is not None else default_timestep(mesh, material)
    # factor_once and step square tau; a tau whose 0.5*tau^2*beta2
    # overflows would fail there, with a traceback
    if not (tau > 0.0 and math.isfinite(0.5 * (tau * tau) * NewmarkParams.beta2)):
        given = "tau" if config.tau is not None else "the default tau"
        raise ConfigError(f"{given} = {tau!r} must be positive with 0.5*tau^2*beta2 finite")
    params = NewmarkParams(tau=tau)
    n_steps = step_count(config.t_final, tau)

    update_load(system, 0.0, loads)
    state = init_state(system, a0=None if a0 is None else a0[carried])
    factor = factor_once(system, params)

    result = SimulationResult(
        mesh=mesh,
        material=material,
        system=system,
        params=params,
        n_steps=n_steps,
        solver={"ndof": 3 * mesh.n_nodes, "factored_dofs": int(factor.lu.dofs.size),
                "stepped_dofs": system.ndof, "held_in_plane": held,
                "factored_entries": factor.lu.factored_entries,
                "lu_stored_entries": factor.lu.nnz, "ordering": factor.lu.ordering},
    )

    def full(s: State) -> State:
        """`s` over every dof; held dofs are exact zeros."""
        vectors = np.zeros((3, 3 * mesh.n_nodes))
        vectors[:, carried] = (s.a, s.adot, s.addot)
        return State(*vectors, t=s.t, step=s.step)

    def emit(s: State):
        if on_snapshot is None and not keep_snapshots:
            return
        s = full(s)
        if on_snapshot is not None:
            on_snapshot(s)
        if keep_snapshots:
            result.snapshots.append(s)

    emit(state)
    # the load vectors are fixed, so f changes only when a window opens or closes
    active = [ld.active(0.0) for ld in loads]
    for k in range(n_steps):
        now = [ld.active((k + 1) * tau) for ld in loads]
        if now != active:
            update_load(system, (k + 1) * tau, loads)
            active = now
        state = step(state, factor)
        if state.step % config.every_n_steps == 0 or state.step == n_steps:
            emit(state)

    result.final_state = full(state)
    result.wall_time = time.perf_counter() - t_start
    return result


def _mesh_from_dict(d: dict):
    if "msh_path" in d:
        return config_section(d, "mesh.", _MSH_KEYS)["msh_path"]
    try:
        return StructuredSpec(**config_section(d, "mesh.", _GRID_KEYS))
    except MeshError as exc:
        raise ConfigError(f"invalid mesh: {exc}") from exc


def _case_from_dict(d: dict):
    """The `case` section: "id" wins over "load", which wins over "strike".

    A numbered case takes the keys of its id in _CASE_KEYS, and a load
    those of its kind in _LOAD_KIND_KEYS, so a key the case does not
    read is rejected.
    """
    if "id" in d:
        keys = _variant_keys(_CASE_KEYS, config_number(d["id"], "case.id", integer=True))
        values = config_section(d, "case.", {"id": (int, REQUIRED), **keys})
        return CaseSpec(case_id=values.pop("id"), **values)
    if "load" in d:
        load = config_section(d, "case.", {"load": (dict, REQUIRED)})["load"]
        if "kind" not in load:
            raise ConfigError("missing config key: case.load.kind")
        keys = _variant_keys(_LOAD_KIND_KEYS, load["kind"])
        return LoadSpec(**config_section(load, "case.load.", {**_LOAD_KEYS, **keys}))
    if "strike" in d:
        strike = config_section(d, "case.", {"strike": (dict, REQUIRED)})["strike"]
        return StrikeSpec(**config_section(strike, "case.strike.", _STRIKE_KEYS))
    raise ConfigError("case needs one of: id, load, strike")


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Parse a run config dict, each section against its key table."""
    values = config_section(d, "", _RUN_KEYS)
    output = config_section(values["output"], "output.", _OUTPUT_KEYS)
    return ScenarioConfig(
        mesh=_mesh_from_dict(values["mesh"]),
        material=params_from_config(values["material"]),
        case=_case_from_dict(values["case"]),
        border=str(values["border"]),
        t_final=values["T"],
        tau=values["tau"],
        every_n_steps=output["every_n_steps"],
        out_dir=output["directory"],
        initial_translation=values["initial_translation"],
    )


def _read_json_object(source, what: str) -> dict:
    """The JSON object in file `source` (a dict is returned as is).

    `what` names the file in messages ("config", "study").
    """
    if isinstance(source, dict):
        return source
    try:
        with open(source, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {source}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {source}: {exc}") from exc
    # not UTF-8, an integer past Python's 4300-digit limit, or nested too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse {what} file {source}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} root must be a JSON object, got {type(data).__name__}")
    return data


def config_from_json(source) -> ScenarioConfig:
    """Load a ScenarioConfig from a JSON file path or a parsed dict."""
    return scenario_from_dict(_read_json_object(source, "config"))
