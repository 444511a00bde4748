"""The benchmark's three workloads: seeded inputs, the call, and its checks.

Each workload drives the package through one public entry point:

* ``study_case1``: ``membrane.convergence.run_study`` on the shipped
  ``configs/study_case1.json`` (8x8 to 128x128, five factorizations).
  The per-step LU solve dominates; no snapshots are written.
* ``run_aniso_160``: ``membrane.run`` on a 160x160 grid with a fully
  anisotropic material, the case-3 strike and a fixed border.  Setup
  (factorization) and memory dominate: anisotropic coupling roughly
  doubles LU fill over an isotropic material on the same pattern.
* ``run_output_64``: ``membrane.cli.main(["run", ...])`` on a 64x64 grid
  with the case-5 load on every element and a free border.  The CSV and
  VTK writers dominate.

A seed perturbs load magnitude, strike speed and moduli by at most
``PERTURB``.  It never changes the mesh, the timestep, the step counts
or the sparsity pattern, so the cost of a workload does not depend on
its seed.  The checks below hold for every seed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import membrane as mb
import membrane.cli
import membrane.convergence
from membrane.output import CSV_HEADER, ELEMENT_CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent
PERTURB = 0.03

# criterion 07's band for the case-1 study
RATE_BAND = (2.0, 3.5)

# C_ij in GPa (upper triangle, 1-based): in-plane/shear (16, 26) and
# yz/xz (45) coupling, so no symmetry of the grid decouples the fields
ANISO_MODULI_GPA = [
    [1, 1, 140.0], [1, 2, 3.0], [1, 3, 3.0], [1, 6, 5.0],
    [2, 2, 10.0], [2, 3, 3.0], [2, 6, 2.0], [3, 3, 10.0],
    [4, 4, 5.0], [4, 5, 1.0], [5, 5, 5.0], [6, 6, 5.0],
]


def _factors(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 1.0 + PERTURB * rng.uniform(-1.0, 1.0, n)


# ----------------------------------------------------------------------- study


def study_inputs(seed: int, small: bool) -> dict:
    with open(ROOT / "configs" / "study_case1.json", encoding="utf-8") as f:
        cfg = json.load(f)
    # pin tau to the unperturbed default so the step counts never move
    base = mb.study_from_json(cfg)
    cfg["tau"] = mb.default_timestep(
        mb.generate_structured(base.scenario.mesh), base.scenario.material
    )
    fb, fe = _factors(seed, 2)
    cfg["case"]["b0"] *= float(fb)
    cfg["material"]["E"] *= float(fe)
    if small:
        cfg["k_max"] = 2
    return cfg


def study_call(cfg: dict, workdir: Path):
    return membrane.convergence.run_study(mb.study_from_json(cfg))


def study_check(cfg: dict, result, workdir: Path):
    lo, hi = RATE_BAND
    problems = [
        f"{w} rate {r:.4f} outside [{lo}, {hi}]"
        for w, r in result.rates.items()
        if not lo <= r <= hi
    ]
    norms = {f"rate_{w}": float(r) for w, r in result.rates.items()}
    norms.update({f"L2_level{d.level}": d.joint["L2"] for d in result.diffs})
    return problems, norms


def study_corrupt(cfg: dict, result, workdir: Path) -> None:
    result.rates["L2"] = 1.0


# ------------------------------------------------------------------ anisotropic


def aniso_inputs(seed: int, small: bool) -> dict:
    f = _factors(seed, len(ANISO_MODULI_GPA) + 1)
    moduli = [[i, j, v * float(s)] for (i, j, v), s in zip(ANISO_MODULI_GPA, f)]
    n = 16 if small else 160
    tau = 1.0e-7
    return {
        "mesh": {"Lx": 1.0, "Ly": 1.0, "nx": n, "ny": n},
        "material": {"type": "anisotropic", "moduli_gpa": moduli,
                     "rho": 1600.0, "h": 1.0e-3},
        "case": {"id": 3, "speed": float(f[-1])},
        "border": "fixed",
        "T": 30 * tau,
        "tau": tau,
    }


def aniso_call(cfg: dict, workdir: Path):
    return mb.run(mb.config_from_json(cfg), keep_snapshots=False)


def aniso_check(cfg: dict, result, workdir: Path):
    problems = []
    state = result.final_state
    mesh = result.mesh
    if result.n_steps != 30 or state.step != 30:
        problems.append(f"ran {state.step} of {result.n_steps} steps, expected 30")
    if not (np.isfinite(state.a).all() and np.isfinite(state.adot).all()
            and np.isfinite(state.addot).all()):
        problems.append("non-finite final state")
    strike = mb.build_case(3, mesh, cfg["T"], speed=cfg["case"]["speed"])
    v = state.adot.reshape(-1, 3)
    if not np.array_equal(v[strike.node], np.asarray(strike.v_fix)):
        problems.append(f"strike velocity {v[strike.node]} != v_fix {strike.v_fix}")
    border = mb.boundary_nodes(mesh)
    if np.any(v[border] != 0.0):
        problems.append("a border node moved")
    norms = {
        "a_l2": float(np.linalg.norm(state.a)),
        "adot_l2": float(np.linalg.norm(state.adot)),
    }
    return problems, norms


def aniso_corrupt(cfg: dict, result, workdir: Path) -> None:
    result.final_state.adot[-1] = 1e-300


# ----------------------------------------------------------------------- output

OUTPUT_STEPS = 120
OUTPUT_EVERY = 4


def output_inputs(seed: int, small: bool) -> dict:
    fb, fe = _factors(seed, 2)
    n = 8 if small else 64
    steps = 12 if small else OUTPUT_STEPS
    tau = 1.0e-6
    return {
        "mesh": {"Lx": 1.0, "Ly": 1.0, "nx": n, "ny": n},
        "material": {"type": "isotropic", "E": 2.0e9 * float(fe), "nu": 0.3,
                     "rho": 1200.0, "h": 1.0e-3},
        "case": {"id": 5, "b0": 1.0e6 * float(fb), "support_radius": math.pi / 2},
        "border": "free",
        "T": steps * tau,
        "tau": tau,
        "output": {"every_n_steps": OUTPUT_EVERY},
    }


def output_call(cfg: dict, workdir: Path):
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return membrane.cli.main(["run", str(path), "--out", str(workdir / "out")])


def _header_and_rows(path: Path) -> tuple[str, int]:
    text = path.read_text(encoding="utf-8")
    return text[: text.find("\n")], text.count("\n") - 1


def output_check(cfg: dict, exit_code, workdir: Path):
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    n = cfg["mesh"]["nx"]
    n_nodes, n_tri = (n + 1) ** 2, 2 * n * n
    steps = round(cfg["T"] / cfg["tau"])
    snaps = steps // OUTPUT_EVERY + 1
    out = workdir / "out"
    n_files = len(list(out.iterdir()))
    problems = []
    if n_files != 3 * snaps + 1:
        problems.append(f"{n_files} files, expected {3 * snaps + 1}")
    for p in sorted(out.glob("*.csv")):
        want = (CSV_HEADER, n_nodes) if p.name.startswith("snapshot") else (
            ELEMENT_CSV_HEADER, n_tri)
        if _header_and_rows(p) != want:
            problems.append(f"{p.name}: header or row count wrong")
    last = out / f"snapshot_{steps:06d}.csv"
    if not last.exists():
        return problems + [f"missing {last.name}"], {}
    rows = np.loadtxt(last, delimiter=",", skiprows=1, ndmin=2)
    w = rows[:, 6].reshape(n + 1, n + 1)  # node id = j*(n+1) + i
    peak = float(np.abs(w).max())
    asym = float(np.abs(w - w.T).max())
    if not peak > 0.0 or asym > 1e-9 * peak:
        problems.append(f"w not mirror-symmetric about the diagonal ({asym:.3e} of {peak:.3e})")
    norms = {"w_l2": float(np.linalg.norm(w)), "vmag_l2": float(np.linalg.norm(rows[:, 10]))}
    return problems, norms


def output_corrupt(cfg: dict, exit_code, workdir: Path) -> None:
    next((workdir / "out").glob("elements_*.csv")).unlink()


# ------------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int, bool], dict]
    call: Callable[[dict, Path], object]
    check: Callable[[dict, object, Path], tuple[list, dict]]
    corrupt: Callable[[dict, object, Path], None]


WORKLOADS = {
    "study_case1": Workload(study_inputs, study_call, study_check, study_corrupt),
    "run_aniso_160": Workload(aniso_inputs, aniso_call, aniso_check, aniso_corrupt),
    "run_output_64": Workload(output_inputs, output_call, output_check, output_corrupt),
}
