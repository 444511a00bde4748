"""File writers: snapshot CSV, per-element CSV, legacy VTK, study CSV.

All floats are written with 17 significant digits so files are
bitwise-reproducible and round-trip through float64 exactly.  Writers
never mutate the state they are given.
"""
from __future__ import annotations

import json

import numpy as np

from .assembly import _triangle_geometry, element_dof_ids
from .convergence import NORMS, StudyResult
from .integrator import State
from .material import MaterialParams
from .mesh import Mesh

__all__ = [
    "CSV_HEADER",
    "ELEMENT_CSV_HEADER",
    "write_snapshot_csv",
    "write_element_csv",
    "write_snapshot_vtk",
    "write_study_csv",
    "write_run_manifest",
]

CSV_HEADER = "t,node,x0,y0,u,v,w,vx,vy,vz,vmag"
ELEMENT_CSV_HEADER = (
    "t,element,eps_xx,eps_yy,eps_zz,gamma_xy,gamma_yz,gamma_xz,"
    "sig_xx,sig_yy,sig_zz,sig_xy,sig_yz,sig_xz,strain_flag,stress_flag"
)


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def write_snapshot_csv(path, mesh: Mesh, state: State) -> None:
    """One row per node: reference position, displacement, velocity.

    vmag is the Euclidean norm of (vx, vy, vz).
    """
    a = state.a.reshape(-1, 3)
    v = state.adot.reshape(-1, 3)
    vmag = np.sqrt((v * v).sum(axis=1))
    t = _g17(state.t)
    lines = [CSV_HEADER]
    for n in range(mesh.n_nodes):
        lines.append(
            ",".join(
                [
                    t,
                    str(n),
                    _g17(mesh.nodes[n, 0]),
                    _g17(mesh.nodes[n, 1]),
                    _g17(a[n, 0]),
                    _g17(a[n, 1]),
                    _g17(a[n, 2]),
                    _g17(v[n, 0]),
                    _g17(v[n, 1]),
                    _g17(v[n, 2]),
                    _g17(vmag[n]),
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _batch_strain_stress(mesh: Mesh, material: MaterialParams, state: State):
    """Constant strain and stress per element, shapes (m, 6)."""
    _, beta, gamma = _triangle_geometry(mesh)
    vals = state.a[element_dof_ids(mesh.triangles)]
    u, v, w = vals[:, 0::3], vals[:, 1::3], vals[:, 2::3]
    eps = np.zeros((mesh.n_triangles, 6))
    eps[:, 0] = (beta * u).sum(axis=1)
    eps[:, 1] = (gamma * v).sum(axis=1)
    eps[:, 3] = (gamma * u).sum(axis=1) + (beta * v).sum(axis=1)
    eps[:, 4] = (gamma * w).sum(axis=1)
    eps[:, 5] = (beta * w).sum(axis=1)
    sig = eps @ material.d.T
    return eps, sig


def write_element_csv(path, mesh: Mesh, material: MaterialParams, state: State) -> None:
    """One row per element: strain, stress, and threshold flags.

    A flag is 1 when any component magnitude exceeds the configured
    threshold, 0 otherwise (and always 0 without a threshold).
    """
    eps, sig = _batch_strain_stress(mesh, material, state)
    sflag = (
        (np.abs(eps) > material.strain_threshold).any(axis=1).astype(int)
        if material.strain_threshold is not None
        else np.zeros(mesh.n_triangles, dtype=int)
    )
    tflag = (
        (np.abs(sig) > material.stress_threshold).any(axis=1).astype(int)
        if material.stress_threshold is not None
        else np.zeros(mesh.n_triangles, dtype=int)
    )
    t = _g17(state.t)
    lines = [ELEMENT_CSV_HEADER]
    for e in range(mesh.n_triangles):
        cells = [t, str(e)]
        cells += [_g17(v) for v in eps[e]]
        cells += [_g17(v) for v in sig[e]]
        cells += [str(sflag[e]), str(tflag[e])]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_snapshot_vtk(path, mesh: Mesh, state: State, title: str = "membrane snapshot") -> None:
    """Legacy ASCII VTK unstructured grid of the deformed membrane.

    Points are the deformed positions (x0 + u, y0 + v, w); cells are the
    triangles; the velocity magnitude is attached as point data.
    """
    a = state.a.reshape(-1, 3)
    v = state.adot.reshape(-1, 3)
    vmag = np.sqrt((v * v).sum(axis=1))
    n, m = mesh.n_nodes, mesh.n_triangles
    out = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n} double",
    ]
    for i in range(n):
        out.append(
            f"{_g17(mesh.nodes[i, 0] + a[i, 0])} "
            f"{_g17(mesh.nodes[i, 1] + a[i, 1])} "
            f"{_g17(a[i, 2])}"
        )
    out.append(f"CELLS {m} {4 * m}")
    for tri in mesh.triangles:
        out.append(f"3 {tri[0]} {tri[1]} {tri[2]}")
    out.append(f"CELL_TYPES {m}")
    out.extend(["5"] * m)
    out.append(f"POINT_DATA {n}")
    out.append("SCALARS velocity_magnitude double 1")
    out.append("LOOKUP_TABLE default")
    out.extend(_g17(x) for x in vmag)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(out) + "\n")


def write_study_csv(path, result: StudyResult) -> None:
    """Study report: per-level difference norms plus a rates block.

    The first block has one row per refinement level: the joint norms,
    their log2 (plot-ready), and the displacement/velocity breakdown.
    After a blank line a two-column block lists the fitted rate per
    norm.
    """
    header = ["level", "n_nodes", "tau"]
    header += list(NORMS)
    header += [f"log2_{w}" for w in NORMS]
    header += [f"{w}_disp" for w in NORMS]
    header += [f"{w}_vel" for w in NORMS]
    lines = [",".join(header)]
    for ld in result.diffs:
        row = [str(ld.level), str(ld.n_nodes), _g17(ld.tau)]
        row += [_g17(ld.joint[w]) for w in NORMS]
        row += [
            _g17(np.log2(ld.joint[w])) if ld.joint[w] > 0 else "-inf" for w in NORMS
        ]
        row += [_g17(ld.disp[w]) for w in NORMS]
        row += [_g17(ld.vel[w]) for w in NORMS]
        lines.append(",".join(row))
    lines.append("")
    lines.append("norm,rate")
    for w in NORMS:
        lines.append(f"{w},{_g17(result.rates[w])}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_run_manifest(path, manifest: dict) -> None:
    """Reproducibility record of one run (config echo, step count, timing)."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
