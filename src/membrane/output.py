"""File writers: snapshot CSV, per-element CSV, legacy VTK, study CSV.

All floats are written with 17 significant digits so files are
bitwise-reproducible and round-trip through float64 exactly.  Writers
never mutate the state they are given.

A snapshot file is produced block by block: the columns of a block are
stacked into one float array, and one ``%`` format of a row template
repeated once per row turns each chunk of a few hundred rows into text,
which is written before the next chunk is formatted, so the text of a
whole block is never held at once.  ``"%.17g" % x`` and
``format(x, ".17g")`` share CPython's float-to-string routine, so the
bytes are those of formatting each value on its own.
"""
from __future__ import annotations

import json
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix

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


# rows per string from `_rows`: large enough that the per-chunk overhead
# is negligible, small enough that a chunk's Python floats stay small
_CHUNK_ROWS = 256


def _rows(prefix: str, cols, fmt: str):
    """One line per row of the stacked columns ``cols``: ``prefix``, then
    the row's values through ``fmt``.  Yields one string per chunk of
    `_CHUNK_ROWS` rows, each from a single ``%`` call."""
    block = np.column_stack(cols)
    line = prefix + fmt + "\n"
    for start in range(0, len(block), _CHUNK_ROWS):
        chunk = block[start:start + _CHUNK_ROWS]
        yield (line * len(chunk)) % tuple(chunk.ravel().tolist())


def _speed(state: State) -> np.ndarray:
    """Euclidean norm of each node's velocity (vx, vy, vz)."""
    v = state.adot.reshape(-1, 3)
    # a component past about 1e154 squares to inf and vmag is written as
    # inf, as it always was; that overflow is expected, so it is silent
    with np.errstate(over="ignore"):
        return np.sqrt((v * v).sum(axis=1))


def _write(path, parts) -> None:
    """Write the strings of the iterable ``parts`` in order."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(parts)


def write_snapshot_csv(path, mesh: Mesh, state: State) -> None:
    """One row per node: reference position, displacement, velocity.

    vmag is the Euclidean norm of (vx, vy, vz).
    """
    cols = (np.arange(mesh.n_nodes), mesh.nodes, state.a.reshape(-1, 3),
            state.adot.reshape(-1, 3), _speed(state))
    body = _rows(_g17(state.t), cols, ",%d" + ",%.17g" * 9)
    _write(path, chain([CSV_HEADER + "\n"], body))


def _batch_strain_stress(strain: csr_matrix, material: MaterialParams, state: State):
    """Strain S a and stress D S a per element, shapes (m, 6); S from
    `assembly.strain_operator`."""
    eps = (strain @ state.a).reshape(-1, 6)
    sig = eps @ material.d.T
    return eps, sig


def _flags(values: np.ndarray, threshold) -> np.ndarray:
    if threshold is None:
        return np.zeros(len(values))
    return (np.abs(values) > threshold).any(axis=1)


def write_element_csv(path, strain: csr_matrix, material: MaterialParams, state: State) -> None:
    """One row per element: strain, stress, and threshold flags.

    `strain` is the mesh's `assembly.strain_operator`, built once per run.
    A flag is 1 when any component magnitude exceeds the configured
    threshold, 0 otherwise (and always 0 without a threshold).
    """
    eps, sig = _batch_strain_stress(strain, material, state)
    cols = (np.arange(len(eps)), eps, sig,
            _flags(eps, material.strain_threshold), _flags(sig, material.stress_threshold))
    body = _rows(_g17(state.t), cols, ",%d" + ",%.17g" * 12 + ",%d,%d")
    _write(path, chain([ELEMENT_CSV_HEADER + "\n"], body))


def write_snapshot_vtk(path, mesh: Mesh, state: State, title: str = "membrane snapshot") -> None:
    """Legacy ASCII VTK unstructured grid of the deformed membrane.

    Points are the deformed positions (x0 + u, y0 + v, w); cells are the
    triangles; the velocity magnitude is attached as point data.
    """
    a = state.a.reshape(-1, 3)
    n, m = mesh.n_nodes, mesh.n_triangles
    _write(path, chain(
        [f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n",
         f"POINTS {n} double\n"],
        _rows("", (mesh.nodes + a[:, :2], a[:, 2]), "%.17g %.17g %.17g"),
        [f"CELLS {m} {4 * m}\n"],
        _rows("3 ", (mesh.triangles,), "%d %d %d"),
        [f"CELL_TYPES {m}\n", "5\n" * m,
         f"POINT_DATA {n}\nSCALARS velocity_magnitude double 1\nLOOKUP_TABLE default\n"],
        _rows("", (_speed(state),), "%.17g"),
    ))


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
    _write(path, ["\n".join(lines) + "\n"])


def write_run_manifest(path, manifest: dict) -> None:
    """Reproducibility record of one run (config echo, step count, timing)."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
