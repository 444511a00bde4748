"""File writers: snapshot CSV, per-element CSV, legacy VTK, study CSV.

All floats are written with 17 significant digits so files are
bitwise-reproducible and round-trip through float64 exactly.  Writers
never mutate the state they are given.

Each value is formatted once.  Text a run repeats at every snapshot is
held by one `MeshText` and formatted at its first use: the "i,x0,y0"
head of each node CSV row, the element ids, the VTK ``CELLS`` block and
the "x0 y0" of each VTK point (used while the in-plane displacement
leaves every point where it was).  Within a block, a column whose
values all have the same bits (a held in-plane field's zeros, flags
without a threshold) is formatted once into the row template.  The
other columns are formatted chunk by chunk: one ``%`` of the template
repeated once per row turns a few hundred rows into text, which is
written before the next chunk is formatted, so the text of a whole
block is never held at once.  ``"%.17g" % x`` and ``format(x, ".17g")``
share CPython's float-to-string routine, so the bytes are those of
formatting each value on its own.
"""
from __future__ import annotations

import json
from functools import cached_property
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
    "MeshText",
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
# is negligible, small enough that a chunk's Python objects stay small
_CHUNK_ROWS = 256


def _constant(col: np.ndarray) -> bool:
    """Whether every value of `col` has the same bits (so -0.0 differs
    from 0.0, and inf and nan are kept as they are)."""
    bits = col.view(f"u{col.itemsize}")
    return bool((bits == bits[0]).all())


def _rows(prefix: str, cols, fmts, lines: list[str] | None = None):
    """One line per row of the equal-length columns `cols`: `prefix`,
    the row's line of `lines` (if given), then each column's value
    through its spec in `fmts`.

    A constant column is formatted once, into the row template; the
    others are formatted per chunk of `_CHUNK_ROWS` rows, one ``%`` call
    each.  Yields one string per chunk.  `lines` holds the chunks of an
    earlier `_rows` over the same number of rows, so ``lines[k]`` is the
    text of chunk k.  `prefix` and `lines` go into the template as they
    are, so they must hold no ``%``.
    """
    n = len(cols[0])
    rest, varying = "", []
    for col, fmt in zip(cols, fmts):
        if _constant(col):
            rest += fmt % col[0].item()
        else:
            rest += fmt
            varying.append(col)
    for k, start in enumerate(range(0, n, _CHUNK_ROWS)):
        stop = min(start + _CHUNK_ROWS, n)
        lead = "\n" * (stop - start) if lines is None else lines[k]
        template = prefix + lead[:-1].replace("\n", f"{rest}\n{prefix}") + rest + "\n"
        values = chain.from_iterable(zip(*(c[start:stop].tolist() for c in varying)))
        yield template % tuple(values)


class MeshText:
    """The text every snapshot of a run repeats, formatted on first use.

    `strain` is the mesh's `assembly.strain_operator`; build one
    `MeshText` per run and hand it to every writer call.
    """

    def __init__(self, mesh: Mesh, strain: csr_matrix):
        self.mesh = mesh
        self.strain = strain

    @cached_property
    def node_heads(self) -> list[str]:
        """The "i,x0,y0" head of each node's CSV row, in `_rows` chunks."""
        x, y = self.mesh.nodes.T
        return list(_rows("", (np.arange(len(x)), x, y), ("%d", ",%.17g", ",%.17g")))

    @cached_property
    def element_ids(self) -> list[str]:
        """The id of each element's CSV row, in `_rows` chunks."""
        return list(_rows("", (np.arange(self.mesh.n_triangles),), ("%d",)))

    @cached_property
    def cells(self) -> str:
        """The VTK ``CELLS`` block, its header line first."""
        m = self.mesh.n_triangles
        body = _rows("3 ", tuple(self.mesh.triangles.T), ("%d", " %d", " %d"))
        return f"CELLS {m} {4 * m}\n" + "".join(body)

    @cached_property
    def points(self) -> list[str]:
        """The "x0 y0" of each node's VTK point, in `_rows` chunks."""
        x, y = self.mesh.nodes.T
        return list(_rows("", (x, y), ("%.17g", " %.17g")))


def _speed(state: State) -> np.ndarray:
    """Euclidean norm of each node's velocity (vx, vy, vz)."""
    v = state.adot.reshape(-1, 3)
    # a component past about 1e154 squares to inf and vmag is written as
    # inf, as it always was; that overflow is expected, so it is silent
    with np.errstate(over="ignore"):
        return np.sqrt((v * v).sum(axis=1))


def _write(path, parts) -> None:
    """Write the strings of the iterable `parts` in order."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(parts)


def write_snapshot_csv(path, text: MeshText, state: State) -> None:
    """One row per node: reference position, displacement, velocity.

    vmag is the Euclidean norm of (vx, vy, vz).
    """
    cols = (*state.a.reshape(-1, 3).T, *state.adot.reshape(-1, 3).T, _speed(state))
    body = _rows(_g17(state.t) + ",", cols, (",%.17g",) * 7, text.node_heads)
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


def write_element_csv(path, text: MeshText, material: MaterialParams, state: State) -> None:
    """One row per element: strain, stress, and threshold flags.

    A flag is 1 when any component magnitude exceeds the configured
    threshold, 0 otherwise (and always 0 without a threshold).
    """
    eps, sig = _batch_strain_stress(text.strain, material, state)
    cols = (*eps.T, *sig.T,
            _flags(eps, material.strain_threshold), _flags(sig, material.stress_threshold))
    body = _rows(_g17(state.t) + ",", cols, (",%.17g",) * 12 + (",%d", ",%d"), text.element_ids)
    _write(path, chain([ELEMENT_CSV_HEADER + "\n"], body))


def write_snapshot_vtk(path, text: MeshText, state: State) -> None:
    """Legacy ASCII VTK unstructured grid of the deformed membrane.

    Points are the deformed positions (x0 + u, y0 + v, w); cells are the
    triangles; the velocity magnitude is attached as point data.
    """
    a = state.a.reshape(-1, 3)
    mesh = text.mesh
    n, m = mesh.n_nodes, mesh.n_triangles
    xy = mesh.nodes + a[:, :2]
    # compare the sums, not u and v: x0 = -0.0 plus u = +0.0 is +0.0
    if np.array_equal(xy.view(np.int64), mesh.nodes.view(np.int64)):
        points = _rows("", (a[:, 2],), (" %.17g",), text.points)
    else:
        points = _rows("", (*xy.T, a[:, 2]), ("%.17g", " %.17g", " %.17g"))
    _write(path, chain(
        ["# vtk DataFile Version 3.0\nmembrane snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n",
         f"POINTS {n} double\n"],
        points,
        [text.cells, f"CELL_TYPES {m}\n", "5\n" * m,
         f"POINT_DATA {n}\nSCALARS velocity_magnitude double 1\nLOOKUP_TABLE default\n"],
        _rows("", (_speed(state),), ("%.17g",)),
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
