"""File writers: snapshot CSV, per-element CSV, legacy VTK, study CSV.

Every float is written as ``%.17g``: 17 significant digits, so files
round-trip through float64 exactly, with -0, inf and nan kept.  Their
bytes are reproducible on one machine and OpenBLAS kernel, not across
machines.  Writers never mutate the state they are given.

The snapshot writers format float columns with one numpy kernel,
`membrane._format.records`, a block of `_BLOCK_ROWS` rows at a time;
it gives the bytes of ``format(x, ".17g")`` for every value, in fixed
records with zero bytes among the text, and one boolean mask per block
drops those bytes.

Each value is formatted once.  Text a run repeats at every snapshot is
held by one `MeshText` and formatted at its first use: the "i,x0,y0"
head of each node CSV row, the element ids, the VTK ``CELLS`` block and
the "x0 y0" of each VTK point (used while the in-plane displacement
leaves every point where it was).  The w and vmag columns a snapshot's
node CSV and VTK share are formatted once per state, and released once
the VTK is written.  Within a block of rows (within a state, for w and
vmag), a column whose values all have the same bits (a held in-plane
field's zeros) is formatted once, as a literal: its bytes are those of
each value formatted alone, so where it is decided changes no byte.

The element strains come from `assembly.strain_operator`, built by the
`MeshText` at the first snapshot that needs it as one CSR operator per
block of `_BLOCK_ROWS` triangles: S_w, its (yz, xz) rows over the w
dofs, while every u and v is zero, and the full S otherwise.  A run
that writes nothing builds neither.  The element CSV is made in one
pass over these blocks: each block's strains, stresses, flags and text
together, with its literal columns decided within the block.
"""
from __future__ import annotations

import json
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from .assembly import strain_operator
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


# rows per kernel call: large enough that numpy's per-call cost is small,
# small enough that a block's temporaries (about 300 bytes per formatted
# value) stay small
_BLOCK_ROWS = 1024


def _spans(n: int):
    """(start, stop) of each block of `_BLOCK_ROWS` rows out of `n`.

    A last block of one row joins the block before it: numpy multiplies
    a single row by a matrix through BLAS gemv, whose bits can differ
    from those the same row gets inside a gemm, as in the stresses.
    """
    starts = list(range(0, n, _BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _blocks(parts, n: int):
    """The text of `n` rows, each the concatenation of `parts`, as one
    uint8 array per block of `_BLOCK_ROWS` rows, zero bytes to be dropped.

    A part is a `bytes` literal, an (n, w) uint8 array of per-row text,
    or a float column, written as ``%.17g``.  A float column whose
    values in a block all have the same bits (so -0.0 differs from 0.0)
    is formatted once there, as a literal.
    """
    # imported here, at the first write: where no bytecode is cached,
    # compiling the kernel at import would add about 0.2 MB to the peak
    # memory of runs that write no snapshot
    from ._format import records

    floats = [isinstance(p, np.ndarray) and p.ndim == 1 for p in parts]
    for start, stop in _spans(n):
        # the block's float columns as rows, (k, rows) also for k = 0
        values = np.array([p[start:stop] for p, f in zip(parts, floats) if f]).reshape(-1, stop - start)
        bits = values.view(np.uint64)
        same = bits.min(axis=1) == bits.max(axis=1)
        if not same.all():
            formatted = iter(records(values[~same].ravel()).reshape(-1, stop - start, 32))
        # each float column's literal, or None where it varies
        text = iter([_g17(x).encode() if c else None for x, c in zip(values[:, 0].tolist(), same)])
        spec = []
        for p, f in zip(parts, floats):
            if f:
                p = next(text)
            if isinstance(p, bytes) and spec and isinstance(spec[-1], bytes):
                spec[-1] += p
            else:
                spec.append(p)
        widths = [len(p) if isinstance(p, bytes) else 32 if p is None else p.shape[1] for p in spec]
        edges = list(accumulate(widths, initial=0))
        block = np.empty((stop - start, edges[-1]), np.uint8)
        for p, left, right in zip(spec, edges[:-1], edges[1:]):
            if isinstance(p, bytes):
                block[:, left:right] = np.frombuffer(p, np.uint8)
            else:
                block[:, left:right] = next(formatted) if p is None else p[start:stop]
        yield block


def _column(x: np.ndarray):
    """The text of float column `x` as a `_blocks` part: a literal when
    all its values have the same bits, else (n, 32) uint8 rows with zero
    bytes to be dropped."""
    from ._format import records

    bits = x.view(np.uint64)
    if (bits == bits[0]).all():
        return _g17(x[0]).encode()
    return np.concatenate([records(x[start:stop]) for start, stop in _spans(len(x))])


def _packed(parts, n: int) -> np.ndarray:
    """The rows of `_blocks(parts, n)` without their zero bytes, each at
    the start of its row of an array as wide as the longest."""
    blocks = list(_blocks(parts, n))
    length = np.concatenate([(b != 0).sum(axis=1) for b in blocks])
    out = np.zeros((n, length.max()), np.uint8)
    out[np.arange(out.shape[1]) < length[:, None]] = np.concatenate([b[b != 0] for b in blocks])
    return out


class MeshText:
    """The text every snapshot of a run repeats, formatted on first use.

    Build one `MeshText` per run and hand it to every writer call.  It
    builds nothing up front: each text and strain operator is made at
    the first snapshot that needs it, and kept for the rest of the run.
    The strain operators are lists of CSR blocks, one per `_BLOCK_ROWS`
    triangles, so building one lays out a block's entries at a time,
    never the whole mesh's.  It also holds the w and vmag text of one
    state (`columns`) from its node CSV to its VTK.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self._held = None  # (state, its (w, vmag) text)

    def _operator(self, w_only: bool) -> list:
        """`assembly.strain_operator` of each block of triangles, in order."""
        nodes, tri = self.mesh.nodes, self.mesh.triangles
        return [strain_operator(Mesh(nodes, tri[start:stop]), w_only)[1]
                for start, stop in _spans(len(tri))]

    @cached_property
    def strain(self) -> list:
        """S, the mesh's full strain operator, in blocks of rows."""
        return self._operator(w_only=False)

    @cached_property
    def strain_w(self) -> list:
        """S_w, the (yz, xz) rows of S over the w dofs, in blocks of rows."""
        return self._operator(w_only=True)

    def strains(self, state: State):
        """Each element's strain S a, one (rows, 6) array per block of
        `_spans`; while every u and v is zero, S_w w in columns 4-5 of
        zeros.

        Then S's rows xx, yy and xy sum to +0.0 (each row sum starts at
        +0.0, so -0.0 terms add nothing), its zz row stores nothing, and
        its rows yz and xz hold S_w's entries in S_w's stored order: the
        other four columns are +0.0.  Each row is summed alone, so the
        blocks give the whole operator's bits.
        """
        a = state.a.reshape(-1, 3)
        if a[:, :2].any():
            for s in self.strain:
                yield (s @ state.a).reshape(-1, 6)
            return
        w = np.ascontiguousarray(a[:, 2])
        for s in self.strain_w:
            eps = np.zeros((s.shape[0] // 2, 6))
            eps[:, 4:] = (s @ w).reshape(-1, 2)
            yield eps

    def columns(self, state: State, keep: bool):
        """The text of `state`'s w and vmag columns, as `_column` parts.

        They are formatted once per state, held by reference (never by
        `id`, which a later state can reuse): the node CSV keeps them
        for the VTK, which releases them.
        """
        held = self._held
        if held is None or held[0] is not state:
            held = (state, (_column(state.a[2::3]), _column(_speed(state))))
        self._held = held if keep else None
        return held[1]

    @cached_property
    def node_heads(self) -> np.ndarray:
        """The "i,x0,y0" head of each node's CSV row, one per row."""
        x, y = self.mesh.nodes.T
        return _packed((np.arange(len(x), dtype=float), b",", x, b",", y), len(x))

    @cached_property
    def element_ids(self) -> np.ndarray:
        """The id of each element's CSV row, one per row."""
        m = self.mesh.n_triangles
        return _packed((np.arange(m, dtype=float),), m)

    @cached_property
    def cells(self) -> bytes:
        """The VTK ``CELLS`` block, its header line first."""
        m = self.mesh.n_triangles
        a, b, c = self.mesh.triangles.T.astype(float)
        body = _blocks((b"3 ", a, b" ", b, b" ", c, b"\n"), m)
        return f"CELLS {m} {4 * m}\n".encode() + b"".join(t[t != 0].tobytes() for t in body)

    @cached_property
    def points(self) -> np.ndarray:
        """The "x0 y0" of each node's VTK point, one per row."""
        x, y = self.mesh.nodes.T
        return _packed((x, b" ", y), len(x))


def _speed(state: State) -> np.ndarray:
    """Euclidean norm of each node's velocity (vx, vy, vz)."""
    v = state.adot.reshape(-1, 3)
    # a component past about 1e154 squares to inf and vmag is written as
    # inf, as it always was; that overflow is expected, so it is silent
    with np.errstate(over="ignore"):
        return np.sqrt((v * v).sum(axis=1))


def _write(path, parts) -> None:
    """Write `parts` in order: `bytes`, or blocks from `_blocks`."""
    with open(path, "wb") as f:
        for part in parts:
            f.write(part if isinstance(part, bytes) else part[part != 0])


def _row(lead: bytes, head: np.ndarray, columns) -> list:
    """The parts of a CSV row: `lead`, `head`, then each column after a comma."""
    return [lead, head, *chain.from_iterable((b",", c) for c in columns), b"\n"]


def write_snapshot_csv(path, text: MeshText, state: State) -> None:
    """One row per node: reference position, displacement, velocity.

    vmag is the Euclidean norm of (vx, vy, vz).
    """
    u, v, _ = state.a.reshape(-1, 3).T
    w, vmag = text.columns(state, keep=True)
    cols = (u, v, w, *state.adot.reshape(-1, 3).T, vmag)
    parts = _row(_g17(state.t).encode() + b",", text.node_heads, cols)
    _write(path, chain([CSV_HEADER.encode() + b"\n"], _blocks(parts, text.mesh.n_nodes)))


def write_element_csv(path, text: MeshText, material: MaterialParams, state: State) -> None:
    """One row per element: strain, stress, and threshold flags.

    A flag is 1 when any component magnitude exceeds the configured
    threshold, 0 otherwise (and always 0 without a threshold).  Each
    block of `MeshText.strains` is written as it comes, with its
    stresses D eps, its flags and its literal columns.
    """
    lead = _g17(state.t).encode() + b","
    thresholds = material.strain_threshold, material.stress_threshold

    def blocks():
        for (start, stop), eps in zip(_spans(text.mesh.n_triangles), text.strains(state)):
            sig = eps @ material.d.T
            flags = [b"0" if threshold is None else (np.abs(x) > threshold).any(axis=1).astype(float)
                     for x, threshold in zip((eps, sig), thresholds)]
            parts = _row(lead, text.element_ids[start:stop], (*eps.T, *sig.T, *flags))
            yield from _blocks(parts, stop - start)

    _write(path, chain([ELEMENT_CSV_HEADER.encode() + b"\n"], blocks()))


def write_snapshot_vtk(path, text: MeshText, state: State) -> None:
    """Legacy ASCII VTK unstructured grid of the deformed membrane.

    Points are the deformed positions (x0 + u, y0 + v, w); cells are the
    triangles; the velocity magnitude is attached as point data.
    """
    a = state.a.reshape(-1, 3)
    w, vmag = text.columns(state, keep=False)
    mesh = text.mesh
    n, m = mesh.n_nodes, mesh.n_triangles
    xy = mesh.nodes + a[:, :2]
    # compare the sums, not u and v: x0 = -0.0 plus u = +0.0 is +0.0
    if np.array_equal(xy.view(np.int64), mesh.nodes.view(np.int64)):
        points = (text.points, b" ", w, b"\n")
    else:
        points = (xy[:, 0], b" ", xy[:, 1], b" ", w, b"\n")
    _write(path, chain(
        [b"# vtk DataFile Version 3.0\nmembrane snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n",
         f"POINTS {n} double\n".encode()],
        _blocks(points, n),
        [text.cells, f"CELL_TYPES {m}\n".encode(), b"5\n" * m,
         f"POINT_DATA {n}\nSCALARS velocity_magnitude double 1\nLOOKUP_TABLE default\n".encode()],
        _blocks((vmag, b"\n"), n),
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
    _write(path, [("\n".join(lines) + "\n").encode()])


def write_run_manifest(path, manifest: dict) -> None:
    """Reproducibility record of one run (config echo, step count, timing)."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
