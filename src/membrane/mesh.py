"""Triangulated rectangular membranes and mesh utilities.

The reference (undeformed) configuration lives in the x0-y0 plane.  A
mesh is a flat array of node coordinates plus integer triangles; all
structured grids split every rectangle along the same diagonal, from
the lower-left corner to the upper-right one, so a refined grid
reproduces the coarse nodes bitwise and mirror symmetry about that
diagonal is exact.

Node ids on a structured grid are row-major: id(i, j) = j*(nx+1) + i.
Rectangle (i, j) owns triangles 2*(j*nx + i) (below the diagonal) and
2*(j*nx + i) + 1 (above it), both counter-clockwise.
"""
from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix

from .errors import MeshError

__all__ = [
    "StructuredSpec",
    "Mesh",
    "generate_structured",
    "refine",
    "read_msh",
    "nearest_node",
    "central_element_pair",
    "boundary_nodes",
]

# most nodes one mesh may have; more is a typo (at the 3.9 kB per degree of
# freedom a 160x160 anisotropic run peaks at, 10**7 nodes need 120 GB)
MAX_NODES = 10**7


@dataclass(frozen=True)
class StructuredSpec:
    """Recipe for a structured triangulation of a rectangle.

    Parameters
    ----------
    Lx, Ly : float
        Side lengths of the rectangle, must be positive and finite.
    nx, ny : int
        Number of rectangular cells along each side, integers, at least
        1.  Each cell is split into two triangles along its lower-left
        to upper-right diagonal (fixed orientation for the whole grid).
        The grid may have at most MAX_NODES nodes.
    """

    Lx: float
    Ly: float
    nx: int
    ny: int

    def __post_init__(self):
        if not all(isinstance(s, numbers.Real) and 0.0 < s < np.inf for s in (self.Lx, self.Ly)):
            raise MeshError(f"side lengths must be positive and finite, got {self.Lx!r} x {self.Ly!r}")
        if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 1
                   for c in (self.nx, self.ny)):
            raise MeshError(f"cell counts must be integers >= 1, got {self.nx} x {self.ny}")
        if self.n_nodes > MAX_NODES:
            raise MeshError(f"{self.nx} x {self.ny} cells exceed the node limit {MAX_NODES:.0e}")

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    def rect_triangles(self, i: int, j: int) -> tuple[int, int]:
        """Triangle ids (below-diagonal, above-diagonal) of cell (i, j)."""
        r = j * self.nx + i
        return 2 * r, 2 * r + 1


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangle mesh of the reference plane, checked when it is made.

    Attributes
    ----------
    nodes : ndarray, shape (n_nodes, 2)
        Finite reference coordinates (x0, y0) per node.
    triangles : ndarray, shape (n_triangles, 3)
        Integer vertex ids per triangle, in range and distinct; areas and
        edge lengths inside the float range; areas positive (CCW) above roundoff.
    structure : StructuredSpec or None
        Present when the mesh came from `generate_structured`; required
        by operations that need grid metadata (central element pair,
        refinement studies).

    A failed check raises MeshError; a mesh with no triangles gets no
    geometry check, and `validate` adds a file's checks.  The arrays are
    read-only, and meshes compare and hash by value.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    structure: StructuredSpec | None = None

    def __post_init__(self):
        for name, dtype in (("nodes", float), ("triangles", None)):
            a = np.asarray(getattr(self, name), dtype=dtype)
            if a.flags.writeable:  # a read-only array is shared, any other copied
                a = a.copy()
                a.flags.writeable = False
            object.__setattr__(self, name, a)
        nodes, t = self.nodes, self.triangles
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise MeshError(f"nodes must be (n, 2), got {nodes.shape}")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshError(f"triangles must be (m, 3), got {t.shape}")
        if t.dtype.kind not in "iu":
            raise MeshError(f"triangle vertex ids must be integers, got {t.dtype}")
        _require_finite(nodes)
        if t.size == 0:
            return
        if t.min() < 0 or t.max() >= self.n_nodes:
            raise MeshError("triangle vertex id out of range")
        if ((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])).any():
            raise MeshError("triangle with repeated vertex ids")
        s2 = self.signed_doubled_areas()
        # scale-aware degeneracy cutoff: doubled area of a healthy triangle
        # is O(edge^2); anything at roundoff level counts as degenerate
        max_edge_sq = float(self._squared_edge_lengths().max())
        if not (np.isfinite(s2).all() and np.isfinite(max_edge_sq)):
            raise MeshError("node coordinates out of range: triangle areas or edge lengths "
                            f"overflow (largest |coordinate| {float(np.abs(nodes).max()):.3g})")
        bad = np.nonzero(s2 <= 1e-14 * max_edge_sq)[0]
        if bad.size:
            raise MeshError(f"triangle {int(bad[0])} degenerate or clockwise "
                            f"(doubled signed area {s2[bad[0]]:.3e})")

    def __eq__(self, other):
        return isinstance(other, Mesh) and self.structure == other.structure and (
            np.array_equal(self.nodes, other.nodes) and np.array_equal(self.triangles, other.triangles))

    def __hash__(self):
        # -0.0 + 0.0 is 0.0 and every id is widened, so equal meshes hash equal
        return hash((self.structure, (self.nodes + 0.0).tobytes(), self.triangles.astype(np.int64).tobytes()))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def triangle_coords(self) -> np.ndarray:
        """Vertex coordinates of every triangle, shape (m, 3, 2)."""
        return self.nodes[self.triangles]

    def signed_doubled_areas(self) -> np.ndarray:
        """Per-triangle doubled signed area (positive for CCW), by `_doubled_areas`."""
        return _doubled_areas(self.triangle_coords())

    def areas(self) -> np.ndarray:
        return 0.5 * self.signed_doubled_areas()

    def centroids(self) -> np.ndarray:
        return self.triangle_coords().mean(axis=1)

    def edges(self) -> np.ndarray:
        """All triangle edges as sorted node-id pairs, shape (3*n_tri, 2)."""
        t = self.triangles
        a, b = t.T.ravel(), t[:, [1, 2, 0]].T.ravel()
        return np.column_stack([np.minimum(a, b), np.maximum(a, b)])

    def _squared_edge_lengths(self) -> np.ndarray:
        """Squared length of every triangle edge, shape (m, 3).

        Edge k of a triangle runs from its vertex k to vertex k+1 (mod 3).
        Coordinates too large for the float range give inf or nan
        silently; such a mesh is rejected when it is made.
        """
        p = self.triangle_coords()
        with np.errstate(over="ignore", invalid="ignore"):
            d = p[:, [1, 2, 0]] - p
            return (d * d).sum(axis=2)

    def min_edge_length(self) -> float:
        return float(np.sqrt(self._squared_edge_lengths().min()))

    def extent(self) -> tuple[float, float, float, float]:
        """Bounding box (xmin, xmax, ymin, ymax)."""
        lo = self.nodes.min(axis=0)
        hi = self.nodes.max(axis=0)
        return float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1])

    def validate(self) -> None:
        """The checks `read_msh` adds for a file, raising MeshError on the
        first: at least one triangle, no duplicate triangles (in any vertex
        order), and edge-connectivity of the whole node set.
        """
        if self.n_triangles == 0:
            raise MeshError("mesh has no triangles")
        key = np.sort(self.triangles, axis=1)
        key = key[np.lexsort(key.T[::-1])]
        if (key[1:] == key[:-1]).all(axis=1).any():
            raise MeshError("duplicate triangles")
        # imported here: only a mesh from outside the program needs the
        # check, and the module adds about 1 MB to every run's memory
        from scipy.sparse.csgraph import connected_components
        # edge-connectivity over the node graph; also catches orphan nodes
        # (repeated edges only sum into the same adjacency entry)
        n, e = self.n_nodes, self.edges()
        adj = coo_matrix((np.ones(e.shape[0]), (e[:, 0], e[:, 1])), shape=(n, n))
        ncomp, _ = connected_components(adj, directed=False)
        if ncomp != 1:
            raise MeshError(f"mesh is not edge-connected ({ncomp} components)")


def _doubled_areas(p: np.ndarray) -> np.ndarray:
    """Doubled signed areas x0(y1-y2) + x1(y2-y0) + x2(y0-y1) of vertex
    coordinates p (m, 3, 2), as the tests' `shape_coefficients`
    (tests/reference_element.py).  Every area in the package comes from
    here; an overflow gives inf or nan silently, and a Mesh rejects it.
    """
    x, y = p[:, :, 0], p[:, :, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        return x[:, 0] * (y[:, 1] - y[:, 2]) + x[:, 1] * (y[:, 2] - y[:, 0]) + x[:, 2] * (y[:, 0] - y[:, 1])


def _require_finite(nodes: np.ndarray) -> None:
    if not np.isfinite(nodes).all():  # one pass over the whole array; rows only on failure
        bad = ~np.isfinite(nodes).all(axis=1)
        raise MeshError(f"node coordinates must be finite, got {nodes[bad][0].tolist()}")


def generate_structured(spec: StructuredSpec) -> Mesh:
    """Triangulate a rectangle per `spec`.

    Every cell is split along its lower-left to upper-right diagonal.
    Node coordinates are computed as (i*Lx)/nx so that a doubled grid
    reproduces the coarse nodes bitwise (refinement subset property).
    Of the mesh's own checks, only those of its coordinates can fail.
    """
    nx, ny = spec.nx, spec.ny
    with np.errstate(over="ignore"):  # i*Lx past the float range is inf, rejected below
        xs = np.arange(nx + 1, dtype=float) * spec.Lx / nx
        ys = np.arange(ny + 1, dtype=float) * spec.Ly / ny
    gx, gy = np.meshgrid(xs, ys)  # row-major: node id = j*(nx+1) + i
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    i, j = np.meshgrid(np.arange(nx), np.arange(ny))
    i = i.ravel()
    j = j.ravel()
    ll = j * (nx + 1) + i
    lr = ll + 1
    ul = ll + (nx + 1)
    ur = ul + 1
    lower = np.column_stack([ll, lr, ur])  # below the diagonal
    upper = np.column_stack([ll, ur, ul])  # above the diagonal
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    return Mesh(nodes=nodes, triangles=triangles, structure=spec)


def refine(spec: StructuredSpec) -> StructuredSpec:
    """One refinement level: split every rectangle into four."""
    return StructuredSpec(spec.Lx, spec.Ly, 2 * spec.nx, 2 * spec.ny)


def nearest_node(mesh: Mesh, point) -> int:
    """Id of the node closest to `point`; ties go to the smallest id."""
    p = np.asarray(point, dtype=float)
    d = mesh.nodes - p
    return int(np.argmin((d * d).sum(axis=1)))


def central_element_pair(mesh: Mesh) -> tuple[int, int]:
    """The two triangles of the grid cell at index (nx//2, ny//2).

    This is the cell containing the domain center; on even grids, where
    the center is itself a node, the cell touching it from the upper
    right is picked.  Both choices keep the pair symmetric about the
    split diagonal.  Requires structured metadata.
    """
    if mesh.structure is None:
        raise MeshError("central element pair requires structured metadata")
    s = mesh.structure
    return s.rect_triangles(s.nx // 2, s.ny // 2)


def boundary_nodes(mesh: Mesh) -> np.ndarray:
    """Sorted ids of nodes lying on edges owned by exactly one triangle."""
    e = mesh.edges()
    n = mesh.n_nodes
    key, counts = np.unique(e[:, 0].astype(np.int64) * n + e[:, 1], return_counts=True)
    once = key[counts == 1]
    return np.unique(np.concatenate([once // n, once % n])).astype(e.dtype, copy=False)


def read_msh(source) -> Mesh:
    """Read a planar triangle mesh from MSH version 2.2 ASCII text.

    Parameters
    ----------
    source : str, os.PathLike, or text file object
        Path to a .msh file (read as UTF-8), or an open text stream.

    The text is read whole, then parsed in one pass over its sections.
    Only the $MeshFormat, $Nodes and $Elements sections are consumed;
    any other section is skipped up to its $End line.  Triangles
    (element type 2) are imported; line (1) and point (15) elements are
    skipped; any other type is rejected.  Node ids are remapped to dense
    0-based ids in file order.  Nodes must be planar: |z| < 1e-9 times
    the larger in-plane extent.  Triangles arriving clockwise are
    reordered counter-clockwise before the mesh is made, and the mesh
    then also gets the checks of `Mesh.validate`.  A node count above
    MAX_NODES is rejected before any node line is parsed, and a block's
    lines are parsed one at a time, so a count larger than the file
    fails at its first bad line.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as f:
            return read_msh(f)
    try:
        text = source.read()
    except UnicodeDecodeError as exc:
        raise MeshError(f"MSH file is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    # the non-blank lines, stripped, with their 1-based line numbers
    numbered = ((k, ln) for k, raw in enumerate(text.splitlines(), 1) if (ln := raw.strip()))

    def fail(msg, lineno):
        raise MeshError(f"MSH parse error at line {lineno}: {msg}")

    def take():
        try:
            return next(numbered)
        except StopIteration:
            raise MeshError("MSH parse error: unexpected end of file") from None

    def close(name):
        lineno, ln = take()
        if ln != "$End" + name:
            fail(f"missing $End{name}", lineno)

    def block(kind):
        """The lines of a counted $Nodes or $Elements block, one at a time."""
        lineno, ln = take()
        try:
            count = int(ln)
        except ValueError:
            fail(f"bad {kind} count {ln!r}", lineno)
        if kind == "node" and count > MAX_NODES:
            fail(f"{count} nodes exceed the node limit {MAX_NODES:.0e}", lineno)
        for _ in range(count):
            yield take()

    raw_ids: list[int] = []
    coords: list[tuple[float, float, float]] = []
    tris_raw: list[list[int]] = []
    seen = set()

    for hline, header in numbered:
        if not header.startswith("$"):
            fail(f"expected section header, got {header!r}", hline)
        name = header[1:]
        if name == "MeshFormat":
            lineno, ln = take()
            parts = ln.split()
            if len(parts) != 3:
                fail("malformed $MeshFormat line", lineno)
            if parts[0] != "2.2":
                fail(f"unsupported MSH version {parts[0]} (need 2.2)", lineno)
            if parts[1] != "0":
                fail("binary MSH files are not supported", lineno)
        elif name == "Nodes":
            for lineno, ln in block("node"):
                try:
                    nid, x, y, z = ln.split()
                    raw_ids.append(int(nid))
                    coords.append((float(x), float(y), float(z)))
                except ValueError:
                    fail(f"bad node line {ln!r}", lineno)
        elif name == "Elements":
            for lineno, ln in block("element"):
                parts = ln.split()
                try:  # the element id and tags are not read
                    etype, ntags = int(parts[1]), int(parts[2])
                    rest = [int(v) for v in parts[3 + ntags:]]
                except (IndexError, ValueError):
                    fail(f"bad element line {ln!r}", lineno)
                if etype == 2:
                    if len(rest) != 3:
                        fail(f"triangle needs 3 vertex ids, got {rest}", lineno)
                    tris_raw.append(rest)
                elif etype not in (1, 15):  # boundary lines and points carry no area
                    fail(f"unsupported element type {etype}", lineno)
        else:
            # unknown sections ($PhysicalNames etc.) are skipped verbatim
            while take()[1] != "$End" + name:
                pass
            continue
        close(name)
        seen.add(name)

    if not {"Nodes", "Elements"} <= seen:
        raise MeshError("MSH parse error: missing $Nodes or $Elements section")
    if not coords:
        raise MeshError("MSH file has no nodes")

    arr = np.asarray(coords, dtype=float)
    _require_finite(arr)
    with np.errstate(over="ignore"):  # an extent past the float range is inf; Mesh rejects it
        ext = np.ptp(arr[:, :2], axis=0).max()
    scale = ext if ext > 0 else 1.0
    zmax = float(np.abs(arr[:, 2]).max())
    if zmax >= 1e-9 * scale:
        raise MeshError(
            f"mesh is not planar: |z| up to {zmax:.3e} (limit {1e-9 * scale:.3e})"
        )

    idmap: dict[int, int] = {}
    for k, nid in enumerate(raw_ids):
        if idmap.setdefault(nid, k) != k:
            raise MeshError(f"duplicate node id {nid}")
    try:
        tris = np.asarray(
            [[idmap[a], idmap[b], idmap[c]] for a, b, c in tris_raw], dtype=np.int64
        )
    except KeyError as exc:
        raise MeshError(f"triangle references unknown node id {exc.args[0]}") from exc
    if tris.size == 0:
        raise MeshError("MSH file has no triangles")

    # orient every triangle counter-clockwise before the mesh checks it
    flip = _doubled_areas(arr[tris, :2]) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    mesh = Mesh(nodes=arr[:, :2], triangles=tris)
    mesh.validate()
    return mesh
