"""Global system assembly and kinematic constraints.

Node i owns degrees of freedom (3i, 3i+1, 3i+2) = (u_i, v_i, w_i).
Linear triangles have constant strain, so one sparse strain operator S
(`strain_operator`) gives both the stiffness K = S^T W S, with
W = diag(h*A_e) (x) D, and the element strains S a.
The consistent mass is M = M_s (x) I_3 for the scalar node mass M_s.

A system is a frozen value that holds no load: `update_load` returns
the load active at a time, which the integrator takes as an argument.

Constraints fix the velocity of whole nodes (all three components).
They change no matrix entry: `apply_constraints` records them, the
system reads its constrained dofs from them, and the integrator
solves only the block of free rows and columns, which is symmetric
positive definite.  The constrained accelerations are exact zeros, so
the velocity stays at its initial value exactly and the displacement
integrates it.  The free rows keep their coupling to the constrained
dofs through K and M, which stay the physical matrices.

A system spans `dofs`, the global dof ids it carries: every dof, or
only the w dofs (`assemble(..., w_only=True)`) of a run whose in-plane
field nothing drives (see `scenarios.run`).  Its K, M, dof positions
and loads all count over those ids.  A w-only system takes its K from
S's w part alone (`strain_operator(mesh, w_only=True)`).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, diags, identity, kron

from .errors import AssemblyError, ConfigError
from .material import MaterialParams
from .mesh import Mesh

__all__ = [
    "Constraint",
    "CompiledLoad",
    "GlobalSystem",
    "element_dof_ids",
    "strain_operator",
    "couples_normal",
    "assemble",
    "build_load_vector",
    "apply_constraints",
    "update_load",
]


@dataclass(frozen=True)
class Constraint:
    """Velocity constraint on one node: all components held at v_fix."""

    node: int
    v_fix: tuple[float, float, float]


@dataclass(frozen=True)
class CompiledLoad:
    """Assembled load vector active on a closed time window.

    The window test carries a 1e-9 relative tolerance: step times are
    computed as step*tau, so an edge meant to coincide with a step can
    land an ulp away, and refinement studies need every level to
    include exactly the same physical window.
    """

    vector: np.ndarray
    t_start: float
    t_end: float

    def active(self, t: float) -> bool:
        tol = 1e-9 * max(abs(self.t_start), abs(self.t_end))
        return self.t_start - tol <= t <= self.t_end + tol


@dataclass(frozen=True)
class GlobalSystem:
    """Assembled matrices of one discretized membrane.

    K and M are CSR over `dofs`, the global dof ids the system carries,
    ascending.  `coupled` records whether K couples w with u or v: the
    material does (`couples_normal`) and the system carries both.
    `constraints` holds the velocity constraints, empty until
    `apply_constraints` sets them; the constrained and free dofs are
    read from them, so they cannot disagree.
    """

    K: csr_matrix
    M: csr_matrix
    mesh: Mesh
    dofs: np.ndarray
    constraints: tuple[Constraint, ...] = ()
    coupled: bool = False

    @property
    def constrained_dofs(self) -> np.ndarray:
        """The positions, within `dofs`, of the dofs the constraints hold, in their order."""
        ids = np.asarray([3 * c.node + k for c in self.constraints for k in range(3)], dtype=np.int64)
        return np.searchsorted(self.dofs, ids[np.isin(ids, self.dofs)])

    @property
    def free_dofs(self) -> np.ndarray:
        """The positions no constraint holds, ascending."""
        free = np.ones(self.ndof, dtype=bool)
        free[self.constrained_dofs] = False
        return np.flatnonzero(free)

    @property
    def ndof(self) -> int:
        return self.dofs.size


def element_dof_ids(triangles: np.ndarray) -> np.ndarray:
    """Global dof ids per element, shape (m, 9), vertex-major order."""
    tri = np.asarray(triangles)
    reps = tri[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]]
    return 3 * reps + np.tile(np.arange(3), 3)[None, :]


def _triangle_gradients(mesh: Mesh):
    """(area, beta, gamma) per triangle, shapes (m,), (m, 3) and (m, 3).

    Shape function i of a linear triangle has the constant gradient
    (beta_i, gamma_i), the same arithmetic as the scalar
    `shape_coefficients` of the tests' reference kernels
    (tests/reference_element.py).  This is the only place the solver
    computes them; every area is positive, since a mesh rejects a
    degenerate or clockwise triangle when it is made.
    """
    p = mesh.triangle_coords()
    x, y = p[:, :, 0], p[:, :, 1]
    jj = [1, 2, 0]
    kk = [2, 0, 1]
    se = mesh.signed_doubled_areas()
    beta = (y[:, jj] - y[:, kk]) / se[:, None]
    gamma = (x[:, kk] - x[:, jj]) / se[:, None]
    return 0.5 * se, beta, gamma


# element e's 18 entries of S in stored order, rows xx, yy, xy, yz, xz (zz
# stores none): the gradient in (beta_0..2, gamma_0..2), the vertex and
# the component (u, v, w) of the dof
_GRADIENT = [0, 1, 2, 3, 4, 5, 3, 0, 4, 1, 5, 2, 3, 4, 5, 0, 1, 2]
_NODE = [0, 1, 2, 0, 1, 2, 0, 0, 1, 1, 2, 2, 0, 1, 2, 0, 1, 2]
_COMPONENT = [0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 2, 2, 2, 2, 2, 2]


def strain_operator(mesh: Mesh, w_only: bool = False):
    """(area, S): triangle areas (m,) and the CSR strain operator.

    S (6m, 3n) maps the dofs to every element's strain (xx, yy, zz, xy,
    yz, xz), so (S @ a).reshape(-1, 6) is each element's strain and
    rows 6e..6e+5 hold its B (`strain_displacement` of
    tests/reference_element.py) at its dofs.  Element e's rows store,
    in this order: xx = beta_i at u_i; yy = gamma_i at v_i; zz nothing;
    xy = (gamma_i at u_i, beta_i at v_i) for i = 0, 1, 2; yz = gamma_i
    at w_i; xz = beta_i at w_i.  With `w_only`, S_w (2m, n) holds only
    the (yz, xz) rows with the node ids as columns: S's rows 6e+4 and
    6e+5 at the w dofs.  Exact zeros (a structured grid's right
    triangles) are not stored, and the arrays hold only the entries.
    """
    area, beta, gamma = _triangle_gradients(mesh)
    m, first = mesh.n_triangles, 12 if w_only else 0  # S_w: the last 6 entries, 2 rows
    data = np.hstack([beta, gamma])[:, _GRADIENT[first:]]
    cols = mesh.triangles[:, _NODE[first:]]
    if not w_only:
        cols *= 3
        cols += _COMPONENT
    nb, ng = np.count_nonzero(beta, axis=1), np.count_nonzero(gamma, axis=1)
    counts = np.column_stack([nb, ng, np.zeros_like(nb), nb + ng, ng, nb])[:, first // 3:]
    keep = data != 0.0
    data, cols = data[keep], cols[keep]  # compact: no view of the 18m-entry layout
    shape = (2 * m, mesh.n_nodes) if w_only else (6 * m, 3 * mesh.n_nodes)
    return area, csr_matrix((data, cols, np.concatenate([[0], counts.cumsum()])), shape=shape)


def couples_normal(material: MaterialParams) -> bool:
    """Whether the material's stiffness couples w with u or v.

    B maps u and v only to the strains (xx, yy, xy) and w only to
    (yz, xz), so K couples them exactly where D does: in D's rows 0, 1
    and 3 against its columns 4 and 5.
    """
    return bool(material.d[np.ix_([0, 1, 3], [4, 5])].any())


def assemble(mesh: Mesh, material: MaterialParams, w_only: bool = False) -> GlobalSystem:
    """Assemble the global stiffness and mass of a mesh.

    K = S^T W S with S from `strain_operator` and W = diag(h*A_e) (x) D.
    With `w_only` the system carries only the w dofs: S is S_w and D
    its (yz, xz) block, and M = M_s.  Both are bitwise the w blocks of
    the full matrices when the material does not couple w with u or v.
    K and M are CSR and store no zero; K is symmetric positive
    semidefinite, M symmetric positive definite.

    Both products are CSR by CSR and W stores only D's nonzero moduli,
    so neither is copied through CSC; each entry of K sums its products
    in ascending strain row, and its column indices are then sorted.
    """
    area, s = strain_operator(mesh, w_only)
    d = material.d[4:6, 4:6] if w_only else material.d
    dofs = np.arange(2, 3 * mesh.n_nodes, 3) if w_only else np.arange(3 * mesh.n_nodes)
    k = s.T.tocsr() @ (kron(diags(material.h * area), d, format="csr") @ s)
    k.sort_indices()
    # scalar consistent mass: rho*h*A/12 * [[2, 1, 1], [1, 2, 1], [1, 1, 2]] per triangle
    tri, pairs = mesh.triangles, (mesh.n_triangles, 3, 3)
    me = (1.0 + np.eye(3)) * (material.rho * material.h * area / 12.0)[:, None, None]
    rows, cols = np.broadcast_to(tri[:, :, None], pairs), np.broadcast_to(tri[:, None, :], pairs)
    m = coo_matrix((me.ravel(), (rows.ravel(), cols.ravel())), shape=(mesh.n_nodes,) * 2).tocsr()
    if not w_only:
        m = kron(m, identity(3), format="csr")
    return GlobalSystem(K=k, M=m, mesh=mesh, dofs=dofs,
                        coupled=not w_only and couples_normal(material))


def build_load_vector(mesh: Mesh, material: MaterialParams, element_ids, b_vectors) -> np.ndarray:
    """Assembled load vector for uniform loads on selected elements.

    Parameters
    ----------
    element_ids : array_like of int
        Loaded triangles.
    b_vectors : array_like, shape (3,) or (len(element_ids), 3)
        Volumetric load per element (one shared vector or one per id).

    Each element contributes -(h*area/3)*(b, b, b) to its vertices.
    """
    ids = np.atleast_1d(np.asarray(element_ids, dtype=np.int64))
    if ids.size == 0:
        return np.zeros(3 * mesh.n_nodes)
    if ids.min() < 0 or ids.max() >= mesh.n_triangles:
        raise AssemblyError(f"load element id out of range: {ids.min()}..{ids.max()}")
    b = np.asarray(b_vectors, dtype=float)
    if b.shape == (3,):
        b = np.broadcast_to(b, (ids.size, 3))
    if b.shape != (ids.size, 3):
        raise AssemblyError(f"load vectors must be (3,) or (n, 3), got {b.shape}")
    area = mesh.areas()[ids]
    fe = -(material.h * area / 3.0)[:, None] * np.tile(b, (1, 3))
    f = np.zeros(3 * mesh.n_nodes)
    np.add.at(f, element_dof_ids(mesh.triangles[ids]).ravel(), fe.ravel())
    return f


def apply_constraints(system: GlobalSystem, constraints) -> GlobalSystem:
    """`system` with the Constraint sequence `constraints` held, as a new system.

    The result shares K and M with `system`; only `constraints`, a
    tuple, is its own, and it replaces any `system` held.  Constraining
    a node twice is a configuration error.
    """
    constraints = tuple(constraints)
    nodes = [c.node for c in constraints]
    if len(set(nodes)) != len(nodes):
        dup = sorted({n for n in nodes if nodes.count(n) > 1})
        raise ConfigError(f"duplicate constraint on node(s) {dup}")
    for c in constraints:
        if not 0 <= c.node < system.mesh.n_nodes:
            raise ConfigError(f"constraint node {c.node} out of range")
    return replace(system, constraints=constraints)


def update_load(system: GlobalSystem, t: float, loads) -> np.ndarray:
    """The sum of the CompiledLoad sequence `loads` active at time t.

    It spans the system's dofs and is stored nowhere: it is an argument
    of `integrator.init_state` and `step`.
    """
    f = np.zeros(system.ndof)
    for ld in loads:
        if ld.active(t):
            f = f + ld.vector
    return f
