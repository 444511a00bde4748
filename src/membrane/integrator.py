"""Implicit Newmark time integration: the trapezoid rule.

The semi-discrete equation of motion is M a'' + K a + f = 0.  One step
of size tau with the Newmark parameters (beta1, beta2) reads

    v_bar   = a'_n + tau*(1 - beta1)*a''_n
    a_bar   = a_n + tau*a'_n + 0.5*tau^2*(1 - beta2)*a''_n
    a''_n+1 = -A^-1 (f_n+1 + K a_bar),   A = M + 0.5*tau^2*beta2*K
    a'_n+1  = v_bar + beta1*tau*a''_n+1
    a_n+1   = a_bar + 0.5*tau^2*beta2*a''_n+1

so the balance M a'' + K a + f = 0 holds exactly at t_n+1.  The scheme
is the trapezoid rule, beta1 = beta2 = 1/2: second-order accurate,
unconditionally stable, and exact in the per-step work-energy balance
(Hughes 2000, section 9.1).  A is constant while M, K, and tau are, so
it is factorized once; the factor carries its system and timestep.

Every vector spans the system's dofs (`GlobalSystem.dofs`): only w
when `scenarios.run` holds the in-plane field at rest.  Constrained
dofs are eliminated from every solve: only the block of free rows and
columns is solved, and the constrained entries of the solution are
exact zeros, so the constrained rows of K, M and f never enter a solve.
The free block of A is the only factorization.  It is symmetric
positive definite, so it takes a symmetric-mode LU: diagonal pivots
and a minimum degree ordering of A + A^T.  When the material couples w
with u or v (`GlobalSystem.coupled`), a node's three dofs share one
adjacency, so the ordering is taken on the graph of the nodes and each
node expands to its dofs (Ashcraft 1995): about a fifth less fill on a
coupled anisotropic layer.  Any other block is ordered dof by dof.

Each step forms the full right-hand side f + K a_bar and solves through
the factor's own `solve`, which reads only the free rows, so a
constrained dof that moves (a strike node) still enters them through
K_fc a_c.  No copy of K's rows is kept: the rows not solved for (the
constrained ones) are a few percent of the product, and a copy would
keep a second K alive through every step.

The one solve with M, for a''_0 at t=0, needs no factorization.
Scaled by its diagonal, every linear-triangle element mass has the
eigenvalues {1/2, 1/2, 2}, so the scaled free block of the consistent
mass has its spectrum in [1/2, 2] on any mesh (Wathen 1987).  Jacobi-
preconditioned conjugate gradients therefore reach a relative residual
of 1e-14 in about 30 iterations, whatever the mesh size or shape.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import spilu, splu

from .errors import SolverError
from .assembly import GlobalSystem
from .material import MaterialParams, max_wave_speed
from .mesh import Mesh

__all__ = [
    "NewmarkParams",
    "State",
    "NewmarkFactor",
    "default_timestep",
    "init_state",
    "factor_once",
    "step",
    "energy",
]


@dataclass(frozen=True)
class NewmarkParams:
    """Timestep of the scheme; its Newmark parameters are constants."""

    tau: float
    beta1: ClassVar[float] = 0.5
    beta2: ClassVar[float] = 0.5

    def __post_init__(self):
        if not self.tau > 0.0:
            raise SolverError(f"timestep must be positive, got {self.tau}")


@dataclass
class State:
    """Displacement, velocity, and acceleration at one instant, over the system's dofs."""

    a: np.ndarray
    adot: np.ndarray
    addot: np.ndarray
    t: float
    step: int


# The t=0 mass solve stops at ||r|| <= _MASS_RTOL*||b||.  The Jacobi-scaled
# spectrum bound predicts about 30 iterations; the cap leaves room for rounding.
_MASS_RTOL = 1e-14
_MASS_MAXITER = 100


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # numpy's pairwise sum, not BLAS: the result must not depend on the
    # BLAS thread count (study.csv is byte-identical across thread counts)
    return float((x * y).sum())


def _mass_solve(system: GlobalSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs on the free dofs by Jacobi-preconditioned CG.

    The entries of the result outside `system.free_dofs` are exact
    zeros.  A zero right-hand side returns zeros without iterating.
    The right-hand side is scaled to unit max-norm first, so the inner
    products cannot overflow.
    """
    x = np.zeros(rhs.shape[0])
    free = system.free_dofs
    diag = system.M.diagonal()[free]
    if not np.all(diag > 0.0):
        raise SolverError("mass matrix has a non-positive diagonal entry (singular?)")
    b = rhs[free]
    scale = float(np.abs(b).max(initial=0.0))
    if scale == 0.0:
        return x
    if not np.isfinite(scale):
        raise SolverError("non-finite right-hand side for the mass matrix at t=0")
    b = b / scale
    m = system.M.tocsr()[free][:, free]
    inv_diag = 1.0 / diag
    y = np.zeros_like(b)
    r = b
    z = inv_diag * r
    p = z
    rz = _dot(r, z)
    stop = (_MASS_RTOL**2) * _dot(b, b)
    for _ in range(_MASS_MAXITER):
        q = m @ p
        curvature = _dot(p, q)
        if not curvature > 0.0:
            raise SolverError("mass matrix is not positive definite (CG curvature <= 0)")
        alpha = rz / curvature
        y = y + alpha * p
        r = r - alpha * q
        if _dot(r, r) <= stop:
            x[free] = scale * y
            return x
        z = inv_diag * r
        rz_next = _dot(r, z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise SolverError(f"mass matrix solve did not converge in {_MASS_MAXITER} CG iterations")


def _node_order(block, dofs: np.ndarray) -> np.ndarray:
    """Positions of `dofs` in the minimum degree order of their nodes.

    `block` is A's CSR block over `dofs`, positions in a system over
    every dof.  Its pattern, collapsed onto the nodes `dofs // 3`, is
    ordered by SuperLU's MMD on A + A^T, read as `perm_c` from an ILU
    that drops every entry (scipy exposes no ordering alone) of a
    diagonally dominant proxy of the node graph; each node's dofs then
    follow in their own order.
    """
    nodes, local = np.unique(dofs // 3, return_inverse=True)
    to_node = csr_matrix((np.ones(dofs.size, dtype=bool), local, np.arange(dofs.size + 1)),
                         shape=(dofs.size, nodes.size))
    pattern = csr_matrix((np.ones(block.nnz, dtype=bool), block.indices, block.indptr),
                         shape=block.shape)
    graph = (to_node.T @ pattern @ to_node).astype(float)
    # -1 off the diagonal, 1 + 2*degree on it (A's diagonal is stored)
    graph.data[:] = -1.0
    proxy = graph + diags(2.0 * np.diff(graph.indptr))
    perm_c = spilu(proxy.tocsc(), drop_tol=np.inf, fill_factor=1, permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True}).perm_c
    return np.argsort(perm_c[local], kind="stable")


class _FreeBlockLU:
    """Sparse LU of the block of A = M + shift*K over the system's free dofs.

    A coupled system (`GlobalSystem.coupled`) has its free dofs reordered
    by node (`_node_order`) and factored in that order; otherwise
    SuperLU orders the dofs itself.  `ordering` names which.  A itself
    is released before SuperLU factors the block.  `solve` takes and
    returns vectors over the system's dofs; the entries outside `dofs`
    are exact zeros.  `nnz` counts the entries SuperLU stores for L and
    U, read without building either; `factored_entries` counts those of
    the block.
    """

    def __init__(self, system: GlobalSystem, shift: float):
        dofs = system.free_dofs
        block = (system.M + shift * system.K)[dofs][:, dofs]
        self.ordering, spec = "MMD_AT_PLUS_A", "MMD_AT_PLUS_A"
        if system.coupled:
            order = _node_order(block, dofs)
            dofs, block = dofs[order], block[order][:, order]
            self.ordering, spec = "MMD_AT_PLUS_A (node graph)", "NATURAL"
        self.dofs = dofs
        self.factored_entries = block.nnz
        block = block.tocsc()  # the one copy alive while SuperLU factors
        try:
            self.superlu = splu(block, permc_spec=spec, diag_pivot_thresh=0.0,
                                options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SolverError(f"factorization of A failed (singular?): {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = np.zeros(rhs.shape[0])
        x[self.dofs] = self.superlu.solve(rhs[self.dofs])
        return x

    L = property(lambda self: self.superlu.L)
    U = property(lambda self: self.superlu.U)
    nnz = property(lambda self: self.superlu.nnz)


@dataclass(frozen=True)
class NewmarkFactor:
    """LU factorization of A with the system and params it was made from."""

    lu: object
    system: GlobalSystem
    params: NewmarkParams


def default_timestep(mesh: Mesh, material: MaterialParams) -> float:
    """Shortest edge over ten times the fastest wave speed."""
    return mesh.min_edge_length() / (10.0 * max_wave_speed(material))


def init_state(system: GlobalSystem, a0=None) -> State:
    """Initial state with accelerations solved from the balance at t=0.

    a''_0 solves M a''_0 = -(K a_0 + f) on the free dofs by Jacobi-
    preconditioned conjugate gradients to a relative residual of 1e-14;
    no factorization is built (see the module docstring).  Constrained
    accelerations are exact zeros.  Velocities start at zero, constrained
    entries at the carried components of their v_fix.  `a0` and the
    state returned span the system's dofs.
    """
    n = system.ndof
    a = np.zeros(n) if a0 is None else np.asarray(a0, dtype=float).copy()
    if a.shape != (n,):
        raise SolverError(f"a0 must have shape ({n},)")
    v = np.zeros((system.mesh.n_nodes, 3))
    nodes = np.array([c.node for c in system.constraints], dtype=np.int64)
    v[nodes] = np.reshape([c.v_fix for c in system.constraints], (-1, 3))
    addot = _mass_solve(system, -(system.K @ a + system.f))
    return State(a=a, adot=v.ravel()[system.dofs], addot=addot, t=0.0, step=0)


def factor_once(system: GlobalSystem, params: NewmarkParams) -> NewmarkFactor:
    """Factorize the block of A = M + 0.5*tau^2*beta2*K over the free dofs.

    The block is symmetric positive definite, so it takes a
    symmetric-mode LU (see the module docstring).  The handle carries
    the system and params, and holds no matrix of its own beside the
    factors: each step reads K and f from the system.
    """
    lu = _FreeBlockLU(system, 0.5 * params.tau**2 * params.beta2)
    return NewmarkFactor(lu=lu, system=system, params=params)


def step(state: State, factor: NewmarkFactor) -> State:
    """Advance one Newmark step; factor.system.f must hold the load at t_n+1.

    `state` and the result span the system's dofs.  The step solves
    through `factor.lu.solve`, which leaves constrained accelerations
    at exact zero; that keeps constrained velocities bitwise constant.
    Time is computed as step*tau rather than accumulated, so snapshot
    times of a halved timestep line up bitwise with the coarser run.
    """
    system, params = factor.system, factor.params
    if state.a.shape != (system.ndof,):
        raise SolverError(f"state must span the system's {system.ndof} dofs")
    tau = params.tau
    v_bar = state.adot + tau * (1.0 - params.beta1) * state.addot
    a_bar = state.a + tau * state.adot + 0.5 * tau**2 * (1.0 - params.beta2) * state.addot
    addot = factor.lu.solve(-(system.f + system.K @ a_bar))
    if not np.all(np.isfinite(addot)):
        raise SolverError(f"non-finite acceleration at step {state.step + 1}")
    adot = v_bar + params.beta1 * tau * addot
    a = a_bar + 0.5 * tau**2 * params.beta2 * addot
    n = state.step + 1
    return State(a=a, adot=adot, addot=addot, t=n * tau, step=n)


def energy(state: State, k, m) -> tuple[float, float]:
    """Kinetic and strain energy: (0.5*a'^T M a', 0.5*a^T K a).

    `k` and `m` are the system's K and M, constrained or not.
    """
    kinetic = 0.5 * float(state.adot @ (m @ state.adot))
    strain = 0.5 * float(state.a @ (k @ state.a))
    return kinetic, strain
