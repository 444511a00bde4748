"""Per-element reference kernels of the linear triangle.

These scalar, one-triangle-at-a-time functions are the reference the
tests compare the solver against; they live with the tests because the
package never calls them.  The solver lays out every element's B at
once, straight from the batched gradients, in one strain operator S
(`assembly.strain_operator`), whose row blocks must agree with
`strain_displacement` bitwise: K = S^T W S sums h*A*B^T D B, and S a
stacks the element strains B a_e.

Each node carries three displacement components (u, v, w): two in the
membrane plane and one transverse.  Displacements are interpolated by
the linear shape functions

    N_i(x, y) = alpha_i + beta_i*x + gamma_i*y,

whose coefficients come from the vertex coordinates alone.  Because the
material never varies through the thickness, strains carry no z
derivatives: the zz strain row is identically zero, and the strain
vector keeps the component order (xx, yy, zz, xy, yz, xz).

Element degrees of freedom are vertex-major: (u1, v1, w1, u2, v2, w2,
u3, v3, w3).  All integrands below are constant over the triangle, so
the element integrals are exact closed forms, no quadrature involved.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from membrane.errors import MembraneError

__all__ = [
    "ElementError",
    "ShapeCoeffs",
    "shape_coefficients",
    "shape_values",
    "strain_displacement",
    "element_stiffness",
    "element_mass",
    "recover_stress_strain",
]

# consistent-mass vertex pattern: integral of N_i*N_j over the triangle
# equals area/12 times this matrix
_MASS_PATTERN = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])


class ElementError(MembraneError):
    """Per-element kernel failure (degenerate geometry etc.).

    Carries the offending triangle id when known; -1 means "not tied to
    a mesh element" (stand-alone coordinate input).
    """

    def __init__(self, message: str, element_id: int = -1):
        super().__init__(message)
        self.element_id = element_id


@dataclass(frozen=True)
class ShapeCoeffs:
    """Shape-function coefficients of one triangle.

    alpha, beta, gamma are length-3 arrays (one entry per vertex);
    doubled_area is the doubled signed area, positive for a
    counter-clockwise triangle.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    doubled_area: float

    @property
    def area(self) -> float:
        return 0.5 * self.doubled_area


def shape_coefficients(coords, element_id: int = -1) -> ShapeCoeffs:
    """Compute shape coefficients from vertex coordinates.

    Parameters
    ----------
    coords : array_like, shape (3, 2)
        Vertex coordinates in counter-clockwise order.
    element_id : int
        Optional triangle id for error reporting.

    With vertices (i, j, k) cyclic, the doubled signed area is

        Se = det [[1, xi, yi], [1, xj, yj], [1, xk, yk]]

    and alpha_i = (xj*yk - xk*yj)/Se, beta_i = (yj - yk)/Se,
    gamma_i = (xk - xj)/Se.  The coefficients depend on coordinate
    differences only, so translating the triangle leaves beta and gamma
    unchanged.  Raises ElementError for degenerate or clockwise input.
    """
    p = np.asarray(coords, dtype=float)
    if p.shape != (3, 2):
        raise ElementError(f"coords must be (3, 2), got {p.shape}", element_id)
    x, y = p[:, 0], p[:, 1]
    jj = [1, 2, 0]  # cyclic successor
    kk = [2, 0, 1]  # cyclic predecessor
    se = float(
        x[0] * (y[1] - y[2]) + x[1] * (y[2] - y[0]) + x[2] * (y[0] - y[1])
    )
    edge_sq = ((p[jj] - p) ** 2).sum(axis=1).max()
    if se <= 1e-14 * edge_sq:
        raise ElementError(
            f"degenerate or clockwise triangle (doubled area {se:.3e})", element_id
        )
    alpha = (x[jj] * y[kk] - x[kk] * y[jj]) / se
    beta = (y[jj] - y[kk]) / se
    gamma = (x[kk] - x[jj]) / se
    return ShapeCoeffs(alpha=alpha, beta=beta, gamma=gamma, doubled_area=se)


def shape_values(sc: ShapeCoeffs, x: float, y: float) -> np.ndarray:
    """Evaluate the three shape functions at a point."""
    return sc.alpha + sc.beta * x + sc.gamma * y


def strain_displacement(sc: ShapeCoeffs) -> np.ndarray:
    """Strain-displacement matrix B, shape (6, 9).

    Columns group by vertex as (u_i, v_i, w_i); rows are the strain
    components (xx, yy, zz, xy, yz, xz).  Per vertex the block is

        [[beta_i, 0,      0     ],   xx
         [0,      gamma_i, 0    ],   yy
         [0,      0,      0     ],   zz (no z dependence)
         [gamma_i, beta_i, 0    ],   xy
         [0,      0,      gamma_i],  yz
         [0,      0,      beta_i ]]  xz
    """
    b = np.zeros((6, 9))
    for i in range(3):
        c = 3 * i
        b[0, c] = sc.beta[i]
        b[1, c + 1] = sc.gamma[i]
        b[3, c] = sc.gamma[i]
        b[3, c + 1] = sc.beta[i]
        b[4, c + 2] = sc.gamma[i]
        b[5, c + 2] = sc.beta[i]
    return b


def element_stiffness(b: np.ndarray, d: np.ndarray, h: float, area: float) -> np.ndarray:
    """Element stiffness h * area * B^T D B, shape (9, 9).

    Exact: the integrand is constant over the triangle.
    """
    return (h * area) * (b.T @ d @ b)


def element_mass(rho: float, h: float, area: float) -> np.ndarray:
    """Consistent element mass matrix, shape (9, 9).

    Vertex block (i, j) is rho*h*area/12 times 2 (diagonal) or 1
    (off-diagonal) times the 3x3 identity; rows sum to rho*h*area/3
    per degree of freedom and the total matches the element mass.
    """
    return np.kron(_MASS_PATTERN, np.eye(3)) * (rho * h * area / 12.0)


def recover_stress_strain(sc: ShapeCoeffs, d: np.ndarray, a_e) -> tuple[np.ndarray, np.ndarray]:
    """Constant strain and stress of one element from its nodal values.

    Returns (strain, stress), both length-6 in the (xx, yy, zz, xy, yz,
    xz) order; stress = D @ strain.
    """
    a_e = np.asarray(a_e, dtype=float)
    strain = strain_displacement(sc) @ a_e
    stress = d @ strain
    return strain, stress
