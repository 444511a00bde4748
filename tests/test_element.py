"""Element kernel tests: shape functions, B, K_e, M_e, recovery."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_element import (
    ElementError,
    element_mass,
    element_stiffness,
    recover_stress_strain,
    shape_coefficients,
    shape_values,
    strain_displacement,
)

from conftest import random_triangle

coord = st.floats(-50.0, 50.0)


def _triangle_strategy():
    """Six coordinates, filtered to well-conditioned CCW triangles."""
    return st.tuples(coord, coord, coord, coord, coord, coord).filter(
        lambda t: (
            t[2] * t[5]
            - t[4] * t[3]
            + t[0] * (t[3] - t[5])
            + t[1] * (t[4] - t[2])
        )
        > 1e-3
    )


def _coords(t):
    return np.array([[t[0], t[1]], [t[2], t[3]], [t[4], t[5]]])


class TestShapeFunctions:
    @settings(max_examples=200, deadline=None)
    @given(_triangle_strategy(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_partition_of_unity(self, tri, s, t):
        coords = _coords(tri)
        # barycentric sample keeps the point inside the triangle
        if s + t > 1.0:
            s, t = 1.0 - s, 1.0 - t
        p = coords[0] + s * (coords[1] - coords[0]) + t * (coords[2] - coords[0])
        sc = shape_coefficients(coords)
        n = shape_values(sc, p[0], p[1])
        assert abs(n.sum() - 1.0) < 1e-9

    def test_kronecker_delta_at_vertices(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            coords = random_triangle(rng)
            sc = shape_coefficients(coords)
            vals = np.array([shape_values(sc, x, y) for x, y in coords])
            np.testing.assert_allclose(vals, np.eye(3), atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(_triangle_strategy(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_linear_field_reproduced(self, tri, a, b, c):
        coords = _coords(tri)
        sc = shape_coefficients(coords)
        nodal = a + b * coords[:, 0] + c * coords[:, 1]
        centroid = coords.mean(axis=0)
        interp = shape_values(sc, centroid[0], centroid[1]) @ nodal
        exact = a + b * centroid[0] + c * centroid[1]
        assert abs(interp - exact) < 1e-8 * max(1.0, abs(exact))

    def test_translation_leaves_gradients(self):
        rng = np.random.default_rng(3)
        coords = random_triangle(rng)
        sc0 = shape_coefficients(coords)
        sc1 = shape_coefficients(coords + np.array([123.0, -45.0]))
        np.testing.assert_allclose(sc1.beta, sc0.beta, rtol=1e-9)
        np.testing.assert_allclose(sc1.gamma, sc0.gamma, rtol=1e-9)

    def test_area_property(self):
        coords = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        sc = shape_coefficients(coords)
        assert sc.doubled_area == 2.0
        assert sc.area == 1.0

    def test_collinear_raises_with_id(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ElementError, match="degenerate") as exc:
            shape_coefficients(coords, element_id=17)
        assert exc.value.element_id == 17

    def test_clockwise_raises(self):
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ElementError, match="degenerate or clockwise"):
            shape_coefficients(coords)

    def test_bad_shape_raises(self):
        with pytest.raises(ElementError, match=r"\(3, 2\)"):
            shape_coefficients(np.zeros((4, 2)))


def _linear_dofs(coords, grad):
    """Nodal dof vector of the linear field (u, v, w) = grad @ (1, x, y).

    grad rows are (a_k, b_k, c_k) for components u, v, w.
    """
    a_e = np.empty(9)
    for i, (x, y) in enumerate(coords):
        a_e[3 * i : 3 * i + 3] = grad @ np.array([1.0, x, y])
    return a_e


class TestStrainDisplacement:
    def test_patch_constant_strain(self):
        # linear displacement must give the exact constant strain
        rng = np.random.default_rng(11)
        for _ in range(100):
            coords = random_triangle(rng)
            grad = rng.uniform(-1.0, 1.0, size=(3, 3))
            a_e = _linear_dofs(coords, grad)
            b = strain_displacement(shape_coefficients(coords))
            b1, c1 = grad[0, 1], grad[0, 2]
            b2, c2 = grad[1, 1], grad[1, 2]
            b3, c3 = grad[2, 1], grad[2, 2]
            exact = np.array([b1, c2, 0.0, c1 + b2, c3, b3])
            np.testing.assert_allclose(b @ a_e, exact, atol=1e-12)

    def test_zz_row_zero(self):
        rng = np.random.default_rng(2)
        b = strain_displacement(shape_coefficients(random_triangle(rng)))
        np.testing.assert_array_equal(b[2], np.zeros(9))

    def test_rigid_translation_strain_free(self):
        rng = np.random.default_rng(5)
        coords = random_triangle(rng)
        b = strain_displacement(shape_coefficients(coords))
        for k in range(3):
            t = np.zeros(9)
            t[k::3] = 1.0
            np.testing.assert_allclose(b @ t, np.zeros(6), atol=1e-14)


class TestStiffness:
    def _ke(self, coords, d, h=1e-3):
        sc = shape_coefficients(coords)
        return element_stiffness(strain_displacement(sc), d, h, sc.area)

    def test_symmetric_psd(self, steel):
        rng = np.random.default_rng(13)
        for _ in range(20):
            ke = self._ke(random_triangle(rng), steel.d)
            assert np.allclose(ke, ke.T, rtol=1e-13)
            w = np.linalg.eigvalsh(ke)
            assert w.min() > -1e-10 * w.max()

    def test_translation_nullspace(self, steel):
        rng = np.random.default_rng(17)
        coords = random_triangle(rng)
        ke = self._ke(coords, steel.d)
        scale = np.abs(ke).max()
        for k in range(3):
            t = np.zeros(9)
            t[k::3] = 1.0
            assert np.abs(ke @ t).max() < 1e-12 * scale

    def test_inplane_rotation_null(self, steel):
        rng = np.random.default_rng(19)
        coords = random_triangle(rng)
        ke = self._ke(coords, steel.d)
        rot = np.zeros(9)
        rot[0::3] = -coords[:, 1]
        rot[1::3] = coords[:, 0]
        scale = np.abs(ke).max() * max(1.0, np.abs(rot).max())
        assert np.abs(ke @ rot).max() < 1e-12 * scale

    def test_out_of_plane_rotation_not_null(self, steel):
        # w = y * theta strains the yz component: not a rigid mode here
        rng = np.random.default_rng(23)
        coords = random_triangle(rng)
        ke = self._ke(coords, steel.d)
        rot = np.zeros(9)
        rot[2::3] = coords[:, 1]
        assert np.abs(ke @ rot).max() > 1e-6 * np.abs(ke).max()

    def test_nullity_four(self, steel):
        rng = np.random.default_rng(29)
        for _ in range(10):
            ke = self._ke(random_triangle(rng), steel.d)
            w = np.linalg.eigvalsh(ke)
            null = (w < 1e-9 * w.max()).sum()
            assert null == 4

    def test_scaling_linear_in_h(self, steel):
        rng = np.random.default_rng(31)
        coords = random_triangle(rng)
        np.testing.assert_allclose(
            self._ke(coords, steel.d, h=2e-3),
            2.0 * self._ke(coords, steel.d, h=1e-3),
            rtol=1e-14,
        )


class TestMass:
    def test_pattern_exact(self):
        me = element_mass(rho=1200.0, h=1e-3, area=0.25)
        pattern = np.kron(
            np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]), np.eye(3)
        )
        np.testing.assert_array_equal(me, pattern * (1200.0 * 1e-3 * 0.25 / 12.0))

    def test_total_mass_per_direction(self):
        rho, h, area = 7800.0, 2e-3, 0.37
        me = element_mass(rho, h, area)
        for k in range(3):
            e = np.zeros(9)
            e[k::3] = 1.0
            # uniform unit motion in one direction weighs the full element
            assert abs(e @ me @ e - rho * h * area) < 1e-12 * rho * h * area

    def test_eigenvalues(self):
        rho, h, area = 1.0, 1.0, 12.0
        w = np.sort(np.linalg.eigvalsh(element_mass(rho, h, area)))
        np.testing.assert_allclose(w, [1, 1, 1, 1, 1, 1, 4, 4, 4], rtol=1e-12)

    def test_symmetric_positive(self):
        me = element_mass(1200.0, 1e-3, 0.1)
        assert np.array_equal(me, me.T)
        assert np.linalg.eigvalsh(me).min() > 0


class TestRecovery:
    def test_linear_field_exact(self, steel):
        rng = np.random.default_rng(37)
        coords = random_triangle(rng)
        grad = rng.uniform(-1.0, 1.0, size=(3, 3))
        a_e = _linear_dofs(coords, grad)
        sc = shape_coefficients(coords)
        strain, stress = recover_stress_strain(sc, steel.d, a_e)
        exact = np.array(
            [grad[0, 1], grad[1, 2], 0.0, grad[0, 2] + grad[1, 1], grad[2, 2], grad[2, 1]]
        )
        np.testing.assert_allclose(strain, exact, atol=1e-12)
        np.testing.assert_allclose(stress, steel.d @ exact, rtol=1e-12, atol=1e-6)
