import io
import warnings

import numpy as np
import pytest
from scipy.spatial import Delaunay

import membrane as mb
from membrane.errors import MeshError
from membrane.mesh import MAX_NODES


def shoelace(coords):
    x, y = coords[:, 0], coords[:, 1]
    return 0.5 * (
        x[0] * (y[1] - y[2]) + x[1] * (y[2] - y[0]) + x[2] * (y[0] - y[1])
    )


def emit_msh(mesh):
    """Minimal MSH v2.2 ASCII writer used as a round-trip oracle."""
    out = io.StringIO()
    out.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n")
    out.write(f"{mesh.n_nodes}\n")
    for i, (x, y) in enumerate(mesh.nodes, start=1):
        out.write(f"{i} {float(x)!r} {float(y)!r} 0\n")
    out.write("$EndNodes\n$Elements\n")
    out.write(f"{len(mesh.triangles)}\n")
    for e, (a, b, c) in enumerate(mesh.triangles, start=1):
        out.write(f"{e} 2 2 0 1 {a + 1} {b + 1} {c + 1}\n")
    out.write("$EndElements\n")
    return out.getvalue()


class TestStructured:
    def test_node_count_and_corner_coords(self):
        m = mb.generate_structured(mb.StructuredSpec(2.0, 1.0, 4, 2))
        assert m.n_nodes == 5 * 3
        assert m.nodes[0].tolist() == [0.0, 0.0]
        assert m.nodes[-1].tolist() == [2.0, 1.0]

    def test_total_area_matches_domain(self, grid4):
        assert abs(grid4.areas().sum() - 1.0) < 1e-14

    def test_each_triangle_is_half_a_cell(self, grid4):
        np.testing.assert_allclose(grid4.areas(), 0.5 / 16, rtol=1e-13)

    def test_areas_agree_with_shoelace(self, grid4):
        tri_xy = grid4.nodes[grid4.triangles]
        expected = np.array([shoelace(t) for t in tri_xy])
        np.testing.assert_allclose(grid4.areas(), expected, rtol=1e-13)

    def test_all_triangles_ccw(self, grid4):
        assert (grid4.signed_doubled_areas() > 0).all()

    def test_triangle_count(self, grid4):
        assert len(grid4.triangles) == 2 * 16

    def test_boundary_node_count_is_4n(self):
        for n in (2, 3, 8):
            m = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, n, n))
            assert len(mb.boundary_nodes(m)) == 4 * n

    def test_min_edge_length(self):
        m = mb.generate_structured(mb.StructuredSpec(2.0, 3.0, 4, 3))
        assert m.min_edge_length() == pytest.approx(0.5, rel=1e-15)

    def test_validate_passes(self, grid4):
        grid4.validate()


class TestRefinement:
    def test_refine_doubles_divisions(self):
        spec = mb.StructuredSpec(1.0, 1.0, 4, 4)
        fine = mb.refine(spec)
        assert (fine.nx, fine.ny) == (8, 8)

    def test_coarse_nodes_appear_bitwise_on_fine_grid(self):
        spec = mb.StructuredSpec(1.0, 1.0, 8, 8)
        coarse = mb.generate_structured(spec)
        fine = mb.generate_structured(mb.refine(spec))
        # coarse (i, j) lands at fine (2i, 2j)
        for j in range(9):
            for i in range(9):
                cid = j * 9 + i
                fid = (2 * j) * 17 + 2 * i
                assert coarse.nodes[cid].tolist() == fine.nodes[fid].tolist()

    def test_irrational_spacing_still_bitwise(self):
        # Lx/nx not exactly representable; arange(n+1)*Lx/n keeps the
        # shared positions identical because 2k*(L/2n) = k*(L/n) in
        # floating point when n doubles.
        spec = mb.StructuredSpec(1.0 / 3.0, 1.0, 4, 4)
        coarse = mb.generate_structured(spec)
        fine = mb.generate_structured(mb.refine(spec))
        for i in range(5):
            assert coarse.nodes[i, 0] == fine.nodes[2 * i, 0]


class TestQueries:
    def test_central_element_pair_on_4x4(self, grid4):
        lo, hi = mb.central_element_pair(grid4)
        assert (lo, hi) == (20, 21)
        cell = grid4.nodes[np.unique(grid4.triangles[[lo, hi]])]
        assert cell[:, 0].min() == pytest.approx(0.5)
        assert cell[:, 0].max() == pytest.approx(0.75)

    def test_central_pair_shares_an_edge(self, grid4):
        lo, hi = mb.central_element_pair(grid4)
        shared = set(grid4.triangles[lo]) & set(grid4.triangles[hi])
        assert len(shared) == 2

    def test_central_pair_needs_structure(self, grid4):
        bare = mb.Mesh(nodes=grid4.nodes, triangles=grid4.triangles)
        with pytest.raises(MeshError):
            mb.central_element_pair(bare)

    def test_nearest_node_exact_hit(self, grid4):
        assert mb.nearest_node(grid4, (0.5, 0.5)) == 12

    def test_nearest_node_tie_breaks_to_smallest_id(self, grid4):
        # midpoint of the first edge is equidistant from nodes 0 and 1
        assert mb.nearest_node(grid4, (0.125, 0.0)) == 0


class TestValidation:
    def test_duplicate_triangle_rejected(self, grid4):
        tris = np.vstack([grid4.triangles, grid4.triangles[:1]])
        m = mb.Mesh(nodes=grid4.nodes, triangles=tris)
        with pytest.raises(MeshError):
            m.validate()

    def test_duplicate_with_rotated_vertices_rejected(self, grid4):
        tris = np.vstack([grid4.triangles, grid4.triangles[5:6, [1, 2, 0]]])
        m = mb.Mesh(nodes=grid4.nodes, triangles=tris)
        with pytest.raises(MeshError, match="^duplicate triangles$"):
            m.validate()

    def test_vertex_out_of_range_rejected(self, grid4):
        tris = grid4.triangles.copy()
        tris[0, 0] = 999
        with pytest.raises(MeshError):
            mb.Mesh(nodes=grid4.nodes, triangles=tris).validate()

    def test_repeated_vertex_rejected(self, grid4):
        tris = grid4.triangles.copy()
        tris[0, 1] = tris[0, 0]
        with pytest.raises(MeshError):
            mb.Mesh(nodes=grid4.nodes, triangles=tris).validate()

    def test_non_finite_node_rejected(self, grid4):
        nodes = grid4.nodes.copy()
        nodes[3, 1] = np.nan
        with pytest.raises(MeshError, match="^node coordinates must be finite"):
            mb.Mesh(nodes=nodes, triangles=grid4.triangles).validate()

    def test_overflowing_side_length_rejected(self):
        # i*Lx overflows to inf on the grid, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match=r"finite, got \[inf, 0.0\]"):
                mb.generate_structured(mb.StructuredSpec(1e308, 1.0, 4, 4))

    def test_disconnected_mesh_rejected(self):
        nodes = np.array(
            [[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]], dtype=float
        )
        tris = np.array([[0, 1, 2], [3, 4, 5]])
        with pytest.raises(MeshError, match="connect"):
            mb.Mesh(nodes=nodes, triangles=tris).validate()


class TestMshReader:
    def test_round_trip_preserves_geometry(self, grid4):
        text = emit_msh(grid4)
        back = mb.read_msh(io.StringIO(text))
        np.testing.assert_array_equal(back.nodes, grid4.nodes)
        np.testing.assert_array_equal(back.triangles, grid4.triangles)

    def test_round_trip_2x2(self):
        m = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 2, 2))
        back = mb.read_msh(io.StringIO(emit_msh(m)))
        np.testing.assert_array_equal(back.nodes, m.nodes)
        np.testing.assert_array_equal(back.triangles, m.triangles)

    def test_clockwise_triangles_are_flipped(self):
        text = (
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"
            "$Elements\n1\n1 2 2 0 1 1 3 2\n$EndElements\n"
        )
        m = mb.read_msh(io.StringIO(text))
        assert (m.signed_doubled_areas() > 0).all()

    def test_binary_format_rejected(self):
        text = "$MeshFormat\n2.2 1 8\n$EndMeshFormat\n"
        with pytest.raises(MeshError, match="binary"):
            mb.read_msh(io.StringIO(text))

    def test_new_format_version_rejected(self):
        text = "$MeshFormat\n4.1 0 8\n$EndMeshFormat\n"
        with pytest.raises(MeshError):
            mb.read_msh(io.StringIO(text))

    def test_unsupported_element_type_rejected(self):
        # type 3 is a quadrilateral
        text = (
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n4\n1 0 0 0\n2 1 0 0\n3 1 1 0\n4 0 1 0\n$EndNodes\n"
            "$Elements\n1\n1 3 2 0 1 1 2 3 4\n$EndElements\n"
        )
        with pytest.raises(MeshError, match="unsupported element type 3"):
            mb.read_msh(io.StringIO(text))

    def test_point_and_line_elements_skipped(self):
        text = (
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"
            "$Elements\n3\n"
            "1 15 2 0 1 1\n"
            "2 1 2 0 1 1 2\n"
            "3 2 2 0 1 1 2 3\n"
            "$EndElements\n"
        )
        m = mb.read_msh(io.StringIO(text))
        assert len(m.triangles) == 1

    def test_nonplanar_mesh_rejected(self):
        text = (
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0.5\n$EndNodes\n"
            "$Elements\n1\n1 2 2 0 1 1 2 3\n$EndElements\n"
        )
        with pytest.raises(MeshError, match="planar"):
            mb.read_msh(io.StringIO(text))

    @pytest.mark.parametrize("coord", ["inf", "nan", "1e400"])
    def test_non_finite_coordinate_rejected(self, coord):
        text = (
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            f"$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 {coord}\n$EndNodes\n"
            "$Elements\n1\n1 2 2 0 1 1 2 3\n$EndElements\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="^node coordinates must be finite"):
                mb.read_msh(io.StringIO(text))

    def test_node_count_over_ceiling_rejected_before_reading_nodes(self):
        # one node line follows a count above the ceiling: the count alone decides
        text = (
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            f"$Nodes\n{MAX_NODES + 1}\n1 0 0 0\n$EndNodes\n"
        )
        with pytest.raises(MeshError, match=r"^MSH parse error at line 5: .* node limit"):
            mb.read_msh(io.StringIO(text))

    def test_duplicate_node_id_rejected(self):
        text = (
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n3\n1 0 0 0\n1 1 0 0\n3 0 1 0\n$EndNodes\n"
            "$Elements\n1\n1 2 2 0 1 1 1 3\n$EndElements\n"
        )
        with pytest.raises(MeshError, match="duplicate"):
            mb.read_msh(io.StringIO(text))

    def test_unknown_section_skipped(self, grid4):
        text = emit_msh(grid4)
        text = text.replace(
            "$Nodes", "$PhysicalNames\n1\n2 1 \"sheet\"\n$EndPhysicalNames\n$Nodes"
        )
        back = mb.read_msh(io.StringIO(text))
        assert back.n_nodes == grid4.n_nodes


def holed_unstructured_mesh(seed=3, n=12):
    """Delaunay mesh of a jittered grid, shuffled, with a central hole."""
    rng = np.random.default_rng(seed)
    g = np.linspace(0.0, 1.0, n + 1)
    pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    inner = (pts > 0.0).all(axis=1) & (pts < 1.0).all(axis=1)
    pts[inner] += rng.uniform(-0.2, 0.2, (inner.sum(), 2)) / n
    pts = pts[rng.permutation(len(pts))]
    tris = Delaunay(pts).simplices
    keep = np.hypot(*(pts[tris].mean(axis=1) - 0.5).T) > 0.2
    used, tris = np.unique(tris[keep], return_inverse=True)
    return mb.Mesh(nodes=pts[used], triangles=tris.reshape(-1, 3))


class TestBoundaryNodes:
    def test_matches_pairwise_unique_on_unstructured_msh(self):
        m = mb.read_msh(io.StringIO(emit_msh(holed_unstructured_mesh())))
        ue, counts = np.unique(m.edges(), axis=0, return_counts=True)
        expected = np.unique(ue[counts == 1])
        got = mb.boundary_nodes(m)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
        assert got.size > 4 * 12  # outer square plus the hole's rim
