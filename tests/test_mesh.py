import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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


# side lengths log-uniform over the float range, plus its edges
SIDE = st.floats(-320.0, 308.0).map(lambda e: 10.0**e) | st.sampled_from([5e-324, 1.3e154, 1e308, 1.7e308])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(SIDE, SIDE, st.integers(1, 40), st.integers(1, 40))
def test_generated_grid_is_rejected_or_fully_valid(lx, ly, nx, ny):
    # the grid checks only its geometry; its structure must hold anyway
    try:
        mesh = mb.generate_structured(mb.StructuredSpec(lx, ly, nx, ny))
    except MeshError:
        return
    mesh.validate()


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

    @pytest.mark.parametrize("lx, ly", [(1.0, float("inf")), (float("-inf"), 1.0),
                                        (float("nan"), 1.0), (1.0, 0.0), ("x", 1.0), (1.0, "x")])
    def test_non_finite_side_length_rejected(self, lx, ly):
        # rejected by the spec itself, before numpy sees 0 * inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="^side lengths must be positive and finite"):
                mb.generate_structured(mb.StructuredSpec(lx, ly, 2, 2))

    @pytest.mark.parametrize("nx, ny", [(2.5, 2), (2, 2.0), (True, 2), ("2", 2), (2, 0)])
    def test_non_integer_cell_count_rejected(self, nx, ny):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="^cell counts must be integers >= 1"):
                mb.generate_structured(mb.StructuredSpec(1.0, 1.0, nx, ny))

    def test_numpy_integer_cell_counts_accepted(self):
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, np.int64(3), np.int32(2)))
        assert mesh.n_triangles == 12

    def test_disconnected_mesh_rejected(self):
        nodes = np.array(
            [[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]], dtype=float
        )
        tris = np.array([[0, 1, 2], [3, 4, 5]])
        with pytest.raises(MeshError, match="connect"):
            mb.Mesh(nodes=nodes, triangles=tris).validate()


def _with(array, index, value):
    """A copy of `array`, widened to hold `value`, with array[index] = value."""
    out = array.astype(np.result_type(array, value))
    out[index] = value
    return out


class TestCheckedWhenMade:
    """A hand-made mesh is checked when it is made, with `validate`'s messages."""

    @pytest.mark.parametrize("make, message", [
        # once a bare IndexError, at the first use of the nodes
        (lambda g: (g.nodes, _with(g.triangles, (0, 0), 999)), "triangle vertex id out of range"),
        (lambda g: (g.nodes, _with(g.triangles, (0, 1), 0)), "triangle with repeated vertex ids"),
        # once accepted, and failed as a bad element size under case 5
        (lambda g: (_with(g.nodes, (3, 1), np.nan), g.triangles),
         r"node coordinates must be finite, got \[0.75, nan\]"),
        # once an AssemblyError, at the first assembly
        (lambda g: (g.nodes, g.triangles[:, [0, 2, 1]]),
         r"triangle 0 degenerate or clockwise \(doubled signed area -6.250e-02\)"),
        (lambda g: (np.zeros(50), g.triangles), r"nodes must be \(n, 2\), got \(50,\)"),
        (lambda g: (g.nodes, g.triangles[:, :2]), r"triangles must be \(m, 3\), got \(32, 2\)"),
        (lambda g: (g.nodes, _with(g.triangles, (0, 0), 2.5)),
         "triangle vertex ids must be integers, got float64"),
    ], ids=["id_999", "repeated_id", "nan_node", "clockwise", "nodes_1d", "triangles_m2", "id_2_5"])
    def test_bad_mesh_rejected_when_made(self, grid4, make, message):
        nodes, triangles = make(grid4)
        with pytest.raises(MeshError, match=f"^{message}$"):
            mb.Mesh(nodes=nodes, triangles=triangles)

    def test_arrays_are_read_only_copies(self, grid4):
        nodes, triangles = grid4.nodes.copy(), grid4.triangles.copy()
        mesh = mb.Mesh(nodes=nodes, triangles=triangles)
        with pytest.raises(ValueError, match="read-only"):
            mesh.nodes[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            mesh.triangles[0, 0] = 1
        nodes[0, 0] = 5.0  # the caller's array stays writable, and the mesh keeps its copy
        assert mesh.nodes[0, 0] == 0.0 and np.array_equal(triangles, grid4.triangles)
        # a read-only array is shared, as `MeshText`'s per-block meshes share their parent's
        block = mb.Mesh(nodes=grid4.nodes, triangles=grid4.triangles[4:8])
        assert block.nodes is grid4.nodes and np.shares_memory(block.triangles, grid4.triangles)

    def test_mesh_without_triangles_can_be_made(self):
        mesh = mb.Mesh(nodes=np.zeros((2, 2)), triangles=np.empty((0, 3), dtype=np.int64))
        assert (mesh.n_nodes, mesh.n_triangles) == (2, 0)
        with pytest.raises(MeshError, match="^mesh has no triangles$"):
            mesh.validate()

    def test_meshes_compare_and_hash_by_value(self):
        # once ValueError from == on the array fields, and TypeError from hash
        spec = mb.StructuredSpec(1.0, 1.0, 4, 4)
        a, b = mb.generate_structured(spec), mb.generate_structured(spec)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        bare = mb.Mesh(nodes=a.nodes, triangles=a.triangles.astype(np.int32))
        assert bare != a  # no structure
        # -0.0 == 0.0, and int32 ids equal int64 ones: equal values hash equal
        same = mb.Mesh(nodes=np.where(a.nodes == 0.0, -0.0, a.nodes), triangles=a.triangles)
        assert bare == same and hash(bare) == hash(same)
        assert a != mb.generate_structured(mb.StructuredSpec(1.0, 2.0, 4, 4))
        assert a != mb.Mesh(nodes=a.nodes, triangles=a.triangles[:-1], structure=spec)
        assert a != spec
        material = mb.MaterialParams(d=mb.isotropic(2e9, 0.3), rho=1200.0, h=1e-3)
        configs = [mb.ScenarioConfig(mesh=m, material=material, case=mb.CaseSpec(1),
                                     border="fixed", t_final=1e-5) for m in (a, b)]
        assert configs[0] == configs[1] and hash(configs[0]) == hash(configs[1])


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

    def test_extent_past_float_range_rejected_without_warning(self):
        text = (
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n3\n1 -1e308 0 0\n2 1e308 0 0\n3 0 1 0\n$EndNodes\n"
            "$Elements\n1\n1 2 2 0 1 1 2 3\n$EndElements\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="^node coordinates out of range"):
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


HEADER = "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"  # lines 1-3
NODES3 = "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"  # lines 4-9


def _elements(*lines):
    """An $Elements section after HEADER and NODES3; its first element is line 12."""
    return HEADER + NODES3 + f"$Elements\n{len(lines)}\n" + "".join(f"{ln}\n" for ln in lines) + "$EndElements\n"


# one minimal malformed file per message, with the full message it raises
MALFORMED_MSH = {
    "section_header": ("\n  Foo bar\n", "MSH parse error at line 2: expected section header, got 'Foo bar'"),
    "mesh_format_fields": ("$MeshFormat\n2.2 0\n$EndMeshFormat\n",
                           "MSH parse error at line 2: malformed $MeshFormat line"),
    "version": ("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n",
                "MSH parse error at line 2: unsupported MSH version 4.1 (need 2.2)"),
    "binary": ("$MeshFormat\n2.2 1 8\n$EndMeshFormat\n",
               "MSH parse error at line 2: binary MSH files are not supported"),
    "end_mesh_format": ("$MeshFormat\n2.2 0 8\n\n$Nodes\n", "MSH parse error at line 4: missing $EndMeshFormat"),
    "end_nodes": (HEADER + "$Nodes\n1\n1 0 0 0\n1 1 0 0\n", "MSH parse error at line 7: missing $EndNodes"),
    "end_elements": (HEADER + NODES3 + "$Elements\n1\n1 2 2 0 1 1 2 3\n$EndNodes\n",
                     "MSH parse error at line 13: missing $EndElements"),
    "node_count": (HEADER + "$Nodes\n3.0\n", "MSH parse error at line 5: bad node count '3.0'"),
    "element_count": (HEADER + NODES3 + "$Elements\n-\n", "MSH parse error at line 11: bad element count '-'"),
    "node_limit": (HEADER + f"$Nodes\n{MAX_NODES + 1}\n1 0 0 0\n$EndNodes\n",
                   "MSH parse error at line 5: 10000001 nodes exceed the node limit 1e+07"),
    "node_fields": (HEADER + "$Nodes\n1\n1 0 0\n$EndNodes\n", "MSH parse error at line 6: bad node line '1 0 0'"),
    "node_value": (HEADER + "$Nodes\n1\n1 0 x 0\n$EndNodes\n", "MSH parse error at line 6: bad node line '1 0 x 0'"),
    "element_fields": (_elements("1 2"), "MSH parse error at line 12: bad element line '1 2'"),
    "element_value": (_elements("1 2 2 0 1 1 2 z"), "MSH parse error at line 12: bad element line '1 2 2 0 1 1 2 z'"),
    "triangle_ids": (_elements("1 2 2 0 1 1 2"),
                     "MSH parse error at line 12: triangle needs 3 vertex ids, got [1, 2]"),
    "element_type": (_elements("1 3 2 0 1 1 2 3 4"), "MSH parse error at line 12: unsupported element type 3"),
    "end_of_file": (HEADER + "$Nodes\n3\n1 0 0 0\n", "MSH parse error: unexpected end of file"),
    "end_of_file_in_unknown_section": (HEADER + "$Foo\nbar\n", "MSH parse error: unexpected end of file"),
    "missing_section": (HEADER + NODES3, "MSH parse error: missing $Nodes or $Elements section"),
    "no_nodes": (HEADER + "$Nodes\n0\n$EndNodes\n$Elements\n0\n$EndElements\n", "MSH file has no nodes"),
    "not_planar": (HEADER + "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0.5\n$EndNodes\n"
                   "$Elements\n1\n1 2 2 0 1 1 2 3\n$EndElements\n",
                   "mesh is not planar: |z| up to 5.000e-01 (limit 1.000e-09)"),
    "duplicate_node_id": (HEADER + "$Nodes\n3\n1 0 0 0\n1 1 0 0\n3 0 1 0\n$EndNodes\n"
                          "$Elements\n1\n1 2 2 0 1 1 1 3\n$EndElements\n", "duplicate node id 1"),
    "unknown_node_id": (_elements("1 2 2 0 1 1 2 9"), "triangle references unknown node id 9"),
    "no_triangles": (_elements("1 15 2 0 1 1"), "MSH file has no triangles"),
    # a count far past the file's end fails at its first bad line, not at EOF
    "lazy_block": (HEADER + NODES3 + "$Elements\n10000000000\n1 2\n",
                   "MSH parse error at line 12: bad element line '1 2'"),
}


@pytest.mark.parametrize("name", MALFORMED_MSH)
def test_malformed_msh_message(name):
    text, message = MALFORMED_MSH[name]
    with pytest.raises(MeshError) as info:
        mb.read_msh(io.StringIO(text))
    assert str(info.value) == message


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "mesh.msh"
    path.write_bytes(HEADER.encode() + b"$Nodes\n\xff\n")
    with pytest.raises(MeshError) as info:
        mb.read_msh(path)
    assert str(info.value) == "MSH file is not UTF-8 text (invalid start byte at byte 42)"


# a mesh read from a file gets every structure check of `validate`
DISCONNECTED_MSH = (HEADER + "$Nodes\n6\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 5 5 0\n5 6 5 0\n6 5 6 0\n$EndNodes\n"
                    "$Elements\n2\n1 2 2 0 1 1 2 3\n2 2 2 0 1 4 5 6\n$EndElements\n")


@pytest.mark.parametrize("text,message", [
    (DISCONNECTED_MSH, "mesh is not edge-connected (2 components)"),
    (_elements("1 2 2 0 1 1 2 3", "2 2 2 0 1 2 3 1"), "duplicate triangles"),
], ids=["disconnected", "duplicate_triangle"])
def test_msh_mesh_gets_the_structure_checks(text, message):
    with pytest.raises(MeshError) as info:
        mb.read_msh(io.StringIO(text))
    assert str(info.value) == message


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
