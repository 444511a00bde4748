"""Writer tests: %.17g kernel, snapshot CSV, element CSV, VTK grammar, study CSV, manifest."""
import io
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import membrane as mb
from membrane.assembly import strain_operator
from membrane._format import records
from membrane.convergence import LevelDiff, StudyResult
from membrane.integrator import State
from membrane.output import (
    CSV_HEADER,
    ELEMENT_CSV_HEADER,
    MeshText,
    write_element_csv,
    write_run_manifest,
    write_snapshot_csv,
    write_snapshot_vtk,
    write_study_csv,
)

from reference_element import recover_stress_strain, shape_coefficients


def _state(mesh, seed=0, scale=1e-3):
    rng = np.random.default_rng(seed)
    n = 3 * mesh.n_nodes
    return State(
        a=rng.uniform(-scale, scale, n),
        adot=rng.uniform(-scale, scale, n),
        addot=np.zeros(n),
        t=1.0 / 3.0,
        step=7,
    )


def _kernel(values):
    """The kernel's text of each value, as a list of str."""
    rows = records(np.array(values, dtype=np.float64))
    return [row[row != 0].tobytes().decode() for row in rows]


def _reference(values):
    return [format(float(v), ".17g") for v in values]


class TestKernel:
    """The kernel against ``format(x, ".17g")``, value by value."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_floats(self, values):
        assert _kernel(values) == _reference(values)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_bit_patterns(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert _kernel(values) == _reference(values)

    def test_random_bits_and_magnitudes(self):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
        scaled = rng.standard_normal(20000) * 10.0 ** rng.integers(-30, 30, 20000)
        for values in (bits, scaled):
            assert _kernel(values) == _reference(values)

    def test_powers_of_ten_and_neighbours(self):
        p = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = np.concatenate([p, np.nextafter(p, np.inf), np.nextafter(p, 0.0), -p])
        assert _kernel(values) == _reference(values)

    def test_just_below_a_power_of_ten(self):
        # 17 nines: the exponent is judged before rounding, not from it
        values = [9.9999999999999997e-29, 99999999999999984.0, 0.99999999999999989,
                  9.9999999999999995e-08, 999999999999999.88]
        assert _kernel(values) == _reference(values)
        assert _kernel([9.9999999999999997e-29]) == ["9.9999999999999997e-29"]

    def test_rounding_up_to_ten_to_the_seventeen(self):
        # each double lies below 10^k, and its 17 digits round up to 10^17
        values = [1e-14, 1e-79, 1e98, 1e129, 99999999999999999.0]
        assert _kernel(values) == _reference(values) == ["1e-14", "1e-79", "1e+98", "1e+129", "1e+17"]

    def test_dyadic_ties(self):
        # an odd q / 2^j with 17 - j integer digits has 18 digits, the
        # last a 5: a tie, rounded half to even
        for j in range(2, 6):
            q = np.floor(1.2 * 10.0 ** (17 - j) * 2**j) + np.arange(4000)
            values = q / 2.0**j
            assert _kernel(values) == _reference(values)
        assert _kernel([1000000000000000.25, 1000000000000000.75]) == [
            "1000000000000000.2", "1000000000000000.8"]
        # a tie past the exact part of the table goes through format()
        assert _kernel([3 * 2.0**-24]) == ["1.7881393432617188e-07"]

    def test_near_ties_past_the_exact_table(self):
        # x = m / 2^(53 + s) with m * 5^s = 2^52 + t (mod 2^53) puts
        # x * 10^s within t * 2^-53 of a half-integer, closer than the
        # inexact table can judge; such values go through format()
        values = []
        for s in range(23, 40):
            inverse = pow(5**s, -1, 2**53)
            for t in (*range(-60, 0), *range(1, 61)):
                m = (2**52 + t) * inverse % 2**53
                if 2**52 <= m and 10**16 * 2**53 <= m * 5**s < 10**17 * 2**53:
                    values.append(m / 2.0 ** (53 + s))
        assert len(values) > 50 and 4.9102966142601843e-08 in values
        assert _kernel(values) == _reference(values)

    def test_table_and_form_edges(self):
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                 1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan,
                 1e-4, 9.9999999999999991e-05, 1e-5, 1e16, 1e17, 1e-6, 1e-7, 1e22, 1e23,
                 0.5, 1.0, 123456789.0, 0.1]
        assert _kernel(edges) == _reference(edges)


class TestSnapshotCsv:
    def test_header_and_row_count(self, grid4, tmp_path):
        p = tmp_path / "snap.csv"
        write_snapshot_csv(p, MeshText(grid4), _state(grid4))
        lines = p.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + grid4.n_nodes
        assert p.read_text().endswith("\n")

    def test_floats_round_trip_bitwise(self, grid4, tmp_path):
        state = _state(grid4)
        p = tmp_path / "snap.csv"
        write_snapshot_csv(p, MeshText(grid4), state)
        rows = [r.split(",") for r in p.read_text().splitlines()[1:]]
        for n, row in enumerate(rows):
            assert float(row[0]) == state.t
            assert int(row[1]) == n
            assert float(row[2]) == grid4.nodes[n, 0]
            assert float(row[3]) == grid4.nodes[n, 1]
            for k in range(3):
                assert float(row[4 + k]) == state.a[3 * n + k]
                assert float(row[7 + k]) == state.adot[3 * n + k]
            v = state.adot[3 * n: 3 * n + 3]
            assert float(row[10]) == np.sqrt((v * v).sum())

    def test_zero_state(self, grid4, tmp_path):
        n = 3 * grid4.n_nodes
        state = State(a=np.zeros(n), adot=np.zeros(n), addot=np.zeros(n), t=0.0, step=0)
        p = tmp_path / "zero.csv"
        write_snapshot_csv(p, MeshText(grid4), state)
        row = p.read_text().splitlines()[1].split(",")
        assert row[4:] == ["0"] * 7

    def test_does_not_mutate(self, grid4, tmp_path):
        state = _state(grid4)
        a0, v0 = state.a.copy(), state.adot.copy()
        nodes0 = grid4.nodes.copy()
        write_snapshot_csv(tmp_path / "a.csv", MeshText(grid4), state)
        write_snapshot_vtk(tmp_path / "a.vtk", MeshText(grid4), state)
        np.testing.assert_array_equal(state.a, a0)
        np.testing.assert_array_equal(state.adot, v0)
        np.testing.assert_array_equal(grid4.nodes, nodes0)


class TestElementCsv:
    def test_header_and_values(self, grid4, steel, tmp_path):
        state = _state(grid4)
        p = tmp_path / "elem.csv"
        write_element_csv(p, MeshText(grid4), steel, state)
        lines = p.read_text().splitlines()
        assert lines[0] == ELEMENT_CSV_HEADER
        assert len(lines) == 1 + grid4.n_triangles
        for e, line in enumerate(lines[1:]):
            row = line.split(",")
            assert int(row[1]) == e
            tri = grid4.triangles[e]
            dofs = np.array([3 * v + k for v in tri for k in range(3)])
            sc = shape_coefficients(grid4.nodes[tri], element_id=e)
            eps, sig = recover_stress_strain(sc, steel.d, state.a[dofs])
            got_eps = np.array([float(x) for x in row[2:8]])
            got_sig = np.array([float(x) for x in row[8:14]])
            np.testing.assert_allclose(got_eps, eps, rtol=1e-13, atol=1e-300)
            np.testing.assert_allclose(got_sig, sig, rtol=1e-12, atol=1e-300)

    def test_zz_strain_written_as_plus_zero(self, grid4, steel, tmp_path):
        st = _state(grid4)
        st = replace(st, a=-np.abs(st.a) - 1e-6)  # every product in the zz row is -0.0
        p = tmp_path / "elem.csv"
        write_element_csv(p, MeshText(grid4), steel, st)
        rows = [l.split(",") for l in p.read_text().splitlines()[1:]]
        assert {r[4] for r in rows} == {"0"}

    def test_flags_without_thresholds(self, grid4, steel, tmp_path):
        p = tmp_path / "elem.csv"
        write_element_csv(p, MeshText(grid4), steel, _state(grid4))
        for line in p.read_text().splitlines()[1:]:
            assert line.split(",")[14:] == ["0", "0"]

    def test_flags_with_thresholds(self, grid4, tmp_path):
        state = _state(grid4)
        plain = mb.MaterialParams(d=mb.isotropic(200e9, 0.3), rho=7800.0, h=1e-3)
        # oracle: per-element max |strain| / |stress|
        eps_max = np.empty(grid4.n_triangles)
        sig_max = np.empty(grid4.n_triangles)
        for e, tri in enumerate(grid4.triangles):
            dofs = np.array([3 * v + k for v in tri for k in range(3)])
            sc = shape_coefficients(grid4.nodes[tri], element_id=e)
            eps, sig = recover_stress_strain(sc, plain.d, state.a[dofs])
            eps_max[e] = np.abs(eps).max()
            sig_max[e] = np.abs(sig).max()
        eps_cut = np.median(eps_max)
        sig_cut = np.median(sig_max)
        flagged = mb.MaterialParams(
            d=mb.isotropic(200e9, 0.3), rho=7800.0, h=1e-3,
            strain_threshold=eps_cut, stress_threshold=sig_cut,
        )
        p = tmp_path / "elem.csv"
        write_element_csv(p, MeshText(grid4), flagged, state)
        for e, line in enumerate(p.read_text().splitlines()[1:]):
            sflag, tflag = line.split(",")[14:]
            assert int(sflag) == int(eps_max[e] > eps_cut)
            assert int(tflag) == int(sig_max[e] > sig_cut)
        assert any(l.split(",")[14] == "1" for l in p.read_text().splitlines()[1:])


class TestVtk:
    def test_grammar(self, grid4, tmp_path):
        state = _state(grid4)
        p = tmp_path / "snap.vtk"
        write_snapshot_vtk(p, MeshText(grid4), state)
        lines = p.read_text().splitlines()
        n, m = grid4.n_nodes, grid4.n_triangles
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[1] == "membrane snapshot"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        assert lines[4] == f"POINTS {n} double"
        pts = lines[5: 5 + n]
        a = state.a.reshape(-1, 3)
        for i, row in enumerate(pts):
            x, y, z = (float(v) for v in row.split())
            assert x == grid4.nodes[i, 0] + a[i, 0]
            assert y == grid4.nodes[i, 1] + a[i, 1]
            assert z == a[i, 2]
        at = 5 + n
        assert lines[at] == f"CELLS {m} {4 * m}"
        cells = lines[at + 1: at + 1 + m]
        for e, row in enumerate(cells):
            vals = [int(v) for v in row.split()]
            assert vals[0] == 3
            assert vals[1:] == list(grid4.triangles[e])
        at = at + 1 + m
        assert lines[at] == f"CELL_TYPES {m}"
        assert lines[at + 1: at + 1 + m] == ["5"] * m
        at = at + 1 + m
        assert lines[at] == f"POINT_DATA {n}"
        assert lines[at + 1] == "SCALARS velocity_magnitude double 1"
        assert lines[at + 2] == "LOOKUP_TABLE default"
        vm = lines[at + 3:]
        assert len(vm) == n
        v = state.adot.reshape(-1, 3)
        vmag = np.sqrt((v * v).sum(axis=1))
        for i, row in enumerate(vm):
            assert float(row) == vmag[i]


def _fabricated_result():
    def diff(level, n_nodes, tau, base):
        joint = {"L1": base, "L2": 1.5 * base, "Linf": 4.0 * base}
        return LevelDiff(
            level=level, n_nodes=n_nodes, tau=tau,
            joint=joint,
            disp={k: v / 1000.0 for k, v in joint.items()},
            vel={k: v * 1.0 for k, v in joint.items()},
        )
    diffs = [diff(1, 81, 5e-7, 1e-4), diff(2, 289, 2.5e-7, 2.5e-5)]
    return StudyResult(
        diffs=diffs,
        rates={"L1": 2.0, "L2": 2.0, "Linf": 2.0},
        tau0=1e-6,
        n_steps0=100,
    )


# ---------------------------------------------------------------- byte oracle
# The writers format whole blocks with one numpy kernel each; these
# per-value loops of format(x, ".17g") are the reference for every byte.


def _g17(x):
    return format(float(x), ".17g")


def _oracle_vmag(state):
    v = state.adot.reshape(-1, 3)
    with np.errstate(over="ignore"):
        return np.sqrt((v * v).sum(axis=1))


def _oracle_snapshot_csv(mesh, state):
    a = state.a.reshape(-1, 3)
    v = state.adot.reshape(-1, 3)
    vmag = _oracle_vmag(state)
    lines = [CSV_HEADER]
    for n in range(mesh.n_nodes):
        cells = [_g17(state.t), str(n), _g17(mesh.nodes[n, 0]), _g17(mesh.nodes[n, 1])]
        cells += [_g17(x) for x in a[n]] + [_g17(x) for x in v[n]] + [_g17(vmag[n])]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def _oracle_strain_stress(mesh, material, state):
    """Strain S a and stress D S a per element, (m, 6) each, from the
    whole mesh's S."""
    eps = (strain_operator(mesh)[1] @ state.a).reshape(-1, 6)
    return eps, eps @ material.d.T


def _oracle_element_csv(mesh, material, state):
    lines = [ELEMENT_CSV_HEADER]
    all_eps, all_sig = _oracle_strain_stress(mesh, material, state)
    cuts = (material.strain_threshold, material.stress_threshold)
    for e, (eps, sig) in enumerate(zip(all_eps, all_sig)):
        # no threshold flags nothing
        flags = [str(int(cut is not None and np.any(np.abs(x) > cut))) for x, cut in zip((eps, sig), cuts)]
        cells = [_g17(state.t), str(e)] + [_g17(x) for x in eps] + [_g17(x) for x in sig]
        lines.append(",".join(cells + flags))
    return ("\n".join(lines) + "\n").encode()


def _oracle_vtk(mesh, state):
    a = state.a.reshape(-1, 3)
    n, m = mesh.n_nodes, mesh.n_triangles
    out = ["# vtk DataFile Version 3.0", "membrane snapshot", "ASCII", "DATASET UNSTRUCTURED_GRID",
           f"POINTS {n} double"]
    for i in range(n):
        out.append(f"{_g17(mesh.nodes[i, 0] + a[i, 0])} "
                   f"{_g17(mesh.nodes[i, 1] + a[i, 1])} {_g17(a[i, 2])}")
    out.append(f"CELLS {m} {4 * m}")
    out += [f"3 {t[0]} {t[1]} {t[2]}" for t in mesh.triangles]
    out.append(f"CELL_TYPES {m}")
    out += ["5"] * m
    out += [f"POINT_DATA {n}", "SCALARS velocity_magnitude double 1", "LOOKUP_TABLE default"]
    out += [_g17(x) for x in _oracle_vmag(state)]
    return ("\n".join(out) + "\n").encode()


def _edge_state(mesh):
    """A state whose values hit the corners of the 17-digit format."""
    st = replace(_state(mesh, seed=3), t=0.1)  # shortest repr has fewer than 17 digits
    specials = [-0.0, 5e-324, -0.0, 0.1, -5e-324, 1e-300, 2.0**-1074 * 3, 1e16, 123456789.0]
    st.a[: len(specials)] = specials
    st.adot[: len(specials)] = specials[::-1]
    st.adot[-3] = 1e300  # vmag overflows to inf
    st.adot[-4] = -0.0
    return st


def _held_state(mesh, seed=5):
    """A state like a held in-plane field's: u, v, vx and vy exact +0.0."""
    st = _state(mesh, seed=seed)
    for vec in (st.a, st.adot):
        vec[0::3] = 0.0
        vec[1::3] = 0.0
    return st


def _write_all(tmp_path, text, material, state):
    """Bytes of the node CSV, element CSV and VTK of one snapshot."""
    paths = (tmp_path / "snap.csv", tmp_path / "elem.csv", tmp_path / "snap.vtk")
    write_snapshot_csv(paths[0], text, state)
    write_element_csv(paths[1], text, material, state)
    write_snapshot_vtk(paths[2], text, state)
    return tuple(p.read_bytes() for p in paths)


def _oracle_all(mesh, material, state):
    unflagged = mb.MaterialParams(
        d=material.d, rho=material.rho, h=material.h,
        strain_threshold=None, stress_threshold=None,
    )
    return (_oracle_snapshot_csv(mesh, state), _oracle_element_csv(mesh, unflagged, state),
            _oracle_vtk(mesh, state))


class TestWritersMatchOracle:
    def test_snapshot_csv_bytes(self, grid4, tmp_path):
        state = _edge_state(grid4)
        p = tmp_path / "snap.csv"
        write_snapshot_csv(p, MeshText(grid4), state)
        text = p.read_bytes()
        assert text == _oracle_snapshot_csv(grid4, state)
        for token in (b",-0,", b",4.9406564584124654e-324,", b",inf\n",
                      b"\n0.10000000000000001,", b",123456789,"):
            assert token in text

    def test_element_csv_bytes_with_flags(self, grid4, tmp_path):
        state = _edge_state(grid4)
        plain = mb.MaterialParams(d=mb.isotropic(200e9, 0.3), rho=7800.0, h=1e-3)
        eps, sig = _oracle_strain_stress(grid4, plain, state)
        emax, smax = np.abs(eps).max(axis=1), np.abs(sig).max(axis=1)
        flagged = mb.MaterialParams(
            d=plain.d, rho=7800.0, h=1e-3,
            strain_threshold=np.median(emax), stress_threshold=np.quantile(smax, 0.25),
        )
        p = tmp_path / "elem.csv"
        write_element_csv(p, MeshText(grid4), flagged, state)
        assert p.read_bytes() == _oracle_element_csv(grid4, flagged, state)
        rows = [l.split(",") for l in p.read_text().splitlines()[1:]]
        assert {r[14] for r in rows} == {r[15] for r in rows} == {"0", "1"}

    def test_element_csv_bytes_without_thresholds(self, grid4, steel, tmp_path):
        state = _edge_state(grid4)
        unflagged = mb.MaterialParams(
            d=steel.d, rho=steel.rho, h=steel.h,
            strain_threshold=None, stress_threshold=None,
        )
        p = tmp_path / "elem.csv"
        write_element_csv(p, MeshText(grid4), steel, state)
        assert p.read_bytes() == _oracle_element_csv(grid4, unflagged, state)

    def test_vtk_bytes(self, grid4, tmp_path):
        state = _edge_state(grid4)
        p = tmp_path / "snap.vtk"
        write_snapshot_vtk(p, MeshText(grid4), state)
        text = p.read_bytes()
        assert text == _oracle_vtk(grid4, state)
        assert b" -0\n" in text and b"\ninf\n" in text


    def test_bytes_across_chunks(self, grid4, steel, tmp_path, monkeypatch):
        # 25 nodes and 32 triangles in blocks of 7 rows: several full
        # blocks and a short last one in every file and every cached
        # text of one shared MeshText
        monkeypatch.setattr("membrane.output._BLOCK_ROWS", 7)
        shared = MeshText(grid4)
        for state in (_edge_state(grid4), _held_state(grid4)):
            got = _write_all(tmp_path, shared, steel, state)
            assert got == _oracle_all(grid4, steel, state)


class TestFormattedOnce:
    """Constant columns written as literals and `MeshText` reuse keep
    every byte of the per-value oracle."""

    def test_minus_zero_column(self, grid4, steel, tmp_path):
        state = _held_state(grid4)
        state.a[0::3] = -0.0
        got = _write_all(tmp_path, MeshText(grid4), steel, state)
        assert got == _oracle_all(grid4, steel, state)
        assert {r.split(",")[4] for r in got[0].decode().splitlines()[1:]} == {"-0"}
        # one +0.0 among the -0.0: the column is not constant
        state.a[3] = 0.0
        got = _write_all(tmp_path, MeshText(grid4), steel, state)
        assert got == _oracle_all(grid4, steel, state)
        assert [r.split(",")[4] for r in got[0].decode().splitlines()[1:4]] == ["-0", "0", "-0"]

    def test_constant_nonzero_column(self, grid4, steel, tmp_path):
        state = _held_state(grid4)
        state.a[2::3] = 1.25e-3
        state.adot[2::3] = -0.1
        got = _write_all(tmp_path, MeshText(grid4), steel, state)
        assert got == _oracle_all(grid4, steel, state)
        rows = [r.split(",") for r in got[0].decode().splitlines()[1:]]
        assert {(r[6], r[9], r[10]) for r in rows} == {("0.00125", "-0.10000000000000001",
                                                        "0.10000000000000001")}

    def test_one_triangle_every_column_constant(self, steel, tmp_path):
        mesh = mb.Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                       triangles=np.array([[0, 1, 2]]))
        for state in (_state(mesh), _held_state(mesh), _edge_state(mesh)):
            got = _write_all(tmp_path, MeshText(mesh), steel, state)
            assert got == _oracle_all(mesh, steel, state)
            assert len(got[1].decode().splitlines()) == 2

    def test_minus_zero_node_plus_zero_u(self, grid4, steel, tmp_path):
        nodes = grid4.nodes.copy()
        nodes[0] = (-0.0, -0.0)
        mesh = mb.Mesh(nodes=nodes, triangles=grid4.triangles)
        state = _held_state(mesh)
        got = _write_all(tmp_path, MeshText(mesh), steel, state)
        assert got == _oracle_all(mesh, steel, state)
        assert got[0].decode().splitlines()[1].startswith("0.33333333333333331,0,-0,-0,")
        # -0.0 + 0.0 is +0.0: the deformed point is not the cached "-0 -0"
        points = got[2].decode().splitlines()[5:5 + mesh.n_nodes]
        assert points[0].startswith("0 0 ")
        assert points[1].startswith("0.25 0 ")

    def test_one_mesh_text_across_states(self, grid4, steel, tmp_path):
        shared = MeshText(grid4)
        for state in (_held_state(grid4), _edge_state(grid4), _held_state(grid4, seed=9),
                      _state(grid4, seed=4)):
            got = _write_all(tmp_path, shared, steel, state)
            assert got == _write_all(tmp_path, MeshText(grid4), steel, state)
            assert got == _oracle_all(grid4, steel, state)


def _jittered(n, seed):
    """An n-by-n grid with its interior nodes moved off the lattice."""
    mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, n, n))
    nodes = mesh.nodes.copy()
    interior = (nodes > 0.0).all(axis=1) & (nodes < 1.0).all(axis=1)
    nodes[interior] += np.random.default_rng(seed).uniform(-0.2, 0.2, (interior.sum(), 2)) / n
    return mb.Mesh(nodes=nodes, triangles=mesh.triangles)


def _zz_coupled():
    """A material whose D couples zz with yz and xz: sig_zz follows w."""
    entries = [[1, 1, 140.0], [1, 2, 3.0], [1, 3, 3.0], [2, 2, 10.0], [2, 3, 3.0], [3, 3, 10.0],
               [3, 5, 1.0], [3, 6, 0.5], [4, 4, 5.0], [5, 5, 5.0], [5, 6, 1.0], [6, 6, 5.0]]
    d = mb.anisotropic(mb.packed_from_entries(entries) * 1e9)
    return mb.MaterialParams(d=d, rho=1600.0, h=1e-3)


class TestHeldStrains:
    """A state whose u and v are all zero, of either sign, has its
    element strains from S_w alone, with the full operator's bytes."""

    @pytest.mark.parametrize("zeros", [[0.0], [-0.0], [0.0, -0.0]], ids=["plus", "minus", "mixed"])
    def test_bytes_of_full_operator(self, tmp_path, zeros):
        mesh, material = _jittered(6, seed=1), _zz_coupled()
        state = _held_state(mesh)
        rng = np.random.default_rng(2)
        for k in (0, 1):
            state.a[k::3] = rng.choice(zeros, mesh.n_nodes)
        assert state.a[2::3].all()
        text = MeshText(mesh)
        p = tmp_path / "elem.csv"
        write_element_csv(p, text, material, state)
        assert "strain_w" in vars(text) and "strain" not in vars(text)
        unflagged = mb.MaterialParams(d=material.d, rho=material.rho, h=material.h,
                                      strain_threshold=None, stress_threshold=None)
        assert p.read_bytes() == _oracle_element_csv(mesh, unflagged, state)
        sig_zz = [float(r.split(",")[10]) for r in p.read_text().splitlines()[1:]]
        assert all(sig_zz)

    def test_in_plane_field_takes_full_operator(self, tmp_path):
        mesh, material = _jittered(6, seed=3), _zz_coupled()
        state = _held_state(mesh)
        state.a[0] = 1e-9
        text = MeshText(mesh)
        write_element_csv(tmp_path / "elem.csv", text, material, state)
        assert "strain" in vars(text) and "strain_w" not in vars(text)


class TestSharedColumns:
    """The node CSV and the VTK of one state share its w and vmag text."""

    def test_each_state_its_own_bytes(self, grid4, tmp_path):
        text = MeshText(grid4)
        a, b = _edge_state(grid4), _held_state(grid4, seed=9)
        write_snapshot_csv(tmp_path / "a.csv", text, a)
        write_snapshot_csv(tmp_path / "b.csv", text, b)
        write_snapshot_vtk(tmp_path / "a.vtk", text, a)
        write_snapshot_vtk(tmp_path / "b.vtk", text, b)
        for name, state in (("a", a), ("b", b)):
            assert (tmp_path / f"{name}.csv").read_bytes() == _oracle_snapshot_csv(grid4, state)
            assert (tmp_path / f"{name}.vtk").read_bytes() == _oracle_vtk(grid4, state)

    def test_a_later_state_in_a_freed_states_place(self, grid4, tmp_path):
        # the first state is dropped after its node CSV; a new one may
        # take its id, and must still get its own text
        text = MeshText(grid4)
        for seed in range(4):
            write_snapshot_csv(tmp_path / "s.csv", text, _state(grid4, seed=seed))
            state = _state(grid4, seed=seed + 10)
            write_snapshot_vtk(tmp_path / "s.vtk", text, state)
            assert (tmp_path / "s.vtk").read_bytes() == _oracle_vtk(grid4, state)


class TestStudyCsv:
    def test_structure(self, tmp_path):
        p = tmp_path / "study.csv"
        write_study_csv(p, _fabricated_result())
        lines = p.read_text().splitlines()
        assert lines[0] == (
            "level,n_nodes,tau,L1,L2,Linf,log2_L1,log2_L2,log2_Linf,"
            "L1_disp,L2_disp,Linf_disp,L1_vel,L2_vel,Linf_vel"
        )
        assert len(lines) == 1 + 2 + 1 + 1 + 3
        assert lines[3] == ""
        assert lines[4] == "norm,rate"
        assert lines[5] == "L1,2"
        assert lines[6] == "L2,2"
        assert lines[7] == "Linf,2"

    def test_values_round_trip(self, tmp_path):
        res = _fabricated_result()
        p = tmp_path / "study.csv"
        write_study_csv(p, res)
        for ld, line in zip(res.diffs, p.read_text().splitlines()[1:3]):
            row = line.split(",")
            assert int(row[0]) == ld.level
            assert int(row[1]) == ld.n_nodes
            assert float(row[2]) == ld.tau
            assert [float(v) for v in row[3:6]] == [ld.joint[w] for w in ("L1", "L2", "Linf")]
            assert [float(v) for v in row[6:9]] == [np.log2(ld.joint[w]) for w in ("L1", "L2", "Linf")]
            assert [float(v) for v in row[9:12]] == [ld.disp[w] for w in ("L1", "L2", "Linf")]
            assert [float(v) for v in row[12:15]] == [ld.vel[w] for w in ("L1", "L2", "Linf")]

    def test_zero_norm_writes_minus_inf(self, tmp_path):
        res = _fabricated_result()
        res.diffs[0].joint["L1"] = 0.0
        p = tmp_path / "study.csv"
        write_study_csv(p, res)
        row = p.read_text().splitlines()[1].split(",")
        assert row[3] == "0"
        assert row[6] == "-inf"


class TestManifest:
    def test_sorted_valid_json(self, tmp_path):
        p = tmp_path / "manifest.json"
        manifest = {"zeta": 1, "alpha": {"nested": [1, 2, 3]}, "tau": 2.5e-7}
        write_run_manifest(p, manifest)
        text = p.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == manifest
        assert text.index('"alpha"') < text.index('"tau"') < text.index('"zeta"')


def _jittered_msh(n, seed):
    """An n-by-n grid with jittered interior nodes, read back from MSH
    text with shuffled node ids and some clockwise triangles."""
    import io

    mesh = _jittered(n, seed)
    rng = np.random.default_rng(seed)
    ids = 5 + 2 * rng.permutation(mesh.n_nodes)
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(mesh.n_nodes)]
    lines += [f"{ids[k]} {x!r} {y!r} 0" for k, (x, y) in enumerate(mesh.nodes.tolist())]
    lines += ["$EndNodes", "$Elements", str(mesh.n_triangles)]
    for e, tri in enumerate(mesh.triangles.tolist()):
        tri = tri[::-1] if e % 3 == 0 else tri
        lines.append(f"{e + 1} 2 2 0 1 " + " ".join(str(ids[v]) for v in tri))
    lines.append("$EndElements")
    return mb.read_msh(io.StringIO("\n".join(lines) + "\n"))


def _one_triangle():
    return mb.Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   triangles=np.array([[0, 1, 2]]))


class TestBlockedElementCsv:
    """The element CSV, made one block of rows at a time, keeps every
    byte of the oracle's full S and per-value `format`, on meshes whose
    triangle count is not a multiple of the block size.  The jittered
    mesh's 1058 triangles leave one row over in blocks of 7: alone, its
    stresses would come from gemv, not gemm, and differ in the last bit."""

    @pytest.mark.parametrize("block_rows", [1024, 7])
    @pytest.mark.parametrize("mesh", [
        mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 33, 31)),
        _jittered_msh(23, seed=4),
        _one_triangle(),
    ], ids=["grid33x31", "jittered_msh", "one_triangle"])
    def test_bytes_of_the_oracle(self, mesh, block_rows, tmp_path, monkeypatch):
        assert mesh.n_triangles % 1024 and mesh.n_triangles % 7
        monkeypatch.setattr("membrane.output._BLOCK_ROWS", block_rows)
        text = MeshText(mesh)
        p = tmp_path / "elem.csv"
        for material in (_zz_coupled(), mb.MaterialParams(d=mb.isotropic(2e9, 0.3), rho=1.0, h=1e-3)):
            for state in (_state(mesh, seed=6), _held_state(mesh, seed=7), _edge_state(mesh)):
                eps, sig = _oracle_strain_stress(mesh, material, state)
                emax, smax = np.abs(eps).max(axis=1), np.abs(sig).max(axis=1)
                flagged = mb.MaterialParams(d=material.d, rho=1.0, h=1e-3,
                                            strain_threshold=np.median(emax),
                                            stress_threshold=np.quantile(smax, 0.25))
                unflagged = mb.MaterialParams(d=material.d, rho=1.0, h=1e-3,
                                              strain_threshold=None, stress_threshold=None)
                write_element_csv(p, text, flagged, state)
                assert p.read_bytes() == _oracle_element_csv(mesh, flagged, state)
                write_element_csv(p, text, material, state)
                assert p.read_bytes() == _oracle_element_csv(mesh, unflagged, state)

    def test_a_column_constant_only_in_its_first_blocks(self, tmp_path, monkeypatch):
        # w is zero on the first rows of the grid: the shear strains of
        # the first blocks are all +0.0, then vary
        monkeypatch.setattr("membrane.output._BLOCK_ROWS", 16)
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 9, 9))
        state = _held_state(mesh)
        state.a[2:3 * 40:3] = 0.0
        steel = mb.MaterialParams(d=mb.isotropic(200e9, 0.3), rho=7800.0, h=1e-3)
        p = tmp_path / "elem.csv"
        write_element_csv(p, MeshText(mesh), steel, state)
        unflagged = mb.MaterialParams(d=steel.d, rho=1.0, h=1e-3,
                                      strain_threshold=None, stress_threshold=None)
        assert p.read_bytes() == _oracle_element_csv(mesh, unflagged, state)
        rows = [r.split(",") for r in p.read_text().splitlines()[1:]]
        assert rows[0][6] == "0" and len({r[6] for r in rows}) > 1

    @pytest.mark.parametrize("held", [True, False])
    def test_columns_constant_in_each_block_but_not_across(self, held, tmp_path, monkeypatch):
        # blocks of 8 triangles are the 8 rows of cells of a 4x8 grid; a
        # field piecewise linear in y, with dyadic values, gives every
        # triangle of a row the same strains and stresses, and rows of
        # different slopes flag differently
        monkeypatch.setattr("membrane.output._BLOCK_ROWS", 8)
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 4, 8))
        slopes = np.array([0.0, 1.0, 1.0, 0.0, -2.0, 0.0, 0.5, 0.0])
        g = np.concatenate([[0.0], np.cumsum(slopes) / 8])[np.arange(mesh.n_nodes) // 5]  # row j
        state = _held_state(mesh)
        state.a[2::3] = g
        if not held:
            state.a[0::3] = g
        steel = mb.MaterialParams(d=mb.isotropic(200e9, 0.3), rho=7800.0, h=1e-3,
                                  strain_threshold=0.75, stress_threshold=1.5 * 76.9e9)
        p = tmp_path / "elem.csv"
        write_element_csv(p, MeshText(mesh), steel, state)
        assert p.read_bytes() == _oracle_element_csv(mesh, steel, state)
        rows = [r.split(",") for r in p.read_text().splitlines()[1:]]
        # gamma_yz, sig_yz and the flags; unheld, gamma_xy and sig_xy too
        for k in (6, 12, 14, 15) + (() if held else (5, 11)):
            blocks = [{r[k] for r in rows[start:start + 8]} for start in range(0, 64, 8)]
            assert all(len(b) == 1 for b in blocks) and len(set.union(*blocks)) > 1
        assert [rows[start][14] + rows[start][15] for start in range(0, 64, 8)] == [
            "00", "10", "10", "00", "11", "00", "00", "00"]
        assert rows[0][6] == "0" and rows[8][6] == "1"

    def test_operator_blocks(self, monkeypatch):
        monkeypatch.setattr("membrane.output._BLOCK_ROWS", 100)
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 15, 11))  # 330 triangles
        text = MeshText(mesh)
        assert [s.shape for s in text.strain_w] == [(200, mesh.n_nodes)] * 3 + [(60, mesh.n_nodes)]
        assert [s.shape[0] for s in text.strain] == [600] * 3 + [180]

    def test_traced_peak_does_not_grow_with_the_mesh(self, tmp_path):
        # a held 128x128 state: 32768 elements, whose (m, 6) strains and
        # stresses alone would take 3.1 MB (a writer holding them peaks at
        # 5.3 MB); the writer holds the (m, 2) strains (0.5 MB) and one
        # block's values and text at a time, about 2.6 MB in all
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 128, 128))
        steel = mb.MaterialParams(d=mb.isotropic(200e9, 0.3), rho=7800.0, h=1e-3)
        state = _held_state(mesh)
        text = MeshText(mesh)
        p = tmp_path / "elem.csv"
        write_element_csv(p, text, steel, state)  # builds S_w and the element ids
        tracemalloc.start()
        try:
            write_element_csv(p, text, steel, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6
