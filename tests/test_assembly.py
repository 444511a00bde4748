"""Assembly tests: sparse vs dense oracle, wave speeds, constraints, load windows."""
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse import diags, identity, kron

import membrane as mb
from membrane import assembly
from membrane.assembly import (
    CompiledLoad,
    Constraint,
    apply_constraints,
    assemble,
    build_load_vector,
    couples_normal,
    element_dof_ids,
    strain_operator,
    update_load,
)
from membrane.errors import AssemblyError, ConfigError, MeshError
from membrane.integrator import NewmarkParams, factor_once, init_state, step

from reference_element import (
    element_mass,
    element_stiffness,
    shape_coefficients,
    strain_displacement,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def dense_assemble(mesh, material):
    """Brute-force reference: per-element kernels scattered into dense arrays."""
    n = 3 * mesh.n_nodes
    k = np.zeros((n, n))
    m = np.zeros((n, n))
    for e, tri in enumerate(mesh.triangles):
        sc = shape_coefficients(mesh.nodes[tri], element_id=e)
        ke = element_stiffness(strain_displacement(sc), material.d, material.h, sc.area)
        me = element_mass(material.rho, material.h, sc.area)
        dofs = np.array([3 * v + c for v in tri for c in range(3)])
        k[np.ix_(dofs, dofs)] += ke
        m[np.ix_(dofs, dofs)] += me
    return k, m


def assert_elementwise_close(a, b, rtol):
    """Relative comparison with both-zero entries passing trivially."""
    denom = np.maximum(np.abs(a), np.abs(b))
    mask = denom > 0.0
    rel = np.zeros_like(a)
    rel[mask] = np.abs(a - b)[mask] / denom[mask]
    assert rel.max() <= rtol, f"max elementwise relative error {rel.max():.3e}"


def _perturbed_grid(nx, ny, seed=0):
    """Structured grid with interior nodes jittered off the lattice."""
    mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, nx, ny))
    rng = np.random.default_rng(seed)
    nodes = mesh.nodes.copy()
    interior = (
        (nodes[:, 0] > 0) & (nodes[:, 0] < 1) & (nodes[:, 1] > 0) & (nodes[:, 1] < 1)
    )
    nodes[interior] += rng.uniform(-0.08, 0.08, size=(interior.sum(), 2)) / nx
    return mb.Mesh(nodes=nodes, triangles=mesh.triangles)


class TestSparseVsDense:
    @pytest.mark.parametrize("nx,ny", [(3, 3), (6, 6)])
    def test_structured(self, steel, nx, ny):
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, nx, ny))
        assert mesh.n_nodes <= 50
        sys0 = assemble(mesh, steel)
        kd, md = dense_assemble(mesh, steel)
        assert_elementwise_close(sys0.K.toarray(), kd, 1e-13)
        assert_elementwise_close(sys0.M.toarray(), md, 1e-13)

    def test_perturbed(self, orthotropic):
        mesh = _perturbed_grid(5, 5, seed=3)
        sys0 = assemble(mesh, orthotropic)
        kd, md = dense_assemble(mesh, orthotropic)
        assert_elementwise_close(sys0.K.toarray(), kd, 1e-13)
        assert_elementwise_close(sys0.M.toarray(), md, 1e-13)


def _same_csr(a, b):
    """Same indices, indptr and data bits."""
    return (np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            and a.data.tobytes() == b.data.tobytes())


class TestTriangleGeometry:
    """The batched kernel is the scalar reference, bit for bit."""

    def test_areas_match_reference_bitwise(self):
        mesh = _perturbed_grid(8, 8, seed=5)
        ref = [shape_coefficients(c).doubled_area for c in mesh.triangle_coords()]
        np.testing.assert_array_equal(mesh.signed_doubled_areas(), ref)


class TestStrainOperator:
    """S holds each element's B at its dofs; K and M follow from it."""

    def test_row_blocks_match_reference_bitwise(self):
        mesh = _perturbed_grid(8, 8, seed=5)
        area, s = strain_operator(mesh)
        assert s.shape == (6 * mesh.n_triangles, 3 * mesh.n_nodes)
        dense = s.toarray()
        dofs = element_dof_ids(mesh.triangles)
        for e, c in enumerate(mesh.triangle_coords()):
            sc = shape_coefficients(c)
            block = dense[6 * e : 6 * e + 6]
            np.testing.assert_array_equal(block[:, dofs[e]], strain_displacement(sc))
            assert not np.delete(block, dofs[e], axis=1).any()
            assert area[e] == sc.area

    def test_no_stored_zeros(self, grid4, steel, orthotropic):
        for mesh, material in ((grid4, steel), (_perturbed_grid(8, 8, seed=5), orthotropic)):
            sys0 = assemble(mesh, material)
            for a in (strain_operator(mesh)[1], sys0.K, sys0.M):
                assert a.nnz == np.count_nonzero(a.data)

    @pytest.mark.parametrize("mesh", [
        _perturbed_grid(8, 8, seed=5),
        mb.generate_structured(mb.StructuredSpec(2.0, 0.7, 12, 5)),
    ], ids=["perturbed", "non-square"])
    def test_w_only_is_the_transverse_rows_bitwise(self, mesh):
        area, full = strain_operator(mesh)
        area_w, held = strain_operator(mesh, w_only=True)
        transverse = np.arange(full.shape[0]) % 6 >= 4  # rows (yz, xz)
        assert held.shape == (2 * mesh.n_triangles, mesh.n_nodes)
        assert area_w.tobytes() == area.tobytes()
        assert _same_csr(held, full[transverse][:, 2::3])

    def test_peak_memory(self):
        # at most 18 entries per element are laid out: about 5 MiB at 64^2
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 64, 64))
        strain_operator(mesh)
        tracemalloc.start()
        try:
            strain_operator(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"strain_operator peaked at {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("w_only", [False, True])
    def test_holds_only_its_entries(self, w_only):
        # a structured grid's right triangles drop a third of the entries as
        # zeros, which can leave S's arrays views of the whole layout; what
        # stays allocated must be S's own bytes
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 64, 64))
        tracemalloc.start()
        try:
            area, s = strain_operator(mesh, w_only)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        own = s.data.nbytes + s.indices.nbytes + s.indptr.nbytes + area.nbytes
        assert kept <= 1.05 * own, f"{kept} bytes kept for {own} bytes of arrays"

    def test_mass_is_scalar_mass_times_identity(self, orthotropic):
        m = assemble(_perturbed_grid(8, 8, seed=5), orthotropic).M
        coo = m.tocoo()
        assert np.all(coo.row % 3 == coo.col % 3)
        scalar = m[0::3, 0::3]
        np.testing.assert_array_equal(m.toarray(), kron(scalar, identity(3)).toarray())


class TestStiffnessProduct:
    """K = S^T (W S) in CSR keeps the bits of the product formed through CSC."""

    @staticmethod
    def _csc_formed(mesh, material, w_only):
        # the oracle: W in BSR (D's zeros stored), S^T as CSC, K converted from CSC
        area, s = strain_operator(mesh, w_only)
        d = material.d[4:6, 4:6] if w_only else material.d
        return (s.T @ (kron(diags(material.h * area), d, format="bsr") @ s)).tocsr()

    @pytest.mark.parametrize("case", ["isotropic", "run_aniso", "held", "jit12"])
    def test_same_indices_and_bits(self, case, steel, polymer):
        aniso = mb.params_from_config(json.loads((CONFIGS / "run_aniso.json").read_text())["material"])
        mesh, material, w_only = {
            "isotropic": (_perturbed_grid(8, 8, seed=5), steel, False),
            "run_aniso": (mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 12, 12)), aniso, False),
            "held": (mb.generate_structured(mb.StructuredSpec(2.0, 0.7, 12, 5)), polymer, True),
            "jit12": (mb.read_msh(CONFIGS / "ci" / "jit12.msh"), aniso, False),
        }[case]
        k = assemble(mesh, material, w_only).K
        assert couples_normal(material) is (case in ("run_aniso", "jit12"))
        assert k.has_sorted_indices and k.nnz == np.count_nonzero(k.data)
        assert _same_csr(k, self._csc_formed(mesh, material, w_only))


class TestCarriedField:
    """One test on D decides coupling; a held run assembles only w."""

    # (xx, yy, zz, xy, yz, xz): B maps (u, v) to rows 0, 1, 3 and w to 4, 5
    @pytest.mark.parametrize("i, j, coupled", [
        *[(i, j, True) for i in (0, 1, 3) for j in (4, 5)],
        (0, 3, False),  # in-plane only: xx-xy
        (4, 5, False),  # transverse only: yz-xz
    ])
    def test_couples_normal_reads_one_off_block_modulus(self, i, j, coupled):
        d = 10.0 * np.eye(6)
        d[i, j] = d[j, i] = 1.0
        assert couples_normal(mb.MaterialParams(d=d, rho=1.0, h=1.0)) is coupled

    def test_held_run_assembles_the_w_blocks_bitwise(self, polymer):
        tau = 4e-6
        res = mb.run(mb.ScenarioConfig(
            mesh=mb.StructuredSpec(1.0, 1.0, 8, 8), material=polymer,
            case=mb.CaseSpec(case_id=1, b0=1e6), border="fixed", t_final=5 * tau, tau=tau,
        ))
        system, n = res.system, res.mesh.n_nodes
        assert res.solver["held_in_plane"] is True and not system.coupled
        assert system.K.shape == system.M.shape == (n, n)
        np.testing.assert_array_equal(system.dofs, np.arange(2, 3 * n, 3))
        np.testing.assert_array_equal(system.constrained_dofs, mb.boundary_nodes(res.mesh))
        full = assemble(res.mesh, polymer)
        c = 0.5 * tau**2 * 0.5
        w = system.dofs
        for got, want in ((system.K, full.K), (system.M, full.M),
                          (system.M + c * system.K, full.M + c * full.K)):
            assert _same_csr(got.tocsr(), want.tocsr()[w][:, w])

    @pytest.mark.parametrize("mesh", [
        _perturbed_grid(8, 8, seed=5),
        mb.generate_structured(mb.StructuredSpec(2.0, 0.7, 12, 5)),
    ], ids=["perturbed", "non-square"])
    def test_held_assembly_is_the_w_blocks_bitwise(self, mesh, polymer, orthotropic):
        w = np.arange(2, 3 * mesh.n_nodes, 3)
        for material in (polymer, orthotropic):
            held, full = assemble(mesh, material, w_only=True), assemble(mesh, material)
            np.testing.assert_array_equal(held.dofs, w)
            for got, want in ((held.K, full.K), (held.M, full.M)):
                assert _same_csr(got, want[w][:, w])

    def test_held_run_builds_no_strain_operator(self, polymer, monkeypatch):
        built = assembly.strain_operator

        def refused(mesh, w_only=False):
            if not w_only:
                raise AssertionError("strain_operator called")
            return built(mesh, w_only)

        monkeypatch.setattr(assembly, "strain_operator", refused)
        tau = 4e-6
        cfg = mb.ScenarioConfig(
            mesh=mb.StructuredSpec(1.0, 1.0, 8, 8), material=polymer,
            case=mb.CaseSpec(case_id=1, b0=1e6), border="fixed", t_final=5 * tau, tau=tau,
        )
        assert mb.run(cfg).solver["held_in_plane"] is True
        # the tilted load drives (u, v): that run needs the full operator
        with pytest.raises(AssertionError, match="strain_operator called"):
            mb.run(replace(cfg, case=mb.CaseSpec(case_id=2, b0=1e6)))

    def test_held_assembly_peak_memory(self, polymer):
        # at 64^2 a full (m, 6, 9) B alone takes 3.4 MiB, and a (6m, 3n) S as much again
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 64, 64))
        assemble(mesh, polymer, w_only=True)
        tracemalloc.start()
        try:
            assemble(mesh, polymer, w_only=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"held assemble peaked at {peak / 2**20:.2f} MiB"


class TestGlobalProperties:
    def test_stiffness_symmetric_psd(self, grid4, steel):
        k = assemble(grid4, steel).K.toarray()
        assert np.abs(k - k.T).max() <= 1e-13 * np.abs(k).max()
        w = np.linalg.eigvalsh(0.5 * (k + k.T))
        assert w.min() > -1e-10 * w.max()

    def test_mass_symmetric_pd(self, grid4, steel):
        m = assemble(grid4, steel).M.toarray()
        assert np.abs(m - m.T).max() <= 1e-15 * np.abs(m).max()
        assert np.linalg.eigvalsh(0.5 * (m + m.T)).min() > 0

    def test_translation_nullspace(self, grid4, steel):
        sys0 = assemble(grid4, steel)
        scale = np.abs(sys0.K.data).max()
        for c in range(3):
            t = np.zeros(sys0.ndof)
            t[c::3] = 1.0
            assert np.abs(sys0.K @ t).max() < 1e-10 * scale

    def test_total_mass(self, grid4, steel):
        sys0 = assemble(grid4, steel)
        total = steel.rho * steel.h * grid4.areas().sum()
        for c in range(3):
            e = np.zeros(sys0.ndof)
            e[c::3] = 1.0
            assert abs(e @ (sys0.M @ e) - total) < 1e-12 * total

    def test_ndof(self, grid4, steel):
        assert assemble(grid4, steel).ndof == 3 * grid4.n_nodes

    def test_degenerate_triangle_named(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [2.0, 0.0]])
        tris = np.array([[0, 1, 2], [0, 1, 3]])  # second is collinear
        # rejected when the mesh is made, before any assembly
        with pytest.raises(MeshError, match="triangle 1"):
            mb.Mesh(nodes=nodes, triangles=tris)


class TestBlochWaveSpeeds:
    """Plane-wave speeds of the assembled K and M in every direction.

    For a plane wave d exp(i k n.x) the continuum gives rho c^2 = eig G(n),
    G(n) = B(n)^T D B(n), with B(n) the strain of a unit gradient along
    n.  A structured grid is translation-invariant, so an interior
    node's rows of K and M, each entry times exp(i k.(x_j - x_c)), give
    3x3 Hermitian K(k) and M(k), and the discrete speeds are
    sqrt(eig(K(k), M(k)))/|k| (Mullen and Belytschko, IJNME 18, 1982).
    On run_aniso's fully anisotropic D, an 8x8 grid and 8 to 64 points
    per wavelength, each branch's relative speed error falls at rates
    2.00 to 2.03; with D's w-(u, v) coupling dropped from K, at least
    one branch per direction stalls at an error of 2 to 12%.
    """

    DIRECTIONS_DEG = (0, 45, 90, 135)
    POINTS_PER_WAVELENGTH = (8, 16, 32, 64)
    RATE_BAND = (1.9, 2.1)

    def _material(self):
        config = json.loads((CONFIGS / "run_aniso.json").read_text(encoding="utf-8"))
        return mb.params_from_config(config["material"])

    def _rates(self, material, stiffness):
        """Per direction, the rates of each branch's relative speed error
        between successive POINTS_PER_WAVELENGTH, shape (3, 3), with K
        assembled from `stiffness` and M from `material`."""
        n = 8
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, n, n))
        k, m = (a.tocsr() for a in (assemble(mesh, stiffness).K, assemble(mesh, material).M))
        c = (n // 2) * (n + 1) + n // 2  # the center node
        rows = slice(3 * c, 3 * c + 3)
        blocks = [a[rows].toarray().reshape(3, -1, 3) for a in (k, m)]
        rates = []
        for deg in self.DIRECTIONS_DEG:
            n1, n2 = np.cos(np.radians(deg)), np.sin(np.radians(deg))
            b = np.zeros((6, 3))  # rows xx, yy, zz, xy, yz, xz; columns u, v, w
            b[0, 0], b[1, 1], b[3, 0], b[3, 1], b[4, 2], b[5, 2] = n1, n2, n2, n1, n2, n1
            exact = np.sqrt(np.linalg.eigvalsh(b.T @ material.d @ b) / material.rho)
            errors = []
            for points in self.POINTS_PER_WAVELENGTH:
                wavenumber = 2.0 * np.pi * n / points
                phase = np.exp(1j * wavenumber * (mesh.nodes - mesh.nodes[c]) @ [n1, n2])
                kk, mk = (np.einsum("inj,n->ij", blk, phase) for blk in blocks)
                speeds = np.sqrt(eigh(kk, mk, eigvals_only=True)) / wavenumber
                errors.append(np.abs(speeds / exact - 1.0))
            errors = np.array(errors)
            rates.append(np.log2(errors[:-1] / errors[1:]))
        return rates

    def test_second_order_in_every_direction_and_branch(self):
        material = self._material()
        lo, hi = self.RATE_BAND
        for deg, rates in zip(self.DIRECTIONS_DEG, self._rates(material, material)):
            assert np.all((lo <= rates) & (rates <= hi)), (deg, rates)

    def test_dropping_the_coupling_from_k_fails(self):
        material = self._material()
        d = material.d.copy()
        d[np.ix_([0, 1, 3], [4, 5])] = d[np.ix_([4, 5], [0, 1, 3])] = 0.0
        lo, hi = self.RATE_BAND
        for deg, rates in zip(self.DIRECTIONS_DEG, self._rates(material, replace(material, d=d))):
            assert not np.all((lo <= rates) & (rates <= hi)), (deg, rates)


class TestDofIds:
    def test_hand_check(self):
        ids = element_dof_ids(np.array([[0, 2, 5]]))
        np.testing.assert_array_equal(ids, [[0, 1, 2, 6, 7, 8, 15, 16, 17]])

    def test_shape(self, grid4):
        ids = element_dof_ids(grid4.triangles)
        assert ids.shape == (grid4.n_triangles, 9)
        assert ids.max() == 3 * grid4.n_nodes - 1


class TestLoadVector:
    def test_total_force(self, grid4, polymer):
        ids = np.arange(grid4.n_triangles)
        b = np.array([0.0, 0.0, 2.5e5])
        f = build_load_vector(grid4, polymer, ids, b)
        total = polymer.h * grid4.areas().sum()
        # sum over w entries recovers -h*A_total*b_z
        assert abs(f[2::3].sum() + total * 2.5e5) < 1e-9 * total * 2.5e5
        assert np.all(f[0::3] == 0.0) and np.all(f[1::3] == 0.0)

    def test_per_element_vectors(self, grid4, polymer):
        ids = np.array([0, 3])
        bs = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        f = build_load_vector(grid4, polymer, ids, bs)
        areas = grid4.areas()
        assert abs(f[0::3].sum() + polymer.h * areas[0] * 1.0) < 1e-18
        assert abs(f[1::3].sum() + polymer.h * areas[3] * 2.0) < 1e-18

    def test_empty_ids(self, grid4, polymer):
        f = build_load_vector(grid4, polymer, np.array([], dtype=int), [0.0, 0.0, 1.0])
        assert not f.any()

    def test_out_of_range_id(self, grid4, polymer):
        with pytest.raises(AssemblyError, match="out of range"):
            build_load_vector(grid4, polymer, [grid4.n_triangles], [0.0, 0.0, 1.0])

    def test_bad_vector_shape(self, grid4, polymer):
        with pytest.raises(AssemblyError, match="load vectors"):
            build_load_vector(grid4, polymer, [0, 1], np.zeros((3, 3)))


class TestConstraints:
    def _constrained(self, grid4, steel, nodes=(0, 5)):
        sys0 = assemble(grid4, steel)
        constraints = [Constraint(n, (0.0, 0.0, 0.0)) for n in nodes]
        return sys0, apply_constraints(sys0, constraints)

    def test_shares_matrices_and_records_cdofs(self, grid4, steel):
        sys0, sysc = self._constrained(grid4, steel)
        assert sysc.K is sys0.K and sysc.M is sys0.M
        np.testing.assert_array_equal(sysc.constrained_dofs, [0, 1, 2, 15, 16, 17])
        assert sysc.constrained_dofs.dtype == np.int64
        assert sysc.constraints == tuple(Constraint(n, (0.0, 0.0, 0.0)) for n in (0, 5))
        assert sys0.constraints == ()

    def test_free_rows_and_columns_bitwise(self, grid4, steel):
        # constraining changes no entry, in free rows or anywhere else
        sys0, sysc = self._constrained(grid4, steel)
        free = np.setdiff1d(np.arange(sys0.ndof), sysc.constrained_dofs)
        np.testing.assert_array_equal(sysc.K.toarray()[free], sys0.K.toarray()[free])
        np.testing.assert_array_equal(sysc.M.toarray()[free], sys0.M.toarray()[free])

    def test_original_system_untouched(self, grid4, steel):
        sys0 = assemble(grid4, steel)
        k_before = sys0.K.toarray().copy()
        apply_constraints(sys0, [Constraint(0, (0.0, 0.0, 0.0))])
        np.testing.assert_array_equal(sys0.K.toarray(), k_before)
        assert sys0.constraints == () and sys0.constrained_dofs.size == 0

    def test_reapplying_replaces(self, grid4, steel):
        sys0, sysc = self._constrained(grid4, steel)
        again = apply_constraints(sysc, [Constraint(1, (0.0, 0.0, 1.0))])
        assert again.constraints == (Constraint(1, (0.0, 0.0, 1.0)),)
        np.testing.assert_array_equal(again.constrained_dofs, [3, 4, 5])
        np.testing.assert_array_equal(apply_constraints(sysc, []).free_dofs, np.arange(sys0.ndof))

    def test_duplicate_node_named(self, grid4, steel):
        constraints = [
            Constraint(3, (0.0, 0.0, 0.0)),
            Constraint(3, (1.0, 0.0, 0.0)),
        ]
        with pytest.raises(ConfigError, match=r"\[3\]"):
            apply_constraints(assemble(grid4, steel), constraints)

    def test_node_out_of_range(self, grid4, steel):
        with pytest.raises(ConfigError, match="out of range"):
            apply_constraints(assemble(grid4, steel), [Constraint(grid4.n_nodes, (0.0, 0.0, 0.0))])

    def test_no_constraints_still_flags(self, grid4, steel):
        # a free membrane needs no apply_constraints: none is the default
        sys0 = assemble(grid4, steel)
        assert sys0.constrained_dofs.dtype == np.int64 and sys0.constrained_dofs.size == 0
        np.testing.assert_array_equal(sys0.free_dofs, np.arange(sys0.ndof))
        sysc = apply_constraints(sys0, [])
        assert sysc.constrained_dofs.size == 0
        np.testing.assert_array_equal(sysc.K.toarray(), sys0.K.toarray())


class TestUpdateLoad:
    def _load(self, n, value, t_start, t_end):
        return CompiledLoad(vector=np.full(n, value), t_start=t_start, t_end=t_end)

    def test_closed_window(self, grid4, steel):
        sys0 = assemble(grid4, steel)
        ld = self._load(sys0.ndof, 2.0, 0.1, 0.2)
        assert update_load(sys0, 0.1, [ld])[0] == 2.0
        assert update_load(sys0, 0.2, [ld])[0] == 2.0
        assert update_load(sys0, 0.15, [ld])[0] == 2.0
        assert update_load(sys0, 0.3, [ld])[0] == 0.0
        assert update_load(sys0, 0.05, [ld])[0] == 0.0

    def test_edge_tolerance(self, grid4, steel):
        # an edge landing one ulp past the window must still count
        sys0 = assemble(grid4, steel)
        ld = self._load(sys0.ndof, 1.0, 0.0, 0.2)
        tol = 1e-9 * 0.2
        assert update_load(sys0, 0.2 + 0.5 * tol, [ld])[0] == 1.0
        assert update_load(sys0, -0.5 * tol, [ld])[0] == 1.0
        assert update_load(sys0, 0.2 + 3.0 * tol, [ld])[0] == 0.0

    def test_multiple_loads_sum(self, grid4, steel):
        sys0 = assemble(grid4, steel)
        lds = [
            self._load(sys0.ndof, 1.0, 0.0, 1.0),
            self._load(sys0.ndof, 2.0, 0.5, 1.5),
        ]
        assert update_load(sys0, 0.25, lds)[0] == 1.0
        assert update_load(sys0, 0.75, lds)[0] == 3.0
        assert update_load(sys0, 1.25, lds)[0] == 2.0

    def test_constrained_entries_ignored_by_solve(self, grid4, steel):
        # the solve never reads f on constrained rows, so update_load
        # need not zero them
        sysc = apply_constraints(assemble(grid4, steel),
                                 [Constraint(0, (1.0, 0.0, 0.0)), Constraint(7, (0.0, 0.0, 0.0))])
        a0 = np.random.default_rng(3).uniform(-1e-4, 1e-4, sysc.ndof)
        params = NewmarkParams(tau=1e-6)
        factor = factor_once(sysc, params)
        runs = []
        for value in (0.0, 7.5e3, -np.pi * 1e9):
            f = update_load(sysc, 0.5, [self._load(sysc.ndof, 5.0, 0.0, 1.0)])
            assert np.all(f == 5.0)
            f[sysc.constrained_dofs] = value
            states = [init_state(sysc, f, a0=a0)]
            for _ in range(3):
                states.append(step(states[-1], factor, f))
            runs.append(states)
        for states in runs[1:]:
            for got, want in zip(states, runs[0]):
                np.testing.assert_array_equal(got.a, want.a)
                np.testing.assert_array_equal(got.adot, want.adot)
                np.testing.assert_array_equal(got.addot, want.addot)

    def test_nothing_stored_on_system(self, grid4, steel):
        # the load is an argument of each step, not a field of the system
        sys0 = assemble(grid4, steel)
        ld = self._load(sys0.ndof, 4.0, 0.0, 1.0)
        f = update_load(sys0, 0.0, [ld])
        assert not hasattr(sys0, "f")
        assert f is not ld.vector and update_load(sys0, 0.0, [ld]) is not f
        np.testing.assert_array_equal(f, ld.vector)
