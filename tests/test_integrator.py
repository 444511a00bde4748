"""Newmark integration tests: order, stability, constraints, energy."""
import json
import math
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

import membrane as mb
from membrane.cli import main
from membrane.assembly import (
    Constraint,
    GlobalSystem,
    apply_constraints,
    assemble,
    build_load_vector,
)
from membrane.errors import SolverError
from membrane import scenarios
from membrane.material import params_from_config, validate_elastic_matrix
from membrane.mesh import boundary_nodes
from membrane.scenarios import LoadSpec
from membrane.integrator import (
    NewmarkParams,
    State,
    default_timestep,
    energy,
    factor_once,
    init_state,
    step,
)

from conftest import orthotropic_gpa

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _oscillator(omega):
    """A 3-dof system M = I, K = omega^2 I: each dof is one oscillator."""
    mesh1 = mb.Mesh(nodes=np.array([[0.0, 0.0]]), triangles=np.empty((0, 3), dtype=np.int64))
    return GlobalSystem(
        K=(omega**2) * sparse.identity(3, format="csr"),
        M=sparse.identity(3, format="csr"),
        f=np.zeros(3),
        mesh=mesh1,
        dofs=np.arange(3),
    )


def _integrate_oscillator(omega, t_final, n_steps):
    system = _oscillator(omega)
    params = NewmarkParams(tau=t_final / n_steps)
    state = init_state(system, a0=[1.0, 0.0, 0.0])
    factor = factor_once(system, params)
    for _ in range(n_steps):
        state = step(state, factor)
    return state


class TestOscillator:
    def test_exact_initial_acceleration(self):
        omega = 2.0
        state = init_state(_oscillator(omega), a0=[1.0, 0.0, 0.0])
        np.testing.assert_allclose(state.addot, [-(omega**2), 0.0, 0.0], rtol=1e-14)

    def test_second_order_convergence(self):
        # amplitude error against cos(omega*t) must shrink 4x per halving
        omega, t_final = 2.0, 1.0
        errors = []
        for n in (50, 100, 200):
            state = _integrate_oscillator(omega, t_final, n)
            errors.append(abs(state.a[0] - np.cos(omega * t_final)))
        rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        for r in rates:
            assert 1.9 <= r <= 2.1, f"measured order {rates}"

    def test_untouched_dofs_stay_zero(self):
        state = _integrate_oscillator(2.0, 1.0, 50)
        assert state.a[1] == 0.0 and state.a[2] == 0.0

    def test_energy_conserved_at_half_half(self):
        omega = 2.0
        system = _oscillator(omega)
        params = NewmarkParams(tau=0.01)
        state = init_state(system, a0=[1.0, 0.0, 0.0])
        factor = factor_once(system, params)
        e0 = sum(energy(state, system.K, system.M))
        for _ in range(500):
            state = step(state, factor)
            e = sum(energy(state, system.K, system.M))
            assert abs(e - e0) <= 1e-10 * e0


class TestParams:
    def test_nonpositive_tau_rejected(self):
        with pytest.raises(SolverError, match="positive"):
            NewmarkParams(tau=0.0)
        with pytest.raises(SolverError, match="positive"):
            NewmarkParams(tau=-1e-6)

    def test_trapezoid_rule_is_fixed(self):
        # beta1 = beta2 = 1/2 are the scheme's constants; tau is the one field
        assert [f.name for f in fields(NewmarkParams)] == ["tau"]
        assert (NewmarkParams(tau=1e-6).beta1, NewmarkParams.beta2) == (0.5, 0.5)
        with pytest.raises(TypeError, match="beta1"):
            NewmarkParams(tau=1e-6, beta1=0.6)

    def test_default_timestep(self, grid4, steel):
        expected = grid4.min_edge_length() / (10.0 * mb.max_wave_speed(steel))
        assert default_timestep(grid4, steel) == expected


class TestInitState:
    def test_balance_at_t0(self, grid4, polymer):
        border = [Constraint(n, (0.0, 0.0, 0.0)) for n in boundary_nodes(grid4)]
        sysc = apply_constraints(assemble(grid4, polymer), border)
        rng = np.random.default_rng(1)
        a0 = rng.uniform(-1e-4, 1e-4, sysc.ndof)
        state = init_state(sysc, a0=a0)
        free = np.setdiff1d(np.arange(sysc.ndof), sysc.constrained_dofs)
        r = (sysc.M @ state.addot + sysc.K @ state.a + sysc.f)[free]
        scale = np.abs(sysc.K @ state.a).max()
        assert np.abs(r).max() < 1e-10 * scale
        assert state.t == 0.0 and state.step == 0

    def test_vfix_overrides_v0(self, grid4, steel):
        sysc = apply_constraints(assemble(grid4, steel), [Constraint(2, (0.25, -1.0, 3.0))])
        state = init_state(sysc)  # v0 is zero but for the constrained node's v_fix
        np.testing.assert_array_equal(state.adot[6:9], [0.25, -1.0, 3.0])
        assert not np.delete(state.adot, [6, 7, 8]).any()

    def test_constrained_acceleration_zero(self, grid4, steel):
        sysc = apply_constraints(assemble(grid4, steel), [Constraint(0, (1.0, 0.0, 0.0))])
        state = init_state(sysc, a0=np.ones(sysc.ndof))
        assert np.all(state.addot[[0, 1, 2]] == 0.0)

    def test_inputs_copied(self, grid4, steel):
        sysc = assemble(grid4, steel)
        a0 = np.zeros(sysc.ndof)
        state = init_state(sysc, a0=a0)
        a0[0] = 99.0
        assert state.a[0] == 0.0

    def test_bad_shape(self, grid4, steel):
        sysc = assemble(grid4, steel)
        with pytest.raises(SolverError, match="shape"):
            init_state(sysc, a0=np.zeros(5))


class TestStep:
    def _free_membrane(self, polymer, n=8):
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, n, n))
        return mesh, assemble(mesh, polymer)

    def test_factor_carries_its_system_and_params(self, grid4, steel):
        sysc = _fixed_border_system(grid4, steel)
        params = NewmarkParams(tau=1e-6)
        factor = factor_once(sysc, params)
        assert factor.system is sysc and factor.params is params
        assert step(init_state(sysc), factor).t == params.tau

    def test_nonfinite_raises(self, grid4, steel):
        sysc = assemble(grid4, steel)
        params = NewmarkParams(tau=1e-6)
        state = init_state(sysc)
        state.a[0] = np.inf
        factor = factor_once(sysc, params)
        with pytest.raises(SolverError, match="non-finite"):
            step(state, factor)

    def test_time_is_step_times_tau(self, polymer):
        _, sysc = self._free_membrane(polymer, n=4)
        tau = 1e-3 / 3.0
        params = NewmarkParams(tau=tau)
        state = init_state(sysc)
        factor = factor_once(sysc, params)
        for k in range(1, 8):
            state = step(state, factor)
            assert state.t == k * tau
            assert state.step == k

    def test_balance_after_step(self, polymer):
        mesh, sysc = self._free_membrane(polymer, n=6)
        rng = np.random.default_rng(4)
        params = NewmarkParams(tau=default_timestep(mesh, polymer))
        state = init_state(sysc, a0=rng.uniform(-1e-4, 1e-4, sysc.ndof))
        factor = factor_once(sysc, params)
        state = step(state, factor)
        r = sysc.M @ state.addot + sysc.K @ state.a + sysc.f
        scale = max(np.abs(sysc.K @ state.a).max(), np.abs(sysc.M @ state.addot).max())
        assert np.abs(r).max() < 1e-9 * scale

    def test_constrained_velocity_bitwise(self, polymer):
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 6, 6))
        vfix = (0.1, -0.25, 0.5)
        sysc = apply_constraints(assemble(mesh, polymer), [Constraint(0, vfix)] + [
            Constraint(n, (0.0, 0.0, 0.0)) for n in boundary_nodes(mesh) if n != 0
        ])
        params = NewmarkParams(tau=default_timestep(mesh, polymer))
        state = init_state(sysc)
        factor = factor_once(sysc, params)
        for _ in range(200):
            state = step(state, factor)
            assert tuple(state.adot[0:3]) == vfix
            assert np.all(state.addot[0:3] == 0.0)

    def test_fixed_border_displacement_exactly_zero(self, polymer):
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 6, 6))
        border = [Constraint(n, (0.0, 0.0, 0.0)) for n in boundary_nodes(mesh)]
        sysc = apply_constraints(assemble(mesh, polymer), border)
        rng = np.random.default_rng(9)
        a0 = rng.uniform(-1e-4, 1e-4, sysc.ndof)
        a0[sysc.constrained_dofs] = 0.0
        params = NewmarkParams(tau=default_timestep(mesh, polymer))
        state = init_state(sysc, a0=a0)
        factor = factor_once(sysc, params)
        for _ in range(100):
            state = step(state, factor)
        assert np.all(state.a[sysc.constrained_dofs] == 0.0)
        assert np.all(state.adot[sysc.constrained_dofs] == 0.0)

    def test_stable_far_beyond_explicit_limit(self, polymer):
        # 100x the shortest-edge timestep, 1000 steps, energy must not grow
        mesh, sysc = self._free_membrane(polymer, n=8)
        raw = assemble(mesh, polymer)
        tau = 100.0 * default_timestep(mesh, polymer)
        params = NewmarkParams(tau=tau)
        rng = np.random.default_rng(12)
        state = init_state(sysc, a0=rng.uniform(-1e-3, 1e-3, sysc.ndof))
        factor = factor_once(sysc, params)
        e0 = sum(energy(state, raw.K, raw.M))
        for _ in range(1000):
            state = step(state, factor)
        assert np.all(np.isfinite(state.a))
        e1 = sum(energy(state, raw.K, raw.M))
        assert e1 <= e0 * (1.0 + 1e-8)


class TestEnergy:
    def test_membrane_energy_conserved(self, polymer):
        # trapezoidal rule: kinetic + strain is a discrete invariant
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 8, 8))
        raw = assemble(mesh, polymer)
        border = [Constraint(n, (0.0, 0.0, 0.0)) for n in boundary_nodes(mesh)]
        sysc = apply_constraints(assemble(mesh, polymer), border)
        rng = np.random.default_rng(21)
        a0 = rng.uniform(-1e-4, 1e-4, sysc.ndof)
        a0[sysc.constrained_dofs] = 0.0
        params = NewmarkParams(tau=default_timestep(mesh, polymer))
        state = init_state(sysc, a0=a0)
        factor = factor_once(sysc, params)
        e0 = sum(energy(state, raw.K, raw.M))
        for _ in range(300):
            state = step(state, factor)
        e1 = sum(energy(state, raw.K, raw.M))
        assert abs(e1 - e0) <= 1e-10 * e0

    def test_components_nonnegative(self, polymer):
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 4, 4))
        raw = assemble(mesh, polymer)
        sysc = assemble(mesh, polymer)
        rng = np.random.default_rng(2)
        state = init_state(sysc, a0=rng.uniform(-1e-4, 1e-4, sysc.ndof))
        kin, strain = energy(state, raw.K, raw.M)
        assert kin == 0.0  # starts at rest
        assert strain > 0.0


def _fully_anisotropic():
    c = orthotropic_gpa()
    c[0, 3] = c[3, 0] = 12e9
    c[1, 5] = c[5, 1] = -9e9
    c[2, 4] = c[4, 2] = 6e9
    validate_elastic_matrix(c)
    return mb.MaterialParams(d=c, rho=7800.0, h=1e-3)


def _fixed_border_system(mesh, material, strike=None):
    strikes = [] if strike is None else [Constraint(strike, (0.1, -0.2, 1.0))]
    return apply_constraints(assemble(mesh, material), strikes + [
        Constraint(int(n), (0.0, 0.0, 0.0)) for n in boundary_nodes(mesh)
    ])


class TestFreeBlockSolve:
    def test_steps_match_dense_row_replaced_solve(self):
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 6, 6))
        material = _fully_anisotropic()
        raw = assemble(mesh, material)
        raw.f = build_load_vector(mesh, material, [20, 21], (3e5, -1e5, 1e6))
        sysc = apply_constraints(raw, [Constraint(24, (0.1, -0.2, 1.0))] + [
            Constraint(int(n), (0.0, 0.0, 0.0)) for n in boundary_nodes(mesh)
        ])
        cdofs = sysc.constrained_dofs
        params = NewmarkParams(tau=default_timestep(mesh, material))
        tau, b1, b2 = params.tau, params.beta1, params.beta2
        # the dense reference replaces the constrained rows, which then
        # read a''_c = 0: K and f rows zeroed, M rows the identity
        k, m, f = sysc.K.toarray(), sysc.M.toarray(), sysc.f.copy()
        k[cdofs] = 0.0
        m[cdofs] = 0.0
        m[cdofs, cdofs] = 1.0
        f[cdofs] = 0.0
        a_dense = m + 0.5 * tau**2 * b2 * k

        def close(got, want):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        a0 = np.random.default_rng(5).uniform(-1e-4, 1e-4, sysc.ndof)
        state = init_state(sysc, a0=a0)
        ref_v = state.adot.copy()
        ref_acc = np.linalg.solve(m, -(k @ a0 + f))
        close(state.addot, ref_acc)
        ref_a = a0
        factor = factor_once(sysc, params)
        for _ in range(5):
            state = step(state, factor)
            v_bar = ref_v + tau * (1.0 - b1) * ref_acc
            a_bar = ref_a + tau * ref_v + 0.5 * tau**2 * (1.0 - b2) * ref_acc
            ref_acc = np.linalg.solve(a_dense, -(f + k @ a_bar))
            ref_v = v_bar + b1 * tau * ref_acc
            ref_a = a_bar + 0.5 * tau**2 * b2 * ref_acc
            close(state.addot, ref_acc)
            close(state.adot, ref_v)
            close(state.a, ref_a)
            assert np.all(state.addot[cdofs] == 0.0)

    @pytest.mark.parametrize("material", ["polymer", "orthotropic"])
    def test_symmetric_pivots_and_less_fill(self, material, request):
        mat = request.getfixturevalue(material)
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 32, 32))
        sysc = _fixed_border_system(mesh, mat)
        params = NewmarkParams(tau=default_timestep(mesh, mat))
        lu = factor_once(sysc, params).lu
        np.testing.assert_array_equal(lu.superlu.perm_r, lu.superlu.perm_c)
        general = splu((sysc.M + 0.5 * params.tau**2 * params.beta2 * sysc.K).tocsc())
        assert lu.L.nnz + lu.U.nnz < general.L.nnz + general.U.nnz

    def test_solve_is_full_length_with_zero_constrained_entries(self, grid4, steel):
        sysc = _fixed_border_system(grid4, steel, strike=12)
        lu = factor_once(sysc, NewmarkParams(tau=1e-6)).lu
        x = lu.solve(np.ones(sysc.ndof))
        assert x.shape == (sysc.ndof,)
        assert np.all(x[sysc.constrained_dofs] == 0.0)
        assert np.all(x[np.setdiff1d(np.arange(sysc.ndof), sysc.constrained_dofs)] != 0.0)

    def test_singular_free_block_raises(self):
        system = _oscillator(0.0)
        system.M = sparse.diags([1.0, 1.0, 0.0], format="csr")
        with pytest.raises(SolverError, match="singular"):
            factor_once(system, NewmarkParams(tau=0.1))
        with pytest.raises(SolverError, match="mass matrix"):
            init_state(system)

    def test_singular_constrained_rows_are_not_factored(self):
        system = _oscillator(0.0)
        system.M = sparse.diags([1.0, 1.0, 0.0], format="csr")
        system.constrained_dofs = np.array([2])
        factor = factor_once(system, NewmarkParams(tau=0.1))
        np.testing.assert_array_equal(factor.lu.solve(np.array([2.0, 3.0, 4.0])), [2.0, 3.0, 0.0])


# the moduli of the bench's run_aniso_160 workload, in GPa: [1, 6] is
# xx-xz in the code's (xx, yy, zz, xy, yz, xz) order, so they couple w
# with u and v
ANISO_160_MODULI_GPA = [
    [1, 1, 140.0], [1, 2, 3.0], [1, 3, 3.0], [1, 6, 5.0],
    [2, 2, 10.0], [2, 3, 3.0], [2, 6, 2.0], [3, 3, 10.0],
    [4, 4, 5.0], [4, 5, 1.0], [5, 5, 5.0], [6, 6, 5.0],
]


def _keep_factors(monkeypatch):
    """A list that collects every factor `scenarios.run` builds."""
    factors = []

    def keeping_factor_once(*args):
        factors.append(factor_once(*args))
        return factors[-1]

    monkeypatch.setattr("membrane.scenarios.factor_once", keeping_factor_once)
    return factors


def _count_factorizations(monkeypatch):
    """A list that collects the order of every matrix `splu` factors."""
    orders = []

    def counting_splu(*args, **kwargs):
        orders.append(args[0].shape[0])
        return splu(*args, **kwargs)

    monkeypatch.setattr("membrane.integrator.splu", counting_splu)
    return orders


def _free_count(result, w_only):
    """How many dofs of `result`'s system no constraint holds (w only, or all)."""
    system = result.system
    ids = system.dofs[system.free_dofs]
    return int(np.count_nonzero(ids % 3 == 2)) if w_only else ids.size


def _aniso_160():
    d = mb.anisotropic(mb.packed_from_entries(ANISO_160_MODULI_GPA) * 1e9)
    return mb.MaterialParams(d=d, rho=1600.0, h=1e-3)


class TestHeldField:
    """`scenarios.run` holds the in-plane field (u, v) at rest when nothing
    drives it, and factors only the free w dofs; otherwise, and through
    the API, A is factored once over every free dof."""

    TAU = 4e-6

    def _config(self, case, material, n_steps=20, **kwargs):
        if isinstance(case, int):
            # a strike case (3, 4) reads no b0
            case = mb.CaseSpec(case_id=case, b0=None if case in (3, 4) else 1e6)
        return mb.ScenarioConfig(
            mesh=mb.StructuredSpec(1.0, 1.0, 8, 8), material=material, case=case,
            border="fixed", t_final=n_steps * self.TAU, tau=self.TAU, **kwargs,
        )

    @pytest.mark.parametrize("material", ["polymer", "orthotropic"])
    @pytest.mark.parametrize("case_id", [1, 3, 5])
    def test_held_run_matches_unheld_reference(self, case_id, material, request, monkeypatch):
        config = self._config(case_id, request.getfixturevalue(material))
        orders = _count_factorizations(monkeypatch)
        held = mb.run(config)
        assert orders == [_free_count(held, w_only=True)]
        assert held.solver["held_in_plane"] is True
        assert held.solver["factored_dofs"] == orders[0]

        monkeypatch.setattr("membrane.scenarios._in_plane_undriven", lambda *args: False)
        ref = mb.run(config)
        assert orders[1:] == [_free_count(ref, w_only=False)]
        assert ref.solver["held_in_plane"] is False
        assert len(held.snapshots) == len(ref.snapshots) == 21
        for got, want in zip(held.snapshots, ref.snapshots):
            for name in ("a", "adot", "addot"):
                g, r = getattr(got, name), getattr(want, name)
                assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()
            for vec in (got.a, got.adot, got.addot):
                assert np.all(vec[0::3] == 0.0) and np.all(vec[1::3] == 0.0)
        assert np.abs(held.final_state.a[2::3]).max() > 0.0

    @pytest.mark.parametrize("driver", [
        "case_2", "case_4", "initial_translation", "late_in_plane_load", "aniso_160",
    ])
    def test_driven_in_plane_factors_all_free_dofs(self, driver, polymer, monkeypatch):
        if driver in ("case_2", "case_4"):
            config = self._config(int(driver[-1]), polymer)
        elif driver == "initial_translation":
            config = self._config(1, polymer, initial_translation=(1e-6, 0.0, 0.0))
        elif driver == "late_in_plane_load":
            # closed at t = 0, so only a rule that reads every window sees it
            load = LoadSpec(kind="element-uniform", direction=(0.6, 0.0, 0.8), b0=1e6,
                               window=(5 * self.TAU, 10 * self.TAU), elements=(60, 61))
            config = self._config(load, polymer)
        else:
            config = self._config(1, _aniso_160())
        orders = _count_factorizations(monkeypatch)
        result = mb.run(config)
        assert orders == [_free_count(result, w_only=False)]
        assert result.solver["held_in_plane"] is False
        assert np.abs(result.final_state.a[0::3]).max() > 0.0

    @pytest.mark.parametrize("material", ["aniso_160", "fully_anisotropic", "orthotropic", "polymer"])
    def test_api_factors_every_free_dof(self, material, grid4, request):
        if material == "aniso_160":
            mat = _aniso_160()
        elif material == "fully_anisotropic":
            mat = _fully_anisotropic()
        else:
            mat = request.getfixturevalue(material)
        sysc = _fixed_border_system(grid4, mat)
        lu = factor_once(sysc, NewmarkParams(tau=1e-6)).lu
        free = np.setdiff1d(np.arange(sysc.ndof), sysc.constrained_dofs)
        if material in ("aniso_160", "fully_anisotropic"):
            # coupled moduli: the free dofs in node order, each node's
            # dofs next to each other in u, v, w order
            np.testing.assert_array_equal(np.sort(lu.dofs), free)
            nodes = lu.dofs // 3
            same = np.diff(nodes) == 0
            assert np.count_nonzero(~same) + 1 == np.unique(nodes).size
            assert np.all(np.diff(lu.dofs)[same] > 0)
            assert lu.ordering == "MMD_AT_PLUS_A (node graph)"
        else:
            np.testing.assert_array_equal(lu.dofs, free)
            assert lu.ordering == "MMD_AT_PLUS_A"
        assert lu.L.shape == (free.size, free.size)
        assert lu.nnz >= lu.L.nnz + lu.U.nnz - free.size

    def test_node_order_solves_as_dof_order_with_less_fill(self):
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 16, 16))
        sysc = _fixed_border_system(mesh, _aniso_160())
        params = NewmarkParams(tau=1e-6)
        lu = factor_once(sysc, params).lu
        assert lu.ordering == "MMD_AT_PLUS_A (node graph)"
        free = sysc.free_dofs
        a = (sysc.M + 0.5 * params.tau**2 * params.beta2 * sysc.K).tocsr()
        ref = splu(a[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        rhs = np.random.default_rng(0).standard_normal(sysc.ndof)
        got, want = lu.solve(rhs), ref.solve(rhs[free])
        assert np.abs(got[free] - want).max() <= 1e-12 * np.abs(want).max()
        assert np.all(got[sysc.constrained_dofs] == 0.0)
        assert lu.factored_entries == a[free][:, free].nnz
        assert lu.nnz < ref.nnz

    def test_no_free_dofs_runs(self, tmp_path, capsys):
        # a 1x1 fixed-border grid: every dof is constrained, the factor
        # is empty and the run still writes its snapshots
        cfg = {
            "mesh": {"Lx": 1.0, "Ly": 1.0, "nx": 1, "ny": 1},
            "material": {"type": "isotropic", "E": 2e9, "nu": 0.3, "rho": 1200.0, "h": 1e-3},
            "case": {"id": 1, "b0": 1e6}, "border": "fixed", "T": 1e-5,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["solver"]["factored_dofs"] == 0


def _full_step(state, system, params, factor, f):
    """One Newmark step over every dof of the system: the full product
    K a_bar, a solve of full length, and updates of full length."""
    tau = params.tau
    v_bar = state.adot + tau * (1.0 - params.beta1) * state.addot
    a_bar = state.a + tau * state.adot + 0.5 * tau**2 * (1.0 - params.beta2) * state.addot
    addot = factor.lu.solve(-(f + system.K @ a_bar))
    adot = v_bar + params.beta1 * tau * addot
    a = a_bar + 0.5 * tau**2 * params.beta2 * addot
    return State(a=a, adot=adot, addot=addot, t=(state.step + 1) * tau, step=state.step + 1)


class TestSteppedDofs:
    """`run` carries its state over the system's dofs, only w when the
    in-plane field is held, and each step multiplies only the factored
    rows of K: bitwise the full-length step over the system."""

    TAU = 4e-6
    N_STEPS = 30

    @pytest.mark.parametrize("case_id, material, n, held", [
        (1, "polymer", 16, True),
        # a strike: the constrained w of the struck node moves, held
        (3, "polymer", 16, True),
        # coupled moduli, node-ordered factor, nothing held
        (3, "aniso_160", 12, False),
    ])
    def test_matches_full_length_steps_bitwise(self, case_id, material, n, held, request,
                                               monkeypatch):
        mat = _aniso_160() if material == "aniso_160" else request.getfixturevalue(material)
        config = mb.ScenarioConfig(
            mesh=mb.StructuredSpec(1.0, 1.0, n, n), material=mat,
            case=mb.CaseSpec(case_id=case_id, b0=None if case_id == 3 else 1e6), border="fixed",
            t_final=self.N_STEPS * self.TAU, tau=self.TAU,
        )
        calls = []  # per step: the carried length, f at t_n+1, and the arguments
        real_step = scenarios.step

        def recording_step(state, factor):
            calls.append((state.a.size, factor.system.f.copy(), factor))
            return real_step(state, factor)

        monkeypatch.setattr(scenarios, "step", recording_step)
        result = mb.run(config)
        factor = calls[0][2]
        system, params = factor.system, factor.params
        assert result.solver["held_in_plane"] is held
        carried = system.dofs
        assert system.ndof == (1 if held else 3) * result.mesh.n_nodes
        assert len(calls) == result.n_steps == self.N_STEPS
        assert {size for size, *_ in calls} == {system.ndof}

        first = result.snapshots[0]
        state = State(a=first.a[carried], adot=first.adot[carried], addot=first.addot[carried],
                      t=first.t, step=first.step)
        for _, f, *_ in calls:
            state = _full_step(state, system, params, factor, f)
        got = result.final_state
        assert np.abs(got.a).max() > 0.0
        for name in ("a", "adot", "addot"):
            vec = getattr(got, name)
            assert np.array_equal(vec[carried], getattr(state, name))
            assert np.all(np.delete(vec, carried) == 0.0)

    def test_state_must_span_system_dofs(self, grid4, polymer):
        border = [Constraint(int(n), (0.0, 0.0, 0.0)) for n in boundary_nodes(grid4)]
        sysw = apply_constraints(assemble(grid4, polymer, w_only=True), border)
        assert init_state(sysw).a.size == grid4.n_nodes
        params = NewmarkParams(tau=1e-6)
        factor = factor_once(sysw, params)
        z = np.zeros(3 * grid4.n_nodes)
        with pytest.raises(SolverError, match="state must span the system's 25 dofs"):
            step(State(a=z, adot=z, addot=z, t=0.0, step=0), factor)


class TestStandingMode:
    """The (1, 1) standing shear mode of a fixed unit square is exact.

    With the in-plane field at rest, w obeys rho w_tt = G lap(w) (the
    shear rows of D, G = D[4, 4]), so w = sin(pi x) sin(pi y) cos(omega t)
    with omega = pi sqrt(2) sqrt(G/rho).  One period at tau = T/(4n),
    through the API with nothing held, gives at its end (max over nodes)

        n           8        16       32       64
        max error   7.47e-3  5.12e-4  8.76e-5  1.80e-5

    rates 3.87, 2.55 and 2.28: second order, approached from above.
    """

    LEVELS = (8, 16, 32, 64)
    # the measured rate of the two finest levels is 2.28
    RATE_BAND = (2.0, 2.6)

    def test_second_order_energy_and_rest(self):
        study = json.loads((CONFIGS / "study_case1.json").read_text(encoding="utf-8"))
        material = params_from_config(study["material"])
        omega = math.pi * math.sqrt(2.0) * math.sqrt(material.d[4, 4] / material.rho)
        period = 2.0 * math.pi / omega
        errors = []
        for n in self.LEVELS:
            mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, n, n))
            sysc = _fixed_border_system(mesh, material)
            shape = np.sin(math.pi * mesh.nodes[:, 0]) * np.sin(math.pi * mesh.nodes[:, 1])
            a0 = np.zeros(sysc.ndof)
            a0[2::3] = shape
            params = NewmarkParams(tau=period / (4 * n))
            state = init_state(sysc, a0=a0)
            factor = factor_once(sysc, params)
            e0 = sum(energy(state, sysc.K, sysc.M))
            for _ in range(4 * n):
                state = step(state, factor)
            assert abs(sum(energy(state, sysc.K, sysc.M)) - e0) <= 1e-12 * e0
            for vec in (state.a, state.adot, state.addot):
                assert np.all(vec[0::3] == 0.0) and np.all(vec[1::3] == 0.0)
            errors.append(np.abs(state.a[2::3] - shape * math.cos(omega * state.t)).max())
        lo, hi = self.RATE_BAND
        assert lo <= math.log2(errors[-2] / errors[-1]) <= hi


def _jittered_grid(n, amplitude, seed):
    """An n-by-n structured grid with interior nodes moved at random.

    Each interior coordinate moves by up to `amplitude` cell widths, so
    the element shapes and areas vary across the mesh.
    """
    mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, n, n))
    nodes = mesh.nodes.copy()
    interior = np.setdiff1d(np.arange(mesh.n_nodes), boundary_nodes(mesh))
    rng = np.random.default_rng(seed)
    nodes[interior] += rng.uniform(-amplitude, amplitude, (interior.size, 2)) / n
    jittered = mb.Mesh(nodes=nodes, triangles=mesh.triangles)
    jittered.validate()
    return jittered


def _assert_dense_mass_solve(sysc, addot, rhs):
    """addot solves M x = rhs on the free block to 1e-13, relative."""
    free = np.setdiff1d(np.arange(sysc.ndof), sysc.constrained_dofs)
    ref = np.linalg.solve(sysc.M.toarray()[np.ix_(free, free)], rhs[free])
    assert np.abs(addot[free] - ref).max() <= 1e-13 * np.abs(ref).max()


class TestMassSolve:
    """a''_0 comes from Jacobi-preconditioned CG on the free mass block."""

    @pytest.mark.parametrize("border", ["fixed", "free"])
    @pytest.mark.parametrize("material", ["polymer", "anisotropic"])
    def test_matches_dense_solve(self, material, border, request):
        mat = _fully_anisotropic() if material == "anisotropic" else request.getfixturevalue(material)
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 8, 8))
        if border == "fixed":
            sysc = _fixed_border_system(mesh, mat, strike=40)
        else:
            sysc = assemble(mesh, mat)
        sysc.f = build_load_vector(mesh, mat, [60, 61], (3e5, -1e5, 1e6))
        a0 = np.random.default_rng(7).uniform(-1e-4, 1e-4, sysc.ndof)
        state = init_state(sysc, a0=a0)
        _assert_dense_mass_solve(sysc, state.addot, -(sysc.K @ a0 + sysc.f))
        assert np.all(state.addot[sysc.constrained_dofs] == 0.0)

    def test_zero_rhs_gives_exact_zeros(self, grid4, polymer):
        sysc = _fixed_border_system(grid4, polymer, strike=12)
        state = init_state(sysc)
        assert np.all(state.addot == 0.0)

    def test_huge_rhs_scales_exactly(self, grid4, polymer):
        # the inner products see the right-hand side scaled to unit
        # max-norm, so 2**900 times the load neither overflows nor
        # changes a bit beyond the power-of-two factor
        sysc = _fixed_border_system(grid4, polymer)
        sysc.f = np.random.default_rng(3).standard_normal(sysc.ndof)
        small = init_state(sysc).addot
        sysc.f = sysc.f * 2.0**900
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = init_state(sysc).addot
        np.testing.assert_array_equal(huge, small * 2.0**900)

    def test_nonfinite_rhs_raises(self, grid4, polymer):
        sysc = _fixed_border_system(grid4, polymer)
        a0 = np.zeros(sysc.ndof)
        a0[3 * 12] = np.inf  # an interior node
        with pytest.raises(SolverError, match="non-finite right-hand side for the mass matrix"):
            init_state(sysc, a0=a0)

    def test_indefinite_mass_raises(self):
        system = _oscillator(1.0)
        # positive diagonal, eigenvalues -1, 1 and 3
        system.M = sparse.csr_matrix([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(SolverError, match="mass matrix"):
            init_state(system, a0=[1.0, 0.0, 0.0])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_jittered_mesh_within_cap(self, polymer, monkeypatch, seed):
        # the Jacobi-scaled spectrum bound does not depend on element
        # shape, so a jittered mesh converges as fast as a regular one
        monkeypatch.setattr("membrane.integrator._MASS_MAXITER", 40)
        mesh = _jittered_grid(24, 0.25, seed)
        sysc = _fixed_border_system(mesh, polymer)
        rhs = np.random.default_rng(seed).standard_normal(sysc.ndof)
        sysc.f = -rhs
        _assert_dense_mass_solve(sysc, init_state(sysc).addot, rhs)

    def test_one_factorization_per_run(self, polymer, monkeypatch):
        # A is factored once, over the dofs that move (the free w dofs of
        # a transverse load on an isotropic layer); M never is
        blocks = []

        def counting_splu(*args, **kwargs):
            blocks.append(args[0])
            return splu(*args, **kwargs)

        monkeypatch.setattr("membrane.integrator.splu", counting_splu)
        factors = _keep_factors(monkeypatch)
        tau = 4e-6
        config = mb.ScenarioConfig(
            mesh=mb.StructuredSpec(1.0, 1.0, 8, 8), material=polymer,
            case=mb.CaseSpec(case_id=1, b0=1e6), border="fixed",
            t_final=10 * tau, tau=tau,
        )
        mb.run(config)
        [factor] = factors
        [block] = blocks
        system = factor.system
        interior = np.setdiff1d(np.arange(system.mesh.n_nodes), boundary_nodes(system.mesh))
        dofs = factor.lu.dofs
        np.testing.assert_array_equal(system.dofs[dofs], 3 * interior + 2)
        a = (system.M + 0.5 * tau**2 * 0.5 * system.K).tocsr()
        assert (block != a[dofs][:, dofs]).nnz == 0
        assert (block != system.M.tocsr()[dofs][:, dofs]).nnz > 0
