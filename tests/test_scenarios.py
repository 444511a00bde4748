"""Scenario tests: case construction, load fields, the run driver, parsing."""
import copy
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import membrane as mb
from membrane.assembly import CompiledLoad, Constraint, build_load_vector
from membrane.errors import ConfigError
from membrane.mesh import central_element_pair, nearest_node
from membrane.scenarios import (
    CaseSpec,
    LoadSpec,
    ScenarioConfig,
    StrikeSpec,
    build_case,
    compile_case,
    config_from_json,
    distributed_b,
    MAX_STEPS,
    run,
    scenario_from_dict,
    step_count,
)

from conftest import orthotropic_gpa


@pytest.fixture
def grid8():
    return mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 8, 8))


class TestBuildCase:
    def test_case1_normal_load(self, grid8):
        spec = build_case(1, grid8, t_final=1.0, b0=2.0)
        assert isinstance(spec, LoadSpec)
        assert spec.kind == "element-uniform"
        assert spec.direction == (0.0, 0.0, 1.0)
        assert spec.b0 == 2.0
        assert spec.window == (0.0, 0.1)
        assert spec.elements == central_element_pair(grid8)

    def test_case2_tilted_direction(self, grid8):
        spec = build_case(2, grid8, t_final=1.0)
        assert abs(spec.direction[0] - 0.5) < 1e-15
        assert spec.direction[1] == 0.0
        assert abs(spec.direction[2] - math.sqrt(3.0) / 2.0) < 1e-15

    def test_case3_strike_at_center(self, grid8):
        spec = build_case(3, grid8, t_final=1.0, speed=2.0)
        assert isinstance(spec, StrikeSpec)
        assert spec.node == nearest_node(grid8, (0.5, 0.5))
        assert spec.v_fix == (0.0, 0.0, 2.0)

    def test_case4_tilted_strike(self, grid8):
        spec = build_case(4, grid8, t_final=1.0, speed=2.0)
        vx, vy, vz = spec.v_fix
        assert abs(vx - 1.0) < 1e-15
        assert vy == 0.0
        assert abs(vz - math.sqrt(3.0)) < 1e-15

    def test_case5_distributed(self, grid8):
        spec = build_case(5, grid8, t_final=2.0)
        assert spec.kind == "distributed-cos2"
        assert spec.direction == (0.0, 0.0, 1.0)
        assert spec.window == (0.0, 2.0)

    def test_explicit_window_kept(self, grid8):
        spec = build_case(1, grid8, t_final=1.0, window=(0.0, 0.25))
        assert spec.window == (0.0, 0.25)

    def test_unknown_case_rejected(self, grid8):
        with pytest.raises(ConfigError, match="unknown case id"):
            build_case(6, grid8, t_final=1.0)


class TestDistributedB:
    def test_center_value(self):
        assert distributed_b(0.5, 0.5, b0=3.0, size=1.0) == 3.0

    def test_literal_cutoff(self):
        # r = pi/2 * distance; default cutoff r <= size keeps only
        # distance <= 2*size^2/pi from the center
        edge = 2.0 / math.pi
        inside = distributed_b(0.5 + 0.99 * edge, 0.5, b0=1.0, size=1.0)
        outside = distributed_b(0.5 + 1.01 * edge, 0.5, b0=1.0, size=1.0)
        assert inside > 0.0
        assert outside == 0.0
        # the cutoff truncates mid-slope: the field jumps there
        assert inside > 0.25

    def test_natural_zero_with_pi_over_2(self):
        v_edge = distributed_b(1.5, 0.5, b0=1.0, size=1.0, support_radius=math.pi / 2)
        assert abs(v_edge) < 1e-30  # cos^2 reaches zero exactly at the edge
        assert distributed_b(1.6, 0.5, b0=1.0, size=1.0, support_radius=math.pi / 2) == 0.0
        assert distributed_b(1.4, 0.5, b0=1.0, size=1.0, support_radius=math.pi / 2) > 0.0

    def test_vectorized(self):
        x = np.linspace(0.0, 1.0, 11)
        v = distributed_b(x, np.full_like(x, 0.5), b0=2.0, size=1.0)
        assert v.shape == x.shape
        assert v.max() == 2.0

    def test_center_override(self):
        assert distributed_b(0.1, 0.2, b0=5.0, size=1.0, center=(0.1, 0.2)) == 5.0

    def test_bad_size(self):
        with pytest.raises(ConfigError, match="size"):
            distributed_b(0.0, 0.0, b0=1.0, size=0.0)


class TestCompileCase:
    def test_case1_compiles_to_one_load(self, grid8, polymer):
        loads, cons = compile_case(grid8, polymer, CaseSpec(case_id=1, b0=1e6), 1.0)
        assert len(loads) == 1 and cons == []
        ld = loads[0]
        assert (ld.t_start, ld.t_end) == (0.0, 0.1)
        # only the central pair is loaded, normal direction only
        assert not ld.vector[0::3].any() and not ld.vector[1::3].any()
        pair = central_element_pair(grid8)
        touched = set(np.unique(grid8.triangles[list(pair)]))
        nonzero = set(np.nonzero(ld.vector[2::3])[0])
        assert nonzero == touched

    def test_strike_compiles_to_constraint(self, grid8, polymer):
        loads, cons = compile_case(grid8, polymer, CaseSpec(case_id=3, speed=4.0), 1.0)
        assert loads == []
        assert cons == [Constraint(node=nearest_node(grid8, (0.5, 0.5)), v_fix=(0.0, 0.0, 4.0))]

    def test_strike_node_out_of_range(self, grid8, polymer):
        with pytest.raises(ConfigError, match="out of range"):
            compile_case(grid8, polymer, StrikeSpec(node=10**6, speed=1.0), 1.0)

    def test_bad_window(self):
        with pytest.raises(ConfigError, match="window"):
            LoadSpec("element-uniform", (0, 0, 1), 1.0, (0.5, 0.1), elements=(0,))

    def test_uniform_needs_elements(self):
        with pytest.raises(ConfigError, match="target elements"):
            LoadSpec("element-uniform", (0, 0, 1), 1.0, (0.0, 1.0), elements=())

    @pytest.mark.parametrize("bad", [-1, 128, 2**63, 10**20])
    def test_uniform_element_named_as_written(self, grid8, polymer, bad):
        # numpy would wrap 2**63 to -2**63 and overflow on 10**20
        spec = LoadSpec("element-uniform", (0, 0, 1), 1.0, (0.0, 1.0), elements=(0, bad))
        with pytest.raises(ConfigError, match=rf"^load element id {bad} out of range 0\.\.127$"):
            compile_case(grid8, polymer, spec, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown load kind"):
            LoadSpec("nodal", (0, 0, 1), 1.0, (0.0, 1.0))

    def test_unsupported_case_object(self, grid8, polymer):
        with pytest.raises(ConfigError, match="unsupported case object"):
            compile_case(grid8, polymer, {"id": 1}, 1.0)

    def test_vanishing_distributed_load(self, grid8, polymer):
        with pytest.raises(ConfigError, match="vanishes"):
            compile_case(grid8, polymer, CaseSpec(case_id=5, b0=0.0), 1.0)

    def test_case5_samples_distributed_b_at_centroids(self, polymer):
        # off-center, non-square, with a cutoff that leaves some elements unloaded
        mesh = mb.generate_structured(mb.StructuredSpec(2.0, 1.0, 8, 4))
        loads, _ = compile_case(mesh, polymer, CaseSpec(case_id=5, b0=3e5, support_radius=0.5), 1.0)
        c = mesh.centroids()
        mags = distributed_b(c[:, 0], c[:, 1], 3e5, 2.0, support_radius=0.5, center=(1.0, 0.5))
        ids = np.nonzero(mags)[0]
        assert 0 < ids.size < mesh.n_triangles
        want = build_load_vector(mesh, polymer, ids, mags[ids, None] * np.array([0.0, 0.0, 1.0]))
        assert loads[0].vector.tobytes() == want.tobytes()

    def test_distributed_total_force_quadrature(self, polymer):
        # centroid sampling must reproduce the continuous integral
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 64, 64))
        b0 = 1e6
        case = CaseSpec(case_id=5, b0=b0, support_radius=math.pi / 2)
        loads, _ = compile_case(mesh, polymer, case, 1.0)
        total = -loads[0].vector[2::3].sum() / polymer.h
        ref, _ = integrate.dblquad(
            lambda y, x: distributed_b(x, y, b0, 1.0, support_radius=math.pi / 2),
            0.0, 1.0, 0.0, 1.0, epsabs=1e-8, epsrel=1e-10,
        )
        assert abs(total - ref) <= 0.02 * ref


def _scenario(mesh_spec, material, case, border="fixed", t_final=None, tau=None, **kw):
    return ScenarioConfig(
        mesh=mesh_spec, material=material, case=case, border=border,
        t_final=t_final, tau=tau, **kw,
    )


def _grid4_config(**fields):
    """A fixed-border case-1 run on a 4x4 grid, `fields` replacing its own."""
    material = mb.MaterialParams(d=mb.isotropic(2.0e9, 0.3), rho=1200.0, h=1e-3)
    return _scenario(mb.StructuredSpec(1.0, 1.0, 4, 4), material, CaseSpec(1),
                     **{"t_final": 1e-5, **fields})


class TestRun:
    def test_step_count_ceiling(self):
        assert step_count(2e-3, 2e-3 / MAX_STEPS) == MAX_STEPS
        for tau in (1e-3 / MAX_STEPS, 1e-300, 5e-324):
            with pytest.raises(ConfigError, match="exceeds the limit"):
                step_count(2e-3, tau)

    def test_absurd_step_count_rejected_before_integrating(self, polymer):
        cfg = _scenario(
            mb.StructuredSpec(1.0, 1.0, 2, 2), polymer, CaseSpec(case_id=1, b0=1e6),
            t_final=2e-3, tau=1e-300,
        )
        with pytest.raises(ConfigError, match="exceeds the limit"):
            run(cfg)

    def test_smoke_counts_and_cadence(self, polymer):
        tau = 4e-6
        cfg = _scenario(
            mb.StructuredSpec(1.0, 1.0, 8, 8), polymer, CaseSpec(case_id=1, b0=1e6),
            t_final=50 * tau, tau=tau, every_n_steps=10,
        )
        res = run(cfg)
        assert res.n_steps == 50
        assert [s.step for s in res.snapshots] == [0, 10, 20, 30, 40, 50]
        assert res.final_state.step == 50
        np.testing.assert_array_equal(res.final_state.a, res.snapshots[-1].a)
        assert res.wall_time > 0.0
        # the fixed border's nodes, in order, each at its one carried dof (w)
        held = res.system.dofs[res.system.constrained_dofs]
        np.testing.assert_array_equal(held, 3 * mb.boundary_nodes(res.mesh) + 2)

    @pytest.mark.parametrize("case_id", [1, 3])
    def test_each_step_solves_through_the_factor(self, polymer, monkeypatch, case_id):
        # one solve path: every step's solve goes through _FreeBlockLU.solve
        from membrane.integrator import _FreeBlockLU

        calls = []
        solve = _FreeBlockLU.solve
        monkeypatch.setattr(_FreeBlockLU, "solve", lambda lu, rhs: calls.append(1) or solve(lu, rhs))
        tau = 4e-6
        cfg = _scenario(mb.StructuredSpec(1.0, 1.0, 4, 4), polymer, CaseSpec(case_id=case_id),
                        t_final=7 * tau, tau=tau)
        assert run(cfg, keep_snapshots=False).n_steps == len(calls) == 7

    @pytest.mark.parametrize("case", [CaseSpec(case_id=3), StrikeSpec(node=0, speed=1.0)])
    def test_strike_on_fixed_border_named(self, polymer, case):
        # the 1x1 grid's nodes all lie on its border: case 3 strikes node 0
        cfg = _scenario(mb.StructuredSpec(1.0, 1.0, 1, 1), polymer, case, t_final=1e-5)
        with pytest.raises(ConfigError, match="^strike node 0 lies on the fixed border"):
            run(cfg)
        assert run(replace(cfg, border="free"), keep_snapshots=False).n_steps > 0

    def test_never_stops_short(self, polymer):
        tau = 4e-6
        cfg = _scenario(
            mb.StructuredSpec(1.0, 1.0, 4, 4), polymer, CaseSpec(case_id=1),
            t_final=47.3 * tau, tau=tau,
        )
        assert run(cfg, keep_snapshots=False).n_steps == 48

    def test_snapshot_callback_without_keeping(self, polymer):
        tau = 4e-6
        cfg = _scenario(
            mb.StructuredSpec(1.0, 1.0, 4, 4), polymer, CaseSpec(case_id=1),
            t_final=20 * tau, tau=tau, every_n_steps=7,
        )
        seen = []
        res = run(cfg, on_snapshot=lambda s: seen.append(s.step), keep_snapshots=False)
        assert res.snapshots == []
        assert seen == [0, 7, 14, 20]

    def test_load_rebuilt_only_when_a_window_opens_or_closes(self, polymer, monkeypatch):
        tau = 4e-6
        compile_one = mb.scenarios.compile_case
        loads, seen, rebuilt = [], [], []

        def two_windows(mesh, material, case, t_final):
            (ld,), constraints = compile_one(mesh, material, case, t_final)
            loads[:] = [CompiledLoad(ld.vector, 0.0, 5 * tau),
                        CompiledLoad(0.5 * ld.vector, 3 * tau, 8 * tau)]
            return list(loads), constraints

        def recording_step(state, factor, step=mb.scenarios.step):
            seen.append(factor.system.f.copy())
            return step(state, factor)

        def counting_update(system, t, lds, update=mb.scenarios.update_load):
            rebuilt.append(t)
            return update(system, t, lds)

        monkeypatch.setattr("membrane.scenarios.compile_case", two_windows)
        monkeypatch.setattr("membrane.scenarios.step", recording_step)
        monkeypatch.setattr("membrane.scenarios.update_load", counting_update)
        cfg = _scenario(
            mb.StructuredSpec(1.0, 1.0, 4, 4), polymer, CaseSpec(case_id=1, b0=1e6),
            t_final=12 * tau, tau=tau,
        )
        carried = run(cfg, keep_snapshots=False).system.dofs
        # the second window opens at step 3, the first closes at 6, the second at 9
        assert rebuilt == [0.0, 3 * tau, 6 * tau, 9 * tau]
        assert len(seen) == 12
        for k, f in enumerate(seen):
            want = np.zeros_like(f)
            for ld in loads:
                if ld.active((k + 1) * tau):
                    want = want + ld.vector[carried]
            np.testing.assert_array_equal(f.view(np.int64), want.view(np.int64))

    def test_border_validation(self, polymer):
        with pytest.raises(ConfigError, match="border"):
            _scenario(mb.StructuredSpec(1, 1, 4, 4), polymer, CaseSpec(1), border="clamped", t_final=1e-5)

    def test_t_final_validation(self, polymer):
        with pytest.raises(ConfigError, match="t_final"):
            _scenario(mb.StructuredSpec(1, 1, 4, 4), polymer, CaseSpec(1), t_final=0.0)

    def test_every_n_steps_validation(self, polymer):
        with pytest.raises(ConfigError, match="every_n_steps"):
            _scenario(
                mb.StructuredSpec(1, 1, 4, 4), polymer, CaseSpec(1), t_final=1e-5,
                every_n_steps=0,
            )

    def test_normal_impulse_leaves_plane_motion_zero(self, polymer):
        # isotropic material: transverse and in-plane motion decouple
        tau = 4e-6
        cfg = _scenario(
            mb.StructuredSpec(1.0, 1.0, 8, 8), polymer, CaseSpec(case_id=1, b0=1e6),
            t_final=50 * tau, tau=tau, every_n_steps=5,
        )
        res = run(cfg)
        for s in res.snapshots:
            assert not s.a[0::3].any() and not s.a[1::3].any()
            assert not s.adot[0::3].any() and not s.adot[1::3].any()
        assert np.abs(res.final_state.a[2::3]).max() > 0.0

    def test_inplane_impulse_leaves_transverse_zero(self, grid8, polymer):
        tau = 4e-6
        case = LoadSpec(
            kind="element-uniform", direction=(1.0, 0.0, 0.0), b0=1e6,
            window=(0.0, 10 * tau), elements=central_element_pair(grid8),
        )
        cfg = _scenario(grid8, polymer, case, t_final=50 * tau, tau=tau, every_n_steps=5)
        res = run(cfg)
        for s in res.snapshots:
            assert not s.a[2::3].any() and not s.adot[2::3].any()
        assert np.abs(res.final_state.a[0::3]).max() > 0.0

    def test_strike_velocity_held(self, polymer):
        tau = 4e-6
        cfg = _scenario(
            mb.StructuredSpec(1.0, 1.0, 8, 8), polymer, CaseSpec(case_id=4, speed=2.0),
            t_final=40 * tau, tau=tau, every_n_steps=1,
        )
        res = run(cfg)
        node = nearest_node(res.mesh, (0.5, 0.5))
        vfix = build_case(4, res.mesh, cfg.t_final, speed=2.0).v_fix
        np.testing.assert_allclose(vfix, (1.0, 0.0, math.sqrt(3.0)), rtol=1e-15)
        for s in res.snapshots[1:]:
            got = s.adot[3 * node: 3 * node + 3]
            # held bitwise at v_fix, not merely close to it
            assert got[0] == vfix[0] and got[1] == vfix[1] and got[2] == vfix[2]

    def test_initial_translation_is_static(self, polymer):
        tau = 4e-6
        shift = (1e-3, -2e-3, 5e-4)
        cfg = _scenario(
            mb.StructuredSpec(1.0, 1.0, 6, 6), polymer, CaseSpec(case_id=1, b0=0.0),
            border="free", t_final=50 * tau, tau=tau, initial_translation=shift,
        )
        res = run(cfg, keep_snapshots=False)
        expected = np.tile(np.asarray(shift), res.mesh.n_nodes)
        assert np.abs(res.final_state.a - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.abs(res.final_state.adot).max() <= 1e-12

    @staticmethod
    def _mirror_mismatch(material, tau, steps=60, n=12):
        """Largest asymmetry of |velocity| about the split diagonal."""
        cfg = _scenario(
            mb.StructuredSpec(1.0, 1.0, n, n), material, CaseSpec(case_id=1, b0=1e6),
            t_final=steps * tau, tau=tau, every_n_steps=10,
        )
        res = run(cfg)
        worst = 0.0
        idx = lambda i, j: j * (n + 1) + i
        swap = np.array(
            [idx(j, i) for j in range(n + 1) for i in range(n + 1)]
        )
        for s in res.snapshots:
            vm = np.linalg.norm(s.adot.reshape(-1, 3), axis=1)
            scale = vm.max()
            if scale == 0.0:
                continue
            worst = max(worst, np.abs(vm - vm[swap]).max() / scale)
        return worst

    def test_mirror_symmetry_isotropic(self, polymer):
        assert self._mirror_mismatch(polymer, tau=4e-6) <= 1e-10

    def test_mirror_asymmetry_orthotropic(self):
        material = mb.MaterialParams(d=orthotropic_gpa(), rho=7800.0, h=1e-3)
        assert self._mirror_mismatch(material, tau=1e-6) > 0.05


class TestSpecChecks:
    """The specs check their own values when made, through the API as
    through the JSON reader (TestScenarioFromDict)."""

    @pytest.mark.parametrize(
        "make,field",
        [
            # the API forms of the rows of test_unknown_case_key_rejected
            # whose key is another case's field
            (lambda: CaseSpec(1, speed=5.0), "speed"),
            (lambda: CaseSpec(3, b0=7.0, window=(0, 1), support_radius=2.0), "b0"),
            (lambda: CaseSpec(4, window=(0, 1)), "window"),
            (lambda: CaseSpec(2, support_radius=2.0), "support_radius"),
            (lambda: CaseSpec(5, speed=3.0), "speed"),
            (lambda: LoadSpec("element-uniform", (0, 0, 1), 1.0, (0, 1), elements=(3,),
                              support_radius=2.0), "support_radius"),
            (lambda: LoadSpec("distributed-cos2", (0, 0, 1), 1.0, (0, 1), elements=(3,)), "elements"),
        ],
    )
    def test_field_of_another_case_rejected(self, make, field):
        with pytest.raises(ConfigError, match=f" does not read {field}, got "):
            make()

    @pytest.mark.parametrize(
        "make,field",
        [
            # the API forms of its rows whose key is no field at all: the
            # dataclass's own __init__ rejects the keyword
            (lambda: LoadSpec("element-uniform", (0, 0, 1), 1.0, (0, 1), elemnts=(3,)), "elemnts"),
            (lambda: StrikeSpec(node=7, speed=1.0, angle=0.1), "angle"),
            (lambda: CaseSpec(3, strike=StrikeSpec(node=7, speed=1.0)), "strike"),
        ],
    )
    def test_unknown_field_rejected(self, make, field):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            make()

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: CaseSpec(9), r"^unknown case id 9 \(valid: 1\.\.5\)$"),
            (lambda: LoadSpec("foo", (0, 0, 1), 1.0, (0, 1)), "^unknown load kind 'foo'$"),
            (lambda: StrikeSpec(node=12, speed=math.nan), "^strike speed nan and angle 0.0 must be finite$"),
            (lambda: StrikeSpec(node=12, speed=1.0, angle_to_normal=math.inf),
             "^strike speed 1.0 and angle inf must be finite$"),
        ],
    )
    def test_unknown_variant_or_value_rejected(self, make, message):
        with pytest.raises(ConfigError, match=message):
            make()

    @pytest.mark.parametrize(
        "make,message",
        [
            # each was once accepted when made: it failed inside run, ran
            # on a truncated id or as another case, or exited 3
            (lambda: CaseSpec(1, window=(0.5, 0.1)), r"^bad load window \(0\.5, 0\.1\)$"),
            (lambda: CaseSpec(2, window=(0.0, math.inf)),
             r"^case\.window\[1\] must be a finite number, got inf$"),
            (lambda: CaseSpec(3, speed=math.nan), "^case.speed must be a finite number, got nan$"),
            (lambda: CaseSpec(1, b0=math.inf), "^case.b0 must be a finite number, got inf$"),
            (lambda: CaseSpec(5, support_radius=math.nan),
             "^case.support_radius must be a finite number, got nan$"),
            (lambda: CaseSpec(True), "^case.id must be an integer, got True$"),
            (lambda: StrikeSpec(node=1.5, speed=1.0), "^case.strike.node must be an integer, got 1.5$"),
            (lambda: LoadSpec("element-uniform", (0, 0, 1), 1.0, (0, 1), elements=(1.5,)),
             r"^case\.load\.elements\[0\] must be an integer, got 1\.5$"),
            (lambda: LoadSpec("distributed-cos2", (0, 0, math.nan), 1.0, (0, 1)),
             r"^case\.load\.direction\[2\] must be a finite number, got nan$"),
            (lambda: LoadSpec("distributed-cos2", (0, 1), 1.0, (0, 1)),
             r"^case\.load\.direction must be a list of 3 numbers, got \(0, 1\)$"),
            (lambda: _grid4_config(every_n_steps=2.5), "^every_n_steps must be an integer, got 2.5$"),
            (lambda: _grid4_config(initial_translation=(math.nan, 0.0, 0.0)),
             r"^initial_translation\[0\] must be a finite number, got nan$"),
            (lambda: _grid4_config(t_final=math.inf), "^t_final must be a finite number, got inf$"),
        ],
    )
    def test_bad_value_rejected_when_made(self, make, message):
        with pytest.raises(ConfigError, match=message):
            make()

    def test_translation_length(self, polymer):
        # once a bare ValueError from reshaping inside run
        with pytest.raises(ConfigError, match="^initial_translation must have three components$"):
            _scenario(mb.StructuredSpec(1, 1, 4, 4), polymer, CaseSpec(1), border="free",
                      t_final=1e-5, initial_translation=(1.0, 2.0))

    def test_case_fields_take_their_case_defaults(self):
        assert CaseSpec(1) == CaseSpec(1, b0=1.0)
        assert (CaseSpec(1).b0, CaseSpec(1).speed) == (1.0, None)
        assert (CaseSpec(3).b0, CaseSpec(3).speed) == (None, 1.0)
        assert StrikeSpec(node=0, speed=1.0).angle_to_normal == 0.0


class TestScenarioFromDict:
    def _minimal(self):
        return {
            "mesh": {"Lx": 1.0, "Ly": 1.0, "nx": 4, "ny": 4},
            "material": {"type": "isotropic", "E": 2e9, "nu": 0.3, "rho": 1200.0, "h": 1e-3},
            "case": {"id": 1, "b0": 1e6},
            "border": "fixed",
            "T": 1e-3,
        }

    def test_minimal_parses(self):
        cfg = scenario_from_dict(self._minimal())
        assert cfg.t_final == 1e-3
        assert cfg.border == "fixed"
        assert cfg.case == CaseSpec(case_id=1, b0=1e6)
        assert cfg.mesh == mb.StructuredSpec(1.0, 1.0, 4, 4)
        assert cfg.tau is None and cfg.out_dir is None

    def test_unknown_key_rejected(self):
        d = self._minimal()
        d["speling"] = 1
        with pytest.raises(ConfigError, match="speling"):
            scenario_from_dict(d)

    def test_underscore_keys_ignored(self):
        d = self._minimal()
        d["_note"] = "anything"
        scenario_from_dict(d)

    @pytest.mark.parametrize("key", ["mesh", "material", "case", "border", "T"])
    def test_missing_key_named(self, key):
        d = self._minimal()
        del d[key]
        with pytest.raises(ConfigError, match=f"missing config key: {key}"):
            scenario_from_dict(d)

    def test_msh_path_passthrough(self):
        d = self._minimal()
        d["mesh"] = {"msh_path": "some/mesh.msh"}
        assert scenario_from_dict(d).mesh == "some/mesh.msh"

    @pytest.mark.parametrize("path", [None, 5, ["a.msh"]])
    def test_msh_path_must_be_a_string(self, path):
        d = self._minimal()
        d["mesh"] = {"msh_path": path}
        message = f"mesh.msh_path must be a string, got {path!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            scenario_from_dict(d)

    def test_mesh_key_missing(self):
        d = self._minimal()
        del d["mesh"]["ny"]
        with pytest.raises(ConfigError, match="mesh.ny"):
            scenario_from_dict(d)

    def test_invalid_mesh_values(self):
        d = self._minimal()
        d["mesh"]["nx"] = 0
        with pytest.raises(ConfigError, match="invalid mesh"):
            scenario_from_dict(d)

    def test_load_case_dict(self):
        d = self._minimal()
        d["case"] = {
            "load": {
                "kind": "element-uniform",
                "direction": [0, 0, 1],
                "b0": 2.0,
                "window": [0.0, 0.5],
                "elements": [3, 4],
            }
        }
        case = scenario_from_dict(d).case
        assert case == LoadSpec(
            kind="element-uniform", direction=(0.0, 0.0, 1.0), b0=2.0,
            window=(0.0, 0.5), elements=(3, 4),
        )

    def test_load_case_missing_kind(self):
        d = self._minimal()
        d["case"] = {"load": {"direction": [0, 0, 1], "b0": 1.0, "window": [0, 1]}}
        with pytest.raises(ConfigError, match="case.load.kind"):
            scenario_from_dict(d)

    def test_strike_case_dict(self):
        d = self._minimal()
        d["case"] = {"strike": {"node": 7, "speed": 2.5, "angle_to_normal": 0.1}}
        assert scenario_from_dict(d).case == StrikeSpec(node=7, speed=2.5, angle_to_normal=0.1)

    def test_strike_missing_speed(self):
        d = self._minimal()
        d["case"] = {"strike": {"node": 7}}
        with pytest.raises(ConfigError, match="case.strike.speed"):
            scenario_from_dict(d)

    @pytest.mark.parametrize(
        "case,bad",
        [
            ({"load": {"kind": "element-uniform", "direction": [0, 0, 1], "b0": 1.0,
                       "window": [0, 1], "elemnts": [3]}}, "case.load.elemnts"),
            ({"strike": {"node": 7, "speed": 1.0, "angle": 0.1}}, "case.strike.angle"),
            ({"strike": {"node": 7, "speed": 1.0}, "id": 3}, "case.strike"),
            # keys of another case: each numbered case and load kind reads only its own
            ({"id": 1, "speed": 5}, "case.speed"),
            ({"id": 3, "b0": 7, "window": [0, 1], "support_radius": 2}, "case.b0"),
            ({"id": 4, "window": [0, 1]}, "case.window"),
            ({"id": 2, "support_radius": 2}, "case.support_radius"),
            ({"id": 5, "speed": 3}, "case.speed"),
            ({"load": {"kind": "element-uniform", "direction": [0, 0, 1], "b0": 1.0,
                       "window": [0, 1], "elements": [3], "support_radius": 2}},
             "case.load.support_radius"),
            ({"load": {"kind": "distributed-cos2", "direction": [0, 0, 1], "b0": 1.0,
                       "window": [0, 1], "elements": [3]}}, "case.load.elements"),
        ],
    )
    def test_unknown_case_key_rejected(self, case, bad):
        d = self._minimal()
        d["case"] = case
        with pytest.raises(ConfigError, match=f"unknown config key: {bad}$"):
            scenario_from_dict(d)

    def test_distributed_load_case_dict(self):
        d = self._minimal()
        d["case"] = {"load": {"kind": "distributed-cos2", "direction": [0, 0, 1], "b0": 2.0,
                              "window": [0.0, 0.5], "support_radius": 1.5}}
        assert scenario_from_dict(d).case == LoadSpec(
            "distributed-cos2", (0.0, 0.0, 1.0), 2.0, (0.0, 0.5), support_radius=1.5)

    @pytest.mark.parametrize("kind", ["nodal", None, ["element-uniform"]])
    def test_unknown_load_kind_rejected(self, kind):
        d = self._minimal()
        d["case"] = {"load": {"kind": kind, "direction": [0, 0, 1], "b0": 1.0, "window": [0, 1]}}
        with pytest.raises(ConfigError, match=f"^{re.escape(f'unknown load kind {kind!r}')}$"):
            scenario_from_dict(d)

    @pytest.mark.parametrize("case_id", [0, 6])
    def test_unknown_case_id_rejected(self, case_id):
        d = self._minimal()
        d["case"] = {"id": case_id, "b0": 1.0}
        with pytest.raises(ConfigError, match=rf"^unknown case id {case_id} \(valid: 1\.\.5\)$"):
            scenario_from_dict(d)

    def test_case_needs_one_form(self):
        d = self._minimal()
        d["case"] = {}
        with pytest.raises(ConfigError, match="id, load, strike"):
            scenario_from_dict(d)

    def test_bad_window_length(self):
        d = self._minimal()
        d["case"] = {"id": 1, "window": [0.0, 0.5, 1.0]}
        with pytest.raises(ConfigError, match="window"):
            scenario_from_dict(d)

    def test_bad_translation_length(self):
        d = self._minimal()
        d["initial_translation"] = [1.0, 2.0]
        with pytest.raises(ConfigError, match="three components"):
            scenario_from_dict(d)

    def test_output_block(self):
        d = self._minimal()
        d["output"] = {"every_n_steps": 25, "directory": "out"}
        cfg = scenario_from_dict(d)
        assert cfg.every_n_steps == 25 and cfg.out_dir == "out"


class TestConfigFromJson:
    def test_dict_passthrough(self):
        cfg = config_from_json(TestScenarioFromDict()._minimal())
        assert isinstance(cfg, ScenarioConfig)

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(TestScenarioFromDict()._minimal()))
        assert config_from_json(str(p)).t_final == 1e-3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            config_from_json(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            config_from_json(str(p))

    def test_non_object_root(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            config_from_json(str(p))


RUN_CASE1 = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "run_case1.json").read_text()
)
CONFIG_WORDS = sorted(
    {"mesh", "msh_path", "Lx", "nx", "material", "type", "isotropic", "anisotropic",
     "moduli_gpa", "E", "nu", "rho", "h", "strain_threshold", "case", "id", "b0",
     "window", "load", "kind", "direction", "elements", "strike", "node", "speed",
     "border", "T", "tau", "output", "every_n_steps", "directory",
     "initial_translation", "_note"}
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(CONFIG_WORDS) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(CONFIG_WORDS) | st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)


def _containers(node):
    """Every dict and list inside a parsed JSON value, outermost first."""
    yield node
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            yield from _containers(child)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_mutated_config_parses_or_raises_config_error(data):
    # up to three edits (replace, delete or add a key or list item)
    # anywhere in a shipped config; any other exception is a defect
    cfg = copy.deepcopy(RUN_CASE1)
    for _ in range(data.draw(st.integers(1, 3))):
        node = data.draw(st.sampled_from(list(_containers(cfg))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "add" or not keys:
            value = data.draw(JSON_VALUES)
            if isinstance(node, dict):
                node[data.draw(st.sampled_from(CONFIG_WORDS) | st.text(max_size=4))] = value
            else:
                node.append(value)
        elif op == "delete":
            del node[data.draw(st.sampled_from(keys))]
        else:
            node[data.draw(st.sampled_from(keys))] = data.draw(JSON_VALUES)
    try:
        scenario_from_dict(cfg)
    except ConfigError:
        pass


# ------------------------------------------------------------ work-energy balance
# With beta1 = beta2 = 1/2 Newmark is the trapezoid rule, and over one step
#   E(n+1) - E(n) = -1/2 (f_n + f_n+1 - r_n - r_n+1) . (a_n+1 - a_n)
# exactly, with E = 1/2 a'^T M a' + 1/2 a^T K a and r the constraint force
# M a'' + K a + f on the constrained rows, zero on the free ones (Hughes,
# The Finite Element Method, 2000, section 9.1).  Relative to the largest
# energy or work, the shipped runs stay at or below 5.5e-15; scaling the
# step's K rows by 1 + 1e-6 gives 1.6e-8, 2.0e-11 and 4.2e-10.
BALANCE_BOUND = 1e-12
RUN_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["run_case1", "run_case5", "run_aniso"])
def test_work_energy_balance_per_step(name, monkeypatch):
    config = scenario_from_dict(json.loads((RUN_CONFIGS / f"{name}.json").read_text()))
    loads = []  # f at t_0, then at the end of every step
    steps = []  # (state before, state after) of every step
    init_state, step = mb.scenarios.init_state, mb.scenarios.step

    def recording_init(system, a0=None):
        loads.append(system.f)
        return init_state(system, a0)

    def recording_step(state, factor):
        after = step(state, factor)
        loads.append(factor.system.f)
        steps.append((state, after))
        return after

    monkeypatch.setattr(mb.scenarios, "init_state", recording_init)
    monkeypatch.setattr(mb.scenarios, "step", recording_step)
    result = run(config, keep_snapshots=False)
    system = result.system
    k, m, rows = system.K, system.M, system.constrained_dofs
    assert len(steps) == result.n_steps > 500

    def energy(s):
        return 0.5 * (s.adot @ (m @ s.adot)) + 0.5 * (s.a @ (k @ s.a))

    def reaction(s, f):
        r = np.zeros(system.ndof)
        r[rows] = (m @ s.addot + k @ s.a + f)[rows]
        return r

    gaps, scale = [], 0.0
    for (before, after), f0, f1 in zip(steps, loads, loads[1:]):
        work = -0.5 * (f0 + f1 - reaction(before, f0) - reaction(after, f1)) @ (after.a - before.a)
        e0, e1 = energy(before), energy(after)
        gaps.append(abs((e1 - e0) - work))
        scale = max(scale, e0, e1, abs(work))
    assert scale > 0.0
    assert max(gaps) / scale < BALANCE_BOUND
