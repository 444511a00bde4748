"""Convergence harness tests: norms, rate fits, extraction, studies."""
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import membrane as mb
from membrane import convergence
from membrane.convergence import (
    NORMS,
    StudySpec,
    _snap_steps,
    extract_at_positions,
    fit_rate,
    norm,
    run_study,
    study_from_json,
)
from membrane.errors import ConfigError, MeshError
from membrane.integrator import State, default_timestep
from membrane.scenarios import CaseSpec, LoadSpec, ScenarioConfig, StrikeSpec


class TestNorm:
    def test_hand_values(self):
        d = np.array([3.0, -4.0])
        assert norm(d, "L1") == 3.5
        assert norm(d, "L2") == math.sqrt(12.5)
        assert norm(d, "Linf") == 4.0

    def test_ordering(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.normal(size=rng.integers(2, 50))
            assert norm(d, "L1") <= norm(d, "L2") <= norm(d, "Linf") + 1e-15

    def test_unknown_norm(self):
        with pytest.raises(ConfigError, match="unknown norm"):
            norm(np.ones(3), "L3")

    def test_names(self):
        assert NORMS == ("L1", "L2", "Linf")


class TestFitRate:
    def test_second_order_sequence(self):
        assert abs(fit_rate([1.0, 0.25, 0.0625]) - 2.0) < 1e-12

    def test_first_order_sequence(self):
        assert abs(fit_rate([1.0, 0.5, 0.25]) - 1.0) < 1e-12

    def test_explicit_levels(self):
        # same decay placed at levels 2 and 4: slope per level is 1
        assert abs(fit_rate([0.25, 0.0625], ks=[2, 4]) - 1.0) < 1e-12

    def test_zero_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="zero difference norm"):
            r = fit_rate([1.0, 0.0, 0.0625])
        assert abs(r - 2.0) < 1e-12

    def test_too_few_points_nan(self):
        with pytest.warns(UserWarning) as rec:
            r = fit_rate([0.0, 0.0, 1.0])
        assert math.isnan(r)
        messages = [str(w.message) for w in rec]
        assert any("fewer than two" in m for m in messages)
        assert any("zero difference norm" in m for m in messages)


class TestExtractAtPositions:
    def test_ordering_contract(self, grid4):
        n = grid4.n_nodes
        state = State(
            a=np.arange(3 * n, dtype=float),
            adot=1000.0 + np.arange(3 * n, dtype=float),
            addot=np.zeros(3 * n),
            t=0.0,
            step=0,
        )
        got = extract_at_positions(grid4, state, grid4.nodes[[3, 7]])
        np.testing.assert_array_equal(
            got, [9, 10, 11, 21, 22, 23, 1009, 1010, 1011, 1021, 1022, 1023]
        )

    def test_coarse_nodes_found_on_refined_grid(self, grid4):
        spec = mb.StructuredSpec(1.0, 1.0, 4, 4)
        fine = mb.generate_structured(mb.refine(spec))
        state = State(
            a=np.zeros(3 * fine.n_nodes), adot=np.zeros(3 * fine.n_nodes),
            addot=np.zeros(3 * fine.n_nodes), t=0.0, step=0,
        )
        got = extract_at_positions(fine, state, grid4.nodes)
        assert got.shape == (6 * grid4.n_nodes,)

    def test_missing_position_raises(self, grid4):
        state = State(
            a=np.zeros(3 * grid4.n_nodes), adot=np.zeros(3 * grid4.n_nodes),
            addot=np.zeros(3 * grid4.n_nodes), t=0.0, step=0,
        )
        with pytest.raises(MeshError, match="baseline node missing"):
            extract_at_positions(grid4, state, np.array([[0.1234, 0.4321]]))

    @staticmethod
    def _numbered(mesh):
        """A state whose every entry is its own dof id (velocities + 0.5)."""
        a = np.arange(3 * mesh.n_nodes, dtype=float)
        return State(a=a, adot=a + 0.5, addot=np.zeros_like(a), t=0.0, step=0)

    @pytest.mark.parametrize("point", [
        (math.nan, 0.5), (0.5, math.nan), (1.25, 0.5), (0.5, -0.25), (math.inf, 0.0),
    ])
    def test_nan_or_outside_position_raises(self, grid4, point):
        # (1.25, 0.5) and (0.5, -0.25) are nodes of the grid extended past the rectangle
        with pytest.raises(MeshError, match="baseline node missing"):
            extract_at_positions(grid4, self._numbered(grid4), np.array([point]))

    def test_unstructured_mesh_raises(self, grid4):
        mesh = mb.Mesh(nodes=grid4.nodes, triangles=grid4.triangles)
        with pytest.raises(MeshError, match="structured mesh"):
            extract_at_positions(mesh, self._numbered(mesh), grid4.nodes[:1])

    def test_grid_index_matches_brute_force_nearest_node(self):
        specs = [mb.StructuredSpec(2.0, 0.7, 3, 5)]
        for _ in range(2):
            specs.append(mb.refine(specs[-1]))
        base = mb.generate_structured(specs[0]).nodes
        for spec in specs:
            mesh = mb.generate_structured(spec)
            d = mesh.nodes[None, :, :] - base[:, None, :]
            nearest = np.argmin((d * d).sum(axis=2), axis=1)
            dofs = (3 * nearest[:, None] + np.arange(3)).ravel()
            got = extract_at_positions(mesh, self._numbered(mesh), base)
            np.testing.assert_array_equal(got, np.concatenate([dofs, dofs + 0.5]))

    def test_import_leaves_scipy_spatial_out(self):
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        code = "import sys, membrane, membrane.cli; sys.exit('scipy.spatial' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, "importing membrane loads scipy.spatial"


class TestSnapSteps:
    def test_snaps_to_multiple(self):
        assert _snap_steps(7, 1.0, [0.1]) == 10
        assert _snap_steps(12, 1.0, [0.1]) == 20
        assert _snap_steps(10, 1.0, [0.1]) == 10

    def test_multiple_breakpoints(self):
        # edges at T/4 and T/10 need a common multiple: lcm(4, 10) = 20
        n = _snap_steps(3, 1.0, [0.25, 0.1])
        assert n == 20

    def test_awkward_edge_warns(self):
        with pytest.warns(UserWarning, match="not a simple fraction"):
            n = _snap_steps(7, 1.0, [0.3333331])
        assert n == 7


def _study(material, case, k_max=2, t_final=None, border="fixed", **kw):
    scenario = ScenarioConfig(
        mesh=mb.StructuredSpec(1.0, 1.0, 4, 4), material=material, case=case,
        border=border, t_final=t_final, **kw,
    )
    return StudySpec(scenario=scenario, k_max=k_max)


class TestRunStudy:
    def test_kmax_too_small(self, polymer):
        with pytest.raises(ConfigError, match="k_max"):
            _study(polymer, CaseSpec(case_id=1), k_max=1, t_final=1e-4)

    def test_needs_structured_spec(self, polymer, grid4):
        scenario = ScenarioConfig(
            mesh=grid4, material=polymer, case=CaseSpec(case_id=1),
            border="fixed", t_final=1e-4,
        )
        with pytest.raises(ConfigError, match="structured"):
            StudySpec(scenario=scenario, k_max=2)

    def test_strike_spec_is_mesh_bound(self, polymer):
        with pytest.raises(ConfigError, match="mesh-bound"):
            _study(polymer, StrikeSpec(node=12, speed=1.0), t_final=1e-4)

    def test_explicit_elements_are_mesh_bound(self, polymer):
        case = LoadSpec("element-uniform", (0, 0, 1), 1.0, (0.0, 1e-5), elements=(0, 1))
        with pytest.raises(ConfigError, match="mesh-bound"):
            _study(polymer, case, t_final=1e-4)

    def test_structure_of_result(self, polymer):
        base = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 4, 4))
        t_final = 20.0 * default_timestep(base, polymer)
        spec = _study(polymer, CaseSpec(case_id=1, b0=1e6), k_max=2, t_final=t_final)
        res = run_study(spec)
        assert len(res.diffs) == 2
        assert len(res.levels) == 3
        assert res.levels[0] == mb.StructuredSpec(1.0, 1.0, 4, 4)
        assert res.levels[1] == mb.refine(res.levels[0])
        assert res.tau0 == t_final / res.n_steps0
        # case-1 window is T/10: the base step count must land on it
        assert res.n_steps0 % 10 == 0
        for k, ld in enumerate(res.diffs, start=1):
            assert ld.level == k
            assert ld.tau == res.tau0 / 2**k
            assert ld.n_nodes == res.levels[k].n_nodes
            for w in NORMS:
                assert ld.joint[w] > 0.0
                assert set(ld.disp) == set(ld.vel) == set(NORMS)
        assert all(np.isfinite(res.rates[w]) for w in NORMS)

    def test_rigid_translation_manufactured_solution(self, polymer):
        # a pure translation is in every grid's span: levels agree to
        # roundoff and every difference norm collapses
        base = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 4, 4))
        t_final = 10.0 * default_timestep(base, polymer)
        spec = _study(
            polymer, CaseSpec(case_id=1, b0=0.0), k_max=2, t_final=t_final,
            border="free", initial_translation=(1e-3, 2e-3, -5e-4),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_study(spec)
        for ld in res.diffs:
            for w in NORMS:
                assert ld.joint[w] < 1e-12

    def test_deterministic_across_runs_and_workers(self, polymer):
        base = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 4, 4))
        t_final = 10.0 * default_timestep(base, polymer)
        spec = _study(polymer, CaseSpec(case_id=1, b0=1e6), k_max=2, t_final=t_final)
        a = run_study(spec)
        b = run_study(spec)
        c = run_study(spec)
        for other in (b, c):
            assert a.rates == other.rates
            for la, lo in zip(a.diffs, other.diffs):
                assert la.joint == lo.joint
                assert la.disp == lo.disp
                assert la.vel == lo.vel

    @pytest.mark.parametrize("tau,k_max", [(1e-300, 2), (None, 40)], ids=["tau", "k_max"])
    def test_absurd_step_count_rejected_up_front(self, polymer, monkeypatch, tau, k_max):
        def level_ran(*args, **kwargs):
            raise AssertionError("a level ran")

        monkeypatch.setattr("membrane.convergence.run", level_ran)
        spec = _study(polymer, CaseSpec(case_id=1), k_max=k_max, t_final=1e-4, tau=tau)
        with pytest.raises(ConfigError, match="exceeds the limit"):
            run_study(spec)

    def test_levels_run_in_calling_thread_coarsest_first(self, polymer, monkeypatch):
        ran = []

        def recording_run(cfg, **kwargs):
            ran.append((threading.get_ident(), cfg.mesh))
            return real_run(cfg, **kwargs)

        real_run = convergence.run
        monkeypatch.setattr(convergence, "run", recording_run)
        base = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 4, 4))
        t_final = 10.0 * default_timestep(base, polymer)
        res = run_study(_study(polymer, CaseSpec(case_id=1, b0=1e6), k_max=2, t_final=t_final))
        assert ran == [(threading.get_ident(), level) for level in res.levels]
        assert [level.nx for _, level in ran] == [4, 8, 16]


class TestStudyFromJson:
    def _payload(self):
        return {
            "mesh": {"Lx": 1.0, "Ly": 1.0, "nx": 4, "ny": 4},
            "material": {"type": "isotropic", "E": 2e9, "nu": 0.3, "rho": 1200.0, "h": 1e-3},
            "case": {"id": 1, "b0": 1e6},
            "border": "fixed",
            "T": 1e-4,
            "k_max": 3,
        }

    def test_dict(self):
        spec = study_from_json(self._payload())
        assert spec.k_max == 3
        assert spec.scenario.t_final == 1e-4

    def test_missing_k_max(self):
        d = self._payload()
        del d["k_max"]
        with pytest.raises(ConfigError, match="k_max"):
            study_from_json(d)

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "study.json"
        p.write_text(json.dumps(self._payload()))
        assert study_from_json(str(p)).k_max == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            study_from_json(str(tmp_path / "none.json"))

    def test_malformed(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("]")
        with pytest.raises(ConfigError, match="malformed"):
            study_from_json(str(p))

    def test_non_object_root(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            study_from_json(str(p))
