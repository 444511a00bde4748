"""CLI tests: run/convergence/mesh-info, exit codes, determinism."""
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from membrane.cli import main
from membrane.errors import SolverError
from membrane.scenarios import run as scenario_run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _run_config(tau=4e-6, n_steps=20, every=10, **overrides):
    cfg = {
        "mesh": {"Lx": 1.0, "Ly": 1.0, "nx": 4, "ny": 4},
        "material": {"type": "isotropic", "E": 2e9, "nu": 0.3, "rho": 1200.0, "h": 1e-3},
        "case": {"id": 1, "b0": 1e6},
        "border": "fixed",
        "T": n_steps * tau,
        "tau": tau,
        "output": {"every_n_steps": every},
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _study_config(**overrides):
    cfg = _run_config(n_steps=10, every=10)
    del cfg["output"]
    cfg["k_max"] = 2
    cfg.update(overrides)
    return cfg


TWO_TRIANGLE_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0.0 0.0 0.0
2 1.0 0.0 0.0
3 1.0 1.0 0.0
4 0.0 1.0 0.0
$EndNodes
$Elements
2
1 2 2 0 1 1 2 3
2 2 2 0 1 1 3 4
$EndElements
"""


class TestRunCommand:
    def test_success_writes_snapshots_and_manifest(self, tmp_path, capsys):
        cfg = _run_config()
        cfg_path = _write(tmp_path, "run.json", cfg)
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        for step in (0, 10, 20):
            tag = f"{step:06d}"
            assert (out / f"snapshot_{tag}.csv").is_file()
            assert (out / f"elements_{tag}.csv").is_file()
            assert (out / f"snapshot_{tag}.vtk").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == cfg
        assert manifest["n_steps"] == 20
        assert manifest["snapshot_steps"] == [0, 10, 20]
        assert manifest["n_nodes"] == 25
        assert manifest["overrides"]["out"] == str(out)
        assert "ran 20 steps" in capsys.readouterr().out

    def test_every_override(self, tmp_path):
        cfg_path = _write(tmp_path, "run.json", _run_config())
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out), "--every", "5"]) == 0
        steps = json.loads((out / "manifest.json").read_text())["snapshot_steps"]
        assert steps == [0, 5, 10, 15, 20]

    def test_manifest_output_counts_match_files(self, tmp_path):
        cfg_path = _write(tmp_path, "run.json", _run_config())
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        stats = json.loads((out / "manifest.json").read_text())["output"]
        snapshots = [p for p in out.iterdir() if p.name != "manifest.json"]
        assert len(snapshots) == 9
        assert stats["files"] == len(snapshots)
        assert stats["bytes"] == sum(p.stat().st_size for p in snapshots)
        assert 0.0 < stats["write_s"] < 60.0

    def test_bad_every_rejected(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "run.json", _run_config())
        assert main(["run", cfg_path, "--every", "0"]) == 2
        assert "--every" in capsys.readouterr().err

    def test_bad_tau_rejected(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "run.json", _run_config())
        assert main(["run", cfg_path, "--tau=-1e-6"]) == 2
        assert "--tau" in capsys.readouterr().err

    def test_tau_override_recorded(self, tmp_path):
        cfg_path = _write(tmp_path, "run.json", _run_config())
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out), "--tau", "8e-6"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tau"] == 8e-6
        assert manifest["n_steps"] == 10

    def test_missing_material_key_named(self, tmp_path, capsys):
        cfg = _run_config()
        del cfg["material"]["E"]
        cfg_path = _write(tmp_path, "run.json", cfg)
        assert main(["run", cfg_path]) == 2
        assert "material.E" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = _run_config()
        cfg["bogus"] = 1
        cfg_path = _write(tmp_path, "run.json", cfg)
        assert main(["run", cfg_path]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key,value",
        [
            (None, "tau", -1),
            (None, "T", float("inf")),
            (None, "T", 1e305),  # finite, but T/tau overflows
            ("material", "E", "abc"),
            ("mesh", "nx", 1.5),
            # misspelt keys inside a section
            ("mesh", "nxx", 4),
            ("material", "rhoo", 1200.0),
            ("case", "bo", 1e6),
            ("output", "every", 10),
            # the mesh file path must be a string
            (None, "mesh", {"msh_path": None}),
            (None, "mesh", {"msh_path": 5}),
            # a negative threshold would flag every element
            ("material", "strain_threshold", -1e-9),
            ("material", "stress_threshold", -1),
        ],
    )
    def test_bad_value_exit_2_one_line(self, tmp_path, capsys, section, key, value):
        cfg = _run_config()
        (cfg if section is None else cfg[section])[key] = value
        cfg_path = _write(tmp_path, "run.json", cfg)
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err

    def test_mesh_path_key_rejected(self, tmp_path, capsys):
        # the mesh file key is msh_path; "path" is not an alias
        cfg_path = _write(tmp_path, "run.json", _run_config(mesh={"path": "file.msh"}))
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "error: unknown config key: mesh.path\n"

    def test_manifest_echoes_the_config_that_was_parsed(self, tmp_path, monkeypatch):
        cfg = _run_config()
        cfg_path = _write(tmp_path, "run.json", cfg)

        def rewrite_then_run(*args, **kwargs):
            _write(tmp_path, "run.json", _run_config(T=1.0))
            return scenario_run(*args, **kwargs)

        monkeypatch.setattr("membrane.cli.run", rewrite_then_run)
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"] == cfg

    def test_numerical_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        def explode(config, on_snapshot=None, keep_snapshots=True):
            raise SolverError("non-finite acceleration at step 3")

        monkeypatch.setattr("membrane.cli.run", explode)
        cfg_path = _write(tmp_path, "run.json", _run_config())
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_out_of_memory_exit_3_one_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr("membrane.cli.build_mesh", exhausted)
        cfg_path = _write(tmp_path, "run.json", _run_config())
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == "out of memory: Unable to allocate 298. GiB for an array\n"


def _shipped_4x4(tmp_path):
    with open(CONFIGS / "run_case1.json", encoding="utf-8") as f:
        cfg = json.load(f)
    cfg["mesh"].update(nx=4, ny=4)
    cfg["output"]["directory"] = str(tmp_path / "o")
    return cfg


def _set(section, **values):
    def edit(cfg):
        (cfg if section is None else cfg[section]).update(values)
    return edit


def _flags(*flags):
    """An edit that keeps the config and passes `flags` to `membrane run`."""
    return lambda cfg: list(flags)


def _load(**values):
    """An element-uniform `case.load` section on element 0, with `values`."""
    return {"kind": "element-uniform", "direction": [0.0, 0.0, 1.0], "b0": 1e6,
            "window": [0.0, 1e-4], "elements": [0], **values}


class TestExitCodeTable:
    """Values that parse but fail later still exit 2 or 3 with one line."""

    @pytest.mark.parametrize(
        "edit,code",
        [
            (_set("case", id=7), 2),
            (_set("material", nu=0.5), 2),
            (_set("material", rho=0), 2),
            (_set("mesh", Lx=1e308), 2),  # node coordinates overflow to inf
            (_set("output", directory=5), 2),
            (_set(None, material={"type": "anisotropic", "rho": 1200.0, "h": 1e-3,
                                  "moduli_gpa": [[1, 1, 1e300]]}), 2),
            (_set(None, case={"id": 3, "speed": 1e308}), 3),
            # finite coordinates whose areas and edge lengths overflow
            (_set(None, mesh={"Lx": 1e200, "Ly": 1e200, "nx": 4, "ny": 4}), 2),
            (_set("case", window=[5e-5, 1e-5]), 2),  # t1 < t0
            (_set(None, tau=1e-300), 2),  # about 1e297 steps
            # above the node ceiling, rejected before the mesh is allocated
            (_set("mesh", nx=10**19), 2),
            (_set("mesh", nx=200000, ny=200000), 2),
            # load element ids numpy would overflow (1e20) or wrap (2**63)
            (_set(None, case={"load": _load(elements=[1e20])}), 2),
            (_set(None, case={"load": _load(elements=[2**63])}), 2),
            (_set(None, case={"load": _load(b0=1e308, direction=[1e308, 0.0, 1e308])}), 2),
            # one step, whose 0.5*tau^2*beta2 overflows: as a key and as a flag
            (_set(None, tau=1e300), 2),
            (_flags("--tau", "1e300"), 2),
            (_set("material", E=1e-320), 2),  # a default tau of about 1e159
            (_set("material", rho=1e-320), 2),  # the wave speed overflows to inf
            # a strike on a node the fixed border holds at rest
            (_set(None, mesh={"Lx": 1.0, "Ly": 1.0, "nx": 1, "ny": 1}, case={"id": 3}), 2),
            (_set(None, case={"strike": {"node": 0, "speed": 1.0}}), 2),
        ],
        ids=["case_id", "nu", "rho", "Lx", "directory", "moduli_gpa", "speed",
             "huge_coordinates", "window_reversed", "step_count", "nx_1e19",
             "node_ceiling", "element_1e20", "element_2_63", "load_overflow",
             "tau_overflow", "tau_flag_overflow", "default_tau_overflow", "wave_speed_overflow",
             "strike_on_border_1x1", "strike_node_0_fixed"],
    )
    def test_exit_code_and_one_line(self, tmp_path, capsys, monkeypatch, edit, code):
        monkeypatch.chdir(tmp_path)  # a relative output directory stays in tmp_path
        cfg = _shipped_4x4(tmp_path)
        flags = edit(cfg) or []
        cfg_path = _write(tmp_path, "run.json", cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", cfg_path, *flags]) == code
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert err.count("\n") == 1
        assert err.startswith("error: " if code == 2 else "numerical failure: ")

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--tau", "inf"], "error: tau must be positive and finite, got inf\n"),
            (["--tau", "nan"], "error: tau must be positive and finite, got nan\n"),
            (["--every", "x"], "error: argument --every: invalid int value: 'x'\n"),
            (["--tau", "x"], "error: argument --tau: invalid float value: 'x'\n"),
            (["--bogus"], "error: unrecognized arguments: --bogus\n"),
        ],
        ids=["tau_inf", "tau_nan", "every_x", "tau_x", "unknown_flag"],
    )
    def test_bad_flag_exit_2_one_line(self, tmp_path, capsys, flags, message):
        cfg_path = _write(tmp_path, "run.json", _shipped_4x4(tmp_path))
        assert main(["run", cfg_path, *flags]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", message)
        assert not (tmp_path / "o").exists()


def test_shipped_case1_factors_only_free_w_dofs(tmp_path):
    # a transverse load on an isotropic layer holds (u, v) at rest: the
    # factor covers the 31 x 31 interior w dofs of the 32 x 32 fixed grid,
    # and the steps carry the 33 x 33 w dofs, border ones included
    out = tmp_path / "out"
    assert main(["run", str(CONFIGS / "run_case1.json"), "--out", str(out), "--every", "1000"]) == 0
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert solver == {
        "ndof": 3 * 33 * 33,
        "factored_dofs": 31 * 31,
        "stepped_dofs": 33 * 33,
        "held_in_plane": True,
        "factored_entries": solver["factored_entries"],
        "lu_stored_entries": solver["lu_stored_entries"],
        "ordering": "MMD_AT_PLUS_A",
    }
    assert solver["lu_stored_entries"] > 0


def test_held_run_builds_no_full_strain_operator(tmp_path, monkeypatch):
    # every u and v of a held run is zero, so its element strains need
    # only S_w, the (yz, xz) rows of the strain operator
    from membrane import output

    build = output.strain_operator

    def w_only(mesh, w_only=False):
        assert w_only, "a held run built the full strain operator"
        return build(mesh, w_only)

    monkeypatch.setattr(output, "strain_operator", w_only)
    with open(CONFIGS / "run_case1.json", encoding="utf-8") as f:
        cfg = json.load(f)
    cfg["T"] = 2e-4
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "run.json", cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["solver"]["held_in_plane"] is True
    assert len(manifest["snapshot_steps"]) > 1


def test_shipped_aniso_orders_the_node_graph(tmp_path):
    # coupled moduli couple w with (u, v): nothing is held, and the one
    # factor of every free dof is ordered by nodes
    out = tmp_path / "out"
    assert main(["run", str(CONFIGS / "run_aniso.json"), "--out", str(out)]) == 0
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert solver["ordering"] == "MMD_AT_PLUS_A (node graph)"
    assert solver["held_in_plane"] is False
    assert solver["factored_dofs"] == 3 * (31 * 31 - 1)
    assert solver["stepped_dofs"] == solver["ndof"] == 3 * 33 * 33
    assert solver["lu_stored_entries"] > solver["factored_entries"] > 0


def test_shipped_aniso_bytes_identical_across_runs_and_blas_threads(tmp_path):
    # as acceptance criterion 10 checks study.csv: a rerun in process,
    # then 1 and 2 BLAS threads (read once, at process start), write the
    # same snapshot and element files.  The bytes hold on one machine and
    # one BLAS kernel; another kernel may round the solve differently.
    config = str(CONFIGS / "run_aniso.json")
    assert main(["run", config, "--out", str(tmp_path / "a")]) == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for name, threads in (("b", "1"), ("c", "2")):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        subprocess.run([sys.executable, "-m", "membrane.cli", "run", config,
                        "--out", str(tmp_path / name)], env=env, check=True, stdout=subprocess.DEVNULL)
    out = tmp_path / "a"
    files = sorted(p.name for p in out.iterdir() if p.name.startswith(("snapshot_", "elements_")))
    steps = json.loads((out / "manifest.json").read_text())["snapshot_steps"]
    assert len(files) == 3 * len(steps)  # node CSV, VTK and element CSV per snapshot
    for name in files:
        blobs = [(tmp_path / run / name).read_bytes() for run in "abc"]
        assert blobs[0] == blobs[1], f"{name}: reruns differ"
        assert blobs[1] == blobs[2], f"{name}: BLAS thread counts differ"


@pytest.mark.parametrize("command", ["run", "convergence"])
def test_exit_2_leaves_no_output_directory(tmp_path, capsys, command):
    if command == "run":
        cfg = _run_config()
        cfg["tau"] = 1e-300  # about 1e295 steps, rejected after assembly
    else:
        with open(CONFIGS / "study_case1.json", encoding="utf-8") as f:
            cfg = json.load(f)
        cfg["k_max"] = 12  # over the node ceiling
    path = _write(tmp_path, "config.json", cfg)
    out = tmp_path / "out"
    assert main([command, path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


# the body of a binary MSH file: one node as an int id and three doubles
BINARY_MSH = (b"$MeshFormat\n2.2 1 8\n" + struct.pack("<i", 1) + b"\n$EndMeshFormat\n$Nodes\n1\n"
              + struct.pack("<i3d", 1, 1.0, 0.0, 0.0) + b"\n$EndNodes\n")


def _raw_input(kind, command):
    """Bytes of a file that cannot be parsed: an MSH file, or a config."""
    if kind == "msh_not_utf8":
        return BINARY_MSH
    cfg = _run_config() if command == "run" else _study_config()
    text = json.dumps(cfg)
    if kind == "config_not_utf8":
        return text.replace('"fixed"', '"fix\xe9d"').encode("latin-1")
    if kind == "long_integer":  # past Python's 4300-digit limit on int() of a string
        key = '"nx": 4' if command == "run" else '"k_max": 2'
        return text.replace(key, key[:-1] + "9" * 5000).encode()
    return text.replace('"border": "fixed"', '"border": ' + "[" * 100_000 + "]" * 100_000).encode()


@pytest.mark.parametrize("kind,command", [
    ("msh_not_utf8", "mesh-info"), ("msh_not_utf8", "run"),
    ("config_not_utf8", "run"), ("config_not_utf8", "convergence"),
    ("long_integer", "run"), ("long_integer", "convergence"),
    ("deep_nesting", "run"), ("deep_nesting", "convergence"),
])
def test_unparsable_input_exits_2_with_one_line(tmp_path, capsys, kind, command):
    raw = tmp_path / ("mesh.msh" if kind.startswith("msh") else "config.json")
    raw.write_bytes(_raw_input(kind, command))
    path = str(raw)
    if kind.startswith("msh") and command == "run":
        path = _write(tmp_path, "run.json", _run_config(mesh={"msh_path": str(raw)}))
    argv = [command, path] + ([] if command == "mesh-info" else ["--out", str(tmp_path / "out")])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert [str(w.message) for w in caught] == []


def test_structured_run_leaves_csgraph_unloaded(tmp_path):
    # only a mesh read from a file needs the connectivity check, whose
    # scipy.sparse.csgraph import would add to every run's memory
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    cfg = _write(tmp_path, "run.json", _run_config())
    code = ("import sys; from membrane.cli import main; "
            "code = main(['run', sys.argv[1], '--out', sys.argv[2]]); "
            "print(code, 'scipy.sparse.csgraph' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path / "out")],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


class TestConvergenceCommand:
    def test_success_writes_study_csv(self, tmp_path, capsys):
        study_path = _write(tmp_path, "study.json", _study_config())
        out = tmp_path / "out"
        assert main(["convergence", study_path, "--out", str(out)]) == 0
        text = (out / "study.csv").read_text()
        assert text.startswith("level,")
        assert "norm,rate" in text
        stdout = capsys.readouterr().out
        for name in ("L1", "L2", "Linf"):
            assert f"{name} rate" in stdout

    def test_small_k_max_rejected(self, tmp_path, capsys):
        study_path = _write(tmp_path, "study.json", _study_config(k_max=1))
        assert main(["convergence", study_path]) == 2
        assert "k_max" in capsys.readouterr().err

    def test_undefined_rate_warns_in_one_line(self, tmp_path, capsys):
        # on a 1x1 fixed-border grid every coarse node is fixed, so every
        # level difference is zero and no rate can be fitted
        cfg = _study_config(mesh={"Lx": 1.0, "Ly": 1.0, "nx": 1, "ny": 1})
        study_path = _write(tmp_path, "study.json", cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["convergence", study_path, "--out", str(tmp_path / "o")]) == 0
        assert caught == []
        out, err = capsys.readouterr()
        assert err == ("warning: zero difference norm excluded from rate fit; "
                       "fewer than two usable norms; rate undefined\n")
        assert "L1 rate nan" in out

    def test_tiny_T_takes_one_step(self, tmp_path):
        # T/tau below 1e-9 once sized the levels at 0 steps and divided by zero
        study_path = _write(tmp_path, "study.json", _study_config(T=1e-60))
        assert main(["convergence", study_path, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("t_final", [0.0, -4e-5])
    def test_nonpositive_T_rejected(self, tmp_path, capsys, t_final):
        # T = 0 once divided by zero while sizing the levels
        study_path = _write(tmp_path, "study.json", _study_config(T=t_final))
        assert main(["convergence", study_path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: t_final must be positive, got {t_final}\n"

    def test_node_ceiling_checked_before_any_level(self, tmp_path, capsys, monkeypatch):
        def level_ran(*args, **kwargs):
            raise AssertionError("a level ran")

        monkeypatch.setattr("membrane.convergence.run", level_ran)
        with open(CONFIGS / "study_case1.json", encoding="utf-8") as f:
            cfg = json.load(f)
        cfg["k_max"] = 12  # the finest level would have 32768 x 32768 cells
        study_path = _write(tmp_path, "study.json", cfg)
        assert main(["convergence", study_path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "exceed the node limit" in err
        assert "k_max" in err

    def test_bytes_identical_across_runs(self, tmp_path):
        study_path = _write(tmp_path, "study.json", _study_config())
        outs = [tmp_path / f"out{i}" for i in range(2)]
        for out in outs:
            assert main(["convergence", study_path, "--out", str(out)]) == 0
        a, b = ((o / "study.csv").read_bytes() for o in outs)
        assert a == b


class TestMeshInfoCommand:
    def test_summary(self, tmp_path, capsys):
        p = tmp_path / "square.msh"
        p.write_text(TWO_TRIANGLE_MSH)
        assert main(["mesh-info", str(p)]) == 0
        out = capsys.readouterr().out
        assert "nodes:      4" in out
        assert "triangles:  2" in out
        assert "area:       1" in out
        assert "boundary:   4 nodes" in out
        assert "min edge:   1" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["mesh-info", str(tmp_path / "none.msh")]) == 2
        assert capsys.readouterr().err != ""


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("membrane ")
        assert out.strip().split()[1][0].isdigit()


# ------------------------------------------------- mutated inputs, any outcome

CONFIG_WORDS = sorted(
    {"mesh", "msh_path", "Lx", "Ly", "nx", "ny", "material", "type", "isotropic",
     "anisotropic", "moduli_gpa", "E", "nu", "rho", "h", "strain_threshold", "case",
     "id", "b0", "window", "load", "kind", "direction", "elements", "strike", "node",
     "speed", "border", "fixed", "free", "T", "tau", "k_max", "output",
     "every_n_steps", "directory", "initial_translation", "_note"}
)
# generic leaves: integers stay small, so a count (every_n_steps, a node
# id) cannot ask for much work
LEAVES = (st.none() | st.booleans() | st.integers(-3, 6) | st.floats()
          | st.sampled_from(CONFIG_WORDS) | st.text(max_size=4))
JSON_VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(CONFIG_WORDS) | st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
# The keys that set the size of a run draw from these bounds instead, so
# each example takes milliseconds: at most 4x4 cells (16x16 at the finest
# level of a study with k_max 2), and T/tau at most 25 steps at level 0.
# A bad value of each kind, and one past each ceiling, stays in reach.
# These keys are never deleted, and tau is never null: the default
# timestep of a mutated mesh or material could ask for 10^9 steps.
BAD = st.sampled_from([None, "4", True, float("nan"), float("inf")])
BAD_COUNT = BAD | st.just(2.5)
BOUNDED = {
    "nx": st.integers(-1, 4) | st.just(10**19) | BAD_COUNT,
    "ny": st.integers(-1, 4) | st.just(10**19) | BAD_COUNT,
    "k_max": st.integers(-1, 2) | st.just(12) | BAD_COUNT,
    "T": st.floats(-1e-4, 1e-4) | BAD,
    "tau": st.floats(4e-6, 1e-4) | st.sampled_from([0.0, -4e-6, 1e-300, "x", float("nan")]),
}
MSH_TOKENS = ["", "x", "0", "1", "-1", "2", "3", "4", "5", "15", "2.2", "-0.5", "1e400",
              "nan", "10000000000", "$Nodes", "$EndNodes", "$Elements", "$EndElements"]


def _containers(node):
    """Every dict and list inside a parsed JSON value, outermost first."""
    yield node
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            yield from _containers(child)


def _mutate_config(data, cfg):
    """Up to three edits: replace, delete or add a key or list item, or
    scale a number (an edit that often leaves the config valid)."""
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["replace", "delete", "add", "scale", "scale", "scale"]))
        if op == "scale":
            numbers = [(node, key) for node in _containers(cfg)
                       for key in (node if isinstance(node, dict) else range(len(node)))
                       if isinstance(node[key], (int, float)) and not isinstance(node[key], bool)]
            if numbers:
                node, key = data.draw(st.sampled_from(numbers))
                factor = data.draw(st.sampled_from([0.5, 2.0, 1e-3, 1e3, -1.0, 0.0, 1e-300, 1e300]))
                node[key] = data.draw(BOUNDED[key]) if key in BOUNDED else node[key] * factor
                continue
        node = data.draw(st.sampled_from(list(_containers(cfg))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if op == "add" or not keys:
            if isinstance(node, dict):
                key = data.draw(st.sampled_from(CONFIG_WORDS) | st.text(max_size=4))
                node[key] = data.draw(BOUNDED.get(key, JSON_VALUES))
            else:
                node.append(data.draw(JSON_VALUES))
            continue
        key = data.draw(st.sampled_from(keys))
        if key in BOUNDED:
            node[key] = data.draw(BOUNDED[key])
        elif op == "delete":
            del node[key]
        else:
            node[key] = data.draw(JSON_VALUES)


def _mutate_msh(data, text):
    """Up to three line edits: swap a token, delete or repeat a line."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        if not lines:
            lines.append(data.draw(st.sampled_from(MSH_TOKENS)))
            continue
        i = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(["token", "delete", "repeat"]))
        if op == "token":
            parts = lines[i].split() or [""]
            parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(st.sampled_from(MSH_TOKENS))
            lines[i] = " ".join(parts)
        elif op == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_mutated_input_exits_0_2_or_3_with_one_line(data):
    kind = data.draw(st.sampled_from(["run", "convergence", "msh"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if kind == "msh":
            msh = tmp / "mesh.msh"
            msh.write_text(_mutate_msh(data, TWO_TRIANGLE_MSH))
            cfg = _run_config(mesh={"msh_path": str(msh)},
                              border=data.draw(st.sampled_from(["fixed", "free"])))
            command = data.draw(st.sampled_from(["run", "mesh-info"]))
        else:
            cfg = _run_config() if kind == "run" else _study_config()
            _mutate_config(data, cfg)
            command = kind
        path = _write(tmp, "config.json", cfg)
        argv = [command, str(msh) if command == "mesh-info" else path]
        if command != "mesh-info":
            argv += ["--out", str(tmp / "out")]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
    assert code in (0, 2, 3), (argv, cfg)
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    assert [str(w.message) for w in caught] == []
