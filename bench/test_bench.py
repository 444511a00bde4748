"""The benchmark's own tests, on tiny grids: python3 -m pytest bench"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace, capsys):
    assert run.main(["--workload", "all", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace), "--small"]) == 0
    out = capsys.readouterr().out
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for workload in run.WORKLOADS:
        for m in declared:
            got = result["metrics"][f"{workload}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
        names = [m["name"] for m in declared]
        if not trace:
            names += ["output_s", "fail_frac"]
        for name in names:
            line = [ln for ln in out.splitlines()
                    if ln.split()[:2] == [workload, name]]
            assert len(line) == 1, (workload, name)
            assert line[0].split()[3] == run.unit_of(name)
            assert "samples" in line[0]
    assert "src_lines=" in out and "nproc=" in out


def test_phases_fit_inside_wall_time():
    samples = run.collect("run_output_64", 1, 0, 0, ["--small"])
    for s in samples:
        assert s["ok"], s["problems"]
        parts = s["setup_s"] + s["integrate_s"] + s["output_s"]
        assert 0.5 * s["wall_s"] < parts <= s["wall_s"]


@pytest.mark.parametrize("workload", ["run_aniso_160", "run_output_64", "study_case1"])
def test_a_failing_check_counts_in_fail_frac(workload):
    good = run.collect(workload, 1, 0, 0, ["--small"])
    bad = run.collect(workload, 1, 0, 0, ["--small", "--inject-fault"])
    assert all(not s["ok"] and s["problems"] for s in bad)
    assert run.fail_frac(bad) == 1.0
    if workload != "study_case1":  # the tiny study is not yet in its rate band
        assert run.fail_frac(good) == 0.0


def test_a_crashing_sample_counts_as_failed(tmp_path):
    s = run.run_sample("no_such_workload", 1, 0, tmp_path / "w", 60)
    assert not s["ok"] and s["problems"][0].startswith("exit 2")
    assert run.fail_frac([s]) == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study_case1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed_never_changes_the_cost_of_a_workload():
    from workloads import WORKLOADS

    import membrane as mb

    for name, wl in WORKLOADS.items():
        a, b = wl.inputs(1, False), wl.inputs(2, False)
        for key in ("mesh", "T", "tau", "border", "k_max"):
            assert a.get(key) == b.get(key), (name, key)
        assert a["material"] != b["material"]
        mb.params_from_config(b["material"])  # still positive definite


def test_tracer_self_time_and_restore():
    import types
    import time

    mod = types.SimpleNamespace()
    mod.inner = lambda: time.sleep(0.02)
    mod.outer = lambda: (time.sleep(0.01), mod.inner())
    originals = (mod.inner, mod.outer)
    with Tracer() as tr:
        tr.wrap(mod, "inner", "inner")
        tr.wrap(mod, "outer", "outer")
        mod.outer()
    assert (mod.inner, mod.outer) == originals
    outer, inner = tr.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("outer", -1, "inner", 0)
    own = tr.self_times()
    assert own[1] == pytest.approx(inner.end - inner.start)
    assert own[0] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
