"""tools/bytes_vs_base.py: its comparison of two output trees, and its inputs."""
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from membrane.scenarios import config_from_json

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bytes_vs_base", ROOT / "tools" / "bytes_vs_base.py")
bytes_vs_base = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bytes_vs_base)


@pytest.fixture
def trees(tmp_path):
    """(base, head): equal small output trees of one run and one study."""
    base = tmp_path / "base"
    run, study = base / "run", base / "study"
    run.mkdir(parents=True)
    study.mkdir()
    manifest = {"solver": {"ndof": 75, "ordering": "MMD_AT_PLUS_A"}, "tau": 1e-6, "n_steps": 4,
                "n_nodes": 25, "n_triangles": 32, "snapshot_steps": [0, 4], "wall_time_s": 0.1}
    (run / "manifest.json").write_text(json.dumps(manifest))
    (run / "snapshot_000000.csv").write_text("node,x,y\n0,0,0\n")
    (run / "elements_000004.csv").write_text("element,sig_xx\n0,1.2345678901234567e+05\n")
    (study / "study.csv").write_text("level,L1\n1,1e-3\n2,2.5e-4\n")
    head = tmp_path / "head"
    shutil.copytree(base, head)
    return base, head


def _edit_manifest(run: Path, edit):
    manifest = json.loads((run / "manifest.json").read_text())
    edit(manifest)
    (run / "manifest.json").write_text(json.dumps(manifest))


def test_equal_trees_have_no_difference(trees):
    base, head = trees
    _edit_manifest(head / "run", lambda m: m.update(wall_time_s=9.9))  # not compared
    assert bytes_vs_base.differences(base / "run", head / "run") == []
    assert bytes_vs_base.differences(base / "study", head / "study") == []


def test_one_changed_byte_of_an_element_file_is_reported(trees):
    base, head = trees
    path = head / "run" / "elements_000004.csv"
    path.write_bytes(path.read_bytes().replace(b"567e+05", b"568e+05"))
    assert bytes_vs_base.differences(base / "run", head / "run") == ["elements_000004.csv"]


def test_a_missing_study_row_is_reported(trees):
    base, head = trees
    (head / "study" / "study.csv").write_text("level,L1\n1,1e-3\n")
    assert bytes_vs_base.differences(base / "study", head / "study") == ["study.csv"]


def test_a_missing_output_file_is_reported(trees):
    base, head = trees
    (head / "run" / "snapshot_000000.csv").unlink()
    assert bytes_vs_base.differences(base / "run", head / "run") == ["snapshot_000000.csv"]


@pytest.mark.parametrize("edit,key", [
    (lambda m: m["solver"].update(ordering="COLAMD"), "solver.ordering"),
    (lambda m: m["solver"].pop("ndof"), "solver.ndof"),
    (lambda m: m.update(n_steps=5), "n_steps"),
    (lambda m: m.update(snapshot_steps=[0, 2, 4]), "snapshot_steps"),
])
def test_a_changed_manifest_value_is_reported(trees, edit, key):
    base, head = trees
    _edit_manifest(head / "run", edit)
    assert bytes_vs_base.differences(base / "run", head / "run") == [key]


def test_a_solver_key_only_the_head_has_passes(trees):
    base, head = trees
    _edit_manifest(head / "run", lambda m: m["solver"].update(cg_iterations=31))
    assert bytes_vs_base.differences(base / "run", head / "run") == []


def test_a_tree_without_output_files_is_reported(tmp_path):
    (tmp_path / "base").mkdir()
    (tmp_path / "head").mkdir()
    assert bytes_vs_base.differences(tmp_path / "base", tmp_path / "head") != []


@pytest.mark.parametrize("path", sorted((ROOT / "configs" / "ci").glob("*.json")), ids=lambda p: p.name)
def test_every_ci_config_parses(path):
    config = config_from_json(path)
    if isinstance(config.mesh, str):
        assert (ROOT / config.mesh).is_file()


def _largest(trees, name):
    base, head = trees
    return bytes_vs_base.largest_difference(base / name, head / name)


def test_a_differing_csv_names_its_largest_difference(trees):
    base, head = trees
    # L1's last value moves by one ulp: 5.4e-20, relative to L1's max 1e-3
    (head / "study" / "study.csv").write_text("level,L1\n1,1e-3\n2,2.5000000000000006e-4\n")
    assert _largest(trees, "study/study.csv") == " (largest difference: L1, 1 ulps, 5.42e-17 of its largest |value|)"


def test_the_field_with_the_largest_relative_difference_is_named(trees):
    base, head = trees
    # a second block, after a blank line, has its own header; level's 1 -> 2
    # is many more ulps than rate's change, but rate's is larger relative to its max
    (base / "study" / "study.csv").write_text("level,L1\n1,1e-3\n10,2.5e-4\n\nnorm,rate\nL1,2.0\n")
    (head / "study" / "study.csv").write_text("level,L1\n2,1e-3\n10,2.5e-4\n\nnorm,rate\nL1,3.0\n")
    assert _largest(trees, "study/study.csv").startswith(" (largest difference: rate, 2251799813685248 ulps, 0.5 of")


def test_a_csv_that_differs_in_text_only_or_in_lines_says_so(trees):
    base, head = trees
    path = head / "run" / "elements_000004.csv"
    # 1.2345678901234567e+05 and ...568e+05 are one double
    path.write_bytes(path.read_bytes().replace(b"567e+05", b"568e+05"))
    assert _largest(trees, "run/elements_000004.csv") == " (no number differs)"
    (head / "study" / "study.csv").write_text("level,L1\n1,1e-3\n")
    assert _largest(trees, "study/study.csv") == " (3 lines, 2 in the head)"


def test_a_file_that_is_no_csv_or_is_missing_gets_no_size(trees):
    base, head = trees
    _edit_manifest(head / "run", lambda m: m.update(n_steps=5))
    assert _largest(trees, "run/manifest.json") == ""
    (head / "run" / "snapshot_000000.csv").unlink()
    assert _largest(trees, "run/snapshot_000000.csv") == ""
