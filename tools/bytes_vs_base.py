#!/usr/bin/env python3
"""Check that the working tree writes the same bytes as a base commit.

    python3 tools/bytes_vs_base.py --base REV

REV is checked out into a temporary `git worktree`, removed on exit.
Each side runs its own `src/` from its own root, on its own
`configs/study_case*.json` and `configs/run_{case1,case5,aniso}.json`,
and both run this tree's `configs/ci/run_*.json` (a relative
`msh_path` there is read against `configs/ci/` of this tree, as
`membrane run` reads it).  The comparison:

- each study's `study.csv`, and each run's `snapshot_*` and
  `elements_*` files, byte for byte;
- `mesh-info` of `configs/ci/jit12.msh`;
- each `"solver"` key of a base run's manifest must keep its value
  (the head may add keys), and so must the MANIFEST_KEYS.

Each differing file or key is printed, and the exit status is 1 if
there is any.  The bytes are those of one machine and one OpenBLAS
kernel (see `membrane.output`), so both sides run on this one.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent  # the tree this script is in
STUDIES = [f"configs/study_case{k}.json" for k in range(1, 6)]
RUNS = [f"configs/run_{name}.json" for name in ("case1", "case5", "aniso")]
MESH = HEAD / "configs/ci/jit12.msh"
COMPARED = ("study.csv", "snapshot_", "elements_")
MANIFEST_KEYS = ("tau", "n_steps", "n_nodes", "n_triangles", "snapshot_steps")


def differences(base: Path, head: Path) -> list:
    """The output files and manifest keys of directory `head` that differ from `base`.

    Every study.csv, snapshot_* and elements_* file of `base` must have
    the same bytes in `head`.  Where `base` holds a manifest.json, each
    of its "solver" keys and MANIFEST_KEYS must have the same value in
    `head`'s.
    """
    names = sorted(p.name for p in base.iterdir() if p.name.startswith(COMPARED))
    bad = [n for n in names if not (head / n).is_file() or (head / n).read_bytes() != (base / n).read_bytes()]
    if (base / "manifest.json").is_file():
        b, h = (json.loads((d / "manifest.json").read_text()) for d in (base, head))
        bad += [f"solver.{k}" for k, v in b["solver"].items() if k not in h["solver"] or h["solver"][k] != v]
        bad += [k for k in MANIFEST_KEYS if h.get(k) != b[k]]
    return bad if names else ["no study.csv, snapshot_* or elements_* file"]


def membrane(root: Path, *args) -> bytes:
    """Run `python -m membrane.cli *args` on the source and in the root `root`."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run([sys.executable, "-m", "membrane.cli", *args], cwd=root, env=env,
                          check=True, stdout=subprocess.PIPE).stdout


def compare(base_root: Path, out: Path) -> list:
    """Every difference between the outputs of `base_root` and HEAD, each as a line."""
    runs = list(RUNS)
    for path in sorted((HEAD / "configs/ci").glob("run_*.json")):
        cfg = json.loads(path.read_text())
        if "msh_path" in cfg["mesh"]:  # from HEAD's configs/ci, at both sides
            cfg["mesh"]["msh_path"] = str(path.parent / cfg["mesh"]["msh_path"])
        (out / path.name).write_text(json.dumps(cfg))
        runs.append(str(out / path.name))
    info = [membrane(root, "mesh-info", str(MESH)) for root in (base_root, HEAD)]
    bad = [] if info[0] == info[1] else [f"mesh-info of {MESH.relative_to(HEAD)}"]
    for command, configs in (("convergence", STUDIES), ("run", runs)):
        for cfg in configs:
            dirs = [out / side / Path(cfg).stem for side in ("base", "head")]
            for root, d in zip((base_root, HEAD), dirs):
                membrane(root, command, cfg, "--out", str(d))
            bad += [f"{Path(cfg).name}: {item}" for item in differences(*dirs)]
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    rev = parser.parse_args(argv).base
    # a terminated run still removes its worktree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        try:
            subprocess.run(["git", "worktree", "add", "--quiet", "--detach", str(tree), rev], cwd=HEAD, check=True)
            bad = compare(tree, Path(tmp))
        except subprocess.CalledProcessError as exc:  # its stderr is already shown
            sys.exit(f"failed: {' '.join(map(str, exc.cmd))}")
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=HEAD, stderr=subprocess.DEVNULL)
    for line in bad:
        print(f"differs from {rev}: {line}")
    print(f"{len(bad)} differences from {rev}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
