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
there is any.  A differing CSV file also gets the size of its largest
difference (`largest_difference`), so a few ulps of a reordered sum or
another BLAS kernel show apart from a real change.  The bytes are those
of one machine and one OpenBLAS kernel (see `membrane.output`), so both
sides run on this one.
"""
import argparse
import json
import math
import os
import signal
import struct
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


def _ordinal(x: float) -> int:
    """The place of double `x` in the order of all doubles: neighbours differ by 1."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def largest_difference(base: Path, head: Path) -> str:
    """How large the difference of CSV file `head` from `base` is, as text.

    A field is a column of a block: a header line and the rows below it,
    up to a blank line.  Where both files hold a number in a cell and
    the texts differ, the difference counts in ulps (the doubles between
    the two values) and relative to the field's largest |value| in
    `base`.  The field with the largest relative difference is named
    with both.  Not a CSV file on both sides gives ""; CSV files whose
    lines do not pair up, or that differ in no number, say so.
    """
    if base.suffix != ".csv" or not head.is_file():
        return ""
    lines = [path.read_text().splitlines() for path in (base, head)]
    if len(lines[0]) != len(lines[1]):
        return f" ({len(lines[0])} lines, {len(lines[1])} in the head)"
    fields = {}  # (header line, column): [largest |base value|, |difference|, ulps]
    header = 0
    for k, (b_line, h_line) in enumerate(zip(*lines)):
        if k == 0 or not lines[0][k - 1]:
            header = k
        for j, (b, h) in enumerate(zip(b_line.split(","), h_line.split(","))):
            try:
                x, y = float(b), float(h)
            except ValueError:
                continue
            field = fields.setdefault((header, j), [0.0, 0.0, 0])
            field[0] = max(field[0], abs(x))
            if b != h:
                diff = abs(x - y)
                field[1] = max(field[1], math.inf if math.isnan(diff) else diff)
                field[2] = max(field[2], abs(_ordinal(x) - _ordinal(y)))
    rel = {key: math.inf if v[0] == 0.0 else v[1] / v[0] for key, v in fields.items() if v[2]}
    if not rel:
        return " (no number differs)"
    (header, j), worst = max(rel.items(), key=lambda item: item[1])
    names = lines[0][header].split(",")
    name = names[j] if j < len(names) else f"column {j}"
    return f" (largest difference: {name}, {fields[header, j][2]} ulps, {worst:.3g} of its largest |value|)"


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
            bad += [f"{Path(cfg).name}: {item}{largest_difference(*(d / item for d in dirs))}"
                    for item in differences(*dirs)]
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
