"""Command-line interface.

Three subcommands:

    membrane run <config.json> [--out DIR] [--every N] [--tau X]
    membrane convergence <study.json> [--out DIR]
    membrane mesh-info <file.msh>

Exit codes: 0 on success, 2 for configuration problems (bad JSON,
missing keys, invalid mesh or material), 3 for numerical failures
(singular matrices, non-finite states) and for running out of memory.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

from . import __version__
from .convergence import run_study, study_from_json
from .errors import ConfigError, MembraneError, SolverError
from .mesh import boundary_nodes, read_msh
from .output import (
    MeshText,
    write_element_csv,
    write_run_manifest,
    write_snapshot_csv,
    write_snapshot_vtk,
    write_study_csv,
)
from .scenarios import _read_json_object, build_mesh, run, scenario_from_dict

__all__ = ["main"]

DEFAULT_OUT = "membrane-out"


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one `error:` line and exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="membrane",
        description="Dynamic simulation of thin anisotropic composite membranes.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="integrate one scenario and write snapshots")
    pr.add_argument("config", help="scenario JSON file")
    pr.add_argument("--out", help=f"output directory (default: config, else {DEFAULT_OUT})")
    pr.add_argument("--every", type=int, help="override snapshot cadence (steps)")
    pr.add_argument("--tau", type=float, help="override the timestep")

    pc = sub.add_parser("convergence", help="run a mesh-refinement study")
    pc.add_argument("study", help="study JSON file (scenario plus k_max)")
    pc.add_argument("--out", help=f"output directory (default: config, else {DEFAULT_OUT})")

    pm = sub.add_parser("mesh-info", help="summarize an MSH v2.2 file")
    pm.add_argument("mesh", help="MSH v2.2 ASCII file")
    return p


def _cmd_run(args) -> int:
    # the manifest echoes the dict that was parsed, not a second read of the file
    config_echo = _read_json_object(args.config, "config")
    overrides = {"every_n_steps": args.every, "tau": args.tau}
    # ScenarioConfig checks an override as it checks the value a config gives
    config = replace(scenario_from_dict(config_echo, os.path.dirname(args.config)),
                     **{key: value for key, value in overrides.items() if value is not None})
    out_dir = Path(args.out or config.out_dir or DEFAULT_OUT)

    # build the mesh up front, once; the writers' text is made at the first snapshot
    mesh = build_mesh(config.mesh)
    text = MeshText(mesh)
    config = replace(config, mesh=mesh)
    written = []
    output = {"files": 0, "bytes": 0, "write_s": 0.0}

    def on_snapshot(state):
        if not written:  # step 0 always arrives; a run failing earlier makes no directory
            out_dir.mkdir(parents=True, exist_ok=True)
        tag = f"{state.step:06d}"
        paths = (out_dir / f"snapshot_{tag}.csv", out_dir / f"elements_{tag}.csv",
                 out_dir / f"snapshot_{tag}.vtk")
        start = time.perf_counter()
        write_snapshot_csv(paths[0], text, state)
        # the VTK releases the w and vmag text it shares with the node CSV
        # before the element CSV is formatted
        write_snapshot_vtk(paths[2], text, state)
        write_element_csv(paths[1], text, config.material, state)
        output["write_s"] += time.perf_counter() - start
        output["files"] += len(paths)
        output["bytes"] += sum(p.stat().st_size for p in paths)
        written.append(state.step)

    result = run(config, on_snapshot=on_snapshot, keep_snapshots=False)

    write_run_manifest(
        out_dir / "manifest.json",
        {
            "config": config_echo,
            "overrides": {
                "out": args.out,
                "every": args.every,
                "tau": args.tau,
            },
            "version": __version__,
            "tau": result.params.tau,
            "n_steps": result.n_steps,
            "n_nodes": result.mesh.n_nodes,
            "n_triangles": result.mesh.n_triangles,
            "snapshot_steps": written,
            "wall_time_s": result.wall_time,
            "solver": result.solver,
            "output": output,
        },
    )
    print(
        f"ran {result.n_steps} steps (tau={result.params.tau:.6e}) on "
        f"{result.mesh.n_nodes} nodes; {len(written)} snapshots in {out_dir}"
    )
    return 0


def _cmd_convergence(args) -> int:
    spec = study_from_json(args.study)
    out_dir = Path(args.out or spec.scenario.out_dir or DEFAULT_OUT)
    # a study whose differences vanish (say, every baseline node fixed)
    # warns once per norm that its rate is undefined: one stderr line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_study(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_study_csv(out_dir / "study.csv", result)
    for name, rate in result.rates.items():
        print(f"{name} rate {rate:.3f}")
    if caught:
        notes = dict.fromkeys(str(w.message) for w in caught)
        print("warning: " + "; ".join(notes), file=sys.stderr)
    print(f"study report written to {out_dir / 'study.csv'}")
    return 0


def _cmd_mesh_info(args) -> int:
    mesh = read_msh(args.mesh)
    xmin, xmax, ymin, ymax = mesh.extent()
    print(f"nodes:      {mesh.n_nodes}")
    print(f"triangles:  {mesh.n_triangles}")
    print(f"extent:     [{xmin:.6g}, {xmax:.6g}] x [{ymin:.6g}, {ymax:.6g}]")
    print(f"area:       {mesh.areas().sum():.6g}")
    print(f"boundary:   {boundary_nodes(mesh).size} nodes")
    print(f"min edge:   {mesh.min_edge_length():.6g}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
        return _cmd_mesh_info(args)
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except (MembraneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
