"""One benchmark sample: run a workload once in this process and report it.

    python3 bench/sample.py --workload NAME --seed N --trace 0|1 --workdir DIR

``bench/run.py`` starts one such process per sample, so peak memory is
per workload.  The last line of standard output is one JSON object with
the sample's timings, peak RSS, check results and, with ``--trace 1``,
its per-layer metrics and spans.

With ``--trace 0`` only the calls that bound the phases are wrapped
(``run``, ``step`` and the output writers, a few calls per step), so the
end-to-end figures carry next to no tracing cost.  ``--trace 1`` wraps
every layer's public functions as well.
"""
from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import membrane  # noqa: E402
import membrane.cli  # noqa: E402
import membrane.convergence  # noqa: E402
import membrane.scenarios  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUTPUT_WRITERS = ("write_snapshot_csv", "write_element_csv", "write_snapshot_vtk",
                  "write_run_manifest")
ORCHESTRATION = ("scenarios.run", "convergence.run_study", "cli.main")
REFERENCE_RTOL = 1e-9
MIN_COVERAGE = 0.8


def install_phase_clock(tr: Tracer) -> None:
    """Wrap the calls that mark phase edges: run(), step() and the writers."""
    for module in (membrane, membrane.convergence, membrane.cli):
        tr.wrap(module, "run", "scenarios.run")
    tr.wrap(membrane.scenarios, "step", "integrator.step")
    for writer in OUTPUT_WRITERS:
        tr.wrap(membrane.cli, writer, f"output.{writer}")


class SolverCounts:
    """Exact sizes of the factored systems, summed over factorizations."""

    def __init__(self):
        self.nnz_lu = 0
        self.nnz_a = 0
        self.ndof_constrained = 0
        self.last_factor = None

    def factored(self, args, factor) -> None:
        system, params = args[0], args[1]
        a = system.M + (0.5 * params.tau**2 * params.beta2) * system.K
        self.nnz_a += a.nnz
        self.nnz_lu += factor.lu.L.nnz + factor.lu.U.nnz - system.ndof
        self.last_factor = factor

    def constrained(self, args, system) -> None:
        self.ndof_constrained += int(system.constrained_dofs.size)


def install_layers(tr: Tracer, counts: SolverCounts) -> None:
    sc, cv, cli = membrane.scenarios, membrane.convergence, membrane.cli
    tr.wrap(cv, "run_study", "convergence.run_study")
    tr.wrap(cli, "main", "cli.main")
    tr.wrap(cv, "generate_structured", "mesh.generate_structured")
    tr.wrap(sc, "generate_structured", "mesh.generate_structured")
    tr.wrap(sc, "boundary_nodes", "mesh.boundary_nodes")
    tr.wrap(sc, "compile_case", "scenarios.compile_case")
    tr.wrap(sc, "assemble", "assembly.assemble")
    tr.wrap(sc, "apply_constraints", "assembly.apply_constraints", counts.constrained)
    tr.wrap(sc, "update_load", "assembly.update_load")
    tr.wrap(sc, "init_state", "integrator.init_state")
    tr.wrap(sc, "factor_once", "integrator.factor_once", counts.factored)
    tr.wrap(cv, "extract_at_positions", "convergence.extract_at_positions")


def phase_times(spans, t0: float) -> dict:
    """Split the traced call into setup, integrate and output seconds.

    Setup runs from the call (for later study levels, from that level's
    run()) to its first step; integrate from there to the end of run().
    Snapshot writing inside either window is moved to output.
    """
    writes = [s for s in spans if s.name.startswith("output.")]
    steps = [s for s in spans if s.name == "integrator.step"]
    runs = [s for s in spans if s.name == "scenarios.run"]
    setup = integrate = 0.0
    for k, r in enumerate(runs):
        first = min((s.start for s in steps if r.start <= s.start <= r.end), default=r.end)
        begin = t0 if k == 0 else r.start
        setup += first - begin - sum(w.end - w.start for w in writes if begin <= w.start < first)
        integrate += r.end - first - sum(w.end - w.start for w in writes if first <= w.start <= r.end)
    return {
        "setup_s": setup,
        "integrate_s": integrate,
        "output_s": sum(w.end - w.start for w in writes),
    }


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * float(np.median(times))


def layer_metrics(tr: Tracer, counts: SolverCounts, wall: float, workdir: Path) -> dict:
    own = tr.self_times()
    m: dict = {}
    for span, t in zip(tr.spans, own):
        m[f"{span.name}.s"] = m.get(f"{span.name}.s", 0.0) + t
        m[f"{span.name}.calls"] = m.get(f"{span.name}.calls", 0) + 1
    steps_ms = [1e3 * (s.end - s.start) for s in tr.spans if s.name == "integrator.step"]
    m["integrator.step.p50_ms"] = float(np.percentile(steps_ms, 50))
    m["integrator.step.p99_ms"] = float(np.percentile(steps_ms, 99))
    # one study level per run() call, in order: MEMBRANE_THREADS=1
    study = [i for i, s in enumerate(tr.spans) if s.name == "convergence.run_study"]
    levels = [s for s in tr.spans if s.name == "scenarios.run" and s.parent in study]
    for k, s in enumerate(levels):
        m[f"convergence.level{k}.s"] = s.end - s.start

    m["integrator.nnz_LU"] = counts.nnz_lu
    m["assembly.nnz_A"] = counts.nnz_a
    m["integrator.fill_ratio"] = counts.nnz_lu / counts.nnz_a
    m["assembly.ndof_constrained"] = counts.ndof_constrained

    # the per-step split, timed on the last factored system
    factor = counts.last_factor
    rhs = np.random.default_rng(0).standard_normal(factor.system.ndof)
    m["integrator.lu_solve_ms"] = _median_ms(lambda: factor.lu.solve(rhs), 15)
    m["assembly.K_matvec_ms"] = _median_ms(lambda: factor.system.K @ rhs, 15)

    written = list((workdir / "out").glob("*"))
    m["output.files"] = len(written)
    m["output.bytes"] = sum(p.stat().st_size for p in written)
    attributed = sum(t for s, t in zip(tr.spans, own) if s.name not in ORCHESTRATION)
    m["trace.coverage"] = attributed / wall
    return m


def check_reference(name: str, norms: dict) -> list[str]:
    with open(BENCH / "reference.json", encoding="utf-8") as f:
        ref = json.load(f)[name]
    problems = []
    for key, want in ref.items():
        got = norms.get(key)
        if got is None or abs(got - want) > REFERENCE_RTOL * abs(want):
            problems.append(f"{key} = {got}, reference {want}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--small", action="store_true", help="tiny grids, for the benchmark's tests")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt the outputs before checking them, to test the checks")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    inputs = wl.inputs(args.seed, args.small)
    counts = SolverCounts()
    with Tracer() as tr:
        install_phase_clock(tr)
        if args.trace:
            install_layers(tr, counts)
        gc.collect()
        t0 = time.perf_counter()
        result = wl.call(inputs, args.workdir)
        t1 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "wall_s": t1 - t0,
        **phase_times(tr.spans, t0),
        "peak_rss_mb": peak_rss_mb,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__},
    }
    if args.trace:
        out["layers"] = layer_metrics(tr, counts, t1 - t0, args.workdir)
        out["spans"] = [[s.name, s.start - t0, s.end - t0, s.parent] for s in tr.spans]
    if args.inject_fault:
        wl.corrupt(inputs, result, args.workdir)
    problems, norms = wl.check(inputs, result, args.workdir)
    if args.seed == 0 and not args.small:
        problems += check_reference(args.workload, norms)
    if args.trace and out["layers"]["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"layer spans cover only {out['layers']['trace.coverage']:.2f} of wall_s")
    out.update(ok=not problems, problems=problems, norms=norms)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
