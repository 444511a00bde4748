"""membrane-fem benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of study_case1, run_aniso_160, run_output_64, or ``all`` to
run each in turn.  Every sample is a fresh ``bench/sample.py`` process
with one BLAS thread and ``MEMBRANE_THREADS=1``; samples run one after
another until about S seconds have passed (at least three, or two with
tracing).  Each sample's outputs are checked; a sample that raises,
exits non-zero, times out or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json as
medians over the samples.  ``--trace 1`` alternates traced and untraced
samples and reports the per-layer metrics, medians over the traced
ones; the full span list of the first traced sample goes to
``.bench_out/``.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.

Run ``python3 -m pytest bench`` for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("study_case1", "run_aniso_160", "run_output_64")
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MEMBRANE_THREADS": "1",
}
# one invocation must end within 180 s; stop starting samples well before
RUN_LIMIT_S = 165.0
UNITS = {"wall_s": "s", "setup_s": "s", "integrate_s": "s", "output_s": "s",
         "peak_rss_mb": "MB", "fail_frac": "ratio", "trace.overhead_s": "s"}


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("fill_ratio", "coverage")):
        return "ratio"
    return "count"


def declared_metrics() -> tuple[list[str], list[str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "membrane").glob("*.py")))


def run_sample(workload: str, seed: int, trace: int, workdir: Path, timeout: float,
               extra=()) -> dict:
    """One sample in a fresh process; a failure comes back as ok=False."""
    cmd = [sys.executable, str(BENCH / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--workdir", str(workdir), *extra]
    env = {**os.environ, **PINNED_ENV}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return {"ok": False, "problems": [f"exit {proc.returncode}: {tail[0]}"]}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "problems": ["no result line"]}


def collect(workload: str, seed: int, seconds: float, trace: int, extra=()) -> list[dict]:
    """Samples until `seconds` have passed; with tracing, traced ones alternate."""
    start = time.monotonic()
    min_samples = 2 if trace else 3
    scratch = ROOT / ".bench_work" / str(os.getpid())
    samples, durations = [], []
    try:
        while True:
            elapsed = time.monotonic() - start
            if len(samples) >= min_samples and elapsed + statistics.median(durations) > seconds:
                break
            if elapsed >= RUN_LIMIT_S:
                break
            traced = int(trace and len(samples) % 2 == 0)
            t = time.monotonic()
            s = run_sample(workload, seed, traced, scratch / f"s{len(samples)}",
                           RUN_LIMIT_S - elapsed, extra)
            durations.append(time.monotonic() - t)
            s["traced"] = traced
            samples.append(s)
            for problem in s.get("problems", []):
                print(f"{workload} sample {len(samples)}: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return samples


def fail_frac(samples: list[dict]) -> float:
    return sum(not s["ok"] for s in samples) / len(samples)


def layer_medians(samples: list[dict]) -> dict:
    """Per-layer medians over the traced samples, plus the tracing overhead."""
    traced = [s["layers"] for s in samples if "layers" in s]
    names = sorted({k for layers in traced for k in layers})
    out = {k: statistics.median([t[k] for t in traced if k in t]) for k in names}
    walls = [[s["wall_s"] for s in samples if "wall_s" in s and s["traced"] == flag]
             for flag in (0, 1)]
    if all(walls):
        out["trace.overhead_s"] = statistics.median(walls[1]) - statistics.median(walls[0])
    return out


def report(workload: str, samples: list[dict], trace: int, e2e: list[str],
           per_layer: list[str]) -> dict:
    """Print one workload's table; return the metrics for the JSON line.

    End-to-end figures are medians over the untraced samples, including
    those that failed a check after reporting timings.
    """
    untraced = [s for s in samples if "wall_s" in s and not s["traced"]]
    metrics = {}
    # output_s and fail_frac are printed but not declared in BENCHMARK.json:
    # both are exactly 0 on some workloads, and the JSON line carries
    # fail_frac as failed/attempted
    for name in e2e + ["output_s"]:
        vals = [s[name] for s in untraced]
        if not vals:
            continue
        value, unit = statistics.median(vals), unit_of(name)
        print(f"{workload:14s} {name:12s} {value:14.6g} {unit:5s} median of {len(vals)} "
              f"samples, range [{min(vals):.6g}, {max(vals):.6g}]")
        if not trace and name in e2e:
            metrics[name] = {"value": value, "unit": unit}
    failed = sum(not s["ok"] for s in samples)
    print(f"{workload:14s} {'fail_frac':12s} {fail_frac(samples):14.6g} ratio "
          f"{failed} of {len(samples)} samples failed")
    if not trace:
        return metrics

    layers = layer_medians(samples)
    n = sum("layers" in s for s in samples)
    for name, value in layers.items():
        print(f"{workload:14s} {name:38s} {value:14.6g} {unit_of(name):5s} "
              f"median of {n} traced samples")
    first = next((s for s in samples if "spans" in s), None)
    if first is not None:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace_{workload}_seed{first['seed']}.json").write_text(
            json.dumps({"env": first["env"], "layers": layers, "spans": first["spans"]}),
            encoding="utf-8")
    return {name: {"value": layers[name], "unit": unit_of(name)}
            for name in per_layer if name in layers}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="membrane-fem benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="tiny grids, for the benchmark's own tests")
    args = p.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, args.trace,
               ["--small"] if args.small else [])


def run(workload: str, seed: int, seconds: float, trace: int, extra=()) -> int:
    missing = [f for f in ("src/membrane/__init__.py", "configs/study_case1.json")
               if not (ROOT / f).is_file()]
    if missing:
        print(f"error: package sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    e2e, per_layer = declared_metrics()
    names = WORKLOADS if workload == "all" else (workload,)
    metrics, attempted, failed, env = {}, 0, 0, None
    for name in names:
        samples = collect(name, seed, seconds, trace, extra)
        if not any("wall_s" in s for s in samples):
            print(f"error: every {name} sample failed", file=sys.stderr)
            return 1
        env = env or next(s["env"] for s in samples if "env" in s)
        for key, value in report(name, samples, trace, e2e, per_layer).items():
            metrics[key if workload != "all" else f"{name}.{key}"] = value
        attempted += len(samples)
        failed += sum(not s["ok"] for s in samples)
    print(f"# env nproc={os.cpu_count()} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} src_lines={src_lines()} "
          + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
