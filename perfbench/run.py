"""evfront benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload replay-corners --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with only ``frontend_step``
stamped, and scales their timings to a reference machine by a kernel
timed between pipeline runs (see ``BENCHMARK.md``). ``--trace 1`` alternates untraced and traced pipeline runs and
reports the per-layer metrics from the traced ones, plus the tracing
overhead; the spans are written to ``perfbench/out/``. Every timed output
is checked. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with exactly the
metrics ``BENCHMARK.json`` declares for the mode. The lines before it
are a readable report: environment, output digest, inlier ratio,
failed_ratio and every metric with its unit.

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One process drives the load: the threaded workloads use the pipeline's
# two threads, so BLAS gets one, keeping the total within two cores.
# This must happen before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3   # set-up samples taken before measuring, and again after

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import evfront; "
                 "print(time.perf_counter() - t)")


def setup_samples(w, seed: int, imports: list, builds: list):
    """Time SETUP_REPEATS imports of evfront, each in a fresh interpreter,
    and as many builds of the workload's inputs; returns the inputs."""
    import workloads

    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=60)
        imports.append(float(done.stdout.strip().splitlines()[-1]))
        started = time.perf_counter()
        inputs = workloads.build_inputs(w, seed)
        builds.append(time.perf_counter() - started)
    return inputs


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_name, "blas_threads": BLAS_THREADS}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def benchmark(w, seed: int, seconds: float, trace: int, spec: dict,
              log=print) -> dict:
    """Set up, measure and check one workload; returns the result object.

    The readable report goes to ``log`` line by line.
    """
    import workloads

    imports, builds = [], []
    inputs = setup_samples(w, seed, imports, builds)
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
    run = workloads.measure(w, inputs, seconds, tracer)
    correct = run.failed == 0 and bool(run.untraced)
    inlier_ratio = run.inliers / run.matches if run.matches else 0.0
    if w.inlier_gate:
        correct = correct and inlier_ratio >= workloads.INLIER_FLOOR

    measured, raw = {}, {}
    reference_ms = statistics.mean(run.reference_ms)
    slowdown = reference_ms / workloads.REFERENCE_MS
    if run.untraced:
        raw = workloads.end_to_end(w, run.untraced)
        # Set-up is sampled on both sides of the measurement, like the
        # reference kernel, so that the slowdown applies to it too.
        setup_samples(w, seed, imports, builds)
        raw["setup_s"] = statistics.median(imports) + statistics.median(builds)
        measured = {name: value * slowdown if name in workloads.RATES
                    else value / slowdown for name, value in raw.items()}
        measured["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None and run.traced:
        measured.update(spans.layer_metrics(
            tracer.spans, run.traced, threading.get_ident(),
            workloads.frames_per_s(run.traced),
            workloads.frames_per_s(run.untraced)))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{w.name}-seed{seed}.jsonl"
        tracer.write_jsonl(spans_path)

    frames = sum(r.frames for r in run.untraced)
    log(f"workload {w.name} seed {seed} seconds {seconds} trace {trace}")
    log("environment " + json.dumps(environment()))
    log(f"runs {len(run.untraced)} untraced, {len(run.traced)} traced; "
        f"{frames} untraced frames; tail percentile "
        f"p{workloads.TAIL_PCT:g}")
    log(f"reference kernel {reference_ms:.4f} ms, mean of "
        f"{len(run.reference_ms)}: this machine took {slowdown:.3f}x the "
        f"reference {workloads.REFERENCE_MS} ms; end-to-end times and "
        f"rates below are scaled to the reference, as measured in brackets")
    log(f"digest {run.digest} (first run; threaded runs depend on "
        f"the versions observed)")
    gate = f" (gate >= {workloads.INLIER_FLOOR})" if w.inlier_gate else ""
    log(f"inlier_ratio {inlier_ratio:.4f} ratio{gate}, "
        f"{run.inliers} of {run.matches} matches")
    log(f"failed_ratio {run.failed / max(run.attempted, 1):.6f} ratio, "
        f"{run.failed} of {run.attempted} attempted")
    for err in run.errors:
        log(f"error {err}")
    if run.traced:
        log(f"spans {len(tracer.spans)} written to "
            f"{spans_path.relative_to(ROOT)}")
    for m in spec["end_to_end"] + (spec["per_layer"] if trace else []):
        if m["name"] in measured:
            unscaled = f" [{raw[m['name']]:.6g}]" if m["name"] in raw else ""
            log(f"  {m['name']:<40} {measured[m['name']]:>14.6g} "
                f"{m['unit']}{unscaled}")

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    correct = correct and all(m["name"] in measured for m in declared)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in measured}
    return {"correct": correct, "attempted": max(run.attempted, 1),
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evfront" / "__init__.py").is_file():
        print(f"evfront sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = benchmark(workloads.WORKLOADS[args.workload], args.seed,
                       args.seconds, args.trace, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
