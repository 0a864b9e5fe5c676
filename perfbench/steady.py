"""Steadiness report: repeat workloads over seeds and compare spreads with
the bounds in BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/steady.py --workloads all --seeds 1-10 --seconds 10

Each (workload, seed) is one run of ``perfbench/run.py`` in its own
process, one at a time. For every metric the report gives the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over median) and that spread as a share of the metric's bound.
A spread above a third of its bound is flagged ``WIDE``, above the bound
``OVER``. With ``--sets 2`` every seed runs twice and the report adds the
second set's spread and the drift of its median against the first, in
the metric's worse direction, flagged ``DRIFT`` above the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def drift(first: float, second: float, better: str) -> float:
    """Relative change of the second median, positive when worse."""
    change = (second - first) / abs(first) if first else float("inf")
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default="all",
                        help="comma-separated names, or all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    chosen = names if args.workloads == "all" else args.workloads.split(",")
    seeds = seed_list(args.seeds)

    flagged = 0
    for workload in chosen:
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in seeds:
                started = time.perf_counter()
                result = run_once(workload, seed, args.seconds)
                runs.append(result)
                print(f"# {workload} seed {seed}: correct {result['correct']}"
                      f" failed {result['failed']}/{result['attempted']}"
                      f" in {time.perf_counter() - started:.1f} s",
                      flush=True)
            sets.append(runs)
        print(f"\n{workload}: {len(seeds)} seeds x {args.sets} set(s), "
              f"{args.seconds:g} s each")
        print(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'/bound':>7}"
              + (f" {'spread2':>8} {'drift':>8}" if args.sets == 2 else ""))
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in sets[0]]
            if len(values) < 2:
                continue
            median, q1, q3, spread = summarize(values)
            bound = m["bound"]
            share = spread / bound
            line = (f"  {m['name']:<40} {median:>12.6g} {q1:>12.6g} "
                    f"{q3:>12.6g} {spread:>8.4f} {share:>7.3f}")
            spreads, d = [spread], 0.0
            if args.sets == 2:
                second, _, _, spread2 = summarize(
                    [r["metrics"][m["name"]]["value"] for r in sets[1]])
                d = drift(median, second, m["better"])
                spreads.append(spread2)
                line += f" {spread2:>8.4f} {d:>8.4f}"
            flag = "DRIFT" if d > bound else \
                "OVER" if max(spreads) > bound else \
                "WIDE" if max(spreads) > bound / 3 else ""
            flagged += bool(flag)
            print(line + (f"  {flag}" if flag else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
