"""Self-test of the benchmark harness; makes no timing assertions.

Usage, from the repository root:

    python3 perfbench/selftest.py

It runs every workload on a tiny version of its scene, untraced and
traced, and checks that each metric BENCHMARK.json declares is reported
with its unit; checks the self-time arithmetic on a hand-built span tree;
checks that the traced run puts every wrapped function back, also when
the run raises; and checks that the benchmark fails without printing a
result in a directory holding only BENCHMARK.json and the benchmark.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (sets the BLAS thread pin before numpy loads)
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(w: workloads.Workload) -> workloads.Workload:
    # 64x48 keeps the learned network's 16-pixel cell grid whole
    return dataclasses.replace(w, width=64, height=48, pitch=16, side=6,
                               duration=0.15)


def test_every_declared_metric_is_reported():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    for w in workloads.WORKLOADS.values():
        for trace, declared in ((0, SPEC["end_to_end"]),
                                (1, SPEC["per_layer"])):
            result = run.benchmark(tiny(w), 0, 0.01, trace, SPEC,
                                   log=lambda line: None)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] or w.inlier_gate, (w.name, result)
            assert result["failed"] == 0, (w.name, result)
            assert result["attempted"] >= 1
            got = result["metrics"]
            assert list(got) == [m["name"] for m in declared], (w.name, got)
            for m in declared:
                assert got[m["name"]]["unit"] == m["unit"], (w.name, m)
                assert isinstance(got[m["name"]]["value"], float), (w.name, m)


def test_layer_map_covers_per_layer_metrics():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert list(layer_map) == [m["name"] for m in SPEC["per_layer"]]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for name, entry in layer_map.items():
        assert set(entry["moves"]) <= e2e, name
        assert set(entry["on"]) <= set(workloads.WORKLOADS), name


def test_self_time_arithmetic():
    root = spans.Span("root", 0, 100)
    a = spans.Span("a", 10, 30, parent=root)
    b = spans.Span("b", 20, 50, parent=root)      # overlaps a
    c = spans.Span("c", 90, 120, parent=root)     # runs past the root's end
    a1 = spans.Span("a1", 12, 15, parent=a, frame=7)
    selfs = spans.self_times([root, a, b, c, a1])
    # children cover [10, 50) and [90, 100): 50 of the root's 100
    assert selfs[id(root)] == 50
    assert selfs[id(a)] == 17
    assert selfs[id(b)] == 30
    assert selfs[id(a1)] == 3
    assert spans.covered_ns(0, 10, []) == 0
    assert spans.frame_of(a1) == 7 and spans.frame_of(a) is None


def test_wrappers_are_removed():
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _ in spans.TARGETS]
    w = tiny(workloads.WORKLOADS["replay-corners"])
    inputs = workloads.build_inputs(w, 0)
    tracer = spans.Tracer()
    run_ = workloads.measure(w, inputs, 0.01, tracer)
    assert run_.traced and tracer.spans
    assert {s.name for s in tracer.spans} >= {
        "pipeline.frontend_step", "pipeline.freeze_snapshot",
        "pipeline.preprocess_tick", "surface.apply_events", "surface.mcts",
        "detect.classical_detect", "detect.nms", "matching.quantize",
        "matching.match_mutual_nn"}
    try:
        with tracer.installed():
            assert all(getattr(module, attr) is not fn
                       for module, attr, fn in originals)
            raise KeyError("escape")
    except KeyError:
        pass
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn, (module.__name__, attr)


def test_fails_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable] + SPEC["command"][1:]
            + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(tests) - failed} of {len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
