"""What the benchmark in ``perfbench/`` needs of the package.

The benchmark imports evfront's public names and checks every frame it
times. This runs its own measurement loop on small versions of the
declared workloads, untraced and traced, so a change that breaks a name
or an output check the benchmark relies on fails here first. It also
runs four of the five checks of ``perfbench/selftest.py``; the fifth,
``test_wrappers_are_removed``, expects a ``pipeline.freeze_snapshot`` and
a ``surface.mcts`` span from a serial classical run, which makes
neither. Nothing under ``perfbench/`` is written, not even bytecode.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads
    return workloads, spans


@pytest.fixture
def selftest(bench, monkeypatch, tmp_path):
    """``perfbench/selftest.py``, its traced runs writing their spans
    under ``tmp_path``. Importing it imports ``run``, which sets the BLAS
    thread variables and puts ``src`` first on ``sys.path``: both are
    put back after the test, the path by ``bench``'s prepend."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, os.environ.get(name, "1"))
    import run
    import selftest
    (tmp_path / PERFBENCH.name).mkdir()
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "HERE", tmp_path / PERFBENCH.name)
    return selftest


def _tiny(w):
    # sized as perfbench/selftest.py sizes its workloads: 64x48 keeps the
    # learned network's 16-pixel cells whole
    return dataclasses.replace(w, width=64, height=48, pitch=16, side=6,
                               duration=0.15)


@pytest.mark.parametrize("name", ["replay-corners", "replay-learned",
                                  "flood-240"])
def test_workload_measures_clean_untraced_and_traced(bench, name):
    workloads, spans = bench
    w = _tiny(workloads.WORKLOADS[name])
    inputs = workloads.build_inputs(w, 0)
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _ in spans.TARGETS]
    untraced = workloads.measure(w, inputs, 0.01)
    tracer = spans.Tracer()
    traced = workloads.measure(w, inputs, 0.01, tracer)
    for run in (untraced, traced):
        assert run.failed == 0, run.errors
        assert run.untraced and run.attempted >= len(run.untraced)
    assert not untraced.traced
    assert traced.traced and tracer.spans
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn, (module.__name__, attr)


@pytest.mark.parametrize("check", ["test_every_declared_metric_is_reported",
                                   "test_layer_map_covers_per_layer_metrics",
                                   "test_self_time_arithmetic"])
def test_benchmark_selftest(selftest, check):
    getattr(selftest, check)()


def test_benchmark_fails_without_sources(tmp_path):
    # selftest's test_fails_without_sources, in a copy outside perfbench/
    shutil.copytree(PERFBENCH, tmp_path / PERFBENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable] + spec["command"][1:]
        + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
