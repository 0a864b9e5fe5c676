"""What the benchmark in ``perfbench/`` needs of the package.

The benchmark imports evfront's public names and checks every frame it
times. This runs its own measurement loop on small versions of the
declared workloads, untraced and traced, so a change that breaks a name
or an output check the benchmark relies on fails here first. Nothing
under ``perfbench/`` is written, not even bytecode.
"""

import dataclasses
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
