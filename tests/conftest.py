"""Terminal summary: one PASS/FAIL line per end-to-end guarantee, and the
memory tests' tracemalloc helper."""

import gc
import tracemalloc


def traced_peak(call) -> int:
    """Collect garbage, then run ``call()`` under tracemalloc; returns the
    most bytes it held at once. ``call`` must not raise."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

_GUARANTEES = [
    ("test_time_surface_equals_exhaustive_reference",
     "grid time surface equals per-event exhaustive reference, bitwise"),
    ("test_constant_count_window_durations",
     "constant-count window spans exactly the gap to the Nth-newest event"),
    ("test_constant_count_is_more_motion_invariant",
     "constant-count channels vary less across speeds than fixed windows"),
    ("test_network_output_contract",
     "network shapes, softmax normalization, unit descriptors, equivariance"),
    ("test_quantized_cosine_fidelity",
     "int8 cosine tracks float cosine and preserves nearest neighbors"),
    ("test_snapshot_atomicity_under_contention",
     "every concurrent snapshot byte-equals a serial prefix replay"),
    ("test_end_to_end_inlier_ratio",
     "pipeline verified-match inlier ratio at 5 px is at least 0.8"),
    ("test_ingest_scales_linearly",
     "ingesting twice the events costs at most 2.5x the time"),
    ("test_wire_format_round_trips",
     "event, surface, and weight formats round-trip bitwise"),
]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for key in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(key, []):
            if "test_acceptance" not in report.nodeid:
                continue
            name = report.location[2].split("[")[0]
            outcomes.setdefault(name, key)
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance summary")
    for name, label in _GUARANTEES:
        if name not in outcomes:
            continue
        ok = outcomes[name] == "passed"
        terminalreporter.write_line(
            f"{'PASS' if ok else 'FAIL'}  {label}",
            green=ok, red=not ok)
