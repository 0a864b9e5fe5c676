"""Span tracer for the traced benchmark run.

The tracer wraps public evfront functions from outside the package: it
rebinds the names ``evfront.pipeline`` and ``evfront.detect`` look up at
call time, records one span per call in memory, and restores the
originals when the traced run ends. It never touches private names, so
the package can be refactored freely underneath it.

A span carries its name, start and end (``perf_counter_ns``), its parent
span on the same thread, the thread, the pipeline run it belongs to, and a
frame id: the surface version the call produced or consumed. Spans of the
writer's tick that produced version v and of the frontend step over
version v share frame id v.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from evfront import detect, pipeline
from workloads import TAIL_PCT, percentile

# (module, public name, span name). frontend_step, freeze_snapshot and
# preprocess_tick are looked up in evfront.pipeline by the pipeline's own
# loops; the layer functions are looked up there by those three, and
# classical_detect looks nms up in evfront.detect.
TARGETS = (
    (pipeline, "preprocess_tick", "pipeline.preprocess_tick"),
    (pipeline, "freeze_snapshot", "pipeline.freeze_snapshot"),
    (pipeline, "frontend_step", "pipeline.frontend_step"),
    (pipeline, "apply_events", "surface.apply_events"),
    (pipeline, "mcts", "surface.mcts"),
    (pipeline, "classical_detect", "detect.classical_detect"),
    (pipeline, "forward", "detect.forward"),
    (pipeline, "nms", "detect.nms"),
    (pipeline, "interpolate_descriptors", "detect.interpolate_descriptors"),
    (pipeline, "quantize", "matching.quantize"),
    (pipeline, "match_mutual_nn", "matching.match_mutual_nn"),
    (detect, "nms", "detect.nms"),
)

@dataclass(eq=False, slots=True)
class Span:
    name: str
    start: int
    end: int = 0
    parent: "Span | None" = None
    thread: int = 0
    frame: int | None = None
    run: int = 0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


def _preprocess_info(args, result) -> dict:
    state, pending, _watermark = args
    applied = result[0]
    if not applied:
        return {"events": 0}
    return {"events": applied, "frame": state.version,
            "newest_t": int(pending.events["t"][applied - 1])}


def _snapshot_bytes(snap) -> int:
    return snap.grid.last_t.nbytes + snap.grid.valid.nbytes \
        + 8 * snap.ring.capacity


# Counts taken at the layer boundary, after the span's end stamp.
INFO = {
    "pipeline.preprocess_tick": _preprocess_info,
    "surface.apply_events": lambda args, n: {"events": n},
    "pipeline.freeze_snapshot": lambda args, snap: {
        "frame": snap.version, "bytes": _snapshot_bytes(snap)},
    "pipeline.frontend_step": lambda args, r: {
        "frame": r.version, "keypoints": len(r.keypoints),
        "matches": len(r.matches_to_previous)},
    "matching.match_mutual_nn": lambda args, out: {
        "pairs": len(args[0]) * len(args[1]), "queries": len(args[0]),
        "matches": len(out)},
}


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._local = threading.local()

    def _wrap(self, name, fn):
        info = INFO.get(name)
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(name, 0, parent=stack[-1] if stack else None,
                        thread=threading.get_ident(), run=self.run)
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                spans.append(span)
            if info is not None:
                span.info = info(args, result)
                span.frame = span.info.get("frame")
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every target for the duration of the block."""
        originals = [(module, attr, getattr(module, attr))
                     for module, attr, _ in TARGETS]
        try:
            for module, attr, name in TARGETS:
                setattr(module, attr, self._wrap(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write_jsonl(self, path) -> None:
        """One JSON object per span, parents referenced by index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        selfs = self_times(self.spans)
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "self_ns": selfs[id(s)],
                    "parent": index.get(id(s.parent)), "thread": s.thread,
                    "frame": frame_of(s), "run": s.run, **s.info}) + "\n")


def frame_of(span: Span) -> int | None:
    """A span's own frame id, else the nearest ancestor's."""
    while span is not None:
        if span.frame is not None:
            return span.frame
        span = span.parent
    return None


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end) covered by the union of the intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, int]:
    """Span duration minus the part its child spans cover, keyed by id."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {id(s): s.duration - covered_ns(s.start, s.end,
                                           children.get(id(s), ()))
            for s in spans}


def layer_metrics(spans, runs, main_thread: int,
                  traced_frames_per_s: float,
                  untraced_frames_per_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    ``runs`` are the traced pipeline runs (RunRecord); spans carry their
    index into it. Timings are in microseconds unless the name says ms;
    ``busy_us``, ``self_us`` and ``writer_stall_us`` are per second of
    run wall time.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)
    wall_s = sum(r.wall_ns for r in runs) / 1e9
    frames = sum(r.frames for r in runs)

    def durations_us(name):
        return [s.duration / 1e3 for s in by_name.get(name, ())]

    def per_second(total_ns):
        return total_ns / 1e3 / wall_s if wall_s else 0.0

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in by_name.get(name, ()))

    m: dict[str, float] = {}
    for name in ("detect.classical_detect", "detect.nms", "detect.forward",
                 "detect.interpolate_descriptors", "matching.match_mutual_nn",
                 "matching.quantize", "surface.mcts",
                 "pipeline.freeze_snapshot", "pipeline.frontend_step"):
        m[f"{name}.us_p50"] = percentile(durations_us(name), 50)
    for name in ("matching.match_mutual_nn", "surface.mcts",
                 "pipeline.freeze_snapshot"):
        m[f"{name}.us_tail"] = percentile(durations_us(name), TAIL_PCT)
    m["detect.classical_detect.self_us_p50"] = percentile(
        [selfs[id(s)] / 1e3 for s in by_name.get("detect.classical_detect",
                                                 ())], 50)

    apply_ns = sum(s.duration for s in by_name.get("surface.apply_events", ()))
    m["surface.apply_events.busy_us"] = per_second(apply_ns)
    m["surface.apply_events.events_per_s"] = (
        info_sum("surface.apply_events", "events") * 1e9 / apply_ns
        if apply_ns else 0.0)
    ticks = by_name.get("pipeline.preprocess_tick", [])
    m["pipeline.preprocess_tick.busy_us"] = per_second(
        sum(s.duration for s in ticks))
    m["pipeline.preprocess_tick.self_us"] = per_second(
        sum(selfs[id(s)] for s in ticks))

    freezes = by_name.get("pipeline.freeze_snapshot", [])
    m["pipeline.freeze_snapshot.bytes"] = percentile(
        [s.info["bytes"] for s in freezes], 50)
    m["pipeline.writer_stall_us"] = per_second(
        1e3 * sum(r.writer_stall_us for r in runs))

    # writer lag: end of the tick that applied an event minus the event's
    # due time on the stream clock started just before run_pipeline
    lags = [(s.end - runs[s.run].start_ns
             - (s.info["newest_t"] - runs[s.run].t_first) * 1_000) / 1e6
            for s in ticks if "newest_t" in s.info]
    m["pipeline.writer_lag_ms_p50"] = percentile(lags, 50)
    m["pipeline.writer_lag_ms_tail"] = percentile(lags, TAIL_PCT)

    applied = sum(r.versions_applied for r in runs)
    m["pipeline.versions_applied"] = applied / len(runs) if runs else 0.0
    m["pipeline.versions_skipped"] = (applied - frames) / len(runs) \
        if runs else 0.0
    frontend_ns = sum(s.duration for s in freezes
                      + by_name.get("pipeline.frontend_step", [])
                      if s.thread == main_thread and s.parent is None)
    m["pipeline.frontend_wait_us"] = (
        (sum(r.wall_ns for r in runs) - frontend_ns) / 1e3 / frames
        if frames else 0.0)

    steps = by_name.get("pipeline.frontend_step", [])
    m["detect.keypoints_per_frame"] = (
        info_sum("pipeline.frontend_step", "keypoints") / len(steps)
        if steps else 0.0)
    m["matching.pairs_per_frame"] = (
        info_sum("matching.match_mutual_nn", "pairs") / len(steps)
        if steps else 0.0)
    queries = info_sum("matching.match_mutual_nn", "queries")
    m["matching.match_yield"] = (
        info_sum("matching.match_mutual_nn", "matches") / queries
        if queries else 0.0)
    m["trace.overhead_ratio"] = (traced_frames_per_s / untraced_frames_per_s
                                 if untraced_frames_per_s else 0.0)
    return m
