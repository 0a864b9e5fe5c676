"""Asynchronous frontend pipeline.

Two roles share one ``SharedSurfaceState``: a preprocessing writer that
folds event batches into the timestamp grid at a fixed tick, and a
frontend consumer that snapshots the newest state, builds the surface
tensor, detects, describes, quantizes, and matches against its previous
iteration. The only synchronization is the state's gate: updates and
snapshot copies exclude each other, nothing else does. Snapshots are
copy-then-release, so the writer stalls for the copy duration only, not
for the whole inference.

A deterministic single-threaded mode replays the same tick structure and
a scripted snapshot schedule; given the snapshot versions observed in a
threaded run it reproduces the identical results (timings aside), which
is how snapshot consistency is validated end to end. No writer runs
while its frontend steps, so that mode wraps the live state instead of
copying it.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .detect import (KeypointSet, WeightBundle, classical_detect, forward,
                     interpolate_descriptors, nms)
from .events import TIMESTAMP_LIMIT, US_PER_S, EventBatch, SensorGeometry
from .matching import (DEFAULT_MAX_DISTANCE, QMAX, Match,
                       QuantizedDescriptors, match_mutual_nn, quantize)
from .surface import (EventCountRing, TimestampGrid, WindowSpec, apply_events,
                      mcts, merged_surface, stream_ring_capacity)


def _now_us() -> int:
    return time.perf_counter_ns() // 1_000


@dataclass(frozen=True)
class PipelineConfig:
    tick: int = 10_000
    window_spec: WindowSpec = field(
        default_factory=WindowSpec.default_constant_count)
    detector: str = "classical"                 # "classical" or "learned"
    weights: WeightBundle | None = None
    channel_pair: int = 1
    nms_radius: int = 4
    nms_threshold: float = 1e-4
    nms_max_k: int = 256
    match_max_distance: float = DEFAULT_MAX_DISTANCE
    watermark_lag: int = 0
    metrics_interval: int = 60 * US_PER_S      # event-time bucket for the CSV

    def __post_init__(self) -> None:
        if not 0 < self.tick <= TIMESTAMP_LIMIT:
            raise ValueError("tick must be positive and at most 2**62 us")
        if self.detector not in ("classical", "learned"):
            raise ValueError(f"unknown detector {self.detector!r}")
        k = self.window_spec.K
        if self.detector == "learned":
            if self.weights is None:
                raise ValueError("learned detector needs weights")
            want = self.weights.spec.input_channels
            if 2 * k != want:
                raise ValueError(f"{k} channel pairs feed {2 * k} channels, "
                                 f"weights expect {want}")
        if self.watermark_lag < 0:
            raise ValueError("watermark lag cannot be negative")
        if not 0 <= self.channel_pair < k:
            raise ValueError(f"channel pair {self.channel_pair} outside "
                             f"0..{k - 1}")
        if self.nms_radius < 1:
            raise ValueError("NMS radius must be at least 1")
        if self.nms_max_k < 0:
            raise ValueError("NMS max_k cannot be negative")
        if np.isnan(self.nms_threshold) or np.isnan(self.match_max_distance):
            raise ValueError("NMS threshold and match distance cannot be NaN")
        if self.metrics_interval < 1:
            raise ValueError("metrics interval must be at least 1 us")


class SharedSurfaceState:
    """Grid + ring + version counter behind a single gate."""

    def __init__(self, geometry: SensorGeometry, ring_capacity: int):
        self.grid = TimestampGrid.create(geometry)
        self.ring = EventCountRing(ring_capacity)
        self.version = 0
        self.newest_ingested: int | None = None
        self.gate = threading.Lock()
        self.writer_stall_us = 0  # cumulative gate wait on the writer side


@dataclass(frozen=True)
class Snapshot:
    grid: TimestampGrid
    ring: EventCountRing
    version: int


@dataclass(frozen=True)
class StageTimings:
    mcts_preparation: int
    keypoint_detection: int
    matching: int
    total: int


STAGE_NAMES = tuple(f.name for f in fields(StageTimings))


@dataclass(frozen=True)
class FrameResult:
    tau: int
    version: int
    keypoints: KeypointSet
    descriptors: QuantizedDescriptors
    matches_to_previous: list[Match]  # index_a = this frame, index_b = previous
    timings: StageTimings


@dataclass
class Metrics:
    results_emitted: int = 0
    versions_applied: int = 0
    events_applied: int = 0
    mean_stage_us: dict = field(default_factory=dict)
    max_stage_us: dict = field(default_factory=dict)
    iteration_rate_hz: float = 0.0
    mean_staleness_us: float = 0.0
    max_staleness_us: int = 0
    writer_stall_us: int = 0
    snapshot_copy_mean_us: float = 0.0
    snapshot_copy_max_us: int = 0
    intervals: list = field(default_factory=list)
    error: str | None = None


def preprocess_tick(state: SharedSurfaceState, pending: EventBatch,
                    watermark: int) -> tuple[int, EventBatch]:
    """Apply the pending events at or below the watermark.

    Returns (applied count, retained batch). The version advances once
    iff anything was applied; ``newest_ingested`` moves up to the newest
    pending event in the same hold of the gate. Blocks while a snapshot
    holds the gate.
    """
    if len(pending) == 0:
        return 0, pending
    t = pending.events["t"]
    cut = _count_through(t, watermark)
    newest = int(t[-1])
    waited_from = _now_us()
    with state.gate:
        state.writer_stall_us += _now_us() - waited_from
        if cut:
            apply_events(state.grid, state.ring, pending.slice(0, cut))
            state.version += 1
        if state.newest_ingested is None or newest > state.newest_ingested:
            state.newest_ingested = newest
    return cut, pending.slice(cut, len(pending))


def _count_through(t: np.ndarray, value: int, lo: int = 0) -> int:
    """How many of the sorted stamps ``t`` are at or below ``value``.

    The first ``lo`` are known to be. Gallops from ``lo``, probing
    ``t[lo + step - 1]`` with the step doubling, then binary-searches a
    contiguous copy of the one window left: O(log k) probes and a copy of
    at most k + 1 stamps, k the answer minus ``lo``, however long ``t``
    is. Searching the packed field itself would copy all of it.
    """
    if value < 0:
        return lo
    needle = np.uint64(value)
    n = len(t)
    if n == lo or t[n - 1] <= needle:  # the usual cut with no lag
        return n
    base, step, end = lo, 1, lo
    while end < n:
        end = min(base + step, n)
        if t[end - 1] > needle:
            break
        lo = end
        step *= 2
    window = np.ascontiguousarray(t[lo:end])
    return lo + int(np.searchsorted(window, needle, side="right"))


def freeze_snapshot(state: SharedSurfaceState) -> Snapshot:
    """Consistent copy of grid, ring, and version, taken under the gate."""
    with state.gate:
        return Snapshot(state.grid.copy(), state.ring.copy(), state.version)


def frontend_step(snapshot: Snapshot, previous: FrameResult | None,
                  config: PipelineConfig) -> FrameResult:
    """One frontend iteration over a frozen snapshot.

    tau is the snapshot's newest applied event time (the latest possible
    event state). The learned detector reads the whole surface tensor
    (``mcts``). ``classical_detect`` reads one plane, the configured
    channel pair merged by maximum, which ``merged_surface`` builds
    straight from the grid; no tensor is built. Matching runs
    current-against-previous descriptors.
    """
    t0 = _now_us()
    grid = snapshot.grid
    tau = grid.latest_time
    if tau is None:
        raise ValueError("snapshot holds no events")
    if config.detector == "learned":
        tensor = mcts(grid, snapshot.ring, tau, config.window_spec)
        t1 = _now_us()
        heatmap, desc_map = forward(config.weights, tensor.channels)
        keypoints = nms(heatmap, config.nms_radius, config.nms_threshold,
                        config.nms_max_k)
        descriptors = interpolate_descriptors(desc_map, keypoints,
                                              config.weights.spec.cell)
    else:
        merged = merged_surface(grid, snapshot.ring, tau, config.window_spec,
                                config.channel_pair)
        t1 = _now_us()
        keypoints, descriptors = classical_detect(
            merged, config.nms_radius, config.nms_threshold, config.nms_max_k)
    quantized = quantize(descriptors)
    t2 = _now_us()

    if previous is None:
        matches: list[Match] = []
    else:
        matches = match_mutual_nn(quantized, previous.descriptors,
                                  config.match_max_distance)
    t3 = _now_us()

    timings = StageTimings(mcts_preparation=t1 - t0,
                           keypoint_detection=t2 - t1,
                           matching=t3 - t2,
                           total=t3 - t0)
    return FrameResult(tau, snapshot.version, keypoints, quantized,
                       matches, timings)


@dataclass
class ReplaySource:
    """Bounded event source for the pipeline.

    ``paced=False`` replays as fast as possible: virtual time advances by
    one tick per preprocessing call. ``paced=True`` anchors event
    timestamps to the wall clock for latency-style runs.
    """

    batch: EventBatch
    paced: bool = False


class _WriterLoop:
    """Fixed-tick ingestion shared by the threaded and serial modes.

    Events arrive in stream order, and the watermark holds back only the
    newest of them, so the pending events are always one contiguous run
    of the source, ``applied:cursor``: a view, never a copy. A tick
    costs O(events it passes), not O(stream length).
    """

    def __init__(self, source: ReplaySource, state: SharedSurfaceState,
                 config: PipelineConfig):
        self.batch = source.batch
        self.state = state
        self.config = config
        self.t_stream = self.batch.events["t"]  # a view of the packed field
        self.cursor = 0   # events arrived
        self.applied = 0  # events applied; the rest of 0:cursor is pending
        n = len(self.batch)
        self.virtual_now = int(self.t_stream[0]) if n else 0
        self.exhausted = n == 0

    def one_tick(self) -> int:
        """Ingest arrivals for one tick; returns events applied."""
        n = len(self.batch)
        self.virtual_now += self.config.tick
        self.cursor = _count_through(self.t_stream, self.virtual_now,
                                     self.cursor)
        drained = self.cursor >= n
        if self.applied == self.cursor:
            self.exhausted = drained
            return 0
        watermark = int(self.t_stream[self.cursor - 1])
        if not drained:  # the final drain ignores the lag
            watermark -= self.config.watermark_lag
        applied, _ = preprocess_tick(
            self.state, self.batch.slice(self.applied, self.cursor),
            watermark)
        self.applied += applied
        self.exhausted = self.applied == n
        return applied


def run_pipeline(source: ReplaySource, config: PipelineConfig,
                 mode: str = "threaded",
                 snapshot_schedule: list[int] | None = None
                 ) -> tuple[list[FrameResult], Metrics]:
    """Drive the pipeline over a bounded source until it drains.

    ``mode="threaded"`` runs the writer on its own thread while the
    caller's thread loops the frontend over the newest snapshots.
    ``mode="serial"`` interleaves ticks and frontend steps in one thread,
    snapshotting at each version in ``snapshot_schedule`` (every version
    when None); with a schedule recorded from a threaded run it
    reproduces that run's results exactly, timings excluded.
    """
    if mode not in ("threaded", "serial"):
        raise ValueError(f"unknown mode {mode!r}")
    _keep_freed_memory()
    capacity = stream_ring_capacity(config.window_spec, source.batch)
    state = SharedSurfaceState(source.batch.geometry, capacity)
    if mode == "serial":
        return _run_serial(source, config, state, snapshot_schedule)
    return _run_threaded(source, config, state)


@functools.cache
def _keep_freed_memory() -> None:
    """Let glibc reuse the frontend's freed arrays instead of unmapping them.

    A frame allocates and frees a few dozen arrays of 64 KB to 1.5 MB.
    glibc maps each block at or above its mmap threshold afresh and unmaps
    it on free, and trims the heap top past twice that threshold; the
    threshold starts at 128 KB and rises only when the process frees a
    larger mapped block. So whether a frame faults in hundreds of fresh
    pages (0 to ~450 per frame at 128x128, up to half its time) depends on
    what the process freed before. Fixing both thresholds at the ceiling
    glibc's own rule can reach makes every frame reuse heap memory.
    Skipped when MALLOC_MMAP_THRESHOLD_ or MALLOC_TRIM_THRESHOLD_ is set,
    and where the C library has no ``mallopt``.
    """
    if {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & set(os.environ):
        return
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD, glibc's dynamic ceiling
    mallopt(-1, 64 << 20)    # M_TRIM_THRESHOLD, twice that, as glibc sets


def _run_serial(source, config, state, schedule):
    writer = _WriterLoop(source, state, config)
    queue = list(schedule) if schedule is not None else None

    def tick_until_due(last_snapped):
        # ticks bump the version by at most 1, so >= hits each scheduled
        # version exactly once
        while not writer.exhausted:
            writer.one_tick()
            if queue is None:
                if state.version > last_snapped:
                    return True
            elif queue and state.version >= queue[0]:
                queue.pop(0)
                return True
        return False

    def live_snapshot(state):
        # no writer runs between ticks: step on the live grid and ring
        return Snapshot(state.grid, state.ring, state.version)

    return _frontend_loop(state, config, tick_until_due, live_snapshot,
                          _now_us())


def _run_threaded(source, config, state):
    writer = _WriterLoop(source, state, config)
    progress = threading.Condition()
    done = threading.Event()
    stop = threading.Event()  # set when the frontend loop leaves, even on error
    failure: list[str] = []

    def writer_main():
        try:
            next_deadline = time.perf_counter()
            while not writer.exhausted and not stop.is_set():
                if source.paced:
                    next_deadline += config.tick / US_PER_S
                    lag = next_deadline - time.perf_counter()
                    if lag > 0:
                        time.sleep(lag)
                writer.one_tick()
                with progress:
                    progress.notify_all()
        except Exception as exc:  # propagate source failures with partials
            failure.append(f"{type(exc).__name__}: {exc}")
        finally:
            done.set()
            with progress:
                progress.notify_all()

    def newer_version(last_version):
        # the version only grows, and stops once the writer is done
        with progress:
            while state.version == last_version and not done.is_set():
                progress.wait(timeout=0.05)
        return state.version != last_version

    thread = threading.Thread(target=writer_main, name="preprocess-writer",
                              daemon=True)
    started = _now_us()
    thread.start()
    try:
        results, metrics = _frontend_loop(state, config, newer_version,
                                          freeze_snapshot, started)
    finally:
        stop.set()
        thread.join()
    if failure:
        metrics.error = failure[0]
    return results, metrics


def _frontend_loop(state, config, wait, snapshot, started):
    """Snapshot and step on each version ``wait`` finds due, then collect
    the metrics. ``wait(last_version)`` returns False when no version
    will come; ``snapshot(state)`` takes the snapshot.

    A snapshot makes no frame while it holds no event (a serial schedule
    may name version 0), nor when its latest_time does not pass the last
    frame's tau: batches of identical timestamps can bump the version
    without moving latest_time, and skipping them keeps tau strictly
    increasing. A frame's staleness is taken when it is emitted: how far
    the writer's newest ingested event is then ahead of its tau.
    """
    results: list[FrameResult] = []
    staleness: list[int] = []
    copy_times: list[int] = []
    last_version = 0
    while wait(last_version):
        copy_from = _now_us()
        snap = snapshot(state)
        copy_times.append(_now_us() - copy_from)
        last_version = snap.version
        tau = snap.grid.latest_time
        if tau is None or (results and tau <= results[-1].tau):
            continue
        results.append(frontend_step(snap, results[-1] if results else None,
                                     config))
        # never None here: the writer sets it in the same hold of the gate
        # as it applies the events this frame saw
        staleness.append(state.newest_ingested - results[-1].tau)
    return results, _collect_metrics(results, staleness, copy_times, state,
                                     started, _now_us(), config)


def _stage_means(results) -> dict[str, float]:
    return {name: float(np.mean([getattr(r.timings, name) for r in results]))
            for name in STAGE_NAMES}


def _collect_metrics(results, staleness, copy_times, state, started_us,
                     ended_us, config: PipelineConfig) -> Metrics:
    m = Metrics()
    m.results_emitted = len(results)
    m.versions_applied = state.version
    m.events_applied = state.grid.applied_count
    m.writer_stall_us = state.writer_stall_us
    wall = max(ended_us - started_us, 1)
    m.iteration_rate_hz = len(results) * US_PER_S / wall
    if results:
        m.mean_stage_us = _stage_means(results)
        m.max_stage_us = {
            name: int(max(getattr(r.timings, name) for r in results))
            for name in STAGE_NAMES}
        m.mean_staleness_us = float(np.mean(staleness))
        m.max_staleness_us = int(max(staleness))
        # per-interval means, bucketed by tau (event time); taus ascend,
        # so the buckets fill in order
        base, width = results[0].tau, config.metrics_interval
        buckets: dict[int, list[FrameResult]] = {}
        for r in results:
            buckets.setdefault((r.tau - base) // width, []).append(r)
        m.intervals = [{"interval_start_us": base + i * width,
                        **_stage_means(rs)} for i, rs in buckets.items()]
    if copy_times:
        m.snapshot_copy_mean_us = float(np.mean(copy_times))
        m.snapshot_copy_max_us = int(max(copy_times))
    return m


# ---------------------------------------------------------------------------
# export


def result_to_json(result: FrameResult, include_descriptors: bool = True) -> str:
    obj = {
        "tau": result.tau,
        "version": result.version,
        "keypoints": [
            {"x": float(x), "y": float(y), "score": float(s)}
            for (x, y), s in zip(result.keypoints.xy, result.keypoints.scores)
        ],
        "matches": [
            {"index_a": m.index_a, "index_b": m.index_b,
             "distance": round(m.distance, 6)}
            for m in result.matches_to_previous
        ],
        "timings": asdict(result.timings),
    }
    if include_descriptors:
        obj["descriptor_scale"] = float(QMAX)
        obj["descriptors"] = result.descriptors.vectors.tolist()
    return json.dumps(obj, separators=(",", ":"))


def metrics_to_csv(metrics: Metrics) -> bytes:
    lines = ["interval_start_us," + ",".join(STAGE_NAMES)]
    for row in metrics.intervals:
        lines.append(",".join(
            [str(row["interval_start_us"])]
            + [f"{row[name]:.1f}" for name in STAGE_NAMES]))
    return ("\n".join(lines) + "\n").encode("ascii")
