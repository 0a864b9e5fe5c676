"""Asynchronous frontend pipeline.

Two roles share one ``SharedSurfaceState``: a preprocessing writer that
folds each tick's arrivals into the timestamp grid, and a
frontend consumer that snapshots the newest state, builds the surface
tensor, detects, describes, quantizes, and matches against its previous
iteration. The only synchronization is the state's gate, a condition:
updates and snapshot copies exclude each other, nothing else does, and
the frontend waits on it for each new version or the writer's end.
Snapshots are copy-then-release, so the writer stalls for the copy
duration only, not for the whole inference.

A deterministic single-threaded mode replays the same tick structure and
a scripted snapshot schedule; given the snapshot versions observed in a
threaded run it reproduces the identical results (timings aside), which
is how snapshot consistency is validated end to end. No writer runs
while its frontend steps, so that mode wraps the live state instead of
copying it.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections.abc import Callable, Generator
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .detect import (KeypointSet, WeightBundle, classical_detect, forward,
                     interpolate_descriptors, nms)
from .events import (TIMESTAMP_LIMIT, US_PER_S, EventBatch, SensorGeometry,
                     _c_malloc)
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
    """Grid + ring + version counter behind one gate, a condition."""

    def __init__(self, geometry: SensorGeometry, ring_capacity: int):
        self.grid = TimestampGrid.create(geometry)
        self.ring = EventCountRing(ring_capacity)
        self.version = 0
        self.gate = threading.Condition(threading.Lock())
        self.writer_stall_us = 0  # cumulative gate wait on the writer side
        self.writer_cpu_ns = 0  # the writer thread's CPU time, or its ticks'


@dataclass(frozen=True)
class Snapshot:
    grid: TimestampGrid
    ring: EventCountRing
    version: int


@dataclass(frozen=True)
class StageTimings:
    """One frame's stage times in microseconds, as ``frontend_step``
    stamps them; the field names are the JSONL and CSV keys.

    ``mcts_preparation`` times the detector's input: ``mcts``, the whole
    tensor, on learned frames, and ``merged_surface``, one merged plane,
    on classical frames, which build no tensor. ``keypoint_detection``
    runs from there through ``quantize``, ``matching`` is
    ``match_mutual_nn``, and ``total`` spans all three.
    """

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
    writer_cpu_us: int = 0
    frontend_cpu_us: int = 0
    cpu_over_wall: float = 0.0
    snapshot_copy_mean_us: float = 0.0
    snapshot_copy_max_us: int = 0
    intervals: list = field(default_factory=list)
    error: str | None = None


def preprocess_tick(state: SharedSurfaceState, pending: EventBatch,
                    watermark: int) -> tuple[int, EventBatch]:
    """Apply the pending events at or below the watermark.

    Returns (applied count, retained batch), the retained batch a view of
    the events above the watermark. Iff anything was applied, one gate
    hold advances the version once and notifies the gate; else the gate
    is not taken. Blocks while a snapshot holds the gate.
    """
    cut = _count_through(pending.events["t"], watermark)
    if cut == 0:
        return 0, pending
    waited_from = _now_us()
    with state.gate:
        state.writer_stall_us += _now_us() - waited_from
        apply_events(state.grid, state.ring, pending.slice(0, cut))
        state.version += 1
        state.gate.notify_all()
    return cut, pending.slice(cut, len(pending))


def _count_through(t: np.ndarray, value: int) -> int:
    """How many of the sorted stamps ``t`` are at or below ``value``.

    One C bisection over the packed field as it stands: O(log n) probes,
    no copy and no Python loop, so the writer's cut holds the GIL for
    microseconds.
    """
    if value < 0:
        return 0
    return bisect.bisect_right(t, np.uint64(value))


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

    ``paced=False`` replays as fast as possible. ``paced=True`` runs each
    writer tick when its clock comes due on the wall clock, for
    latency-style runs, in threaded mode only.
    """

    batch: EventBatch
    paced: bool = False


class _WriterLoop:
    """Ingestion shared by the threaded and serial modes.

    Ticks are ``tick``-long spans of stream time from the first stamp;
    only those that hold an arrival run, so quiet time costs nothing.
    ``pending`` is the part of the source not applied yet, a view, never
    a copy. Each tick hands it to ``preprocess_tick`` with the tick's
    end, ``clock``, as the watermark: the one cut, which applies the run
    up to it in one gate hold and one version and returns the rest, the
    new ``pending``. Equal stamps never split across ticks, and each
    version applies stamps above every earlier one and advances
    latest_time."""

    def __init__(self, source: ReplaySource, state: SharedSurfaceState,
                 config: PipelineConfig):
        self.pending = source.batch
        self.state = state
        self.tick = config.tick
        t = self.pending.events["t"]
        self.first = int(t[0]) if len(t) else 0

    @property
    def exhausted(self) -> bool:
        return len(self.pending) == 0

    @property
    def clock(self) -> int:
        """End of the first tick that holds the next arrival."""
        lead = int(self.pending.events["t"][0]) - self.first
        return self.first + max(1, -(-lead // self.tick)) * self.tick

    def one_tick(self) -> int:
        """Ingest the next tick's arrivals; returns events applied."""
        applied, self.pending = preprocess_tick(self.state, self.pending,
                                                self.clock)
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
    reproduces that run's results exactly, timings excluded. A schedule
    must ascend strictly from 1, as a threaded run's versions do, and
    needs serial mode; a paced source needs threaded mode.

    Returns every frame of ``run_frames`` in a list, and the run's metrics.
    """
    results: list[FrameResult] = []
    metrics = drain(run_frames(source, config, mode, snapshot_schedule),
                    results.append)
    return results, metrics


def run_frames(source: ReplaySource, config: PipelineConfig,
               mode: str = "threaded",
               snapshot_schedule: list[int] | None = None
               ) -> Generator[FrameResult, None, Metrics]:
    """The run of ``run_pipeline`` as a generator: it yields each frame
    when it is emitted and returns the run's metrics (see ``drain``). It
    holds only the frame before, so its memory does not grow with the
    stream. The arguments are checked at the call; the run starts at the
    first ``next``. Closing the generator early stops the run, and in
    threaded mode joins the writer.
    """
    if mode not in ("threaded", "serial"):
        raise ValueError(f"unknown mode {mode!r}")
    if source.paced and mode == "serial":
        raise ValueError("paced replay needs threaded mode")
    if snapshot_schedule is not None and mode == "threaded":
        raise ValueError("a snapshot schedule needs serial mode")
    if snapshot_schedule is not None and any(
            a >= b for a, b in zip([0, *snapshot_schedule], snapshot_schedule)):
        raise ValueError("snapshot schedule must ascend strictly from 1")
    _keep_freed_memory()
    capacity = stream_ring_capacity(config.window_spec, source.batch)
    state = SharedSurfaceState(source.batch.geometry, capacity)
    if mode == "serial":
        return _run_serial(source, config, state, snapshot_schedule)
    return _run_threaded(source, config, state)


def drain(frames: Generator[FrameResult, None, Metrics],
          emit: Callable[[FrameResult], object]) -> Metrics:
    """Hand each frame of ``frames`` (from ``run_frames``) to ``emit`` as
    it is made; returns the run's metrics. ``frames`` is closed however
    this ends, so an ``emit`` that raises still stops the run."""
    with contextlib.closing(frames):
        while True:
            try:
                frame = next(frames)
            except StopIteration as done:
                return done.value
            emit(frame)


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
    _c_malloc("mallopt", -3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's ceiling
    _c_malloc("mallopt", -1, 64 << 20)  # M_TRIM_THRESHOLD, twice that


def _run_serial(source, config, state, schedule):
    writer = _WriterLoop(source, state, config)
    due = iter(schedule) if schedule is not None else itertools.count(1)

    def tick_until_due(last_snapped):
        # each tick makes one version; with none due, the writer drains.
        # The ticks are the writer's CPU time, the rest the frontend's
        version = next(due, None)
        cpu_from = time.thread_time_ns()
        while not writer.exhausted and state.version != version:
            writer.one_tick()
        state.writer_cpu_ns += time.thread_time_ns() - cpu_from
        return state.version == version

    def live_snapshot(state):
        # no writer runs between ticks: step on the live grid and ring
        return Snapshot(state.grid, state.ring, state.version)

    return (yield from _frontend_loop(state, config, tick_until_due,
                                      live_snapshot, _now_us()))


def _run_threaded(source, config, state):
    writer = _WriterLoop(source, state, config)
    stop = threading.Event()  # set when the frontend loop leaves, even on error
    end = None  # under the gate: "" once the writer is done, or its failure

    def writer_main():
        nonlocal end
        outcome = ""
        cpu_from = time.thread_time_ns()
        try:
            began = time.perf_counter()
            while not writer.exhausted and not stop.is_set():
                if source.paced:  # a tick is due when its clock is
                    lead = (writer.clock - writer.first) / US_PER_S
                    if stop.wait(began + lead - time.perf_counter()):
                        break
                writer.one_tick()
        except Exception as exc:  # propagate source failures with partials
            outcome = f"{type(exc).__name__}: {exc}"
        finally:
            with state.gate:
                state.writer_cpu_ns = time.thread_time_ns() - cpu_from
                end = outcome
                state.gate.notify_all()

    def newer_version(last_version):
        # the version only grows, so a moved one needs no gate; each new
        # version and the writer's end notify the gate while holding it
        if state.version == last_version:
            with state.gate:
                state.gate.wait_for(lambda: state.version != last_version
                                    or end is not None)
        return state.version != last_version

    thread = threading.Thread(target=writer_main, name="preprocess-writer",
                              daemon=True)
    started = _now_us()
    thread.start()
    try:
        metrics = yield from _frontend_loop(state, config, newer_version,
                                            freeze_snapshot, started)
    finally:
        stop.set()
        thread.join()
    metrics.error = end or None
    return metrics


def _frontend_loop(state, config, wait, snapshot, started):
    """Snapshot and step on each version ``wait`` finds due, yielding each
    frame, then return the metrics. ``wait(last_version)`` returns False
    when no version will come; ``snapshot(state)`` takes the snapshot. A
    version makes no frame only when a newer one supersedes it: each
    holds an event and advances tau (see ``_WriterLoop``). A frame's
    staleness is taken when it is emitted: how far the newest applied
    event is then ahead of its tau. Only a snapshot that copies the state
    has its copy timed. The frontend's CPU time is its thread's from each
    snapshot to each emission, so a serial run's ticks, inside ``wait``,
    and the consumer's work stay out of it.
    """
    tally = _Tally(config.metrics_interval)
    frame = None
    last_version = 0
    while wait(last_version):
        cpu_from = time.thread_time_ns()
        copy_from = _now_us()
        snap = snapshot(state)
        if snap.grid is not state.grid:
            tally.copy(_now_us() - copy_from)
        last_version = snap.version
        frame = frontend_step(snap, frame, config)
        tally.frame(frame, state.grid.latest_time - frame.tau)
        tally.frontend_cpu_ns += time.thread_time_ns() - cpu_from
        yield frame
    return tally.metrics(state, started, _now_us())


class _Tally:
    """What ``Metrics`` reads of a run's frames, as running sums and
    maxima, so it keeps no list over the frames. A row sums the stage
    times of the frames whose tau falls in one interval of event time,
    counted from the first frame's tau; taus ascend, so the rows fill in
    order, and an interval without a frame makes no row. Every value is a
    non-negative integer duration, so the maxima start at 0 and each mean
    is an exact sum over its count: the bits ``np.mean`` gives."""

    def __init__(self, interval: int):
        self.interval = interval
        self.first_tau = None
        self.rows: dict[int, list[int]] = {}  # interval -> [frames, *sums]
        self.stage_max = [0] * len(STAGE_NAMES)
        self.staleness_sum = self.staleness_max = 0
        self.copies = self.copy_sum = self.copy_max = 0
        self.frontend_cpu_ns = 0

    def frame(self, result: FrameResult, staleness: int) -> None:
        times = [getattr(result.timings, name) for name in STAGE_NAMES]
        if self.first_tau is None:
            self.first_tau = result.tau
        row = self.rows.setdefault(
            (result.tau - self.first_tau) // self.interval,
            [0] * (1 + len(times)))
        for k, value in enumerate([1, *times]):
            row[k] += value
        self.stage_max = list(map(max, self.stage_max, times))
        self.staleness_sum += staleness
        self.staleness_max = max(self.staleness_max, staleness)

    def copy(self, us: int) -> None:
        self.copies += 1
        self.copy_sum += us
        self.copy_max = max(self.copy_max, us)

    def metrics(self, state: SharedSurfaceState, started_us: int,
                ended_us: int) -> Metrics:
        m = Metrics()
        frames = m.results_emitted = sum(r[0] for r in self.rows.values())
        m.versions_applied = state.version
        m.events_applied = state.grid.applied_count
        m.writer_stall_us = state.writer_stall_us
        wall = max(ended_us - started_us, 1)
        m.iteration_rate_hz = frames * US_PER_S / wall
        m.writer_cpu_us = state.writer_cpu_ns // 1_000
        m.frontend_cpu_us = self.frontend_cpu_ns // 1_000
        m.cpu_over_wall = ((state.writer_cpu_ns + self.frontend_cpu_ns)
                           / 1_000 / wall)
        if frames:
            m.mean_stage_us = _means(
                [sum(column) for column in zip(*self.rows.values())])
            m.max_stage_us = dict(zip(STAGE_NAMES, self.stage_max))
            m.mean_staleness_us = self.staleness_sum / frames
            m.max_staleness_us = self.staleness_max
            m.intervals = [{"interval_start_us":
                            self.first_tau + i * self.interval, **_means(row)}
                           for i, row in self.rows.items()]
        if self.copies:
            m.snapshot_copy_mean_us = self.copy_sum / self.copies
            m.snapshot_copy_max_us = self.copy_max
        return m


def _means(row: list[int]) -> dict[str, float]:
    """Each stage's mean over a ``[frames, *sums]`` row."""
    return {name: total / row[0] for name, total in zip(STAGE_NAMES, row[1:])}


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
