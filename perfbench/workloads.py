"""Benchmark workloads: scenes, inputs, timed pipeline runs, output checks.

Every workload replays a synthetic grid-of-corners stream through
``run_pipeline``. The seed picks a small jitter of the scene velocity and,
for the learned detector, the network weights. Only public evfront names
are used.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

import numpy as np

from evfront import pipeline
from evfront.detect import NetworkSpec, random_weights
from evfront.events import MotionSpec, SensorGeometry, linear_warp, synthesize
from evfront.matching import QMAX, verify_matches
from evfront.pipeline import PipelineConfig, ReplaySource, run_pipeline

TICK_US = 10_000
CHANNEL_PAIR = 3
MAX_DISTANCE = 0.4
VELOCITY_JITTER = 0.01      # each velocity component scaled by 1 +- this
WARMUP_SHARE = 0.1          # stream share replayed, untimed, before timing
INLIER_PX = 5.0
INLIER_FLOOR = 0.8          # acceptance floor of the end-to-end test
# Percentile reported as every _tail metric, end-to-end and per layer.
TAIL_PCT = 90.0
# Reference kernel samples taken before each pipeline run, and the
# kernel's mean time on the machine the end-to-end figures are scaled
# to: a quiet two-vCPU x86-64 KVM guest, Python 3.11, numpy 2.4.
REFERENCE_SAMPLES = 10
REFERENCE_MS = 2.0
_REFERENCE_INPUT = np.random.default_rng(0).random((128, 128),
                                                    dtype=np.float32)


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    velocity: tuple[float, float]
    pitch: int
    side: int
    duration: float             # seconds of stream per pipeline run
    detector: str = "classical"
    mode: str = "serial"
    paced: bool = False
    inlier_gate: bool = False   # gate on INLIER_FLOOR


# Why each workload exists is recorded in BENCHMARK.json and BENCHMARK.md.
WORKLOADS = {w.name: w for w in (
    Workload("replay-corners", 128, 128, (-56.0, -42.0), 48, 16, 1.5,
             inlier_gate=True),
    Workload("replay-learned", 128, 128, (-56.0, -42.0), 48, 16, 0.5,
             detector="learned"),
    Workload("live-240", 240, 180, (-200.0, -150.0), 24, 8, 1.0,
             mode="threaded", paced=True),
    Workload("flood-240", 240, 180, (-300.0, -225.0), 12, 5, 0.5,
             mode="threaded"),
)}


@dataclass
class Inputs:
    velocity: tuple[float, float]
    batch: object
    config: PipelineConfig


def build_inputs(w: Workload, seed: int) -> Inputs:
    """Synthesize the seeded stream and build the pipeline config."""
    rng = random.Random(seed)
    velocity = tuple(v * (1 + VELOCITY_JITTER * (2 * rng.random() - 1))
                     for v in w.velocity)
    spec = MotionSpec("grid-of-corners", velocity, w.duration,
                      grid_pitch=w.pitch, square_side=w.side)
    batch = synthesize(spec, SensorGeometry(w.width, w.height))
    weights = random_weights(NetworkSpec(), seed) \
        if w.detector == "learned" else None
    config = PipelineConfig(tick=TICK_US, detector=w.detector,
                            weights=weights, channel_pair=CHANNEL_PAIR,
                            match_max_distance=MAX_DISTANCE)
    return Inputs(velocity, batch, config)


@dataclass
class RunRecord:
    """What the metrics need of one pipeline run; its frames are checked
    and then let go, so memory does not grow with the number of runs."""
    start_ns: int        # benchmark clock just before run_pipeline
    wall_ns: int
    t_first: int         # stream time of the first event, us
    taus: list           # tau of each emitted frame, us
    stamps: list         # (start_ns, return_ns) of each frontend_step
    events_applied: int
    versions_applied: int
    writer_stall_us: int

    @property
    def frames(self) -> int:
        return len(self.taus)


class FrameStamps:
    """Stamps the call and return of every ``frontend_step``."""

    def __init__(self):
        self.stamps: list[tuple[int, int]] = []

    def __enter__(self):
        self.original = original = pipeline.frontend_step
        stamps = self.stamps

        def stamped(*args, **kwargs):
            start = time.perf_counter_ns()
            result = original(*args, **kwargs)
            stamps.append((start, time.perf_counter_ns()))
            return result

        pipeline.frontend_step = stamped
        return self

    def __exit__(self, *exc):
        pipeline.frontend_step = self.original
        return False


def timed_run(w: Workload, inputs: Inputs):
    """One pipeline run with its frames stamped: (results, metrics,
    record)."""
    source = ReplaySource(inputs.batch, paced=w.paced)
    with FrameStamps() as frames:
        start = time.perf_counter_ns()
        results, metrics = run_pipeline(source, inputs.config, mode=w.mode)
        wall = time.perf_counter_ns() - start
    record = RunRecord(start, wall, int(inputs.batch.events["t"][0]),
                       [r.tau for r in results], frames.stamps,
                       metrics.events_applied, metrics.versions_applied,
                       metrics.writer_stall_us)
    return results, metrics, record


# ---------------------------------------------------------------------------
# output checks


def frames_equal(a, b) -> bool:
    """Same tau, version, keypoints, int8 descriptors and matches."""
    return (a.tau == b.tau and a.version == b.version
            and np.array_equal(a.keypoints.xy, b.keypoints.xy)
            and np.array_equal(a.keypoints.scores, b.keypoints.scores)
            and np.array_equal(a.descriptors.vectors, b.descriptors.vectors)
            and a.matches_to_previous == b.matches_to_previous)


def contract_ok(result, previous, w: Workload) -> bool:
    """Keypoints in frame, int8 descriptors within +-127, matches one to
    one, in range and under the distance ceiling."""
    xy = result.keypoints.xy
    vec = result.descriptors.vectors
    if len(xy) and not ((xy >= 0).all() and (xy[:, 0] < w.width).all()
                        and (xy[:, 1] < w.height).all()):
        return False
    if vec.dtype != np.int8 or vec.shape[0] != len(xy) \
            or (vec.size and int(np.abs(vec.astype(np.int16)).max()) > QMAX):
        return False
    matches = result.matches_to_previous
    if not matches:
        return True
    if previous is None:
        return False
    ia = [m.index_a for m in matches]
    ib = [m.index_b for m in matches]
    return (len(set(ia)) == len(ia) and len(set(ib)) == len(ib)
            and 0 <= min(ia) and max(ia) < len(xy)
            and 0 <= min(ib) and max(ib) < len(previous.keypoints)
            and max(m.distance for m in matches) <= MAX_DISTANCE)


def failed_frames(w: Workload, inputs: Inputs, results: list,
                  reference: list | None) -> int:
    """Frames of one timed run that break the contract or differ from
    their reference.

    A threaded run is replayed serially over the versions it observed;
    the result must match frame by frame. A serial run must repeat the
    first serial run of the same stream exactly (``reference``).
    """
    bad = [not contract_ok(r, p, w)
           for r, p in zip(results, [None] + results[:-1])]
    if w.mode == "threaded":
        reference, _ = run_pipeline(
            ReplaySource(inputs.batch), inputs.config, mode="serial",
            snapshot_schedule=[r.version for r in results])
    if reference is not None:
        bad = [b or i >= len(reference) or not frames_equal(r, reference[i])
               for i, (b, r) in enumerate(zip(bad, results))]
    return sum(bad)


def inlier_counts(results, velocity) -> tuple[int, int]:
    """Matches verified at INLIER_PX against the scene's rigid motion."""
    inliers = total = 0
    for previous, current in zip(results, results[1:]):
        if current.matches_to_previous:
            warp = linear_warp(velocity, current.tau, previous.tau)
            flags = verify_matches(current.matches_to_previous,
                                   current.keypoints, previous.keypoints,
                                   warp, threshold=INLIER_PX)
            inliers += int(flags.sum())
            total += len(flags)
    return inliers, total


def digest(results) -> str:
    """Short hash of keypoints, descriptors and matches, for eyeballing."""
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.tau},{r.version};".encode())
        h.update(r.keypoints.xy.tobytes())
        h.update(r.descriptors.vectors.tobytes())
        h.update(repr([(m.index_a, m.index_b, m.distance)
                       for m in r.matches_to_previous]).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# measurement


def reference_ms() -> float:
    """Wall time of a fixed mix of interpreter loops and small numpy
    operations, like the pipeline's; it measures the machine's speed."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(3000):
        total += i * i
    a = _REFERENCE_INPUT
    for _ in range(10):
        b = np.cumsum(a, axis=0)
        np.argsort(np.maximum(b[1:], b[:-1]).ravel()[:4096])
        a @ a[:, :32]
    return (time.perf_counter_ns() - start) / 1e6


@dataclass
class Measurement:
    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    reference_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    inliers: int = 0
    matches: int = 0
    digest: str = ""


def measure(w: Workload, inputs: Inputs, seconds: float,
            tracer=None) -> Measurement:
    """Repeat pipeline runs until ``seconds`` of run wall time are spent.

    With a tracer, runs alternate untraced and traced (at least one of
    each), so both halves see the same machine conditions. A serial
    replay of the start of the stream warms up first. Checks run between
    runs, outside the timed region; only the first serial run's frames
    are kept, as the reference the later repeats must reproduce. Before
    each run, the reference kernel is timed REFERENCE_SAMPLES times.
    """
    out = Measurement()
    warmup = inputs.batch.slice(0, int(len(inputs.batch) * WARMUP_SHARE))
    reference = None
    timed_ns = 0
    while timed_ns < seconds * 1e9 or (tracer is not None and not out.traced):
        traced = tracer is not None and len(out.untraced) > len(out.traced)
        out.reference_ms += [reference_ms() for _ in range(REFERENCE_SAMPLES)]
        try:
            if warmup is not None:
                run_pipeline(ReplaySource(warmup), inputs.config,
                             mode="serial")
                warmup = None
            if traced:
                tracer.run = len(out.traced)
                with tracer.installed():
                    results, metrics, record = timed_run(w, inputs)
            else:
                results, metrics, record = timed_run(w, inputs)
        except Exception as exc:   # a failing run is reported, not raised
            out.errors.append(f"{type(exc).__name__}: {exc}")
            out.attempted += 1
            out.failed += 1
            break
        timed_ns += record.wall_ns
        (out.traced if traced else out.untraced).append(record)
        out.attempted += len(results)
        out.failed += failed_frames(w, inputs, results, reference)
        if metrics.error is not None:
            out.errors.append(metrics.error)
            out.attempted += 1
            out.failed += 1
        if reference is None and w.mode == "serial":
            reference = results
        if not out.digest:
            out.digest = digest(results)
        i, t = inlier_counts(results, inputs.velocity)
        out.inliers += i
        out.matches += t
    return out


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


# End-to-end metrics that are rates; the other timings are durations.
RATES = ("frames_per_s", "ingest_events_per_s")


def end_to_end(w: Workload, records: list[RunRecord]) -> dict[str, float]:
    """Frame rate, frame time, result latency and ingest rate, pooled over
    every frame of the runs, as measured on this machine.

    A result's latency is its emission (the return of ``frontend_step``)
    minus the time it became due. On a paced source the due time is when
    its newest event arrives on the stream clock, start + (tau - t_first).
    An unpaced source has every event available at once, so a result is
    due when the frontend is free to take it: at the previous emission,
    or the start of the run for the first result.
    """
    frame_ms = [(e - s) / 1e6 for r in records for s, e in r.stamps]
    latency_ms = []
    for rec in records:
        emitted = [rec.start_ns] + [e for _, e in rec.stamps]
        for i, tau in enumerate(rec.taus):
            due = rec.start_ns + (tau - rec.t_first) * 1_000 if w.paced \
                else emitted[i]
            latency_ms.append((emitted[i + 1] - due) / 1e6)
    wall_s = sum(r.wall_ns for r in records) / 1e9
    return {
        "frames_per_s": frames_per_s(records),
        "frame_ms_p50": percentile(frame_ms, 50),
        "frame_ms_tail": percentile(frame_ms, TAIL_PCT),
        "result_latency_ms_p50": percentile(latency_ms, 50),
        "result_latency_ms_tail": percentile(latency_ms, TAIL_PCT),
        "ingest_events_per_s": sum(r.events_applied for r in records) / wall_s,
    }


def frames_per_s(records: list[RunRecord]) -> float:
    """Frames emitted over the runs' wall time."""
    frames = sum(r.frames for r in records)
    return frames * 1e9 / sum(r.wall_ns for r in records)
