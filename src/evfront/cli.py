"""Command-line entry point.

Subcommands: synth, convert, surface, run, verify, bench. Options can
come from a flat key-value config file (``--config``); explicit flags
win. Exit codes: 0 success, 2 usage or config error, 3 ran but produced
nothing, 4 the ``verify`` check failed, 1 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import mmap
import os
import platform
import stat
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import detect, events, matching, pipeline, surface


class UsageError(Exception):
    pass


class EmptyResult(Exception):
    pass


# ---------------------------------------------------------------------------
# flag value parsers (shared by flags and config files)


def _geometry(text: str) -> events.SensorGeometry:
    try:
        w, h = text.lower().split("x")
        return events.SensorGeometry(int(w), int(h))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad geometry {text!r}: {exc}")


def _velocity(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"velocity must be vx,vy, got {text!r}")
    return float(parts[0]), float(parts[1])


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"bad boolean {text!r}")


_CONVERTERS = {}


def _opt(sub, name, conv, default, help):
    """Register an option that the config file can set too."""
    _CONVERTERS.setdefault(sub.prog.split()[-1], {})[name] = conv
    kind = dict(action="store_true") if conv is _bool else dict(type=conv)
    sub.add_argument("--" + name, default=default, help=help, **kind)


def _build_parser():
    """The parser, and the subparsers action holding each subcommand's."""
    parser = argparse.ArgumentParser(
        prog="evfront",
        description="Event-camera frontend: surfaces, keypoints, matching.")
    parser.add_argument("--config", help="flat key=value option file; "
                        "explicit flags take precedence")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("synth", help="generate a synthetic event stream")
    _opt(s, "pattern", str, "vertical-edge",
         "vertical-edge or grid-of-corners")
    _opt(s, "velocity", _velocity, (100.0, 0.0), "pattern speed, px/s as vx,vy")
    _opt(s, "duration", float, 1.0, "seconds of stream")
    _opt(s, "geometry", _geometry, events.SensorGeometry(64, 64),
         "sensor size WxH")
    _opt(s, "start-time", int, 0, "timestamp of t=0, microseconds")
    _opt(s, "grid-pitch", int, events.MotionSpec.grid_pitch,
         "corner grid spacing, px")
    _opt(s, "square-side", int, events.MotionSpec.square_side,
         "corner grid square side, px")
    s.add_argument("--output", "-o", required=True, help="binary-v1 out path")

    s = subs.add_parser("convert", help="convert between event formats")
    s.add_argument("--input", "-i", required=True)
    s.add_argument("--output", "-o", required=True)
    _opt(s, "from-format", str, None, "binary-v1 or csv")
    _opt(s, "to-format", str, None, "binary-v1 or csv")
    _opt(s, "geometry", _geometry, None, "sensor size WxH (csv input only)")

    s = subs.add_parser("surface", help="build and export one surface stack")
    s.add_argument("--input", "-i", required=True, help="binary-v1 events")
    s.add_argument("--output-prefix", "-o", required=True)
    _opt(s, "tau", int, None, "reference time, us (default: last event)")
    _opt(s, "mode", str, "constant-count",
         "constant-count or fixed-duration")
    _opt(s, "counts", _float_list, surface.DEFAULT_NORMALIZED_COUNTS,
         "normalized per-pixel counts, comma separated")
    _opt(s, "durations", _int_list, None,
         "fixed window durations in us, comma separated")

    s = subs.add_parser("run", help="run the frontend pipeline over a stream")
    s.add_argument("--input", "-i", required=True, help="binary-v1 events")
    s.add_argument("--results", help="FrameResult JSONL out path")
    s.add_argument("--metrics", help="metrics JSON out path")
    s.add_argument("--timings-csv", help="per-interval stage timing CSV")
    c = pipeline.PipelineConfig()  # the run defaults have one owner
    _opt(s, "detector", str, c.detector, "classical or learned")
    _opt(s, "weights", str, None, "SLWT weight file (learned)")
    _opt(s, "weights-seed", int, 0,
         "random weights seed instead of a file (learned)")
    _opt(s, "tick", int, c.tick, "preprocessing period, us")
    _opt(s, "mode", str, "threaded", "threaded or serial")
    _opt(s, "paced", _bool, False, "pace replay by wall clock (threaded)")
    _opt(s, "counts", _float_list, c.window_spec.normalized_counts,
         "normalized per-pixel counts")
    _opt(s, "channel-pair", int, c.channel_pair,
         "classical detector channel pair")
    _opt(s, "nms-radius", int, c.nms_radius, "NMS radius, px")
    _opt(s, "nms-threshold", float, c.nms_threshold, "NMS score threshold")
    _opt(s, "nms-max-k", int, c.nms_max_k, "keypoint cap per frame")
    _opt(s, "max-distance", float, c.match_max_distance,
         "match acceptance ceiling, cosine distance")
    _opt(s, "metrics-interval", int, c.metrics_interval,
         "timing aggregation interval, us of event time")
    _opt(s, "no-descriptors", _bool, False,
         "elide descriptors from the results JSONL")

    s = subs.add_parser("verify",
                        help="motion-invariance comparison of window modes")
    _opt(s, "geometry", _geometry, events.SensorGeometry(100, 100),
         "sensor size WxH")
    _opt(s, "speed", float, 100.0, "base edge speed, px/s")
    _opt(s, "factor", float, 3.0, "speed multiplier for the second run")
    _opt(s, "counts", _float_list, surface.DEFAULT_NORMALIZED_COUNTS,
         "normalized per-pixel counts")

    s = subs.add_parser("bench", help="micro-benchmarks, CSV output")
    _opt(s, "workload", str, "all",
         ", ".join(_WORKLOADS) + ", or all; ingest includes the writer")
    _opt(s, "events-n", int, 1_000_000, "ingest base event count, <= 10**7")
    _opt(s, "iterations", int, 5, "repeats per row")
    _opt(s, "seed", int, 0, "rng seed")
    s.add_argument("--output", "-o", help="CSV out path (default: stdout only)")
    s.add_argument("--json", help="JSON out path: each row's mean, p99 and "
                   "iterations, with the core count, numpy, BLAS threads and "
                   "encoder bands")

    return parser, subs


def _load_config(path: str, command: str) -> dict:
    """The file's values, converted, keyed by option destination."""
    table = _CONVERTERS.get(command, {})
    values = {}
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}")
    # physical lines: bytes break only at \n, \r\n and \r
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.decode("utf-8", "surrogateescape").strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in table:
            raise UsageError(f"config line {lineno}: unknown option {key!r} "
                             f"for {command}")
        try:
            values[key.replace("-", "_")] = table[key](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"config line {lineno}: {exc}")
    return values


# ---------------------------------------------------------------------------
# subcommands


def _read_batch(path: str, format: str = "binary-v1",
                geometry: events.SensorGeometry | None = None
                ) -> events.EventBatch:
    try:
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            # a binary-v1 batch is a read-only view of the map, which it
            # keeps open; an empty file cannot be mapped
            if (format == "binary-v1" and stat.S_ISREG(info.st_mode)
                    and info.st_size):
                data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            else:
                data = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    try:
        return events.parse_events(data, format, geometry)
    except ValueError as exc:  # a malformed record, at its offset or line
        raise UsageError(f"{path}: {exc}")


def _write(path: str, *parts) -> None:
    """Write ``parts`` to ``path`` in turn: strings as text, else bytes or
    any buffer, which is written as it lies, without a copy."""
    try:
        with open(path, "w" if isinstance(parts[0], str) else "wb") as fh:
            for part in parts:
                fh.write(part)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")


def cmd_synth(args) -> int:
    try:
        spec = events.MotionSpec(args.pattern, args.velocity, args.duration,
                                 grid_pitch=args.grid_pitch,
                                 square_side=args.square_side)
        batch = events.synthesize(spec, args.geometry, args.start_time)
    except ValueError as exc:  # also a start time outside the stamp range
        raise UsageError(str(exc))
    # the header, then the records' own buffer: no copy of the file is made
    _write(args.output, events.binary_header(batch.geometry), batch.events)
    t = batch.events["t"]
    span = int(t[-1]) - int(t[0]) if len(batch) else 0
    print(f"wrote {len(batch)} events spanning {span} us to {args.output}")
    if len(batch) == 0:
        raise EmptyResult("no events produced")
    return 0


def cmd_convert(args) -> int:
    src, dst = args.from_format, args.to_format
    if src not in ("binary-v1", "csv") or dst not in ("binary-v1", "csv"):
        raise UsageError("from-format and to-format must be binary-v1 or csv")
    batch = _read_batch(args.input, src, args.geometry)
    _write(args.output, events.write_events(batch, dst))
    print(f"converted {len(batch)} events to {dst} at {args.output}")
    return 0


def cmd_surface(args) -> int:
    batch = _read_batch(args.input)
    if len(batch) == 0:
        raise UsageError("input stream is empty")
    try:
        if args.mode == "fixed-duration":
            spec = surface.WindowSpec("fixed-duration",
                                      durations=args.durations)
        else:
            spec = surface.WindowSpec(args.mode, normalized_counts=args.counts)
    except ValueError as exc:  # also a missing --durations
        raise UsageError(str(exc))

    t = batch.events["t"]
    tau = int(t[-1]) if args.tau is None else args.tau
    if not 0 <= tau < events.TIMESTAMP_LIMIT:
        raise UsageError(f"tau {tau} outside the stamp range [0, 2**62)")
    cut = int(np.searchsorted(t, tau, side="right"))
    if cut == 0 and spec.mode == "constant-count":
        raise UsageError(f"tau {tau} precedes the first event "
                         f"({int(t[0])}) in constant-count mode")
    grid = surface.TimestampGrid.create(batch.geometry)
    ring = surface.EventCountRing(surface.stream_ring_capacity(spec, batch))
    surface.apply_events(grid, ring, batch.slice(0, cut))
    tensor = surface.mcts(grid, ring, tau, spec)

    prefix = args.output_prefix
    for idx, channel in enumerate(tensor.channels):
        _write(f"{prefix}_ch{idx:02d}.pgm", surface.write_pgm(channel))
    _write(prefix + ".mcts", surface.write_mcts(tensor))
    durs = ",".join(str(d) for d in tensor.window_durations)
    print(f"tau={tau} realized_durations_us={durs} "
          f"channels={tensor.channels.shape[0]} prefix={prefix}")
    return 0


def _crop_to_cell(batch: events.EventBatch, cell: int) -> events.EventBatch:
    w = (batch.geometry.width // cell) * cell
    h = (batch.geometry.height // cell) * cell
    if w == 0 or h == 0:
        raise UsageError(f"stream {batch.geometry.width}x"
                         f"{batch.geometry.height} smaller than one "
                         f"{cell}px cell")
    if (w, h) == (batch.geometry.width, batch.geometry.height):
        return batch
    ev = batch.events
    keep = (ev["x"] < w) & (ev["y"] < h)
    cropped = events.EventBatch(ev[keep], events.SensorGeometry(w, h))
    print(f"cropped stream to {w}x{h} ({len(batch) - len(cropped)} events "
          f"outside)")
    return cropped


def cmd_run(args) -> int:
    batch = _read_batch(args.input)
    weights = None
    if args.detector == "learned":
        if args.weights:
            try:
                weights = detect.load_weights(Path(args.weights).read_bytes())
            except OSError as exc:
                raise UsageError(f"cannot read weights: {exc}")
            except ValueError as exc:
                raise UsageError(f"bad weights file: {exc}")
        else:
            if args.weights_seed < 0:
                raise UsageError("weights-seed cannot be negative")
            weights = detect.random_weights(detect.NetworkSpec(),
                                            args.weights_seed)
        batch = _crop_to_cell(batch, weights.spec.cell)

    try:
        config = pipeline.PipelineConfig(
            tick=args.tick,
            window_spec=surface.WindowSpec(
                "constant-count", normalized_counts=args.counts),
            detector=args.detector,
            weights=weights,
            channel_pair=args.channel_pair,
            nms_radius=args.nms_radius,
            nms_threshold=args.nms_threshold,
            nms_max_k=args.nms_max_k,
            match_max_distance=args.max_distance,
            metrics_interval=args.metrics_interval,
        )
        # checks its arguments now; the run starts at the first frame
        frames = pipeline.run_frames(
            pipeline.ReplaySource(batch, paced=args.paced), config,
            mode=args.mode)
    except ValueError as exc:
        raise UsageError(str(exc))

    for path in (args.metrics, args.timings_csv):
        if path:  # an unwritable path fails before the run, not after
            _write(path, b"")
    emitted = total_matches = 0

    def emit(frame):
        nonlocal emitted, total_matches
        emitted += 1
        total_matches += len(frame.matches_to_previous)
        if out is not None:
            out.write(pipeline.result_to_json(
                frame, include_descriptors=not args.no_descriptors) + "\n")

    try:  # each result is written as its frame is emitted
        with (open(args.results, "w") if args.results
              else contextlib.nullcontext()) as out:
            metrics = pipeline.drain(frames, emit)
    except OSError as exc:  # an unwritable path fails before the run
        raise UsageError(f"cannot write {args.results}: {exc}")

    if args.metrics:
        _write(args.metrics, json.dumps(asdict(metrics), indent=2) + "\n")
    if args.timings_csv:
        _write(args.timings_csv, pipeline.metrics_to_csv(metrics))
    print(f"results={emitted} versions={metrics.versions_applied} "
          f"events={metrics.events_applied} matches={total_matches}")
    if metrics.error:
        raise RuntimeError(f"source failed mid-run: {metrics.error}")
    if not emitted:
        raise EmptyResult("pipeline emitted no results")
    return 0


def cmd_verify(args) -> int:
    try:
        report = surface.motion_invariance_report(
            args.geometry, args.speed, args.factor, args.counts)
    except ValueError as exc:
        raise UsageError(str(exc))
    lo, hi = report.speeds
    print(f"speeds: {lo:g} and {hi:g} px/s")
    print(f"fixed durations (us): "
          f"{','.join(str(d) for d in report.fixed_durations)}")
    for tag, durs in zip(("base", "fast"), report.realized_durations):
        print(f"realized constant-count durations at {tag} speed (us): "
              f"{','.join(str(d) for d in durs)}")
    print("pair  l1_constant_count  l1_fixed_duration  smaller")
    for k, (a, b) in enumerate(zip(report.l1_constant_count,
                                   report.l1_fixed)):
        tag = "constant-count" if a < b else "fixed-duration"
        print(f"{k:4d}  {a:17.6f}  {b:17.6f}  {tag}")
    verdict = "pass" if report.passed else "fail"
    print(f"verdict: {verdict} ({report.pairs_favoring_constant}/"
          f"{len(report.l1_constant_count)} pairs favor constant-count)")
    return 0 if report.passed else 4


def _time_us(fn, iterations: int) -> tuple[float, float]:
    # one untimed call first: a helper thread's start or a BLAS lookup
    # is paid once per process, not per call
    fn()
    samples = []
    for _ in range(iterations):
        t0 = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - t0) / 1_000)
    return float(np.mean(samples)), float(np.percentile(samples, 99))


def _random_stream(rng, n: int, geometry: events.SensorGeometry
                   ) -> events.EventBatch:
    t = np.sort(rng.integers(0, n * 10, n).astype(np.uint64))
    return events.batch_from_columns(
        t,
        rng.integers(0, geometry.width, n).astype(np.uint16),
        rng.integers(0, geometry.height, n).astype(np.uint16),
        rng.choice(np.array([0, 1], dtype=np.uint8), n),
        geometry)


def _ingest_streams(rng, args):
    # the ingest and writer rows run over the same 240x180 streams
    for n in (args.events_n, 2 * args.events_n):
        yield _random_stream(rng, n, events.SensorGeometry(240, 180))


def _bench_ingest(rng, args):
    # apply_events in 10k-event batches, the ring sized as the pipeline's
    spec = pipeline.PipelineConfig().window_spec
    for batch in _ingest_streams(rng, args):
        capacity = surface.stream_ring_capacity(spec, batch)
        def ingest():
            grid = surface.TimestampGrid.create(batch.geometry)
            ring = surface.EventCountRing(capacity)
            for lo in range(0, len(batch), 10_000):
                surface.apply_events(grid, ring, batch.slice(lo, lo + 10_000))
        yield len(batch), ingest


def _bench_writer(rng, args):
    # the pipeline's tick loop drained over the stream, 10 ms ticks
    config = pipeline.PipelineConfig()
    for batch in _ingest_streams(rng, args):
        capacity = surface.stream_ring_capacity(config.window_spec, batch)
        def drain():
            writer = pipeline._WriterLoop(
                pipeline.ReplaySource(batch),
                pipeline.SharedSurfaceState(batch.geometry, capacity), config)
            while not writer.exhausted:
                writer.one_tick()
        yield len(batch), drain


def _bench_mcts(rng, args):
    spec = surface.WindowSpec.default_constant_count()
    for size in (64, 128, 256):
        geometry = events.SensorGeometry(size, size)
        stream = _random_stream(rng, 4 * geometry.pixel_count, geometry)
        grid = surface.TimestampGrid.create(geometry)
        ring = surface.EventCountRing(
            surface.stream_ring_capacity(spec, stream))
        surface.apply_events(grid, ring, stream)
        yield size, lambda: surface.mcts(grid, ring, grid.latest_time, spec)


def _corner_motion(rng, duration: float) -> events.MotionSpec:
    # the acceptance corner grid, velocity jittered by the seed
    velocity = tuple(v * rng.uniform(0.99, 1.01) for v in (-56.0, -42.0))
    return events.MotionSpec("grid-of-corners", velocity, duration,
                             grid_pitch=48, square_side=16)


def _corner_grids(rng):
    # the pipeline's state holding the whole corner grid stream, its
    # surface tensor and the merged plane of channel pair 3, the
    # classical frame's input; n is the sensor's pixel count
    spec = pipeline.PipelineConfig().window_spec
    motion = _corner_motion(rng, 0.5)
    for size in ((128, 128), (240, 180)):
        geometry = events.SensorGeometry(*size)
        stream = events.synthesize(motion, geometry)
        state = pipeline.SharedSurfaceState(
            geometry, surface.stream_ring_capacity(spec, stream))
        grid, ring = state.grid, state.ring
        surface.apply_events(grid, ring, stream)
        tau = grid.latest_time
        yield (geometry.pixel_count, state,
               surface.mcts(grid, ring, tau, spec),
               surface.merged_surface(grid, ring, tau, spec, 3))


def _bench_snapshot(rng, args):
    for n, state, _, _ in _corner_grids(rng):
        yield n, lambda: pipeline.freeze_snapshot(state)


def _bench_classical(rng, args):
    c = pipeline.PipelineConfig()
    for n, _, _, merged in _corner_grids(rng):
        yield n, lambda: detect.classical_detect(
            merged, c.nms_radius, c.nms_threshold, c.nms_max_k)


def _bench_nms(rng, args):
    # on the corner grid's Harris response
    c = pipeline.PipelineConfig()
    for n, _, _, merged in _corner_grids(rng):
        response = detect._harris(merged)
        yield n, lambda: detect.nms(response, c.nms_radius, c.nms_threshold,
                                    c.nms_max_k)


def _bench_forward(rng, args):
    weights = detect.random_weights(detect.NetworkSpec(), args.seed)
    for size in (64, 128):
        x = rng.random((8, size, size), dtype=np.float32)
        yield size, lambda: detect.forward(weights, x)


def _bench_describe(rng, args):
    # the learned descriptor tail on the 128x128 corner grid: descriptors
    # at the heatmap's NMS keypoints, quantized; n is the keypoint count
    c = pipeline.PipelineConfig()
    weights = detect.random_weights(detect.NetworkSpec(), args.seed)
    _, _, tensor, _ = next(_corner_grids(rng))
    heatmap, desc_map = detect.forward(weights, tensor.channels)
    keypoints = detect.nms(heatmap, c.nms_radius, c.nms_threshold,
                           c.nms_max_k)
    yield len(keypoints), lambda: matching.quantize(
        detect.interpolate_descriptors(desc_map, keypoints,
                                       weights.spec.cell))


def _bench_quantize(rng, args):
    for n in (100, 500, 1000):
        vectors = rng.standard_normal((n, 64)).astype(np.float32)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        yield n, lambda: matching.quantize(vectors)


def _bench_match(rng, args):
    for n in (100, 500, 1000):
        a, b = (matching.QuantizedDescriptors(
            rng.integers(-127, 128, (n, 64)).astype(np.int8))
            for _ in range(2))
        yield n, lambda: matching.match_mutual_nn(a, b)


def _bench_synth(rng, args):
    # the acceptance corner grid, the 240x180 flood scene of the
    # benchmark and a 640x480 vertical edge crossing the sensor in 2 s;
    # n is the sensor's pixel count
    for size, pattern, velocity, pitch, side, duration in (
            ((128, 128), "grid-of-corners", (-56.0, -42.0), 48, 16, 1.0),
            ((240, 180), "grid-of-corners", (-300.0, -225.0), 12, 5, 0.5),
            ((640, 480), "vertical-edge", (320.0, 0.0), 16, 6, 2.0)):
        geometry = events.SensorGeometry(*size)
        motion = events.MotionSpec(pattern, velocity, duration,
                                   grid_pitch=pitch, square_side=side)
        yield geometry.pixel_count, lambda: events.synthesize(motion, geometry)


def _bench_pipeline(rng, args):
    # serial run_pipeline on the 128x128 corner grid in the acceptance
    # configuration, classical over 1.5 s of stream and learned over
    # 0.5 s; n is the event count
    geometry = events.SensorGeometry(128, 128)
    weights = detect.random_weights(detect.NetworkSpec(), args.seed)
    for detector, duration in (("classical", 1.5), ("learned", 0.5)):
        source = pipeline.ReplaySource(
            events.synthesize(_corner_motion(rng, duration), geometry))
        config = pipeline.PipelineConfig(detector=detector, weights=weights,
                                         channel_pair=3,
                                         match_max_distance=0.4)
        yield len(source.batch), lambda: pipeline.run_pipeline(
            source, config, "serial")


# workload -> setup(rng, args) yielding (n, call) per row. Rows are timed
# as they are yielded, so a call may read its setup's loop variables
_WORKLOADS = {
    "ingest": _bench_ingest,
    "writer": _bench_writer,
    "mcts": _bench_mcts,
    "snapshot": _bench_snapshot,
    "classical": _bench_classical,
    "nms": _bench_nms,
    "forward": _bench_forward,
    "describe": _bench_describe,
    "quantize": _bench_quantize,
    "match": _bench_match,
    "synth": _bench_synth,
    "pipeline": _bench_pipeline,
}


def cmd_bench(args) -> int:
    wanted = args.workload
    if wanted not in (*_WORKLOADS, "all"):
        raise UsageError(f"unknown workload {wanted!r}")
    for name, least in (("iterations", 1), ("events-n", 1), ("seed", 0)):
        if getattr(args, name.replace("-", "_")) < least:
            raise UsageError(f"{name} must be at least {least}")
    if args.events_n > 10 ** 7:  # 2n events, stamps below 20n: about 0.5 GB
        raise UsageError("events-n must be at most 10**7")
    for path in (args.output, args.json):
        if path:  # an unwritable path fails before the rows are timed
            _write(path, b"")
    names = list(_WORKLOADS) if wanted == "all" else [wanted]
    if wanted == "ingest":
        names.append("writer")
    # time the layers with the allocator settings run_pipeline uses, not
    # with fresh pages faulted in by every large temporary
    pipeline._keep_freed_memory()
    rows = []
    for name in names:
        # each workload draws its inputs from its own generator, so they
        # do not depend on which workloads ran before it
        setup = _WORKLOADS[name](np.random.default_rng(args.seed), args)
        for n, call in setup:
            rows.append((name, n, *_time_us(call, args.iterations)))

    lines = ["workload,n,mean_us,p99_us"]
    lines += [f"{w},{n},{m:.1f},{p:.1f}" for w, n, m, p in rows]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.output:
        _write(args.output, text)
    if args.json:
        environment = {"cpu_count": os.cpu_count(),
                       "python": platform.python_version(),
                       "numpy": np.__version__,
                       "blas_threads": detect.blas_threads(),
                       "encoder_bands": detect.encoder_bands()}
        table = [{"workload": w, "n": n, "mean_us": m, "p99_us": p,
                  "iterations": args.iterations} for w, n, m, p in rows]
        _write(args.json, json.dumps(
            {"environment": environment, "rows": table}, indent=2) + "\n")
    return 0


_DISPATCH = {
    "synth": cmd_synth,
    "convert": cmd_convert,
    "surface": cmd_surface,
    "run": cmd_run,
    "verify": cmd_verify,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser, subs = _build_parser()  # afresh: config defaults stay per call
    args = parser.parse_args(argv)
    try:
        if args.config:  # flag > config file > built-in default
            subs.choices[args.command].set_defaults(
                **_load_config(args.config, args.command))
            args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EmptyResult as exc:
        print(f"empty: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
