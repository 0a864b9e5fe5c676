"""Shared state, watermark ticks, snapshots, and the run loops."""

import json
import platform
import resource
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from evfront import pipeline
from evfront.events import (
    EVENT_DTYPE,
    EventBatch,
    MotionSpec,
    SensorGeometry,
    batch_from_columns,
    synthesize,
)
from evfront.detect import NetworkSpec, classical_detect, random_weights
from evfront.matching import match_mutual_nn, quantize
from evfront.pipeline import (
    FrameResult,
    PipelineConfig,
    ReplaySource,
    SharedSurfaceState,
    StageTimings,
    _WriterLoop,
    freeze_snapshot,
    frontend_step,
    metrics_to_csv,
    preprocess_tick,
    result_to_json,
    run_pipeline,
)
from evfront.surface import WindowSpec, mcts
from test_detect import force_bands


def _batch(geo, t, x, y, p):
    return batch_from_columns(
        np.asarray(t, np.uint64), np.asarray(x, np.uint16),
        np.asarray(y, np.uint16), np.asarray(p, np.int8), geo)


def _empty_batch(geometry):
    return EventBatch(np.empty(0, EVENT_DTYPE), geometry)


def _grid_source(duration=1.0, size=64, vel=(-40.0, -30.0), pitch=32,
                 side=12):
    geo = SensorGeometry(size, size)
    spec = MotionSpec("grid-of-corners", vel, duration,
                      grid_pitch=pitch, square_side=side)
    return ReplaySource(synthesize(spec, geo))


def _slow_detector(monkeypatch):
    """Make every classical detection take 20 ms more, inside the
    keypoint_detection stage."""
    real_detect = pipeline.classical_detect

    def slow_detect(*args):
        result = real_detect(*args)
        time.sleep(0.02)
        return result

    monkeypatch.setattr(pipeline, "classical_detect", slow_detect)


def _assert_same_frame(a, b):
    """Keypoints, scores, descriptors and matches equal byte for byte."""
    x, y = ([r.keypoints.xy, r.keypoints.scores, r.descriptors.vectors,
             np.array([(m.index_a, m.index_b, m.distance)
                       for m in r.matches_to_previous])] for r in (a, b))
    for u, v in zip(x, y):
        assert u.dtype == v.dtype and u.tobytes() == v.tobytes()


def frontend_step_reference(snapshot, previous, config):
    # the classical frontend this one replaced: build every plane of the
    # tensor, then let the detector pick the configured pair
    tau = snapshot.grid.latest_time
    tensor = mcts(snapshot.grid, snapshot.ring, tau, config.window_spec)
    k, pair = tensor.K, config.channel_pair
    keypoints, descriptors = classical_detect(
        np.maximum(tensor.channels[pair], tensor.channels[k + pair]),
        config.nms_radius, config.nms_threshold, config.nms_max_k)
    quantized = quantize(descriptors)
    matches = [] if previous is None else match_mutual_nn(
        quantized, previous.descriptors, config.match_max_distance)
    return FrameResult(tau, snapshot.version, keypoints, quantized, matches,
                       StageTimings(0, 0, 0, 0))


# The writer the linear-time one replaced, kept as an oracle. Every tick
# it searched the whole stream's stamps, concatenated the retained events
# with the arrivals, validated every slice, wrote the grid by fancy
# assignment (last write wins) and took the gate a second time to set
# newest_ingested.


def _apply_events_reference(grid, ring, batch):
    ev = batch.events
    t = ev["t"]
    ch = (ev["p"] > 0).astype(np.intp)
    grid.last_t[ch, ev["y"].astype(np.intp), ev["x"].astype(np.intp)] = t
    last = int(t[-1])
    grid.latest_time = last if grid.latest_time is None \
        else max(grid.latest_time, last)
    if grid.first_time is None:
        grid.first_time = int(t[0])
    grid.applied_count += len(batch)
    ring.push_many(t)  # pinned to the old push in test_surface.py


def _preprocess_tick_reference(state, pending, watermark):
    cut = int(np.searchsorted(pending.events["t"], watermark, side="right"))
    if cut == 0:
        return 0, pending
    with state.gate:
        _apply_events_reference(
            state.grid, state.ring,
            EventBatch(pending.events[:cut], pending.geometry))
        state.version += 1
    return cut, EventBatch(pending.events[cut:], pending.geometry)


class WriterLoopReference:
    def __init__(self, source, state, config):
        self.source = source
        self.state = state
        self.config = config
        ev = source.batch.events
        self.t_stream = ev["t"]
        self.cursor = 0
        self.retained = _empty_batch(source.batch.geometry)
        self.virtual_now = int(ev["t"][0]) if len(ev) else 0
        self.exhausted = len(ev) == 0

    def one_tick(self):
        batch = self.source.batch
        n = len(batch)
        self.virtual_now += self.config.tick
        new_cursor = int(np.searchsorted(self.t_stream, self.virtual_now,
                                         side="right"))
        arrivals = EventBatch(batch.events[self.cursor:new_cursor],
                              batch.geometry)
        self.cursor = new_cursor
        if len(self.retained) and len(arrivals):
            pending = EventBatch(
                np.concatenate([self.retained.events, arrivals.events]),
                batch.geometry)
        elif len(arrivals):
            pending = arrivals
        else:
            pending = self.retained
        drained = self.cursor >= n
        if len(pending) == 0:
            self.exhausted = drained
            return 0
        if drained:
            watermark = int(pending.events["t"][-1])
        else:
            watermark = int(pending.events["t"][-1]) - self.config.watermark_lag
        applied, self.retained = _preprocess_tick_reference(
            self.state, pending, watermark)
        with self.state.gate:
            newest = int(pending.events["t"][-1])
            if self.state.newest_ingested is None \
                    or newest > self.state.newest_ingested:
                self.state.newest_ingested = newest
        self.exhausted = drained and len(self.retained) == 0
        return applied


def serial_run_reference(source, config):
    # the serial loop over snapshot copies: tick until the version moves,
    # copy the state, step unless tau cannot advance
    geo = source.batch.geometry
    state = SharedSurfaceState(geo, config.window_spec.ring_capacity(geo))
    writer = _WriterLoop(source, state, config)
    results = []
    while not writer.exhausted:
        before = state.version
        writer.one_tick()
        if state.version == before:
            continue
        snap = freeze_snapshot(state)
        tau = snap.grid.latest_time
        if tau is None or (results and tau <= results[-1].tau):
            continue
        results.append(frontend_step(snap, results[-1] if results else None,
                                     config))
    return results


def _assert_writers_agree(batch, config, capacity):
    """Tick the writer and the oracle side by side over ``batch``; after
    every tick their states must be equal byte for byte. Returns the
    number of ticks and of ticks that applied nothing."""
    got = SharedSurfaceState(batch.geometry, capacity)
    want = SharedSurfaceState(batch.geometry, capacity)
    writer = _WriterLoop(ReplaySource(batch), got, config)
    oracle = WriterLoopReference(ReplaySource(batch), want, config)
    ticks = idle = 0
    while not oracle.exhausted:
        assert not writer.exhausted
        applied = writer.one_tick()
        assert applied == oracle.one_tick()
        ticks += 1
        idle += applied == 0
        assert got.version == want.version
        assert got.newest_ingested == want.newest_ingested
        assert got.grid.last_t.tobytes() == want.grid.last_t.tobytes()
        assert got.grid.valid.tobytes() == want.grid.valid.tobytes()
        assert (got.grid.latest_time, got.grid.first_time,
                got.grid.applied_count) == \
            (want.grid.latest_time, want.grid.first_time,
             want.grid.applied_count)
        assert got.ring.state_bytes() == want.ring.state_bytes()
    assert writer.exhausted
    assert got.grid.applied_count == len(batch)
    return ticks, idle


class TestPreprocessTick:
    def test_applies_only_up_to_watermark(self):
        geo = SensorGeometry(8, 8)
        state = SharedSurfaceState(geo, 16)
        pending = _batch(geo, [10, 20, 30], [0, 1, 2], [0, 0, 0], [1, 1, 1])
        applied, retained = preprocess_tick(state, pending, watermark=20)
        assert applied == 2
        assert len(retained) == 1
        assert int(retained.events["t"][0]) == 30
        assert state.version == 1
        assert state.grid.latest_time == 20

    def test_watermark_boundary_inclusive(self):
        geo = SensorGeometry(8, 8)
        state = SharedSurfaceState(geo, 16)
        pending = _batch(geo, [10], [0], [0], [1])
        applied, retained = preprocess_tick(state, pending, watermark=10)
        assert applied == 1 and len(retained) == 0

    def test_nothing_ready_keeps_version(self):
        geo = SensorGeometry(8, 8)
        state = SharedSurfaceState(geo, 16)
        pending = _batch(geo, [100], [0], [0], [1])
        applied, retained = preprocess_tick(state, pending, watermark=50)
        assert applied == 0
        assert state.version == 0
        assert len(retained) == 1

    def test_version_advances_once_per_tick(self):
        geo = SensorGeometry(8, 8)
        state = SharedSurfaceState(geo, 16)
        pending = _batch(geo, [1, 2, 3, 4], [0] * 4, [0] * 4, [1] * 4)
        preprocess_tick(state, pending, watermark=100)
        assert state.version == 1
        assert state.grid.applied_count == 4


    def test_newest_ingested_moves_with_nothing_ready(self):
        geo = SensorGeometry(8, 8)
        state = SharedSurfaceState(geo, 16)
        pending = _batch(geo, [100, 120], [0, 1], [0, 0], [1, 1])
        applied, retained = preprocess_tick(state, pending, watermark=50)
        assert (applied, len(retained), state.version) == (0, 2, 0)
        assert state.newest_ingested == 120
        preprocess_tick(state, pending.slice(0, 1), watermark=100)
        assert state.newest_ingested == 120  # never moves back


class _CountingGate:
    def __init__(self):
        self._lock = threading.Lock()
        self.holds = 0

    def __enter__(self):
        self._lock.acquire()
        self.holds += 1

    def __exit__(self, *exc):
        self._lock.release()


def _stream(rng, geo, t):
    n = len(t)
    return batch_from_columns(
        np.asarray(t, np.uint64),
        rng.integers(0, geo.width, n).astype(np.uint16),
        rng.integers(0, geo.height, n).astype(np.uint16),
        rng.choice(np.array([-1, 1], np.int8), n), geo)


class TestWriterLoop:
    # a small sensor, so pixels repeat within one tick
    GEO = SensorGeometry(12, 9)

    def test_matches_reference_with_and_without_lag(self):
        rng = np.random.default_rng(23)
        batch = _stream(rng, self.GEO,
                        np.sort(rng.integers(1_000, 400_000, 6_000)))
        for lag in (0, 1, 3_000, 10_000, 25_000):
            for capacity in (1, 37, 4_096, 10_000):
                config = PipelineConfig(tick=10_000, watermark_lag=lag)
                _assert_writers_agree(batch, config, capacity)

    def test_matches_reference_across_gaps(self):
        # bursts 35 to 120 ms apart: most 10 ms ticks see no arrivals
        rng = np.random.default_rng(27)
        starts = np.cumsum(rng.integers(35_000, 120_000, 12))
        t = np.sort(np.concatenate(
            [s + rng.integers(0, 3_000, 200) for s in starts]))
        batch = _stream(rng, self.GEO, t)
        for lag in (0, 5_000, 50_000):
            config = PipelineConfig(tick=10_000, watermark_lag=lag)
            ticks, idle = _assert_writers_agree(batch, config, 64)
            assert idle > ticks // 2

    def test_matches_reference_on_equal_stamp_bursts(self):
        # bursts of one stamp on, one before and one after the tick
        # boundaries: virtual time is the first stamp plus k ticks
        rng = np.random.default_rng(29)
        first = 5_000
        t = [first]
        for k in range(1, 30):
            stamp = first + k * 10_000 + int(rng.integers(-1, 2))
            t += [stamp] * int(rng.integers(1, 400))
        batch = _stream(rng, self.GEO, t)
        for tick in (10_000, 2_500):
            for lag in (0, 1, 10_000):
                config = PipelineConfig(tick=tick, watermark_lag=lag)
                _assert_writers_agree(batch, config, 128)

    def test_one_event_and_empty_streams(self):
        rng = np.random.default_rng(31)
        one = _stream(rng, self.GEO, [7_777])
        for lag in (0, 10_000):
            config = PipelineConfig(watermark_lag=lag)
            assert _assert_writers_agree(one, config, 4) == (1, 0)
        empty = _empty_batch(self.GEO)
        writer = _WriterLoop(ReplaySource(empty),
                             SharedSurfaceState(self.GEO, 4), PipelineConfig())
        assert writer.exhausted

    def test_final_drain_ignores_lag(self):
        # a lag longer than the stream holds everything back until the
        # tick that drains the source
        rng = np.random.default_rng(37)
        batch = _stream(rng, self.GEO, np.arange(0, 50_000, 100))
        config = PipelineConfig(tick=10_000, watermark_lag=1_000_000)
        ticks, idle = _assert_writers_agree(batch, config, 64)
        assert idle == ticks - 1

    def test_pending_is_a_view_of_the_source(self, monkeypatch):
        rng = np.random.default_rng(41)
        batch = _stream(rng, self.GEO, np.sort(rng.integers(0, 200_000, 3_000)))
        views = []
        real_tick = pipeline.preprocess_tick

        def spy(state, pending, watermark):
            views.append(np.shares_memory(pending.events, batch.events))
            return real_tick(state, pending, watermark)

        monkeypatch.setattr(pipeline, "preprocess_tick", spy)
        run_pipeline(ReplaySource(batch), PipelineConfig(watermark_lag=3_000),
                     mode="serial")
        assert len(views) > 10 and all(views)

    def test_one_gate_hold_per_tick(self):
        rng = np.random.default_rng(43)
        batch = _stream(rng, self.GEO, np.sort(np.concatenate(
            [rng.integers(0, 30_000, 500), rng.integers(80_000, 99_000, 500)])))
        for lag in (0, 2_000):
            state = SharedSurfaceState(self.GEO, 64)
            state.gate = _CountingGate()
            writer = _WriterLoop(ReplaySource(batch), state,
                                 PipelineConfig(watermark_lag=lag))
            holds = []
            while not writer.exhausted:
                before = state.gate.holds
                writer.one_tick()
                holds.append(state.gate.holds - before)
            # with no lag the gap's ticks have nothing pending; with one,
            # the held-back events stay pending through the gap
            assert set(holds) == ({0, 1} if lag == 0 else {1})

    def test_tick_memory_independent_of_stream_length(self):
        # 2M events one microsecond apart, so a 10 ms tick passes 10k of
        # them; the stream's stamp column alone is 16 MB. Searching the
        # packed stamp field copies all of it on every tick
        geo = SensorGeometry(64, 64)
        n = 2_000_000
        rng = np.random.default_rng(47)
        batch = batch_from_columns(
            np.arange(n, dtype=np.uint64),
            rng.integers(0, 64, n, dtype=np.uint16),
            rng.integers(0, 64, n, dtype=np.uint16),
            rng.integers(0, 2, n, dtype=np.int8) * 2 - 1, geo)
        writer = _WriterLoop(ReplaySource(batch), SharedSurfaceState(geo, 1024),
                             PipelineConfig(tick=10_000))
        writer.one_tick()
        tracemalloc.start()
        try:
            applied = writer.one_tick()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column = 8 * n
        assert applied == 10_000
        assert peak < column // 16, peak


class TestFreezeSnapshot:
    def test_snapshot_detached_from_live_state(self):
        geo = SensorGeometry(8, 8)
        state = SharedSurfaceState(geo, 16)
        preprocess_tick(state, _batch(geo, [5], [1], [1], [1]), 10)
        snap = freeze_snapshot(state)
        preprocess_tick(state, _batch(geo, [20], [2], [2], [-1]), 30)
        assert snap.version == 1
        assert snap.grid.latest_time == 5
        assert state.grid.latest_time == 20
        assert len(snap.ring) == 1 and snap.ring.timestamp_back(0) == 5


class TestFrontendStep:
    def test_empty_snapshot_rejected(self):
        geo = SensorGeometry(32, 32)
        state = SharedSurfaceState(geo, 16)
        snap = freeze_snapshot(state)
        config = PipelineConfig()
        with pytest.raises(ValueError):
            frontend_step(snap, None, config)

    def test_first_result_has_no_matches(self):
        source = _grid_source(duration=0.3)
        state = SharedSurfaceState(source.batch.geometry,
                                   PipelineConfig().window_spec
                                   .ring_capacity(source.batch.geometry))
        preprocess_tick(state, source.batch, int(source.batch.events["t"][-1]))
        snap = freeze_snapshot(state)
        result = frontend_step(snap, None, PipelineConfig())
        assert result.matches_to_previous == []
        assert result.tau == snap.grid.latest_time
        assert result.timings.total >= 0

    def test_matches_reference_current_then_previous(self):
        source = _grid_source(duration=0.5)
        config = PipelineConfig(channel_pair=3)
        results, _ = run_pipeline(source, config, mode="serial")
        assert len(results) >= 2
        cur = results[-1]
        prev = results[-2]
        for m in cur.matches_to_previous:
            assert 0 <= m.index_a < len(cur.keypoints.xy)
            assert 0 <= m.index_b < len(prev.keypoints.xy)


    def test_classical_equals_full_tensor_path(self, monkeypatch):
        # seeded streams; the ring is still filling in the early frames
        rng = np.random.default_rng(41)
        specs = (WindowSpec.default_constant_count(),
                 WindowSpec("fixed-duration",
                            durations=(2_000, 10_000, 40_000, 150_000)))
        for spec in specs:
            for pair in range(spec.K):
                vel = tuple(rng.uniform(30.0, 60.0, 2)
                            * rng.choice([-1.0, 1.0], 2))
                source = _grid_source(duration=0.4, size=64, vel=vel,
                                      pitch=24, side=8)
                config = PipelineConfig(tick=2_000, window_spec=spec,
                                        channel_pair=pair,
                                        nms_radius=int(rng.integers(1, 5)))
                got, _ = run_pipeline(source, config, mode="serial")
                with monkeypatch.context() as m:
                    m.setattr(pipeline, "frontend_step",
                              frontend_step_reference)
                    want, _ = run_pipeline(source, config, mode="serial")
                assert len(got) == len(want) > 10
                assert sum(len(r.matches_to_previous) for r in got) > 0
                for a, b in zip(got, want):
                    assert (a.tau, a.version) == (b.tau, b.version)
                    assert np.array_equal(a.keypoints.xy, b.keypoints.xy)
                    assert np.array_equal(a.keypoints.scores,
                                          b.keypoints.scores)
                    assert np.array_equal(a.descriptors.vectors,
                                          b.descriptors.vectors)
                    assert a.matches_to_previous == b.matches_to_previous


def test_layer_functions_stay_names_of_the_pipeline():
    """Span tracers rebind these names in the pipeline module, and a
    missing name fails every traced run.

    The frames call each layer by its name here, so a rebound name times
    real work. Only ``mcts`` goes uncalled on classical frames, which
    build just the merged plane (``merged_surface``), so its span is
    empty on classical runs.
    """
    for name in ("preprocess_tick", "freeze_snapshot", "frontend_step",
                 "apply_events", "mcts", "classical_detect", "forward", "nms",
                 "interpolate_descriptors", "quantize", "match_mutual_nn"):
        assert callable(getattr(pipeline, name)), name


def test_classical_frames_call_classical_detect_by_its_pipeline_name(
        monkeypatch):
    # what a tracer's rebinding of pipeline.classical_detect relies on:
    # one call per emitted frame, on the channel pair's merged plane
    real_detect = pipeline.classical_detect
    calls = []

    def recording_detect(merged, *args):
        calls.append((merged.shape, args))
        return real_detect(merged, *args)

    monkeypatch.setattr(pipeline, "classical_detect", recording_detect)
    config = PipelineConfig(channel_pair=2)
    results, _ = run_pipeline(_grid_source(duration=0.3), config,
                              mode="serial")
    assert len(results) > 2
    assert calls == [((64, 64), (config.nms_radius, config.nms_threshold,
                                 config.nms_max_k))] * len(results)


class TestSerialRun:
    def test_taus_strictly_increase(self):
        results, _ = run_pipeline(_grid_source(), PipelineConfig(),
                                  mode="serial")
        taus = [r.tau for r in results]
        assert all(b > a for a, b in zip(taus, taus[1:]))

    def test_all_events_applied(self):
        source = _grid_source()
        results, metrics = run_pipeline(source, PipelineConfig(),
                                        mode="serial")
        assert metrics.events_applied == len(source.batch)
        assert metrics.results_emitted == len(results)

    def test_deterministic_across_runs(self):
        config = PipelineConfig(channel_pair=2)
        r1, _ = run_pipeline(_grid_source(), config, mode="serial")
        r2, _ = run_pipeline(_grid_source(), config, mode="serial")
        assert len(r1) == len(r2)
        for a, b in zip(r1, r2):
            assert a.tau == b.tau
            assert np.array_equal(a.keypoints.xy, b.keypoints.xy)
            assert np.array_equal(a.descriptors.vectors,
                                  b.descriptors.vectors)

    def test_schedule_limits_snapshots(self):
        source = _grid_source()
        all_results, _ = run_pipeline(source, PipelineConfig(),
                                      mode="serial")
        wanted = [all_results[2].version, all_results[5].version]
        some, _ = run_pipeline(source, PipelineConfig(), mode="serial",
                               snapshot_schedule=wanted)
        assert [r.version for r in some] == wanted
        for got in some:
            ref = next(r for r in all_results if r.version == got.version)
            assert got.tau == ref.tau
            assert np.array_equal(got.keypoints.xy, ref.keypoints.xy)

    @pytest.mark.parametrize("detector", ["classical", "learned"])
    def test_live_state_steps_as_frozen_copies(self, detector):
        # the serial loop steps on the live grid and ring; the loop over
        # freeze_snapshot copies gives the same bytes, frame by frame
        source = _grid_source(duration=0.5)
        weights = random_weights(NetworkSpec(), 5)
        config = PipelineConfig(detector=detector, channel_pair=2,
                                weights=weights if detector == "learned"
                                else None)
        live, _ = run_pipeline(source, config, mode="serial")
        frozen = serial_run_reference(source, config)
        assert len(live) == len(frozen) > 10
        for a, b in zip(live, frozen):
            assert (a.tau, a.version) == (b.tau, b.version)
            _assert_same_frame(a, b)
        assert sum(len(r.matches_to_previous) for r in live) > 0

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="sets glibc's malloc thresholds")
    def test_repeat_run_reuses_freed_memory(self):
        """Per-frame arrays come from freed heap memory, not fresh pages,
        whatever the process freed before; unmapped and trimmed, the
        128x128 frames below fault in 200 to 450 pages each."""
        source = _grid_source(duration=0.5, size=128, vel=(-56.0, -42.0),
                              pitch=48, side=16)
        config = PipelineConfig(tick=10_000, channel_pair=3)
        run_pipeline(source, config, mode="serial")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        results, _ = run_pipeline(source, config, mode="serial")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert len(results) > 20
        assert faults < 16 * len(results)

    def test_watermark_lag_holds_back_recent_events(self):
        geo = SensorGeometry(16, 16)
        t = np.arange(0, 100_000, 500, dtype=np.uint64)
        rng = np.random.default_rng(11)
        batch = batch_from_columns(
            t, rng.integers(0, 16, len(t)).astype(np.uint16),
            rng.integers(0, 16, len(t)).astype(np.uint16),
            rng.choice(np.array([-1, 1], np.int8), len(t)), geo)
        lagged = PipelineConfig(tick=10_000, watermark_lag=5_000)
        results, metrics = run_pipeline(ReplaySource(batch), lagged,
                                        mode="serial")
        # the final drain ignores the lag so every event still lands
        assert metrics.events_applied == len(batch)
        # mid-stream results must trail the ingested frontier by the lag
        mid = [r for r in results if r.tau < int(t[-1]) - 10_000]
        assert mid, "expected mid-stream results"


class TestThreadedRun:
    @pytest.mark.parametrize("detector", ["classical", "learned"])
    def test_results_subset_of_serial_versions(self, monkeypatch, detector):
        if detector == "classical":
            source = _grid_source(duration=0.5)
            config = PipelineConfig(channel_pair=2)
        else:
            # the acceptance corner grid, paced, the encoder in two bands
            # while the writer ticks beside it
            force_bands(monkeypatch, 2)
            source = ReplaySource(_grid_source(
                duration=0.3, size=128, vel=(-56.0, -42.0), pitch=48,
                side=16).batch, paced=True)
            config = PipelineConfig(detector="learned", channel_pair=3,
                                    weights=random_weights(NetworkSpec(), 5))
        threaded, metrics = run_pipeline(source, config, mode="threaded")
        assert metrics.error is None
        assert len(threaded) >= 1
        assert metrics.events_applied == len(source.batch)
        # a serial replay of the observed snapshot versions reproduces
        # every threaded result exactly
        schedule = [r.version for r in threaded]
        replay, _ = run_pipeline(source, config, mode="serial",
                                 snapshot_schedule=schedule)
        assert len(replay) == len(threaded)
        for a, b in zip(threaded, replay):
            assert (a.version, a.tau) == (b.version, b.tau)
            _assert_same_frame(a, b)

    def test_slow_frontend_skips_but_stays_fresh(self, monkeypatch):
        _slow_detector(monkeypatch)
        source = _grid_source(duration=0.5)
        config = PipelineConfig(channel_pair=2)
        results, metrics = run_pipeline(source, config, mode="threaded")
        assert metrics.error is None
        taus = [r.tau for r in results]
        assert all(b > a for a, b in zip(taus, taus[1:]))

    def test_frontend_failure_stops_writer(self, monkeypatch):
        # a paced one-second stream keeps the writer ticking long after
        # the frontend's second step fails
        source = ReplaySource(_grid_source(duration=1.0).batch, paced=True)
        real_step = pipeline.frontend_step
        calls = []

        def failing_step(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("detector failed")
            return real_step(*args)

        monkeypatch.setattr(pipeline, "frontend_step", failing_step)
        with pytest.raises(RuntimeError, match="detector failed"):
            run_pipeline(source, PipelineConfig(), mode="threaded")
        assert len(calls) == 2
        assert not [t for t in threading.enumerate()
                    if t.name == "preprocess-writer" and t.is_alive()]

    def test_staleness_metrics_populated(self):
        source = _grid_source(duration=0.5)
        results, metrics = run_pipeline(source, PipelineConfig(),
                                        mode="threaded")
        if len(results) > 1:
            assert metrics.max_staleness_us >= 0
        assert metrics.snapshot_copy_max_us >= 0


    def test_staleness_taken_at_emission(self, monkeypatch):
        # no watermark lag, so every snapshot holds all it ingested; a
        # slow frontend still emits results the writer has moved past
        _slow_detector(monkeypatch)
        source = ReplaySource(_grid_source(duration=0.3).batch, paced=True)
        config = PipelineConfig()
        assert config.watermark_lag == 0
        results, metrics = run_pipeline(source, config, mode="threaded")
        assert metrics.error is None
        assert len(results) > 1
        assert metrics.max_staleness_us > 0
        assert metrics.mean_staleness_us > 0


class TestConfigValidation:
    def test_channel_pair_names_a_window(self):
        for pair in (-1, 4):
            with pytest.raises(ValueError, match="channel pair"):
                PipelineConfig(channel_pair=pair)
        one = WindowSpec("fixed-duration", durations=(5_000,))
        assert PipelineConfig(window_spec=one, channel_pair=0)
        with pytest.raises(ValueError, match="channel pair"):
            PipelineConfig(window_spec=one, channel_pair=-1)

    def test_nms_radius_at_least_one(self):
        assert PipelineConfig(nms_radius=1)
        for radius in (0, -2):
            with pytest.raises(ValueError, match="radius"):
                PipelineConfig(nms_radius=radius)

    def test_learned_needs_weights(self):
        with pytest.raises(ValueError):
            PipelineConfig(detector="learned")

    def test_learned_channel_pairs_feed_the_weights(self):
        weights = random_weights(NetworkSpec(), 5)  # 8 input channels
        assert PipelineConfig(detector="learned", weights=weights)
        two = WindowSpec("constant-count", normalized_counts=(0.1, 0.3))
        with pytest.raises(ValueError, match="^2 channel pairs feed 4 "
                           "channels, weights expect 8$"):
            PipelineConfig(detector="learned", weights=weights,
                           window_spec=two)
        # the classical detector reads one pair of any count
        assert PipelineConfig(window_spec=two)

    def test_unknown_detector(self):
        with pytest.raises(ValueError):
            PipelineConfig(detector="magic")

    def test_nonpositive_tick(self):
        with pytest.raises(ValueError):
            PipelineConfig(tick=0)

    def test_tick_within_stamp_range(self):
        assert PipelineConfig(tick=2**62)
        for tick in (2**62 + 1, 10**20):
            with pytest.raises(ValueError, match="tick"):
                PipelineConfig(tick=tick)

    def test_nms_max_k_not_negative(self):
        assert PipelineConfig(nms_max_k=0)
        with pytest.raises(ValueError, match="max_k"):
            PipelineConfig(nms_max_k=-1)

    def test_metrics_interval_at_least_one(self):
        assert PipelineConfig(metrics_interval=1)
        for interval in (0, -5):
            with pytest.raises(ValueError, match="metrics interval"):
                PipelineConfig(metrics_interval=interval)

    @pytest.mark.parametrize("field", ["nms_threshold", "match_max_distance"])
    def test_nan_thresholds_rejected(self, field):
        with pytest.raises(ValueError, match="NaN"):
            PipelineConfig(**{field: float("nan")})

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_pipeline(_grid_source(0.1), PipelineConfig(), mode="warp")


class TestExports:
    def test_result_json_shape(self):
        results, _ = run_pipeline(_grid_source(duration=0.4),
                                  PipelineConfig(), mode="serial")
        text = result_to_json(results[-1])
        row = json.loads(text)
        assert set(row) == {"tau", "version", "keypoints", "matches",
                            "timings", "descriptor_scale", "descriptors"}
        assert all(set(k) == {"x", "y", "score"} for k in row["keypoints"])
        # the fixed int8 scale, written as the float it always was
        assert '"descriptor_scale":127.0,' in text
        slim = json.loads(result_to_json(results[-1],
                                         include_descriptors=False))
        assert "descriptors" not in slim

    def test_result_json_timings_in_stage_order(self):
        results, _ = run_pipeline(_grid_source(duration=0.2),
                                  PipelineConfig(), mode="serial")
        row = json.loads(result_to_json(results[-1]))
        assert tuple(row["timings"]) == pipeline.STAGE_NAMES
        assert row["timings"]["total"] == results[-1].timings.total

    def test_metrics_csv_rows(self):
        source = _grid_source(duration=0.6)
        config = PipelineConfig(metrics_interval=200_000)
        _, metrics = run_pipeline(source, config, mode="serial")
        lines = metrics_to_csv(metrics).decode().splitlines()
        assert lines[0] == ("interval_start_us,mcts_preparation,"
                            "keypoint_detection,matching,total")
        assert len(lines) >= 3
        starts = [int(r.split(",")[0]) for r in lines[1:]]
        assert starts == sorted(starts)


class TestMetricValues:
    def test_means_maxima_and_interval_rows(self):
        # 300 us intervals from the first tau: [1000, 1300) holds two
        # frames, [1300, 1600) none, [1600, 1900) two; the empty interval
        # makes no row
        frames = [(1_000, (10, 20, 4, 34)), (1_299, (30, 41, 6, 77)),
                  (1_600, (5, 9, 1, 15)), (1_899, (7, 100, 2, 109))]
        results = [FrameResult(tau, v, None, None, [], StageTimings(*t))
                   for v, (tau, t) in enumerate(frames, 1)]
        state = SharedSurfaceState(SensorGeometry(4, 4), 4)
        state.version, state.writer_stall_us = 9, 123
        state.grid.applied_count = 500
        m = pipeline._collect_metrics(
            results, [0, 50, 10, 20], [3, 5, 1, 7, 4], state, 0, 2_000_000,
            PipelineConfig(metrics_interval=300))
        want = {
            "results_emitted": 4, "versions_applied": 9,
            "events_applied": 500,
            "mean_stage_us": {"mcts_preparation": 13.0,
                              "keypoint_detection": 42.5,
                              "matching": 3.25, "total": 58.75},
            "max_stage_us": {"mcts_preparation": 30,
                             "keypoint_detection": 100, "matching": 6,
                             "total": 109},
            "iteration_rate_hz": 2.0,
            "mean_staleness_us": 20.0, "max_staleness_us": 50,
            "writer_stall_us": 123,
            "snapshot_copy_mean_us": 4.0, "snapshot_copy_max_us": 7,
            "intervals": [
                {"interval_start_us": 1_000, "mcts_preparation": 20.0,
                 "keypoint_detection": 30.5, "matching": 5.0, "total": 55.5},
                {"interval_start_us": 1_600, "mcts_preparation": 6.0,
                 "keypoint_detection": 54.5, "matching": 1.5, "total": 62.0},
            ],
            "error": None,
        }
        # the JSON pins key order and int against float as well
        assert json.dumps(asdict(m)) == json.dumps(want)

    def test_no_frames_leaves_the_defaults(self):
        state = SharedSurfaceState(SensorGeometry(4, 4), 4)
        m = pipeline._collect_metrics([], [], [], state, 0, 0,
                                      PipelineConfig())
        assert asdict(m) == asdict(pipeline.Metrics())


class TestSnapshotConsistencyUnderRaces:
    def test_concurrent_snapshots_match_prefix_replay(self):
        # hammer one shared state with a writer thread while snapshotting;
        # every snapshot must equal a clean replay of the same versions
        geo = SensorGeometry(32, 32)
        rng = np.random.default_rng(5)
        n = 20_000
        t = np.sort(rng.integers(0, 500_000, n).astype(np.uint64))
        batch = batch_from_columns(
            t, rng.integers(0, 32, n).astype(np.uint16),
            rng.integers(0, 32, n).astype(np.uint16),
            rng.choice(np.array([-1, 1], np.int8), n), geo)
        chunks = [batch.slice(i, i + 400) for i in range(0, n, 400)]

        state = SharedSurfaceState(geo, 64)
        snaps = []
        done = threading.Event()

        def writer():
            for c in chunks:
                preprocess_tick(state, c, int(c.events["t"][-1]))
            done.set()

        th = threading.Thread(target=writer)
        th.start()
        while not done.is_set():
            snaps.append(freeze_snapshot(state))
        th.join()

        for snap in snaps:
            if snap.version == 0:
                continue
            ref_state = SharedSurfaceState(geo, 64)
            for c in chunks[:snap.version]:
                preprocess_tick(ref_state, c, int(c.events["t"][-1]))
            assert np.array_equal(snap.grid.last_t, ref_state.grid.last_t)
            assert np.array_equal(snap.grid.valid, ref_state.grid.valid)
            assert snap.grid.applied_count == ref_state.grid.applied_count
            assert snap.ring.state_bytes() == ref_state.ring.state_bytes()

    def test_snapshot_never_ahead_of_newest_ingested(self):
        # a tick applies its events and moves newest_ingested in one hold
        # of the gate, so no reader holding the gate sees an applied event
        # newer than it
        geo = SensorGeometry(16, 16)
        rng = np.random.default_rng(7)
        batch = _stream(rng, geo, np.sort(rng.integers(0, 2_000_000, 40_000)))
        state = SharedSurfaceState(geo, 64)
        writer = _WriterLoop(ReplaySource(batch), state,
                             PipelineConfig(tick=1_000))

        def drain():
            while not writer.exhausted:
                writer.one_tick()

        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=drain)
            thread.start()
            while thread.is_alive():
                with state.gate:
                    seen.append((state.version, state.grid.latest_time,
                                 state.newest_ingested))
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert state.grid.applied_count == len(batch)
        held = [(latest, newest) for version, latest, newest in seen
                if version]
        assert len(held) > 10
        assert all(newest >= latest for latest, newest in held)
