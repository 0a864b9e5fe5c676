"""Shared state, writer ticks, snapshots, and the run loops."""

import json
import platform
import resource
import sys
import threading
import time
from dataclasses import asdict

import numpy as np
import pytest

from evfront import events, pipeline
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
    drain,
    result_to_json,
    run_frames,
    run_pipeline,
)
from evfront.surface import WindowSpec, mcts, stream_ring_capacity

from conftest import traced_peak
from test_detect import force_bands


def _batch(geo, t, x, y, p):
    return batch_from_columns(
        np.asarray(t, np.uint64), np.asarray(x, np.uint16),
        np.asarray(y, np.uint16), np.asarray(p, np.uint8), geo)


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


def _threaded_run(source, config, timeout=30):
    """``run_pipeline`` in threaded mode on a daemon thread, joined with a
    timeout: a lost wake-up that hangs the run fails the test instead of
    the whole suite. The run's exception is re-raised here."""
    outcome = []

    def run():
        try:
            outcome.append(run_pipeline(source, config, mode="threaded"))
        except Exception as exc:  # raised again on the test's thread
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "threaded run did not finish"
    (result,) = outcome
    if isinstance(result, Exception):
        raise result
    return result


def _assert_replays_serially(batch, config, threaded):
    """A serial run over the versions a threaded run snapshotted
    reproduces each of its frames, byte for byte."""
    replay, _ = run_pipeline(ReplaySource(batch), config, mode="serial",
                             snapshot_schedule=[r.version for r in threaded])
    assert len(replay) == len(threaded)
    for a, b in zip(threaded, replay):
        assert (a.version, a.tau) == (b.version, b.tau)
        _assert_same_frame(a, b)


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
# it searched the whole stream's stamps, copied and validated the
# arrivals, and wrote the grid by fancy assignment (last write wins).


def _apply_events_reference(grid, ring, batch):
    ev = batch.events
    t = ev["t"]
    ch = ev["p"].astype(np.intp)
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


def _count_through_gallop(t, value, lo=0):
    # the writer's cut before the C bisection, kept as an oracle: gallop
    # from lo with the step doubling, then binary-search a contiguous copy
    # of the one window left
    if value < 0:
        return lo
    needle = np.uint64(value)
    n = len(t)
    if n == lo or t[n - 1] <= needle:
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


class WriterLoopReference:
    def __init__(self, source, state, config):
        self.source = source
        self.state = state
        self.config = config
        ev = source.batch.events
        self.t_stream = ev["t"]
        self.cursor = 0
        self.virtual_now = int(ev["t"][0]) if len(ev) else 0
        self.exhausted = len(ev) == 0

    def one_tick(self):
        batch = self.source.batch
        self.virtual_now += self.config.tick
        new_cursor = int(np.searchsorted(self.t_stream, self.virtual_now,
                                         side="right"))
        arrivals = EventBatch(batch.events[self.cursor:new_cursor],
                              batch.geometry)
        self.cursor = new_cursor
        self.exhausted = self.cursor >= len(batch)
        if len(arrivals) == 0:
            return 0
        applied, _ = _preprocess_tick_reference(
            self.state, arrivals, int(arrivals.events["t"][-1]))
        return applied


def serial_run_reference(source, config):
    # the serial loop over snapshot copies: tick until the version moves,
    # copy the state, step unless tau cannot advance
    state = SharedSurfaceState(
        source.batch.geometry,
        stream_ring_capacity(config.window_spec, source.batch))
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
    """Tick the fixed-clock oracle over ``batch``, and the writer beside
    each oracle tick that applied events: the writer must run exactly
    those ticks, at the same clocks, and no idle one; after each the
    events it has applied, all but its pending remainder, must be the
    oracle's and the gallop's cut, and the two states equal byte for
    byte. Returns the oracle's number of ticks and of ticks that applied
    nothing."""
    got = SharedSurfaceState(batch.geometry, capacity)
    want = SharedSurfaceState(batch.geometry, capacity)
    writer = _WriterLoop(ReplaySource(batch), got, config)
    oracle = WriterLoopReference(ReplaySource(batch), want, config)
    ticks = idle = 0
    while not oracle.exhausted:
        applied = oracle.one_tick()
        ticks += 1
        if applied == 0:
            idle += 1
            continue
        assert not writer.exhausted
        assert writer.clock == oracle.virtual_now
        start = len(batch) - len(writer.pending)
        assert writer.one_tick() == applied
        cut = len(batch) - len(writer.pending)
        assert cut == oracle.cursor == _count_through_gallop(
            batch.events["t"], oracle.virtual_now, start)
        assert got.version == want.version
        assert got.grid.last_t.tobytes() == want.grid.last_t.tobytes()
        assert got.grid.valid.tobytes() == want.grid.valid.tobytes()
        assert (got.grid.latest_time, got.grid.first_time,
                got.grid.applied_count) == \
            (want.grid.latest_time, want.grid.first_time,
             want.grid.applied_count)
        assert got.ring.state_bytes() == want.ring.state_bytes()
    assert writer.exhausted
    assert got.version == ticks - idle
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

    @pytest.mark.parametrize("watermark", [-1, 0, 99])
    def test_nothing_ready_applies_nothing_and_skips_the_gate(
            self, watermark):
        geo = SensorGeometry(8, 8)
        state = SharedSurfaceState(geo, 16)
        preprocess_tick(state, _batch(geo, [50], [2], [2], [1]), 60)
        state.gate = _CountingGate()
        grid = state.grid.copy()
        pending = _batch(geo, [100, 120], [0, 1], [0, 0], [1, 1])
        for batch in (pending, _empty_batch(geo)):
            applied, retained = preprocess_tick(state, batch, watermark)
            assert applied == 0 and retained is batch
        assert (state.version, state.gate.holds) == (1, 0)
        assert state.grid.last_t.tobytes() == grid.last_t.tobytes()
        assert (state.grid.latest_time, state.grid.applied_count) == (50, 1)
        assert len(state.ring) == 1

    def test_applied_version_wakes_gate_waiters(self):
        # the frontend waits on the gate itself: the hold that applies a
        # version must wake it
        geo = SensorGeometry(8, 8)
        state = SharedSurfaceState(geo, 16)
        waiting = threading.Event()

        def waiter():
            with state.gate:
                waiting.set()  # the tick below cannot hold the gate yet
                state.gate.wait_for(lambda: state.version == 1)

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        assert waiting.wait(10)
        preprocess_tick(state, _batch(geo, [5], [1], [1], [1]), 10)
        thread.join(10)
        woken = not thread.is_alive()
        with state.gate:  # free a waiter the tick did not wake
            state.gate.notify_all()
        assert woken


class _CountingGate:
    """A real gate that counts its holds and records, for each notify,
    the hold it came in; a notify outside a hold raises."""

    def __init__(self):
        self._gate = threading.Condition(threading.Lock())
        self.holds = 0
        self.notified_in = []

    def __enter__(self):
        self._gate.__enter__()
        self.holds += 1

    def __exit__(self, *exc):
        return self._gate.__exit__(*exc)

    def notify_all(self):
        self._gate.notify_all()
        self.notified_in.append(self.holds)


def _stream(rng, geo, t):
    n = len(t)
    return batch_from_columns(
        np.asarray(t, np.uint64),
        rng.integers(0, geo.width, n).astype(np.uint16),
        rng.integers(0, geo.height, n).astype(np.uint16),
        rng.choice(np.array([0, 1], np.uint8), n), geo)


class TestCountThrough:
    @pytest.mark.parametrize("packed", [True, False])
    @pytest.mark.parametrize("n", [0, 1, 90])
    def test_matches_the_gallop(self, packed, n):
        # sorted stamps with runs of equal ones, as the packed field of
        # the event record (strided) and as a contiguous uint64 array;
        # every suffix, as the writer's remainder is one, against values
        # at and around every stamp
        rng = np.random.default_rng(27 + n)
        steps = rng.choice(np.array([0, 0, 0, 1, 2, 1_000]), size=n)
        t = (10 + np.cumsum(steps)).astype(np.uint64)
        if packed:
            records = np.zeros(n, EVENT_DTYPE)
            records["t"] = t
            t = records["t"]
        assert t.flags.c_contiguous != packed or n <= 1
        stamps = sorted({int(v) for v in t})
        values = {-1, -2**62, 0, 9, 2**62 - 1,  # 9: below the first stamp
                  *stamps, *(v - 1 for v in stamps), *(v + 1 for v in stamps)}
        for lo in range(n + 1):
            for value in values:
                assert pipeline._count_through(t[lo:], value) == \
                    _count_through_gallop(t, value, lo) - lo, (lo, value)


class TestWriterLoop:
    # a small sensor, so pixels repeat within one tick
    GEO = SensorGeometry(12, 9)

    def test_matches_reference(self):
        rng = np.random.default_rng(23)
        batch = _stream(rng, self.GEO,
                        np.sort(rng.integers(1_000, 400_000, 6_000)))
        for capacity in (1, 37, 4_096, 10_000):
            _assert_writers_agree(batch, PipelineConfig(tick=10_000),
                                  capacity)

    def test_matches_reference_across_gaps(self):
        # bursts 35 to 120 ms apart: most 10 ms ticks see no arrivals
        rng = np.random.default_rng(27)
        starts = np.cumsum(rng.integers(35_000, 120_000, 12))
        t = np.sort(np.concatenate(
            [s + rng.integers(0, 3_000, 200) for s in starts]))
        batch = _stream(rng, self.GEO, t)
        config = PipelineConfig(tick=10_000)
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
            _assert_writers_agree(batch, PipelineConfig(tick=tick), 128)

    def test_one_event_and_empty_streams(self):
        rng = np.random.default_rng(31)
        one = _stream(rng, self.GEO, [7_777])
        assert _assert_writers_agree(one, PipelineConfig(), 4) == (1, 0)
        empty = _empty_batch(self.GEO)
        assert _assert_writers_agree(empty, PipelineConfig(), 4) == (0, 0)

    def test_every_version_advances_latest_time(self):
        # the frame loop relies on it to keep tau strictly increasing:
        # bursts of one stamp, gaps, ticks shorter and longer than a
        # burst's spread
        rng = np.random.default_rng(41)
        bumps = 0
        for _ in range(3):
            starts = np.cumsum(rng.integers(0, 200, 40))
            t = np.sort(np.repeat(starts + rng.integers(0, 3, 40),
                                  rng.integers(1, 30, 40)))
            batch = _stream(rng, self.GEO, t)
            for tick in (1, 7, 60, 300):
                state = SharedSurfaceState(self.GEO, 64)
                writer = _WriterLoop(ReplaySource(batch), state,
                                     PipelineConfig(tick=tick))
                latest = -1
                while not writer.exhausted:
                    version = state.version
                    writer.one_tick()
                    if state.version != version:
                        assert state.version == version + 1
                        assert state.grid.latest_time > latest
                        latest = state.grid.latest_time
                        bumps += 1
                assert state.grid.applied_count == len(batch)
        assert bumps > 300

    def test_pending_is_a_view_of_the_source(self, monkeypatch):
        rng = np.random.default_rng(41)
        batch = _stream(rng, self.GEO, np.sort(rng.integers(0, 200_000, 3_000)))
        views = []
        real_tick = pipeline.preprocess_tick

        def spy(state, pending, watermark):
            views.append(np.shares_memory(pending.events, batch.events))
            return real_tick(state, pending, watermark)

        monkeypatch.setattr(pipeline, "preprocess_tick", spy)
        run_pipeline(ReplaySource(batch), PipelineConfig(), mode="serial")
        assert len(views) > 10 and all(views)

    def test_one_gate_hold_per_tick(self):
        rng = np.random.default_rng(43)
        batch = _stream(rng, self.GEO, np.sort(np.concatenate(
            [rng.integers(0, 30_000, 500), rng.integers(80_000, 99_000, 500)])))
        state = SharedSurfaceState(self.GEO, 64)
        state.gate = _CountingGate()
        writer = _WriterLoop(ReplaySource(batch), state, PipelineConfig())
        holds = []
        while not writer.exhausted:
            before = state.gate.holds
            writer.one_tick()
            holds.append(state.gate.holds - before)
        # the gap runs no tick; each tick applies, and notifies once,
        # inside its one hold
        assert set(holds) == {1}
        assert state.gate.notified_in == list(range(1, sum(holds) + 1))
        assert state.version == sum(holds)

    def test_one_cut_and_two_views_per_tick(self, monkeypatch):
        # the writer hands its remainder to preprocess_tick, which cuts it
        # once into the applied run and the new remainder
        rng = np.random.default_rng(59)
        batch = _stream(rng, self.GEO, np.sort(rng.integers(0, 90_000, 900)))
        writer = _WriterLoop(ReplaySource(batch),
                             SharedSurfaceState(self.GEO, 64),
                             PipelineConfig())
        calls = {"cut": 0, "view": 0}

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)
            return call

        monkeypatch.setattr(pipeline, "_count_through",
                            counted("cut", pipeline._count_through))
        monkeypatch.setattr(events, "_trusted_batch",
                            counted("view", events._trusted_batch))
        ticks = 0
        while not writer.exhausted:
            writer.one_tick()
            ticks += 1
        assert ticks == 9
        assert calls == {"cut": ticks, "view": 2 * ticks}

    def test_quiet_stream_time_runs_no_ticks(self, monkeypatch):
        # two events 100 ms apart at a 1 us tick: the two ticks that hold
        # them run, not one per microsecond of the gap between
        ticks = []
        real_tick = _WriterLoop.one_tick

        def counting_tick(writer):
            ticks.append(len(writer.pending))
            return real_tick(writer)

        monkeypatch.setattr(_WriterLoop, "one_tick", counting_tick)
        batch = _stream(np.random.default_rng(53), self.GEO,
                        [1_000, 101_000])
        results, metrics = run_pipeline(ReplaySource(batch),
                                        PipelineConfig(tick=1), mode="serial")
        assert ticks == [2, 1]
        assert [(r.version, r.tau) for r in results] == \
            [(1, 1_000), (2, 101_000)]
        assert metrics.versions_applied == 2

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
            rng.integers(0, 2, n, dtype=np.uint8), geo)
        writer = _WriterLoop(ReplaySource(batch), SharedSurfaceState(geo, 1024),
                             PipelineConfig(tick=10_000))
        writer.one_tick()
        applied = []
        peak = traced_peak(lambda: applied.append(writer.one_tick()))
        column = 8 * n
        assert applied == [10_000]
        assert peak < column // 16, peak


class TestFreezeSnapshot:
    def test_snapshot_detached_from_live_state(self):
        geo = SensorGeometry(8, 8)
        state = SharedSurfaceState(geo, 16)
        preprocess_tick(state, _batch(geo, [5], [1], [1], [1]), 10)
        snap = freeze_snapshot(state)
        preprocess_tick(state, _batch(geo, [20], [2], [2], [0]), 30)
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
        state = SharedSurfaceState(source.batch.geometry, stream_ring_capacity(
            PipelineConfig().window_spec, source.batch))
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

    def test_schedule_ending_early_drains_the_writer(self):
        source = _grid_source(duration=0.3)
        _, every = run_pipeline(source, PipelineConfig(), mode="serial")
        some, metrics = run_pipeline(source, PipelineConfig(), mode="serial",
                                     snapshot_schedule=[1, 2])
        assert [r.version for r in some] == [1, 2]
        assert metrics.events_applied == len(source.batch)
        assert metrics.versions_applied == every.versions_applied > 2

    @pytest.mark.parametrize("schedule", [[0], [5, 3], [3, 3, 4], [1, 0]])
    def test_schedule_must_ascend_strictly_from_one(self, schedule):
        # a threaded run records only such schedules; any other would
        # snapshot versions it does not name
        with pytest.raises(ValueError, match="ascend strictly from 1"):
            run_pipeline(_grid_source(duration=0.2), PipelineConfig(),
                         mode="serial", snapshot_schedule=schedule)

    def test_schedule_in_threaded_mode_rejected(self):
        # a threaded run snapshots whatever version is newest, so it
        # would ignore the schedule without a word
        with pytest.raises(ValueError,
                           match="^a snapshot schedule needs serial mode$"):
            run_pipeline(_grid_source(duration=0.2), PipelineConfig(),
                         mode="threaded", snapshot_schedule=[1, 2])

    def test_paced_source_rejected(self):
        # the serial loop never reads the wall clock, so it would replay
        # unpaced without a word
        source = ReplaySource(_grid_source(duration=0.2).batch, paced=True)
        with pytest.raises(ValueError,
                           match="^paced replay needs threaded mode$"):
            run_pipeline(source, PipelineConfig(), mode="serial")

    def test_copy_metrics_read_zero(self):
        # the serial loop steps on the live state: nothing is copied, so
        # no copy time is recorded
        results, metrics = run_pipeline(_grid_source(duration=0.3),
                                        PipelineConfig(), mode="serial")
        assert len(results) > 2
        copies = (metrics.snapshot_copy_mean_us, metrics.snapshot_copy_max_us)
        assert json.dumps(copies) == "[0.0, 0]"

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
        128x128 corner frames below fault in 200 to 450 pages each, and
        the 240x180 flood frames about 600."""
        scenes = {"corners": (128, 128, (-56.0, -42.0), 48, 16, 0.5, 20),
                  "flood": (240, 180, (-300.0, -225.0), 12, 5, 0.2, 15)}
        config = PipelineConfig(tick=10_000, channel_pair=3)
        for name, (w, h, vel, pitch, side, duration, least) in scenes.items():
            spec = MotionSpec("grid-of-corners", vel, duration,
                              grid_pitch=pitch, square_side=side)
            source = ReplaySource(synthesize(spec, SensorGeometry(w, h)))
            run_pipeline(source, config, mode="serial")
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            results, _ = run_pipeline(source, config, mode="serial")
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt \
                - before
            assert len(results) > least, name
            assert faults < 16 * len(results), (name, faults)

    @pytest.mark.parametrize("variable", [None, "MALLOC_MMAP_THRESHOLD_",
                                          "MALLOC_TRIM_THRESHOLD_"])
    def test_malloc_thresholds_left_to_the_environment(self, monkeypatch,
                                                       variable):
        # glibc reads either variable at start-up; with one of them set,
        # the run leaves both thresholds as the environment chose them
        calls = []
        monkeypatch.setattr(pipeline, "_c_malloc",
                            lambda name, *args: calls.append((name, *args)))
        for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
            monkeypatch.delenv(name, raising=False)
        if variable is not None:
            monkeypatch.setenv(variable, "131072")
        pipeline._keep_freed_memory.cache_clear()
        try:
            pipeline._keep_freed_memory()
        finally:
            pipeline._keep_freed_memory.cache_clear()
        assert calls == ([] if variable else [("mallopt", -3, 32 << 20),
                                              ("mallopt", -1, 64 << 20)])


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
        threaded, metrics = _threaded_run(source, config)
        assert metrics.error is None
        assert len(threaded) >= 1
        assert metrics.events_applied == len(source.batch)
        # a serial replay of the observed snapshot versions reproduces
        # every threaded result exactly
        _assert_replays_serially(source.batch, config, threaded)

    @pytest.mark.parametrize("paced", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_fast_thread_switching_replays_serially(self, seed, paced):
        # a GIL hand-off every 10 us interleaves the writer's versions and
        # end with the frontend's checks in many orders; unpaced, the
        # writer runs ahead, paced, the frontend waits for each version.
        # A lost wake-up hangs the run, which the join's timeout turns
        # into a failure
        rng = np.random.default_rng(seed)
        geo = SensorGeometry(32, 32)
        source = ReplaySource(_stream(rng, geo, np.sort(
            rng.integers(0, 100_000, 3_000))), paced=paced)
        config = PipelineConfig(tick=2_000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded, metrics = _threaded_run(source, config)
        finally:
            sys.setswitchinterval(interval)
        assert metrics.error is None
        assert metrics.events_applied == len(source.batch)
        assert len(threaded) >= 1
        _assert_replays_serially(source.batch, config, threaded)

    def test_slow_frontend_skips_but_stays_fresh(self, monkeypatch):
        _slow_detector(monkeypatch)
        source = _grid_source(duration=0.5)
        config = PipelineConfig(channel_pair=2)
        results, metrics = _threaded_run(source, config)
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
            _threaded_run(source, PipelineConfig())
        assert len(calls) == 2
        assert not [t for t in threading.enumerate()
                    if t.name == "preprocess-writer" and t.is_alive()]

    def test_failed_frontend_ends_a_long_paced_wait(self, monkeypatch):
        # the paced writer's next tick is a minute of stream time away
        # when the first frame fails; its wait ends with the frontend
        batch = _stream(np.random.default_rng(59), SensorGeometry(8, 8),
                        [0, 10, 60 * 1_000_000])

        def failing_step(*args):
            raise RuntimeError("detector failed")

        monkeypatch.setattr(pipeline, "frontend_step", failing_step)
        began = time.perf_counter()
        with pytest.raises(RuntimeError, match="detector failed"):
            _threaded_run(ReplaySource(batch, paced=True), PipelineConfig(),
                          timeout=20)
        assert time.perf_counter() - began < 5
        assert not [t for t in threading.enumerate()
                    if t.name == "preprocess-writer" and t.is_alive()]

    @pytest.mark.parametrize("how", ["close", "emit raises"])
    def test_consumer_stopping_early_stops_the_writer(self, how):
        # the paced writer's next tick is a minute of stream time away
        # when the consumer stops after the first frame; closing the frame
        # generator, or a failing emit inside drain, stops and joins it
        batch = _stream(np.random.default_rng(61), SensorGeometry(8, 8),
                        [0, 10, 60 * 1_000_000])
        frames = run_frames(ReplaySource(batch, paced=True), PipelineConfig())
        writers, seen = [], []

        def emit(frame):
            seen.append(frame.version)
            writers.extend(t for t in threading.enumerate()
                           if t.name == "preprocess-writer")
            raise RuntimeError("consumer failed")

        began = time.perf_counter()
        if how == "close":
            with pytest.raises(RuntimeError, match="consumer failed"):
                emit(next(frames))
            frames.close()
        else:
            with pytest.raises(RuntimeError, match="consumer failed"):
                drain(frames, emit)
        for thread in writers:
            thread.join(5)
        assert time.perf_counter() - began < 5
        assert seen == [1] and writers
        assert not [t for t in writers if t.is_alive()]

    def test_writer_failure_returns_the_frames_so_far(self, monkeypatch):
        # the writer's third version fails; the frontend stops, and the
        # run returns what it made of versions 1 and 2 with the error
        source = ReplaySource(_grid_source(duration=1.0).batch, paced=True)
        real_apply = pipeline.apply_events
        calls = []

        def failing_apply(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("source lost")
            return real_apply(*args)

        monkeypatch.setattr(pipeline, "apply_events", failing_apply)
        results, metrics = _threaded_run(source, PipelineConfig())
        assert metrics.error == "RuntimeError: source lost"
        assert len(calls) == 3 and metrics.versions_applied == 2
        assert not [t for t in threading.enumerate()
                    if t.name == "preprocess-writer" and t.is_alive()]
        monkeypatch.undo()
        versions = [r.version for r in results]
        assert versions and set(versions) <= {1, 2}
        _assert_replays_serially(source.batch, PipelineConfig(), results)

    def test_staleness_metrics_populated(self):
        source = _grid_source(duration=0.5)
        results, metrics = _threaded_run(source, PipelineConfig())
        if len(results) > 1:
            assert metrics.max_staleness_us >= 0
        assert metrics.snapshot_copy_max_us >= 0


    def test_staleness_taken_at_emission(self, monkeypatch):
        # every snapshot holds all its writer ingested; a slow frontend
        # still emits results the writer has moved past
        _slow_detector(monkeypatch)
        source = ReplaySource(_grid_source(duration=0.3).batch, paced=True)
        config = PipelineConfig()
        results, metrics = _threaded_run(source, config)
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
        state.writer_cpu_ns = 1_500_000_999  # 1.5 s of CPU, and 999 ns
        state.grid.applied_count = 500
        tally = pipeline._Tally(300)
        for result, staleness in zip(results, [0, 50, 10, 20]):
            tally.frame(result, staleness)
        for us in [3, 5, 1, 7, 4]:
            tally.copy(us)
        # 2 s of wall, over which the frontend took 1 s of CPU: 2.5 s of
        # CPU in all, from two threads
        tally.frontend_cpu_ns = 999_999_001
        m = tally.metrics(state, 0, 2_000_000)
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
            "writer_cpu_us": 1_500_000, "frontend_cpu_us": 999_999,
            "cpu_over_wall": 1.25,
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

    @pytest.mark.parametrize("mode", ["serial", "threaded"])
    def test_cpu_time_per_thread(self, mode):
        # the caller's thread runs the frontend, and in serial mode the
        # ticks too: the CPU it spent bounds the share measured on it, and
        # each thread's share is at most the run's wall
        source = _grid_source(duration=0.3)
        cpu_from = time.thread_time_ns()
        _, m = run_pipeline(source, PipelineConfig(), mode=mode)
        caller_us = (time.thread_time_ns() - cpu_from) / 1_000
        assert m.writer_cpu_us > 0 and m.frontend_cpu_us > 0
        on_caller = m.frontend_cpu_us + (m.writer_cpu_us if mode == "serial"
                                         else 0)
        assert on_caller <= caller_us
        assert 0 < m.cpu_over_wall <= (1.01 if mode == "serial" else 2.01)

    def test_no_frames_leaves_the_defaults(self):
        state = SharedSurfaceState(SensorGeometry(4, 4), 4)
        m = pipeline._Tally(PipelineConfig().metrics_interval).metrics(
            state, 0, 0)
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
            rng.choice(np.array([0, 1], np.uint8), n), geo)
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
