"""Timestamp grid, time surfaces, adaptive windows, and dumps.

The brute-force oracle recomputes a surface directly from the event list
so the grid-based implementation can be checked bitwise: both sides form
the age ratio in 64-bit and cast once to 32-bit, which makes equality
exact rather than approximate.
"""

import io
import math

import numpy as np
import pytest

from evfront import surface
from evfront.events import (
    EVENT_DTYPE,
    EventBatch,
    MotionSpec,
    SensorGeometry,
    batch_from_columns,
    synthesize,
)
from evfront.surface import (
    DEFAULT_NORMALIZED_COUNTS,
    NEVER,
    EventCountRing,
    TimestampGrid,
    WindowSpec,
    adaptive_windows,
    apply_events,
    mcts,
    merged_surface,
    motion_invariance_report,
    normalized_counts_to_absolute,
    read_mcts,
    stream_ring_capacity,
    time_surface,
    write_mcts,
    write_pgm,
)


def brute_force_surface(batch, geometry, tau, dt, polarity):
    """Direct evaluation over every event in the closed window."""
    out = np.zeros((geometry.height, geometry.width), dtype=np.float32)
    lo = tau - dt
    for rec in batch.events:
        t, x, y, p = int(rec["t"]), int(rec["x"]), int(rec["y"]), int(rec["p"])
        if p != polarity or t > tau or t < lo:
            continue
        val = np.float64(1.0) - np.float64(tau - t) / np.float64(dt)
        out[y, x] = max(out[y, x], np.float32(val))
    return out


def _random_batch(rng, n, geometry, t_span):
    t = np.sort(rng.integers(0, t_span, n).astype(np.uint64))
    x = rng.integers(0, geometry.width, n).astype(np.uint16)
    y = rng.integers(0, geometry.height, n).astype(np.uint16)
    p = rng.choice(np.array([0, 1], dtype=np.uint8), n)
    return batch_from_columns(t, x, y, p, geometry)


class _ReferenceGrid:
    """The uint64 grid with a separate ``valid`` mask that the int64 grid
    with an in-band NEVER replaced, filled event by event, and the
    surfaces and constant-count windows computed from it."""

    def __init__(self, geometry):
        shape = (2, geometry.height, geometry.width)
        self.geometry = geometry
        self.last_t = np.zeros(shape, np.uint64)
        self.valid = np.zeros(shape, bool)
        self.stamps = []

    def apply(self, batch):
        for t, x, y, p in batch.events.tolist():
            self.last_t[p, y, x] = t
            self.valid[p, y, x] = True
            self.stamps.append(t)

    def durations(self, spec, tau):
        if spec.mode == "fixed-duration":
            return spec.durations
        out = []
        for n in normalized_counts_to_absolute(spec, self.geometry):
            anchor = self.stamps[-1 - n] if n < len(self.stamps) \
                else self.stamps[0]
            out.append(max(1, tau - anchor))
        return tuple(out)

    def planes(self, tau, durations):
        planes = []
        for chan in (0, 1):
            age = tau - self.last_t[chan].astype(np.int64)
            live = self.valid[chan] & (age >= 0)
            for dt in durations:
                out = np.zeros(age.shape, np.float32)
                in_window = live & (age <= dt)
                out[in_window] = (1.0 - age[in_window] / dt).astype(
                    np.float32)
                planes.append(out)
        return np.stack(planes)


def mcts_previous(grid, ring, tau, spec):
    """The per-window form ``mcts`` replaced: a full-plane comparison, a
    boolean gather and a scatter for every window of each polarity."""
    if spec.mode == "constant-count":
        counts = normalized_counts_to_absolute(spec, grid.geometry)
        durations = adaptive_windows(ring, tau, counts, grid.first_time)
    else:
        durations = list(spec.durations)
    k = len(durations)
    channels = np.zeros((2 * k, *grid.last_t.shape[1:]), dtype=np.float32)
    for chan in (0, 1):
        age = tau - grid.last_t[chan]
        for i, dt in enumerate(durations):
            bound = min(dt, tau)
            if bound < 0:
                continue
            in_window = age.view(np.uint64) <= bound
            channels[chan * k + i][in_window] = \
                (1.0 - age[in_window] / dt).astype(np.float32)
    return channels


class TestTimestampGrid:
    def test_tracks_latest_per_pixel_and_polarity(self):
        geo = SensorGeometry(3, 2)
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(8)
        b = batch_from_columns(
            np.array([5, 9, 9], np.uint64),
            np.array([1, 1, 2], np.uint16),
            np.array([0, 0, 1], np.uint16),
            np.array([1, 1, 0], np.uint8), geo)
        applied = apply_events(grid, ring, b)
        assert applied == 3
        assert grid.last_t[1, 0, 1] == 9  # polarity 1 keeps the newer
        assert grid.valid[1, 0, 1] and grid.valid[0, 1, 2]
        assert not grid.valid[0, 0, 1]
        assert grid.latest_time == 9 and grid.first_time == 5

    def test_rejects_events_older_than_applied(self):
        geo = SensorGeometry(2, 2)
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(4)
        apply_events(grid, ring, batch_from_columns(
            np.array([10], np.uint64), np.array([0], np.uint16),
            np.array([0], np.uint16), np.array([1], np.uint8), geo))
        with pytest.raises(ValueError) as err:
            apply_events(grid, ring, batch_from_columns(
                np.array([9], np.uint64), np.array([0], np.uint16),
                np.array([0], np.uint16), np.array([1], np.uint8), geo))
        assert "stream position" in str(err.value)

    def test_equal_timestamp_append_allowed(self):
        geo = SensorGeometry(2, 2)
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(4)
        one = batch_from_columns(
            np.array([10], np.uint64), np.array([0], np.uint16),
            np.array([0], np.uint16), np.array([1], np.uint8), geo)
        apply_events(grid, ring, one)
        apply_events(grid, ring, one)
        assert grid.applied_count == 2

    def test_repeated_pixel_in_one_batch_keeps_newest(self):
        geo = SensorGeometry(4, 3)
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(16)
        apply_events(grid, ring, batch_from_columns(
            np.array([3], np.uint64), np.array([2], np.uint16),
            np.array([1], np.uint16), np.array([1], np.uint8), geo))
        apply_events(grid, ring, batch_from_columns(
            np.array([4, 6, 6, 7, 7, 8, 9, 9], np.uint64),
            np.array([2, 0, 2, 0, 2, 0, 2, 3], np.uint16),
            np.array([1, 2, 1, 2, 1, 2, 1, 0], np.uint16),
            np.array([1, 0, 1, 0, 0, 0, 1, 1], np.uint8), geo))
        # polarity 0: (0, 2) at 6, 7, 8; (2, 1) at 7. Polarity 1: (2, 1) at
        # 3 (the batch before), 4, 6, 9; (3, 0) at 9
        assert grid.last_t[1, 1, 2] == 9
        assert grid.last_t[0, 2, 0] == 8
        assert grid.last_t[0, 1, 2] == 7
        assert grid.last_t[1, 0, 3] == 9
        want = np.zeros((2, 3, 4), bool)
        want[1, 1, 2] = want[0, 2, 0] = want[0, 1, 2] = want[1, 0, 3] = True
        assert np.array_equal(grid.valid, want)
        assert np.all(grid.last_t[~want] == NEVER)
        assert np.array_equal(~grid.valid, ~want)
        equal = batch_from_columns(  # one pixel five times, one stamp
            np.full(5, 12, np.uint64), np.full(5, 1, np.uint16),
            np.zeros(5, np.uint16), np.ones(5, np.uint8), geo)
        apply_events(grid, ring, equal)
        assert grid.last_t[1, 0, 1] == 12 and grid.valid[1, 0, 1]
        assert grid.applied_count == 1 + 8 + 5

    def test_dense_repeats_match_event_loop(self):
        rng = np.random.default_rng(13)
        geo = SensorGeometry(3, 2)  # 12 cells for 2000 events per batch
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(50)
        want_t = np.zeros((2, 2, 3), np.uint64)
        want_valid = np.zeros((2, 2, 3), bool)
        batch = _random_batch(rng, 6_000, geo, t_span=3_000)
        for lo in range(0, 6_000, 2_000):
            part = batch.slice(lo, lo + 2_000)
            apply_events(grid, ring, part)
            for t, x, y, p in part.events.tolist():
                want_t[p, y, x] = t
                want_valid[p, y, x] = True
        assert np.array_equal(grid.last_t, want_t)
        assert np.array_equal(grid.valid, want_valid)

    def test_largest_stamp_wins_whatever_the_write_order(self):
        # unsorted stamps, so the last write to an index is not always
        # its largest: the maximum over the lost writes restores it
        rng = np.random.default_rng(17)
        for _ in range(20):
            flat = rng.integers(0, 10, 300)
            t = rng.integers(0, 1_000, 300).astype(np.uint64)
            last_t = np.zeros(12, np.uint64)
            surface._write_newest(last_t, flat, t)
            want = np.zeros(12, np.uint64)
            for i, stamp in zip(flat, t):
                want[i] = max(want[i], stamp)
            assert np.array_equal(last_t, want)

    def test_older_batch_error_names_stream_position(self):
        geo = SensorGeometry(4, 4)
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(8)
        apply_events(grid, ring, batch_from_columns(
            np.array([10, 11, 12, 12, 15], np.uint64),
            np.arange(5, dtype=np.uint16) % 4, np.zeros(5, np.uint16),
            np.ones(5, np.uint8), geo))
        before = (grid.last_t.copy(), grid.valid.copy(), ring.state_bytes())
        with pytest.raises(ValueError) as err:
            apply_events(grid, ring, batch_from_columns(
                np.array([14, 15, 16], np.uint64), np.ones(3, np.uint16),
                np.ones(3, np.uint16), np.ones(3, np.uint8), geo))
        assert str(err.value) == ("event at stream position 5 (t=14) is "
                                  "older than latest applied time 15")
        assert np.array_equal(grid.last_t, before[0])
        assert np.array_equal(grid.valid, before[1])
        assert ring.state_bytes() == before[2]
        assert grid.applied_count == 5

    def test_copy_is_independent(self):
        geo = SensorGeometry(2, 2)
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(4)
        apply_events(grid, ring, batch_from_columns(
            np.array([1], np.uint64), np.array([0], np.uint16),
            np.array([0], np.uint16), np.array([1], np.uint8), geo))
        snap = grid.copy()
        apply_events(grid, ring, batch_from_columns(
            np.array([2], np.uint64), np.array([1], np.uint16),
            np.array([1], np.uint16), np.array([0], np.uint8), geo))
        assert snap.applied_count == 1
        assert snap.latest_time == 1
        assert not snap.valid[0, 1, 1]

    def test_valid_is_derived_and_read_only(self):
        geo = SensorGeometry(3, 2)
        grid = TimestampGrid.create(geo)
        assert grid.last_t.dtype == np.int64
        assert np.all(grid.last_t == NEVER) and not grid.valid.any()
        apply_events(grid, EventCountRing(4), batch_from_columns(
            np.array([0, 7], np.uint64), np.array([2, 0], np.uint16),
            np.array([1, 0], np.uint16), np.array([0, 1], np.uint8), geo))
        assert np.array_equal(np.argwhere(grid.valid), [[0, 1, 2], [1, 0, 0]])
        assert grid.last_t[0, 1, 2] == 0  # a stamp of 0 is an event
        with pytest.raises(ValueError, match="read-only"):
            grid.valid[0, 0, 0] = True


    def test_batch_of_another_sensor_rejected_before_writing(self):
        # (x=5, y=0) of an 8x2 sensor once landed on pixel (1, 1) of a 4x4
        # grid: the flat offsets agree, so nothing else caught it
        grid = TimestampGrid.create(SensorGeometry(4, 4))
        ring = EventCountRing(4)
        other = SensorGeometry(8, 2)
        for batch in (batch_from_columns(
                np.array([7], np.uint64), np.array([5], np.uint16),
                np.array([0], np.uint16), np.array([1], np.uint8), other),
                EventBatch(np.empty(0, EVENT_DTYPE), other)):
            with pytest.raises(ValueError) as err:
                apply_events(grid, ring, batch)
            assert str(err.value) == ("batch geometry 8x2 differs from "
                                      "the grid's 4x4")
        assert np.all(grid.last_t == NEVER) and len(ring) == 0
        assert (grid.latest_time, grid.applied_count) == (None, 0)


class TestTimeSurface:
    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            geo = SensorGeometry(int(rng.integers(2, 12)),
                                 int(rng.integers(2, 12)))
            b = _random_batch(rng, int(rng.integers(1, 300)), geo, 5_000)
            grid = TimestampGrid.create(geo)
            ring = EventCountRing(4)
            apply_events(grid, ring, b)
            tau = int(b.events["t"][-1]) + int(rng.integers(0, 100))
            dt = int(rng.integers(1, 6_000))
            for pol in (0, 1):
                got = time_surface(grid, tau, dt, pol)
                want = brute_force_surface(b, geo, tau, dt, pol)
                assert got.dtype == np.float32
                assert np.array_equal(got, want)

    def test_window_is_closed_on_both_ends(self):
        geo = SensorGeometry(3, 1)
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(4)
        b = batch_from_columns(
            np.array([100, 150, 200], np.uint64),
            np.array([0, 1, 2], np.uint16),
            np.array([0, 0, 0], np.uint16),
            np.array([1, 1, 1], np.uint8), geo)
        apply_events(grid, ring, b)
        s = time_surface(grid, tau=200, dt=100, polarity=1)
        assert s[0, 0] == np.float32(0.0)   # age == dt sits on the boundary
        assert s[0, 1] == np.float32(0.5)
        assert s[0, 2] == np.float32(1.0)   # age 0

    def test_outside_window_is_zero(self):
        geo = SensorGeometry(2, 1)
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(4)
        apply_events(grid, ring, batch_from_columns(
            np.array([10], np.uint64), np.array([0], np.uint16),
            np.array([0], np.uint16), np.array([1], np.uint8), geo))
        s = time_surface(grid, tau=1_000, dt=100, polarity=1)
        assert not s.any()

    def test_future_events_ignored(self):
        # tau may precede some applied events; those must not contribute
        geo = SensorGeometry(2, 1)
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(4)
        apply_events(grid, ring, batch_from_columns(
            np.array([100, 300], np.uint64), np.array([0, 1], np.uint16),
            np.array([0, 0], np.uint16), np.array([1, 1], np.uint8), geo))
        s = time_surface(grid, tau=200, dt=150, polarity=1)
        assert s[0, 1] == np.float32(0.0)
        assert s[0, 0] > 0

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(5)
        geo = SensorGeometry(16, 16)
        b = _random_batch(rng, 2_000, geo, 100_000)
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(4)
        apply_events(grid, ring, b)
        s = time_surface(grid, int(b.events["t"][-1]), 50_000, 1)
        assert s.min() >= 0.0 and s.max() <= 1.0


class TestEventCountRing:
    def test_timestamp_back_counts_from_newest(self):
        ring = EventCountRing(8)
        ring.push_many(np.arange(10, 15, dtype=np.uint64))
        assert ring.timestamp_back(0) == 14   # the newest entry itself
        assert ring.timestamp_back(1) == 13
        assert ring.timestamp_back(4) == 10
        assert ring.timestamp_back(5) is None

    def test_push_of_no_stamps_changes_nothing(self):
        ring = EventCountRing(4)
        for n in (3, 5):  # before and after the ring wraps
            ring.push_many(np.arange(n, dtype=np.uint64))
            before = ring.state_bytes()
            ring.push_many(np.empty(0, dtype=np.uint64))
            assert ring.state_bytes() == before

    def test_overflow_keeps_newest(self):
        ring = EventCountRing(4)
        ring.push_many(np.arange(100, dtype=np.uint64))
        assert len(ring) == 4
        assert [ring.timestamp_back(n) for n in (3, 2, 1, 0)] \
            == [96, 97, 98, 99]

    def test_bulk_push_equals_incremental(self):
        rng = np.random.default_rng(9)
        t = np.sort(rng.integers(0, 10_000, 500).astype(np.uint64))
        a = EventCountRing(64)
        b = EventCountRing(64)
        a.push_many(t)
        for chunk in np.array_split(t, 37):
            b.push_many(chunk)
        assert a.state_bytes() == b.state_bytes()

    def test_push_matches_modulo_reference(self):
        # pushes shorter than, equal to and longer than the ring, from
        # every head position, against the old one-index-per-slot push
        def push_reference(ring, timestamps):
            n = len(timestamps)
            if n == 0:
                return
            cap = ring.capacity
            if n >= cap:
                new_head = (ring._head + n) % cap
                ring._buf[(new_head + np.arange(cap)) % cap] = \
                    timestamps[-cap:]
                ring._head = new_head
                ring._count = cap
            else:
                ring._buf[(ring._head + np.arange(n)) % cap] = timestamps
                ring._head = (ring._head + n) % cap
                ring._count = min(ring._count + n, cap)

        rng = np.random.default_rng(19)
        for cap in (1, 2, 7, 64):
            got, want = EventCountRing(cap), EventCountRing(cap)
            stamp = 0
            for _ in range(60):
                n = int(rng.choice([0, 1, cap - 1, cap, cap + 1,
                                    int(rng.integers(0, 3 * cap + 2))]))
                t = np.arange(stamp, stamp + n, dtype=np.uint64)
                stamp += n
                got.push_many(t)
                push_reference(want, t)
                assert got.state_bytes() == want.state_bytes()

    def test_copy_detached(self):
        ring = EventCountRing(4)
        ring.push_many(np.array([1, 2], dtype=np.uint64))
        dup = ring.copy()
        assert dup.state_bytes() == ring.state_bytes()
        ring.push_many(np.array([3, 4, 5], dtype=np.uint64))  # wraps
        assert len(dup) == 2
        assert [dup.timestamp_back(1), dup.timestamp_back(0)] == [1, 2]


class TestAdaptiveWindows:
    def test_counts_back_from_newest(self):
        # timestamps 0,10,...,100; tau=100; N=4 -> dt = 100 - t[-5] = 40
        ring = EventCountRing(16)
        ring.push_many(np.arange(0, 101, 10, dtype=np.uint64))
        dts = adaptive_windows(ring, 100, (4,), first_time=0)
        assert dts == (40,)

    def test_closed_window_holds_count_plus_one(self):
        # the dt above spans events 60,70,80,90,100: N+1 distinct stamps
        ring = EventCountRing(16)
        t = np.arange(0, 101, 10, dtype=np.uint64)
        ring.push_many(t)
        (dt,) = adaptive_windows(ring, 100, (4,), first_time=0)
        inside = [v for v in t if 100 - dt <= v <= 100]
        assert len(inside) == 5

    def test_warm_up_falls_back_to_first_event(self):
        ring = EventCountRing(8)
        ring.push_many(np.array([40, 50], dtype=np.uint64))
        dts = adaptive_windows(ring, 100, (10,), first_time=40)
        assert dts == (60,)

    def test_no_events_is_an_error(self):
        ring = EventCountRing(8)
        with pytest.raises(ValueError):
            adaptive_windows(ring, 100, (4,), first_time=None)

    def test_duration_clamped_to_one(self):
        ring = EventCountRing(8)
        ring.push_many(np.array([100, 100, 100], dtype=np.uint64))
        dts = adaptive_windows(ring, 100, (2,), first_time=100)
        assert dts == (1,)


class TestWindowSpec:
    def test_default_counts(self):
        spec = WindowSpec.default_constant_count()
        assert spec.normalized_counts == DEFAULT_NORMALIZED_COUNTS
        assert spec.K == 4

    def test_counts_must_increase(self):
        with pytest.raises(ValueError):
            WindowSpec("constant-count", normalized_counts=(0.1, 0.1))
        with pytest.raises(ValueError):
            WindowSpec("fixed-duration", durations=(100, 50))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_windows_rejected(self, bad):
        for good in ((bad, 1.0), (1.0, bad), (bad,)):
            with pytest.raises(ValueError, match="finite"):
                WindowSpec("constant-count", normalized_counts=good)
            with pytest.raises(ValueError, match="finite"):
                WindowSpec("fixed-duration", durations=good)

    def test_absolute_count_rounds_half_up_with_floor_one(self):
        spec = WindowSpec.default_constant_count()
        assert normalized_counts_to_absolute(
            spec, SensorGeometry(100, 100)) == [300, 1000, 3000, 10000]
        tiny = WindowSpec("constant-count", normalized_counts=(0.03, 0.125))
        assert normalized_counts_to_absolute(
            tiny, SensorGeometry(10, 10)) == [3, 13]
        assert normalized_counts_to_absolute(
            spec, SensorGeometry(1, 1)) == [1, 1, 1, 1]

    def test_absolute_counts_need_constant_count_mode(self):
        fixed = WindowSpec("fixed-duration", durations=(10, 20))
        with pytest.raises(ValueError):
            normalized_counts_to_absolute(fixed, SensorGeometry(4, 4))

    def test_ring_capacity_covers_largest_count(self):
        # the largest window plus the newest slot, capped at a ring that
        # holds the whole stream; a fixed-duration window needs no ring
        geo = SensorGeometry(100, 100)
        rng = np.random.default_rng(2)
        spec = WindowSpec.default_constant_count()
        huge = WindowSpec("constant-count", normalized_counts=(1e9,))
        fixed = WindowSpec("fixed-duration", durations=(10, 20))
        for n, want in ((20_000, 10_001), (10_000, 10_001), (9_999, 10_000),
                        (0, 1)):
            b = _random_batch(rng, n, geo, 100_000)
            assert stream_ring_capacity(spec, b) == want
            assert stream_ring_capacity(huge, b) == n + 1
            assert stream_ring_capacity(fixed, b) == 1


class TestMcts:
    def test_channel_layout_negative_then_positive(self):
        geo = SensorGeometry(4, 4)
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(8)
        b = batch_from_columns(
            np.array([10, 20], np.uint64), np.array([1, 2], np.uint16),
            np.array([1, 2], np.uint16), np.array([0, 1], np.uint8), geo)
        apply_events(grid, ring, b)
        spec = WindowSpec("fixed-duration", durations=(50, 100))
        tensor = mcts(grid, ring, 20, spec)
        assert tensor.channels.shape == (4, 4, 4)
        assert tensor.channels[0, 1, 1] > 0       # negative plane, window k=0
        assert tensor.channels[0, 2, 2] == 0
        assert tensor.channels[2, 2, 2] == 1.0    # positive plane
        assert tensor.window_durations == (50, 100)

    def test_constant_count_durations_follow_activity(self):
        # the same spec yields shorter windows when events arrive faster
        geo = SensorGeometry(32, 32)
        spec = WindowSpec("constant-count",
                          normalized_counts=(0.05, 0.2))
        rng = np.random.default_rng(13)
        durs = []
        for span in (1_000_000, 100_000):
            b = _random_batch(rng, 4_000, geo, span)
            grid = TimestampGrid.create(geo)
            ring = EventCountRing(stream_ring_capacity(spec, b))
            apply_events(grid, ring, b)
            tensor = mcts(grid, ring, grid.latest_time, spec)
            durs.append(tensor.window_durations)
        assert all(f < s for f, s in zip(durs[1], durs[0]))

    def test_channels_use_their_own_window(self):
        geo = SensorGeometry(8, 8)
        rng = np.random.default_rng(14)
        b = _random_batch(rng, 600, geo, 50_000)
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(8)
        apply_events(grid, ring, b)
        spec = WindowSpec("fixed-duration", durations=(1_000, 40_000))
        tau = grid.latest_time
        tensor = mcts(grid, ring, tau, spec)
        assert np.array_equal(tensor.channels[0],
                              time_surface(grid, tau, 1_000, 0))
        assert np.array_equal(tensor.channels[3],
                              time_surface(grid, tau, 40_000, 1))

    def test_equals_stacked_time_surfaces(self):
        # mcts fills its planes in place; each must equal the standalone
        # surface bitwise, including taus before the newest event
        geo = SensorGeometry(24, 16)
        rng = np.random.default_rng(15)
        b = _random_batch(rng, 3_000, geo, 200_000)
        grid = TimestampGrid.create(geo)
        specs = (WindowSpec.default_constant_count(),
                 WindowSpec("fixed-duration", durations=(7, 3_000, 90_000)))
        ring = EventCountRing(stream_ring_capacity(specs[0], b))
        apply_events(grid, ring, b)
        for spec in specs:
            for tau in (grid.latest_time, grid.latest_time - 50_000):
                tensor = mcts(grid, ring, tau, spec)
                want = np.stack(
                    [time_surface(grid, tau, dt, p)
                     for p in (0, 1) for dt in tensor.window_durations])
                assert tensor.channels.dtype == want.dtype
                assert np.array_equal(tensor.channels, want)


    def test_merged_surface_is_the_pairs_maximum(self):
        # byte for byte np.maximum of planes p and K + p of the full
        # tensor: fed part by part (cells that never saw an event, ring
        # still short of a pair's count), at taus at the newest event, in
        # the past (stamps after tau), at the first event and before every
        # stamp, and a window past 2**62
        rng = np.random.default_rng(31)
        geo = SensorGeometry(20, 14)
        b = _random_batch(rng, 1_500, geo, 300_000)
        specs = (WindowSpec.default_constant_count(),
                 WindowSpec("constant-count", normalized_counts=(0.5, 4.0)),
                 WindowSpec("fixed-duration",
                            durations=(7, 3_000, 90_000, 2**62 + 1_000)))
        seen = set()
        for spec in specs:
            grid = TimestampGrid.create(geo)
            ring = EventCountRing(stream_ring_capacity(spec, b))
            for lo in range(0, len(b), 300):
                apply_events(grid, ring, b.slice(lo, lo + 300))
                for tau in (grid.latest_time, grid.latest_time - 20_000,
                            grid.first_time, grid.first_time - 5, -5):
                    full = mcts(grid, ring, tau, spec).channels
                    for p in range(spec.K):
                        neg, pos = full[p], full[spec.K + p]
                        want = np.maximum(neg, pos)
                        got = merged_surface(grid, ring, tau, spec, p)
                        assert got.dtype == want.dtype
                        assert got.tobytes() == want.tobytes()
                        cases = {"never": (grid.last_t == NEVER).any(),
                                 "after tau": (grid.last_t > tau).any(),
                                 "neg wins": ((neg > pos) & (pos > 0)).any(),
                                 "pos wins": ((pos > neg) & (neg > 0)).any(),
                                 "dark": not want.any()}
                        if spec.mode == "constant-count":
                            n_p = normalized_counts_to_absolute(spec, geo)[p]
                            cases["warm-up"] = \
                                ring.timestamp_back(n_p) is None
                        seen |= {name for name, hit in cases.items() if hit}
        assert seen == {"never", "after tau", "neg wins", "pos wins", "dark",
                        "warm-up"}

    def test_matches_uint64_grid_with_valid_mask(self):
        # bitwise against the grid NEVER replaced, fed part by part: both
        # window modes, every pair, pixels that never saw an event, a
        # window longer than 2**62, and taus at the newest event, before
        # it, at the first event and before the stream
        rng = np.random.default_rng(23)
        geo = SensorGeometry(20, 14)
        b = _random_batch(rng, 600, geo, 300_000)
        specs = (WindowSpec.default_constant_count(),
                 WindowSpec("constant-count", normalized_counts=(0.5, 2.0)),
                 WindowSpec("fixed-duration",
                            durations=(7, 3_000, 90_000, 2**62 + 1_000)))
        for spec in specs:
            grid = TimestampGrid.create(geo)
            ring = EventCountRing(stream_ring_capacity(spec, b))
            ref = _ReferenceGrid(geo)
            lit = 0
            for lo in range(0, len(b), 150):
                part = b.slice(lo, lo + 150)
                apply_events(grid, ring, part)
                ref.apply(part)
                assert (~ref.valid).any()
                assert np.array_equal(grid.valid, ref.valid)
                assert np.array_equal(grid.last_t[ref.valid],
                                      ref.last_t[ref.valid].astype(np.int64))
                for tau in (grid.latest_time, grid.latest_time - 20_000,
                            grid.first_time, -5):
                    durations = ref.durations(spec, tau)
                    want = ref.planes(tau, durations)
                    lit += want.any()
                    full = mcts(grid, ring, tau, spec)
                    assert full.window_durations == durations
                    assert full.channels.tobytes() == want.tobytes()
                    for p in range(spec.K):
                        merged = merged_surface(grid, ring, tau, spec, p)
                        assert merged.tobytes() == np.maximum(
                            want[p], want[spec.K + p]).tobytes()
                        for chan in (0, 1):
                            got = time_surface(grid, tau, durations[p], chan)
                            assert got.tobytes() == \
                                want[chan * spec.K + p].tobytes()
            assert lit >= 8  # of 16 taus; the 4 before the stream are dark

    def test_matches_previous_form_bytes(self):
        # fed part by part: both window modes, warm-up windows of equal
        # length, one-window specs, and taus at the newest event, before
        # it, at the first event, just before it and before every stamp
        rng = np.random.default_rng(24)
        geo = SensorGeometry(40, 24)
        b = _random_batch(rng, 4_000, geo, 400_000)
        specs = (WindowSpec.default_constant_count(),
                 WindowSpec("constant-count", normalized_counts=(0.5, 4.0)),
                 WindowSpec("constant-count", normalized_counts=(1.0,)),
                 WindowSpec("fixed-duration", durations=(7, 3_000, 90_000)),
                 WindowSpec("fixed-duration", durations=(5_000,)))
        for spec in specs:
            grid = TimestampGrid.create(geo)
            ring = EventCountRing(stream_ring_capacity(spec, b))
            for lo in range(0, len(b), 500):
                apply_events(grid, ring, b.slice(lo, lo + 500))
                for tau in (grid.latest_time, grid.latest_time - 20_000,
                            grid.first_time, grid.first_time - 1, -5):
                    got = mcts(grid, ring, tau, spec).channels
                    assert got.tobytes() == \
                        mcts_previous(grid, ring, tau, spec).tobytes()

    def test_tau_outside_its_range_rejected(self):
        geo = SensorGeometry(3, 2)
        batch = batch_from_columns(
            np.array([5, 2**62 - 9], np.uint64), np.array([1, 2], np.uint16),
            np.array([1, 0], np.uint16), np.array([1, 1], np.uint8), geo)
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(4)
        apply_events(grid, ring, batch)
        ref = _ReferenceGrid(geo)
        ref.apply(batch)
        spec = WindowSpec("fixed-duration",
                          durations=(10, 2**61, 2**62 - 1, 2**63))
        for tau in (2**62, 2**63 + 5, -2**62 - 1):
            with pytest.raises(ValueError, match="tau"):
                mcts(grid, ring, tau, spec)
            with pytest.raises(ValueError, match="tau"):
                time_surface(grid, tau, 10, 1)
        for tau in (2**62 - 1, -2**62):  # the ends of the range
            want = ref.planes(tau, spec.durations)
            assert mcts(grid, ring, tau, spec).channels.tobytes() == \
                want.tobytes()
        assert want.sum() == 0 and ref.planes(2**62 - 1, (10,)).sum() > 0


class TestMctsDump:
    def test_round_trip(self):
        rng = np.random.default_rng(15)
        geo = SensorGeometry(12, 9)
        b = _random_batch(rng, 500, geo, 30_000)
        grid = TimestampGrid.create(geo)
        spec = WindowSpec.default_constant_count()
        ring = EventCountRing(stream_ring_capacity(spec, b))
        apply_events(grid, ring, b)
        tensor = mcts(grid, ring, grid.latest_time, spec)
        back = read_mcts(write_mcts(tensor))
        assert np.array_equal(back.channels, tensor.channels)
        assert back.tau == tensor.tau
        assert back.window_durations is None  # not carried on the wire

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            read_mcts(b"XXXX" + b"\x00" * 60)

    def test_truncated_payload_rejected(self):
        rng = np.random.default_rng(16)
        geo = SensorGeometry(6, 6)
        b = _random_batch(rng, 100, geo, 5_000)
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(4)
        apply_events(grid, ring, b)
        spec = WindowSpec("fixed-duration", durations=(100,))
        blob = write_mcts(mcts(grid, ring, grid.latest_time, spec))
        with pytest.raises(ValueError):
            read_mcts(blob[:-8])


class TestPgm:
    def test_header_and_scaling(self):
        img = np.array([[0.0, 0.5], [1.0, 0.25]], dtype=np.float32)
        blob = write_pgm(img)
        assert blob.startswith(b"P5\n2 2\n65535\n")
        px = np.frombuffer(blob[len(b"P5\n2 2\n65535\n"):], dtype=">u2")
        assert list(px) == [0, 32768, 65535, 16384]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            write_pgm(np.array([[1.5]], dtype=np.float32))


class TestMotionInvariance:
    def test_constant_count_wins_most_channel_pairs(self):
        report = motion_invariance_report(SensorGeometry(100, 100))
        assert report.passed
        assert report.pairs_favoring_constant >= 3
        wins = sum(a < b for a, b in
                   zip(report.l1_constant_count, report.l1_fixed))
        assert wins == report.pairs_favoring_constant

    @pytest.mark.parametrize("speed, factor", [
        (0.0, 3.0), (100.0, 0.0), (-100.0, 3.0), (float("nan"), 3.0),
        (100.0, float("inf"))])
    def test_speed_and_factor_finite_and_positive(self, speed, factor):
        with pytest.raises(ValueError, match="finite and positive"):
            motion_invariance_report(SensorGeometry(100, 100), speed, factor)

    def test_fixed_durations_match_base_speed_windows(self):
        report = motion_invariance_report(SensorGeometry(100, 100))
        base = report.realized_durations[0]
        # calibration nudges at most +1 us per slot to keep them distinct
        for fixed, realized in zip(report.fixed_durations, base):
            assert 0 <= fixed - realized <= len(report.fixed_durations)


# checks no other test reaches: label -> (call, exception type, message)
_GRID = TimestampGrid.create(SensorGeometry(3, 2))
_CHECKS = {
    "ring of capacity 0": (lambda: EventCountRing(0), ValueError,
                           "ring capacity must be at least 1"),
    "ring of capacity -3": (lambda: EventCountRing(-3), ValueError,
                            "ring capacity must be at least 1"),
    "surface window 0": (lambda: time_surface(_GRID, 10, 0, 1), ValueError,
                         "window duration must be positive"),
    "surface window -5": (lambda: time_surface(_GRID, 10, -5, 0), ValueError,
                          "window duration must be positive"),
    "surface polarity -1": (lambda: time_surface(_GRID, 10, 5, -1),
                            ValueError, "polarity must be 0 or 1"),
    "surface polarity 2": (lambda: time_surface(_GRID, 10, 5, 2), ValueError,
                           "polarity must be 0 or 1"),
    "tensor of one plane": (
        lambda: surface.MctsTensor(np.zeros((4, 4), np.float32), 0, None),
        ValueError, "channels must be a (2K, H, W) float32 array"),
    "float64 tensor": (
        lambda: surface.MctsTensor(np.zeros((2, 3, 3)), 0, None),
        ValueError, "channels must be a (2K, H, W) float32 array"),
    "three channels": (
        lambda: surface.MctsTensor(np.zeros((3, 2, 2), np.float32), 0, None),
        ValueError, "channel count must be a positive even number"),
    "no channels": (
        lambda: surface.MctsTensor(np.zeros((0, 2, 2), np.float32), 0, None),
        ValueError, "channel count must be a positive even number"),
    "one duration for two pairs": (
        lambda: surface.MctsTensor(np.zeros((4, 2, 2), np.float32), 0, (10,)),
        ValueError, "one duration per channel pair required"),
}


@pytest.mark.parametrize("label", _CHECKS)
def test_check_raises_its_message(label):
    call, kind, message = _CHECKS[label]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message
