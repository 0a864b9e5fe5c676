"""Event container, wire formats and synthesizer; every parser under
byte mutation."""

import math
import os
import platform
import re
import resource
import tracemalloc

import numpy as np
import pytest

from evfront import events, pipeline
from evfront.detect import (NetworkSpec, load_weights, random_weights,
                            save_weights)
from evfront.events import (
    BINARY_HEADER_SIZE,
    BINARY_RECORD_SIZE,
    CSV_HEADER,
    EVENT_DTYPE,
    EventBatch,
    MotionSpec,
    SensorGeometry,
    StreamFormatError,
    _grid_anchors,
    batch_from_columns,
    corner_positions,
    linear_warp,
    parse_events,
    synthesize,
    write_events,
)
from evfront.surface import (MCTS_HEADER_SIZE, EventCountRing, TimestampGrid,
                             WindowSpec, apply_events, mcts, read_mcts,
                             write_mcts)

from conftest import traced_peak


def _random_batch(rng, n, geometry, t_span=100_000):
    t = np.sort(rng.integers(0, t_span, n).astype(np.uint64))
    x = rng.integers(0, geometry.width, n).astype(np.uint16)
    y = rng.integers(0, geometry.height, n).astype(np.uint16)
    p = rng.choice(np.array([0, 1], dtype=np.uint8), n)
    return batch_from_columns(t, x, y, p, geometry)


def _empty_batch(geometry):
    return EventBatch(np.empty(0, EVENT_DTYPE), geometry)


class TestSensorGeometry:
    def test_sides_fit_u16(self):
        # the binary-v1 header and the x/y coordinates are u16
        geo = SensorGeometry(65535, 1)
        back = parse_events(write_events(_empty_batch(geo), "binary-v1"),
                            "binary-v1")
        assert back.geometry == geo
        for w, h in ((65536, 1), (1, 65536), (0, 5)):
            with pytest.raises(ValueError, match="1 to 65535"):
                SensorGeometry(w, h)


class TestEventBatch:
    def test_rejects_decreasing_timestamps(self):
        geo = SensorGeometry(4, 4)
        t = np.array([10, 5], dtype=np.uint64)
        with pytest.raises(ValueError):
            batch_from_columns(t, np.zeros(2, np.uint16),
                               np.zeros(2, np.uint16),
                               np.ones(2, np.uint8), geo)

    def test_equal_timestamps_allowed(self):
        geo = SensorGeometry(4, 4)
        t = np.array([7, 7, 7], dtype=np.uint64)
        b = batch_from_columns(t, np.zeros(3, np.uint16),
                               np.zeros(3, np.uint16),
                               np.ones(3, np.uint8), geo)
        assert len(b) == 3

    def test_rejects_out_of_bounds(self):
        geo = SensorGeometry(4, 4)
        with pytest.raises(ValueError):
            batch_from_columns(np.array([1], np.uint64),
                               np.array([4], np.uint16),
                               np.array([0], np.uint16),
                               np.array([1], np.uint8), geo)

    def test_rejects_bad_polarity(self):
        geo = SensorGeometry(4, 4)
        with pytest.raises(ValueError):
            batch_from_columns(np.array([1], np.uint64),
                               np.array([0], np.uint16),
                               np.array([0], np.uint16),
                               np.array([2], np.uint8), geo)

    @pytest.mark.parametrize("column, value, message", [
        ("x", 4, "event 1: coordinate (4,0) outside 4x4"),
        ("y", 9, "event 1: coordinate (0,9) outside 4x4"),
        ("p", 2, "event 1: polarity 2 not in {0,1}"),
        ("t", 2, "event 1: timestamps must be non-decreasing"),
    ])
    def test_fault_names_its_record(self, column, value, message):
        geo = SensorGeometry(4, 4)
        columns = {"t": np.array([5, 6, 7], np.uint64),
                   "x": np.zeros(3, np.uint16), "y": np.zeros(3, np.uint16),
                   "p": np.ones(3, np.uint8)}
        columns[column][1] = value
        columns[column][2] = value
        with pytest.raises(ValueError) as err:
            batch_from_columns(*columns.values(), geo)
        assert str(err.value) == message

    @pytest.mark.parametrize("column, values, message", [
        # each value fits the caller's dtype but not the record field,
        # which would have stored it as 1 or 255
        ("x", np.array([0, 65537], np.int64),
         "event 1: coordinate (65537,0) outside 4x4"),
        ("y", np.array([0, -1], np.int32),
         "event 1: coordinate (0,-1) outside 4x4"),
        ("p", np.array([1, -1], np.int8), "event 1: polarity -1 not in {0,1}"),
        ("t", np.array([5, 2**64 + 6], object),
         "event 1: timestamp 18446744073709551622 outside [0, 2**62)"),
    ])
    def test_columns_checked_before_packing(self, column, values, message):
        columns = {"t": np.array([5, 6], np.uint64),
                   "x": np.zeros(2, np.uint16), "y": np.zeros(2, np.uint16),
                   "p": np.ones(2, np.uint8), column: values}
        with pytest.raises(ValueError) as err:
            batch_from_columns(*columns.values(), SensorGeometry(4, 4))
        assert str(err.value) == message

    @pytest.mark.parametrize("column", ["t", "x", "y", "p"])
    def test_non_integer_column_rejected(self, column):
        # a float stamp 1.7 would be stored as 1
        columns = {"t": np.array([1.7, 2.0]) if column == "t" else [1, 2],
                   "x": [0, 0], "y": [0, 0], "p": [1, 1]}
        if column != "t":
            columns[column] = np.array([0.0, 1.5])
        with pytest.raises(TypeError, match=f"^event column {column} must "
                           "hold integers, got float64$"):
            batch_from_columns(*columns.values(), SensorGeometry(4, 4))

    def test_integer_lists_packed_exactly(self):
        # numpy would read a list past int64 as floats; Python ints and
        # numpy integers are taken as they are
        b = batch_from_columns([3, 2**62 - 1], [np.uint16(1), 3], [0, 2],
                               [True, 0], SensorGeometry(4, 4))
        assert b.events.tolist() == [(3, 1, 0, 1), (2**62 - 1, 3, 2, 0)]
        empty = batch_from_columns([], [], [], [], SensorGeometry(4, 4))
        assert len(empty) == 0 and empty.events.dtype == EVENT_DTYPE

    def test_slicing_and_iteration(self):
        rng = np.random.default_rng(3)
        geo = SensorGeometry(8, 8)
        b = _random_batch(rng, 20, geo)
        sub = b.slice(5, 10)
        assert len(sub) == 5
        first = next(iter(b.events))
        assert int(first["t"]) == int(b.events["t"][0])

    def test_trusted_slices_carry_events_and_geometry(self):
        rng = np.random.default_rng(5)
        geo = SensorGeometry(9, 7)
        b = _random_batch(rng, 50, geo)
        for sub, want in ((b.slice(3, 40), b.events[3:40]),
                          (b.slice(10, len(b)), b.events[10:]),
                          (b.slice(0, len(b)), b.events),
                          (b.slice(-5, -1), b.events[-5:-1]),
                          (b.slice(30, 30), b.events[:0])):
            assert isinstance(sub, EventBatch)
            assert sub.geometry == geo
            assert np.array_equal(sub.events, want)
            assert sub.events.dtype == b.events.dtype
            assert np.shares_memory(sub.events, b.events) or not len(sub)

    def test_reversed_and_strided_slices_still_validated(self):
        rng = np.random.default_rng(6)
        geo = SensorGeometry(8, 8)
        b = _random_batch(rng, 30, geo)
        with pytest.raises(ValueError, match="non-decreasing"):
            EventBatch(b.events[::-1], geo)
        with pytest.raises(ValueError, match="non-decreasing"):
            EventBatch(b.events[20:5:-2], geo)
        assert np.array_equal(EventBatch(b.events[::3], geo).events,
                              b.events[::3])


def _binary_stream(stamps, geo=SensorGeometry(4, 4)):
    """A binary-v1 stream of events at pixel (0, 0), written by hand so
    that it can hold stamps no batch accepts."""
    raw = np.zeros(len(stamps), dtype=[("t", "<u8"), ("x", "<u2"),
                                       ("y", "<u2"), ("p", "u1")])
    raw["t"] = stamps
    return (b"EVT1" + geo.width.to_bytes(2, "little")
            + geo.height.to_bytes(2, "little") + raw.tobytes())


def _csv_stream(stamps):
    return "".join(f"{t},0,0,1\n" for t in stamps).encode()


def _record_offset(i):
    return BINARY_HEADER_SIZE + i * BINARY_RECORD_SIZE


def _columns(stamps):
    n = len(stamps)
    return (stamps, np.zeros(n, np.uint16), np.zeros(n, np.uint16),
            np.ones(n, np.uint8), SensorGeometry(4, 4))


class TestTimestampRange:
    def test_stamp_past_2_63_rejected_not_wrapped_into_order(self):
        with pytest.raises(ValueError, match="event 0: timestamp"):
            batch_from_columns(*_columns([2**63 + 5, 3]))
        with pytest.raises(StreamFormatError) as err:
            parse_events(_binary_stream([2**63 + 5, 3]), "binary-v1")
        assert err.value.offset == 8 and "(byte offset 8)" in str(err.value)

    def test_csv_stamp_past_u64_reports_its_line(self):
        with pytest.raises(StreamFormatError) as err:
            parse_events(b"t,x,y,p\n5,0,0,1\n18446744073709551616,0,0,1\n",
                         "csv", geometry=SensorGeometry(4, 4))
        assert err.value.line == 3 and "outside [0, 2**62)" in str(err.value)
        with pytest.raises(StreamFormatError) as err:
            parse_events(b"5,0,0,1\n-1,0,0,1\n", "csv",
                         geometry=SensorGeometry(4, 4))
        assert err.value.line == 2

    def test_stamp_below_2_62_accepted_in_every_entry_point(self):
        stamps = [0, 2**62 - 1]
        geo = SensorGeometry(4, 4)
        for batch in (batch_from_columns(*_columns(stamps)),
                      parse_events(_binary_stream(stamps), "binary-v1"),
                      parse_events(_csv_stream(stamps), "csv", geometry=geo)):
            assert list(batch.events["t"]) == stamps

    @pytest.mark.parametrize("last", [2**62, 2**64 - 1])
    def test_stamp_at_2_62_rejected_in_every_entry_point(self, last):
        stamps = [0, last]
        with pytest.raises(ValueError, match="^event 1: timestamp"):
            batch_from_columns(*_columns(stamps))
        with pytest.raises(StreamFormatError) as err:
            parse_events(_binary_stream(stamps), "binary-v1")
        assert err.value.offset == _record_offset(1)
        with pytest.raises(StreamFormatError) as err:
            parse_events(_csv_stream(stamps), "csv",
                         geometry=SensorGeometry(4, 4))
        assert err.value.line == 2

    @pytest.mark.parametrize("stamps, bad", [
        ([3, 2**62, 1], 1),       # out of range before the decrease
        ([5, 3, 2**62], 1),       # the decrease first
        ([1, 2, 2**63, 2**62], 2),
        ([1, 2, 2, 2**62 - 1], None),
    ])
    def test_first_faulty_record_is_reported(self, stamps, bad):
        if bad is None:
            assert len(parse_events(_binary_stream(stamps), "binary-v1")) == 4
            assert len(batch_from_columns(*_columns(stamps))) == 4
            return
        with pytest.raises(StreamFormatError) as err:
            parse_events(_binary_stream(stamps), "binary-v1")
        assert err.value.offset == _record_offset(bad)
        with pytest.raises(ValueError, match=f"^event {bad}: "):
            batch_from_columns(*_columns(stamps))


class TestBinaryFormat:
    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            geo = SensorGeometry(int(rng.integers(1, 200)),
                                 int(rng.integers(1, 200)))
            b = _random_batch(rng, int(rng.integers(0, 500)), geo)
            back = parse_events(write_events(b, "binary-v1"), "binary-v1")
            assert back.geometry == geo
            assert np.array_equal(back.events, b.events)

    def test_parsed_batch_is_a_read_only_view_of_the_bytes(self):
        # the file record is the memory record: parsing copies nothing,
        # and writing the batch back gives the input, byte for byte
        b = _random_batch(np.random.default_rng(4), 400, SensorGeometry(9, 5))
        data = write_events(b, "binary-v1")
        back = parse_events(data, "binary-v1")
        raw = np.frombuffer(data, np.uint8)
        assert np.shares_memory(back.events, raw)
        assert back.events.dtype == EVENT_DTYPE
        assert not back.events.flags.writeable
        assert write_events(back, "binary-v1") == data
        assert write_events(back.slice(7, 300), "binary-v1") == \
            data[:BINARY_HEADER_SIZE] + data[_record_offset(7):
                                             _record_offset(300)]

    def test_write_copies_the_records_once(self):
        # 400k records, 5.2 MB: the result is the one buffer written
        geo = SensorGeometry(240, 180)
        b = _random_batch(np.random.default_rng(8), 400_000, geo)
        want = b"EVT1\xf0\x00\xb4\x00" + b.events.tobytes()
        peak = traced_peak(lambda: write_events(b, "binary-v1"))
        data = write_events(b, "binary-v1")
        assert type(data) is bytes and data == want
        assert peak < 1.1 * len(data), (peak, len(data))
        # a strided batch is packed first, and written as the same records
        strided = EventBatch(b.events[::7], geo)
        assert write_events(strided, "binary-v1") == \
            want[:BINARY_HEADER_SIZE] + b.events[::7].tobytes()

    def test_header_magic_checked(self):
        with pytest.raises(StreamFormatError):
            parse_events(b"XXXX" + b"\x00" * 4, "binary-v1")

    def test_truncated_record_reports_offset(self):
        geo = SensorGeometry(4, 4)
        b = _random_batch(np.random.default_rng(0), 3, geo)
        blob = write_events(b, "binary-v1")
        with pytest.raises(StreamFormatError) as err:
            parse_events(blob[:-5], "binary-v1")
        assert "byte offset" in str(err.value)

    def test_decreasing_timestamp_reports_record_offset(self):
        geo = SensorGeometry(4, 4)
        b = _random_batch(np.random.default_rng(1), 4, geo)
        blob = bytearray(write_events(b, "binary-v1"))
        # zero the last record's timestamp to force a decrease
        off = BINARY_HEADER_SIZE + 3 * BINARY_RECORD_SIZE
        blob[off:off + 8] = b"\x00" * 8
        with pytest.raises(StreamFormatError) as err:
            parse_events(bytes(blob), "binary-v1")
        assert str(off) in str(err.value)

    @pytest.mark.parametrize("field, at, value, what", [
        ("p", 0, 2, "polarity 2 not in {0,1}"),
        ("p", 6, 255, "polarity 255 not in {0,1}"),
        ("x", 3, 9, "coordinate (9,"),
        ("y", 6, 5, "coordinate ("),
        ("t", 4, 0, "non-decreasing"),
        ("t", 6, 2**62, "outside [0, 2**62)"),
    ])
    def test_bad_record_reports_its_offset(self, field, at, value, what):
        b = _random_batch(np.random.default_rng(8), 7, SensorGeometry(9, 5),
                          t_span=1_000)
        blob = bytearray(write_events(b, "binary-v1"))
        records = np.frombuffer(blob, offset=BINARY_HEADER_SIZE, dtype=[
            ("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")])
        records[field][at] = value
        with pytest.raises(StreamFormatError) as err:
            parse_events(bytes(blob), "binary-v1")
        assert err.value.offset == _record_offset(at)
        assert what in str(err.value)

    # the rules run over runs of _CHECK_RUN records: a fault in the
    # second run, in the last, and a run's first stamp against the
    # previous run's last, below it or equal to it
    @pytest.mark.parametrize("at, field, value, what", [
        (events._CHECK_RUN + 5, "p", 3, "polarity 3 not in {0,1}"),
        (2 * events._CHECK_RUN + 99, "x", 9, "coordinate (9,1) outside 9x5"),
        (events._CHECK_RUN, "t", events._CHECK_RUN - 2,
         "timestamps must be non-decreasing"),
        (events._CHECK_RUN, "t", events._CHECK_RUN - 1, None),
    ])
    def test_fault_in_a_later_check_run_reports_its_offset(self, at, field,
                                                           value, what):
        raw = np.zeros(2 * events._CHECK_RUN + 100, EVENT_DTYPE)
        raw["t"] = np.arange(len(raw))
        raw["y"] = 1
        raw[field][at] = value
        blob = _binary_stream([0], SensorGeometry(9, 5))[:BINARY_HEADER_SIZE]
        blob += raw.tobytes()
        if what is None:
            assert parse_events(blob, "binary-v1").events.tobytes() == \
                raw.tobytes()
            return
        with pytest.raises(StreamFormatError) as err:
            parse_events(blob, "binary-v1")
        assert err.value.offset == _record_offset(at)
        assert str(err.value) == f"{what} (byte offset {_record_offset(at)})"
        with pytest.raises(ValueError, match=re.escape(f"event {at}: {what}")):
            EventBatch(raw, SensorGeometry(9, 5))
        rows = "".join(f"{t},{x},{y},{p}\n" for t, x, y, p in raw.tolist())
        with pytest.raises(StreamFormatError) as err:
            parse_events(rows.encode(), "csv", geometry=SensorGeometry(9, 5))
        assert err.value.line == at + 1

    @pytest.mark.parametrize("faults, bad", [
        ({0: ("x", 9), 1: ("p", 7)}, 0),     # coordinate, then polarity
        ({1: ("t", 0), 2: ("x", 9)}, 1),     # decrease, then coordinate
        ({2: ("p", 7), 3: ("t", 2**62)}, 2),  # polarity, then stamp range
        ({3: ("y", 4), 4: ("t", 0)}, 3),     # coordinate, then decrease
    ])
    def test_earliest_of_different_faults_is_reported(self, faults, bad):
        # every rule is checked over every record, so a later fault of
        # one kind never hides an earlier fault of another
        geo = SensorGeometry(4, 4)
        raw = np.zeros(6, dtype=[("t", "<u8"), ("x", "<u2"), ("y", "<u2"),
                                 ("p", "u1")])
        raw["t"] = np.arange(100, 106)
        for i, (field, value) in faults.items():
            raw[field][i] = value
        blob = _binary_stream([0])[:BINARY_HEADER_SIZE] + raw.tobytes()
        with pytest.raises(StreamFormatError) as err:
            parse_events(blob, "binary-v1")
        assert err.value.offset == _record_offset(bad)
        rows = "".join(f"{t},{x},{y},{p}\n" for t, x, y, p in raw.tolist())
        with pytest.raises(StreamFormatError) as err:
            parse_events(rows.encode(), "csv", geometry=geo)
        assert err.value.line == bad + 1

    def test_records_validated_once(self, monkeypatch):
        # the parser checks everything EventBatch checks, each record at
        # its offset, and builds the batch without a second pass
        calls = []
        first_bad_record = events._first_bad_record
        monkeypatch.setattr(events, "_first_bad_record",
                            lambda t, *rest: calls.append(len(t))
                            or first_bad_record(t, *rest))
        b = _random_batch(np.random.default_rng(9), 300, SensorGeometry(9, 5))
        calls.clear()
        back = parse_events(write_events(b, "binary-v1"), "binary-v1")
        assert calls == [300]
        assert back.geometry == b.geometry
        assert back.events.tobytes() == b.events.tobytes()

    def test_empty_record_section(self):
        geo = SensorGeometry(4, 4)
        back = parse_events(write_events(_empty_batch(geo), "binary-v1"),
                            "binary-v1")
        assert len(back) == 0
        assert back.geometry == geo

    def test_single_record_decodes(self):
        geo = SensorGeometry(4, 4)
        b = batch_from_columns(np.array([100], np.uint64),
                               np.array([1], np.uint16),
                               np.array([2], np.uint16),
                               np.array([1], np.uint8), geo)
        back = parse_events(write_events(b, "binary-v1"), "binary-v1")
        assert back.events.tolist() == [(100, 1, 2, 1)]


class TestCsvFormat:
    def test_round_trip_random(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            geo = SensorGeometry(32, 24)
            b = _random_batch(rng, int(rng.integers(0, 200)), geo)
            back = parse_events(write_events(b, "csv"), "csv", geometry=geo)
            assert np.array_equal(back.events, b.events)

    def test_header_optional(self):
        geo = SensorGeometry(4, 4)
        with_header = parse_events(b"t,x,y,p\n100,1,2,1\n", "csv",
                                   geometry=geo)
        without = parse_events(b"100,1,2,1\n", "csv", geometry=geo)
        assert np.array_equal(with_header.events, without.events)

    def test_decreasing_timestamp_reports_line(self):
        geo = SensorGeometry(4, 4)
        with pytest.raises(StreamFormatError) as err:
            parse_events(b"100,1,2,1\n90,0,0,0\n", "csv", geometry=geo)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("text, line, what", [
        (b"5,0,0,1\n6,9,0,1\n7,0,0\n", 2, "coordinate (9,0) outside"),
        (b"5,0,0,1\n3,0,0,1\nseven,0,0,1\n", 2, "non-decreasing"),
        (b"18446744073709551616,0,0,1\nt,x,y,p\n", 1, "outside [0, 2**62)"),
        (b"5,0,0,1\n6,0,0,1\n7,0,0\n", 3, "expected 4 fields, got 3"),
        (b"5,0,0,1\nt,x,y,p\n4,0,0,1\n", 2, "header row after data"),
        # lines are physical lines: form feeds and record separators are
        # no line breaks, and a non-ASCII byte is a syntax fault
        (b"1,1,1,0\x0c2,1,1,0\n3,9,1,0\n", 1, "expected 4 fields, got 7"),
        (b"1,1,1,0\x1e2,1,1,0\n", 1, "expected 4 fields, got 7"),
        (b"5,0,0,1\r\n6,0,0,1\r7,\xe9,0,1\n", 3,
         "non-integer field in '7,\\udce9,0,1'"),
        (b"5,0,0,1\n6,9,0,1\n7,\xff,0,1\n", 2, "coordinate (9,0) outside"),
    ])
    def test_bad_record_before_a_syntax_fault_is_reported(self, text, line,
                                                           what):
        # a syntax fault ends the rows; it is the error only when no row
        # before it breaks a rule
        with pytest.raises(StreamFormatError) as err:
            parse_events(text, "csv", geometry=SensorGeometry(4, 4))
        assert err.value.line == line and what in str(err.value)

    def test_lines_end_at_newlines_only(self):
        text = b"5,0,0,1\r\n6,1,1,1\r7,2,2,0\x0c\n\x0b\n8,3,3,1"
        got = parse_events(text, "csv", geometry=SensorGeometry(4, 4))
        assert got.events["t"].tolist() == [5, 6, 7, 8]

    def test_line_numbers_count_the_header(self):
        geo = SensorGeometry(4, 4)
        with pytest.raises(StreamFormatError) as err:
            parse_events(b"t,x,y,p\n100,1,2,1\n90,0,0,0\n", "csv",
                         geometry=geo)
        assert "line 3" in str(err.value)

    def test_polarity_on_wire_is_zero_or_one(self):
        geo = SensorGeometry(4, 4)
        b = parse_events(b"5,0,0,0\n6,1,1,1\n", "csv", geometry=geo)
        assert list(b.events["p"]) == [0, 1]
        text = write_events(b, "csv").decode()
        assert text.splitlines()[1].endswith(",0")
        with pytest.raises(StreamFormatError):
            parse_events(b"5,0,0,-1\n", "csv", geometry=geo)

    def test_geometry_required(self):
        with pytest.raises(ValueError):
            parse_events(b"1,0,0,1\n", "csv")

    def test_write_formats_a_run_of_records_at_a_time(self):
        # 200k records, 4.4 MB of text, not a whole number of runs: the
        # rows of all of them at once held about 9 bytes for each byte
        # written; a run at a time holds the result twice and one run's
        # rows, about 200 bytes each
        geo = SensorGeometry(240, 180)
        b = _random_batch(np.random.default_rng(9), 200_000, geo,
                          t_span=10 ** 12)
        want = ("t,x,y,p\n" + "".join(
            f"{t},{x},{y},{p}\n" for t, x, y, p in b.events.tolist())
                ).encode("ascii")
        peak = traced_peak(lambda: write_events(b, "csv"))
        assert write_events(b, "csv") == want
        assert peak < 2 * len(want) + 200 * events._CHECK_RUN, \
            (peak, len(want))
        assert write_events(_empty_batch(geo), "csv") == b"t,x,y,p\n"


class TestMotionSpec:
    @pytest.mark.parametrize("velocity", [
        (math.inf, 40.0), (40.0, -math.inf), (math.nan, 40.0),
        (0.0, math.nan)])
    @pytest.mark.parametrize("pattern", ["vertical-edge", "grid-of-corners"])
    def test_non_finite_velocity_rejected(self, pattern, velocity):
        with pytest.raises(ValueError, match="finite"):
            MotionSpec(pattern, velocity, 1.0)


    @pytest.mark.parametrize("side", [0, -1])
    def test_square_side_at_least_one(self, side):
        with pytest.raises(ValueError, match="square side"):
            MotionSpec("grid-of-corners", (40.0, 30.0), 1.0, grid_pitch=16,
                       square_side=side)
        assert MotionSpec("grid-of-corners", (40.0, 30.0), 1.0,
                          grid_pitch=16, square_side=1)


class TestVerticalEdge:
    def test_event_count_closed_interval(self):
        # 100 px/s across 100 cols for 1 s: each column crossed once,
        # including the t=0 and t=duration boundary crossings
        geo = SensorGeometry(100, 100)
        spec = MotionSpec("vertical-edge", (100.0, 0.0), 1.0)
        b = synthesize(spec, geo)
        p = b.events["p"]
        assert int((p == 1).sum()) == 10_000
        assert int((p == 0).sum()) == 10_000

    def test_leading_positive_trailing_negative(self):
        geo = SensorGeometry(10, 2)
        spec = MotionSpec("vertical-edge", (10.0, 0.0), 0.5)
        b = synthesize(spec, geo)
        ev = b.events
        # at any column, the positive crossing precedes the negative one
        for c in np.unique(ev["x"]):
            col = ev[ev["x"] == c]
            tp = col["t"][col["p"] == 1]
            tn = col["t"][col["p"] == 0]
            if len(tp) and len(tn):
                assert tp.max() < tn.min()

    def test_negative_velocity_mirrors(self):
        geo = SensorGeometry(20, 4)
        fwd = synthesize(MotionSpec("vertical-edge", (20.0, 0.0), 1.0), geo)
        bwd = synthesize(MotionSpec("vertical-edge", (-20.0, 0.0), 1.0), geo)
        assert len(fwd) == len(bwd)
        assert set(np.unique(fwd.events["x"])) == set(np.unique(bwd.events["x"]))

    def test_pure_vertical_velocity_emits_nothing(self):
        geo = SensorGeometry(8, 8)
        b = synthesize(MotionSpec("vertical-edge", (0.0, 30.0), 1.0), geo)
        assert len(b) == 0

    def test_start_time_offsets_timestamps(self):
        geo = SensorGeometry(10, 2)
        spec = MotionSpec("vertical-edge", (10.0, 0.0), 0.5)
        a = synthesize(spec, geo)
        b = synthesize(spec, geo, start_time=5_000)
        assert np.array_equal(b.events["t"], a.events["t"] + 5_000)

    def test_doubling_velocity_halves_span(self):
        geo = SensorGeometry(50, 10)
        slow = synthesize(MotionSpec("vertical-edge", (25.0, 0.0), 4.0), geo)
        fast = synthesize(MotionSpec("vertical-edge", (50.0, 0.0), 4.0), geo)
        span = lambda b: int(b.events["t"].max() - b.events["t"].min())
        assert abs(span(slow) - 2 * span(fast)) <= 2  # 1 us rounding per end


class TestGridOfCorners:
    def test_events_in_bounds_and_sorted(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            geo = SensorGeometry(int(rng.integers(32, 128)),
                                 int(rng.integers(32, 128)))
            vel = (float(rng.uniform(-80, 80)), float(rng.uniform(-80, 80)))
            if abs(vel[0]) + abs(vel[1]) < 1:
                continue
            spec = MotionSpec("grid-of-corners", vel, 0.5)
            b = synthesize(spec, geo)
            ev = b.events
            assert np.all(np.diff(ev["t"].astype(np.int64)) >= 0)
            assert ev["x"].max(initial=0) < geo.width
            assert ev["y"].max(initial=0) < geo.height

    def test_polarity_balance_over_full_traversal(self):
        # every pixel entered by a square is eventually left again when
        # the sweep is long enough, so counts per pixel differ by <= 1
        geo = SensorGeometry(64, 64)
        spec = MotionSpec("grid-of-corners", (32.0, 24.0), 2.0)
        b = synthesize(spec, geo)
        ev = b.events
        flat = ev["y"].astype(np.int64) * geo.width + ev["x"]
        pos = np.bincount(flat[ev["p"] == 1], minlength=geo.pixel_count)
        neg = np.bincount(flat[ev["p"] == 0], minlength=geo.pixel_count)
        assert np.abs(pos - neg).max() <= 1

    def test_corner_positions_move_with_velocity(self):
        geo = SensorGeometry(96, 96)
        spec = MotionSpec("grid-of-corners", (40.0, 30.0), 1.0)
        early = corner_positions(spec, geo, 100_000)
        late = corner_positions(spec, geo, 600_000)
        warp = linear_warp((40.0, 30.0), 100_000, 600_000)
        moved = warp(early)
        # every warped early corner that stays in frame appears late
        inside = ((moved[:, 0] >= 0) & (moved[:, 0] < 96)
                  & (moved[:, 1] >= 0) & (moved[:, 1] < 96))
        for pt in moved[inside]:
            d = np.linalg.norm(late - pt, axis=1).min()
            assert d < 1e-6

    def test_linear_warp_identity_at_equal_tau(self):
        warp = linear_warp((50.0, -20.0), 1234, 1234)
        pts = np.array([[1.0, 2.0], [3.5, 8.25]])
        assert np.allclose(warp(pts), pts)


def _axis_interval_reference(p0, v, a, s):
    """Times at which p0 - v*t lies inside the slab [a, a+s]."""
    if v == 0:
        inside = (p0 >= a) & (p0 <= a + s)
        lo = np.where(inside, -np.inf, np.inf)
        hi = np.where(inside, np.inf, -np.inf)
        return lo, hi
    t0 = (p0 - a - s) / v
    t1 = (p0 - a) / v
    return np.minimum(t0, t1), np.maximum(t0, t1)


def _grid_events_reference(spec, geometry):
    """The whole-frame sweep: every square evaluated on every pixel."""
    vx, vy = spec.velocity
    w, h = geometry.width, geometry.height
    px, py = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    px, py = px.ravel(), py.ravel()
    pix_x = px.astype(np.uint16)
    pix_y = py.astype(np.uint16)

    side = float(spec.square_side)
    ts, xs, ys, ps = [], [], [], []
    for ax, ay in _grid_anchors(spec, geometry):
        lo_x, hi_x = _axis_interval_reference(px, vx, ax, side)
        lo_y, hi_y = _axis_interval_reference(py, vy, ay, side)
        t_in = np.maximum(lo_x, lo_y)
        t_out = np.minimum(hi_x, hi_y)
        valid = t_in < t_out

        enter = valid & (t_in > 0) & (t_in <= spec.duration)
        leave = valid & (t_out > 0) & (t_out <= spec.duration) & \
            (np.maximum(t_in, 0.0) < t_out)
        for mask, times, pol in ((enter, t_in, 1), (leave, t_out, 0)):
            if mask.any():
                ts.append(times[mask])
                xs.append(pix_x[mask])
                ys.append(pix_y[mask])
                ps.append(np.full(mask.sum(), pol, dtype=np.uint8))
    if not ts:
        z = np.empty(0)
        return z, z.astype(np.uint16), z.astype(np.uint16), z.astype(np.uint8)
    return (np.concatenate(ts), np.concatenate(xs), np.concatenate(ys),
            np.concatenate(ps))


def _edge_events_reference(spec, geometry):
    """Every crossing of a full-height vertical edge as four columns.

    The leading edge starts on the first column in its direction of travel
    and reaches column c at (c - c0)/vx; the trailing edge runs one pixel
    behind. Crossings at exactly t = duration are included.
    """
    vx = spec.velocity[0]
    w, h = geometry.width, geometry.height
    cols = np.arange(w, dtype=np.float64)
    if vx == 0:
        empty = np.empty(0)
        return empty, empty.astype(np.uint16), empty.astype(np.uint16), \
            empty.astype(np.uint8)
    c0 = 0.0 if vx > 0 else float(w - 1)
    t_lead = (cols - c0) / vx
    t_trail = (cols + math.copysign(1.0, vx) - c0) / vx

    ts, xs, ps = [], [], []
    for t_cross, pol in ((t_lead, 1), (t_trail, 0)):
        hit = (t_cross >= 0) & (t_cross <= spec.duration)
        ts.append(np.repeat(t_cross[hit], h))
        xs.append(np.repeat(cols[hit].astype(np.uint16), h))
        ps.append(np.full(hit.sum() * h, pol, dtype=np.uint8))
    t = np.concatenate(ts)
    x = np.concatenate(xs)
    y = np.tile(np.arange(h, dtype=np.uint16), len(t) // h)
    p = np.concatenate(ps)
    return t, x, y, p


def synthesize_reference(spec, geometry, start_time=0):
    """The generator as a whole-frame sweep with a four-key sort."""
    if spec.pattern == "vertical-edge":
        t, x, y, p = _edge_events_reference(spec, geometry)
    else:
        t, x, y, p = _grid_events_reference(spec, geometry)
    t_us = np.floor(t * events.US_PER_S).astype(np.int64) + start_time
    order = np.lexsort((p, y, x, t_us))
    return batch_from_columns(t_us[order], x[order], y[order], p[order],
                              geometry)


def _random_specs(rng, count):
    """Small seeded scenes, edge cases included: zero and negative
    velocity components, one-pixel-wide or -high sensors, pitch one above
    the side, sweeps shorter than a pixel or longer than the frame."""
    for i in range(count):
        w = int(rng.choice([1, 2, int(rng.integers(3, 70))]))
        h = int(rng.choice([1, 2, int(rng.integers(3, 70))]))
        side = int(rng.integers(1, 10))
        pitch = side + int(rng.choice([1, int(rng.integers(2, 20))]))
        vx, vy = (float(rng.choice([0.0, -float(rng.integers(1, 100)),
                                    rng.uniform(-300, 300)]))
                  for _ in range(2))
        if vx == vy == 0:
            vx = -40.0
        duration = float(rng.choice([0.25, 1.0, rng.uniform(1e-3, 1.5)]))
        pattern = "vertical-edge" if i % 8 == 0 else "grid-of-corners"
        yield (MotionSpec(pattern, (vx, vy), duration, grid_pitch=pitch,
                          square_side=side), SensorGeometry(w, h))


class TestSynthesizeEquivalence:
    def test_random_specs_byte_identical(self):
        rng = np.random.default_rng(2024)
        # fast sweeps: a square passes a pixel within a millisecond, or
        # within a microsecond, so stamps tie across polarities
        fast = [(MotionSpec("grid-of-corners", (2500.0, -1700.0), 0.02,
                            grid_pitch=7, square_side=3),
                 SensorGeometry(40, 30)),
                (MotionSpec("grid-of-corners", (-2e6, 0.0), 2e-5,
                            grid_pitch=3, square_side=1),
                 SensorGeometry(30, 2))]
        events_seen = 0
        for spec, geo in fast + list(_random_specs(rng, 40)):
            want = synthesize_reference(spec, geo)
            got = synthesize(spec, geo)
            assert got.events.tobytes() == want.events.tobytes(), (spec, geo)
            assert got.geometry == geo
            events_seen += len(want)
        assert events_seen > 50_000

    def test_last_stamp_just_below_the_range(self):
        rng = np.random.default_rng(7)
        for spec, geo in _random_specs(rng, 8):
            base = synthesize_reference(spec, geo)
            if not len(base):
                continue
            start = events.TIMESTAMP_LIMIT - 1 - int(base.events["t"][-1])
            want = synthesize_reference(spec, geo, start)
            got = synthesize(spec, geo, start)
            assert int(got.events["t"][-1]) == events.TIMESTAMP_LIMIT - 1
            assert got.events.tobytes() == want.events.tobytes()
            with pytest.raises(ValueError, match="outside"):
                synthesize(spec, geo, start + 1)

    # the benchmark scenes at velocities jittered as a seed does (up to
    # 1% per component), and the acceptance scene as it is
    @pytest.mark.parametrize("geo, velocity, pitch, side, duration", [
        ((128, 128), (-56.39, -41.83), 48, 16, 1.5),    # replay-corners
        ((128, 128), (-55.71, -42.30), 48, 16, 0.5),    # replay-learned
        ((240, 180), (-301.7, -224.1), 12, 5, 0.5),     # flood-240
        ((128, 128), (-56.0, -42.0), 48, 16, 1.0),      # acceptance
    ])
    def test_benchmark_and_acceptance_scenes_byte_identical(
            self, geo, velocity, pitch, side, duration):
        spec = MotionSpec("grid-of-corners", velocity, duration,
                          grid_pitch=pitch, square_side=side)
        want = synthesize_reference(spec, SensorGeometry(*geo))
        got = synthesize(spec, SensorGeometry(*geo))
        assert len(got) > 5_000
        assert got.events.tobytes() == want.events.tobytes()

    # every sign of each velocity component, zero included: the row
    # offsets are reversed for vy < 0, and a zero component makes every
    # row (or column) offset meet for the whole stream
    @pytest.mark.parametrize("velocity", [
        (130.0, 85.0), (130.0, -85.0), (-130.0, 85.0), (-130.0, -85.0),
        (0.0, 95.0), (0.0, -95.0), (95.0, 0.0), (-95.0, 0.0),
    ])
    @pytest.mark.parametrize("geo, pitch, side", [
        ((37, 29), 9, 4),
        ((23, 31), 3, 1),     # runs of offsets that only touch
    ])
    def test_velocity_signs_byte_identical(self, velocity, geo, pitch, side):
        spec = MotionSpec("grid-of-corners", velocity, 0.3,
                          grid_pitch=pitch, square_side=side)
        want = synthesize_reference(spec, SensorGeometry(*geo))
        got = synthesize(spec, SensorGeometry(*geo))
        assert len(want) > 100
        assert got.events.tobytes() == want.events.tobytes()

    # scenes where most squares emit nothing, so their runs of crossings
    # inside the frame are empty: lattice lines beside the frame when a
    # component is zero, squares passing a sensor smaller than the gaps
    # between them (12 of 15, 9 of 9, 12 of 15 and 151 of 154 squares)
    @pytest.mark.parametrize("velocity, geo, pitch, side", [
        ((60.0, 0.0), (40, 3), 20, 5),
        ((-45.0, 30.0), (2, 1), 50, 3),
        ((0.0, -70.0), (1, 40), 30, 8),
        ((900.0, -700.0), (5, 4), 40, 2),
    ])
    def test_squares_emitting_nothing_byte_identical(self, velocity, geo,
                                                     pitch, side):
        spec = MotionSpec("grid-of-corners", velocity, 0.5,
                          grid_pitch=pitch, square_side=side)
        want = synthesize_reference(spec, SensorGeometry(*geo))
        got = synthesize(spec, SensorGeometry(*geo))
        assert got.events.tobytes() == want.events.tobytes()


    # the vertical edge in both directions, with no horizontal motion (an
    # empty stream), on one-pixel, one-row and narrow sensors, from a
    # start time, and at 3e6 px/s, where a microsecond holds crossings of
    # several columns, so stamps tie. In 4/320 s at 320 px/s the leading
    # edge crosses its first column at exactly t = 0 and its fifth at
    # exactly t = duration; both are in the stream
    @pytest.mark.parametrize("velocity", [
        (320.0, 0.0), (-320.0, 45.0), (0.0, 80.0), (3e6, 0.0), (-3e6, -1.0)])
    @pytest.mark.parametrize("geo", [(1, 1), (300, 1), (7, 200), (64, 48)])
    @pytest.mark.parametrize("duration", [4 / 320, 0.25])
    @pytest.mark.parametrize("start", [0, 1_234_567])
    def test_vertical_edge_byte_identical(self, velocity, geo, duration,
                                          start):
        spec = MotionSpec("vertical-edge", velocity, duration)
        geometry = SensorGeometry(*geo)
        want = synthesize_reference(spec, geometry, start)
        got = synthesize(spec, geometry, start)
        assert got.events.tobytes() == want.events.tobytes()
        t = got.events["t"]
        if velocity[0] == 0:
            assert len(got) == 0
        else:
            assert len(got) and t[0] == start
        if abs(velocity[0]) == 320 and duration < 0.1 and geo[0] > 4:
            assert t[-1] == start + 12_500
        if abs(velocity[0]) == 3e6 and geo[0] > 3:
            assert len(np.unique(t)) < len(t) / geo[1]


class TestSortKeyLimit:
    # 64x64: 2*W*H = 2**13 keys per microsecond, so the last stamp a
    # scene may reach is 2**50 - 1 us, about 35.7 years
    GEO = SensorGeometry(64, 64)

    def test_scene_past_the_limit_rejected_naming_it(self):
        spec = MotionSpec("vertical-edge", (1e-9, 0.0), (2**50 + 1) / 1e6)
        with pytest.raises(ValueError, match=re.escape(
                "(floor(duration * 1e6) + 1) * 2*W*H must not exceed 2**63")):
            synthesize(spec, self.GEO)
        with pytest.raises(ValueError, match="sort key limit"):
            synthesize(MotionSpec("grid-of-corners", (1.0, 1.0), float("inf")),
                       self.GEO)

    def test_scene_past_the_event_bound_rejected_before_allocating(self):
        # a pixel's path crosses (|vx| + |vy|) * duration / pitch lattice
        # cells and more; 1e20 px/s would ask for a lattice of 6e17 lines
        for velocity in ((1e20, 30.0), (-30.0, 1e20), (1e300, 1e300),
                         (3e5, 3e5)):
            spec = MotionSpec("grid-of-corners", velocity, 0.1)

            def rejected():
                with pytest.raises(ValueError, match="more than 2\\*\\*31"):
                    synthesize(spec, SensorGeometry(2048, 2048))

            assert traced_peak(rejected) < 1 << 20
        with pytest.raises(ValueError, match="more than 2\\*\\*31"):
            synthesize(MotionSpec("vertical-edge", (1.0, 0.0), 1.0),
                       SensorGeometry(65535, 32769))
        # the bound holds every stream the tests and benchmarks synthesize
        spec = MotionSpec("grid-of-corners", (-300.0, -225.0), 0.5,
                          grid_pitch=12, square_side=5)
        assert 0 < len(synthesize(spec, SensorGeometry(240, 180))) < \
            2 * 43_200 * (525 * 0.5 / 12 + 3)

    def test_pitch_far_past_the_frame_shows_one_square(self):
        # only the square at anchor 0 can reach a 32x32 frame in 0.1 s;
        # pitches past int64 or past the memory once read garbage anchors
        # or allocated an offset per lattice line between them
        def stream(pitch, velocity=(-56.0, -42.0)):
            spec = MotionSpec("grid-of-corners", velocity, 0.1,
                              grid_pitch=pitch, square_side=6)
            return synthesize(spec, SensorGeometry(32, 32)).events.tobytes()

        want = stream(10**5)
        assert want and stream(10**15) == stream(10**20) == want
        with pytest.raises(ValueError, match="more than 2\\*\\*31 lattice"):
            stream(10**20, (1e25, 42.0))

    @pytest.mark.parametrize("velocity, duration", [
        ((1e300, 0.0), 1e10), ((0.0, -1e300), 1e10), ((1.0, 1.0), math.inf)])
    def test_ground_truth_of_an_unbounded_sweep_rejected(self, velocity,
                                                         duration):
        # the sweep overflows a float, so the lattice has no finite bound;
        # synthesize meets the sort key limit first
        spec = MotionSpec("grid-of-corners", velocity, duration)
        with pytest.raises(ValueError, match="more than 2\\*\\*31 lattice"):
            corner_positions(spec, self.GEO, 0)
        with pytest.raises(ValueError, match="sort key limit"):
            synthesize(spec, self.GEO)

    # a square or edge crossing late in the scene puts keys near 2**63
    @pytest.mark.parametrize("spec", [
        MotionSpec("vertical-edge", (1e-9, 0.0), (2**50 - 1) / 1e6),
        MotionSpec("grid-of-corners", (3e-8, -2e-8), (2**50 - 1) / 1e6,
                   grid_pitch=20, square_side=7),
    ])
    def test_scene_just_inside_the_limit_byte_identical(self, spec):
        want = synthesize_reference(spec, self.GEO)
        got = synthesize(spec, self.GEO)
        assert int(want.events["t"][-1]) * 2 * 64 * 64 > 2**62
        assert got.events.tobytes() == want.events.tobytes()

    @pytest.mark.parametrize("start", [-1, events.TIMESTAMP_LIMIT, 2**63])
    def test_start_time_outside_the_range_rejected_first(self, start):
        spec = MotionSpec("grid-of-corners", (50.0, 20.0), 0.1)
        with pytest.raises(ValueError, match="start time"):
            synthesize(spec, self.GEO, start)


def test_flood_scene_peaks_no_higher_than_the_lexsort_path():
    # the previous synthesizer, a two-key lexsort with its gathers, peaked
    # at 24,925,552 bytes of traced allocations on this scene, and one
    # that sorted a separate key array at 1.67x its output; the keys are
    # sorted inside the records' own buffer now
    spec = MotionSpec("grid-of-corners", (-300.0, -225.0), 0.5,
                      grid_pitch=12, square_side=5)
    peak = traced_peak(lambda: synthesize(spec, SensorGeometry(240, 180)))
    batch = synthesize(spec, SensorGeometry(240, 180))
    assert len(batch) == 763_800
    assert peak <= 24_925_552
    assert peak <= 1.15 * batch.events.nbytes, (peak, batch.events.nbytes)


def test_vertical_edge_peaks_under_twice_its_output():
    # four event columns, float64 stamps among them, and the keys derived
    # from them peaked at 2.85x the output; the keys built straight from
    # each crossed column's row-0 key hold 8 bytes beside each 13-byte
    # record
    spec = MotionSpec("vertical-edge", (320.0, 0.0), 2.0)
    geo = SensorGeometry(640, 480)
    peak = traced_peak(lambda: synthesize(spec, geo))
    batch = synthesize(spec, geo)
    assert len(batch) == 614_400
    assert peak <= 2 * batch.events.nbytes, (peak, batch.events.nbytes)


def test_synthesize_gives_free_heap_back_first(monkeypatch):
    # once per scene, before its keys and records are allocated, so they
    # never land in holes an earlier run left
    calls = []
    real_grid_keys = events._grid_keys
    monkeypatch.setattr(events, "_c_malloc",
                        lambda name, *args: calls.append((name, *args)))
    monkeypatch.setattr(events, "_grid_keys", lambda *a: (
        calls.append("keys"), real_grid_keys(*a))[1])
    spec = MotionSpec("grid-of-corners", (50.0, 20.0), 0.05)
    synthesize(spec, SensorGeometry(64, 64))
    synthesize(MotionSpec("vertical-edge", (50.0, 0.0), 0.05),
               SensorGeometry(64, 64))
    assert calls == [("malloc_trim", 0), "keys", ("malloc_trim", 0)]


def _resident_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc"
                    or {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"}
                    & set(os.environ),
                    reason="glibc's malloc_trim, the pipeline's thresholds")
def test_malloc_trim_releases_freed_arrays():
    # with the pipeline's thresholds a freed 24 MB array stays resident
    # in the heap; the trim synthesize makes gives its pages back
    pipeline._keep_freed_memory()
    block = np.ones(24 << 20, dtype=np.uint8)
    del block
    held = _resident_bytes()
    events._c_malloc("malloc_trim", 0)
    assert _resident_bytes() < held - (16 << 20)


def test_synthesize_without_a_c_malloc(monkeypatch):
    def no_library(name):
        raise OSError("no C library")

    events._c_malloc("no_such_function", 0)
    monkeypatch.setattr(events.ctypes, "CDLL", no_library)
    spec = MotionSpec("vertical-edge", (50.0, 0.0), 0.05)
    assert len(synthesize(spec, SensorGeometry(64, 64))) > 0


class TestMotionSpecValidation:
    def test_rejects_zero_velocity(self):
        with pytest.raises(ValueError):
            MotionSpec("vertical-edge", (0.0, 0.0), 1.0)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            MotionSpec("vertical-edge", (10.0, 0.0), 0.0)

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ValueError):
            MotionSpec("spiral", (10.0, 0.0), 1.0)

    def test_rejects_side_not_below_pitch(self):
        with pytest.raises(ValueError):
            MotionSpec("grid-of-corners", (10.0, 0.0), 1.0,
                       grid_pitch=8, square_side=8)


def _mutants(blob, header, rng, count=40):
    """``count`` seeded mutants of each kind: a bit flipped in the header,
    a bit flipped anywhere, a truncation, and one to three little-endian
    0x7fffffff words written over the bytes at some offset."""
    def flipped(limit):
        out = bytearray(blob)
        out[int(rng.integers(limit))] ^= 1 << int(rng.integers(8))
        return bytes(out)

    for _ in range(count):
        yield "header flip", flipped(header)
        yield "flip", flipped(len(blob))
        yield "truncation", blob[:int(rng.integers(len(blob)))]
        at = int(rng.integers(len(blob)))
        run = b"\xff\xff\xff\x7f" * int(rng.integers(1, 4))
        yield "0x7fffffff run", blob[:at] + run + blob[at + len(run):]


def _valid_input(name):
    """A small valid input of the named parser: (bytes, header size,
    parse)."""
    geo = SensorGeometry(12, 9)
    batch = _random_batch(np.random.default_rng(70), 60, geo)
    if name == "binary-v1":
        return (write_events(batch, name), BINARY_HEADER_SIZE,
                lambda data: parse_events(data, name))
    if name == "csv":
        return (write_events(batch, name), len(CSV_HEADER) + 1,
                lambda data: parse_events(data, name, geo))
    if name == "mcts":
        grid = TimestampGrid.create(geo)
        apply_events(grid, EventCountRing(1), batch)
        spec = WindowSpec("fixed-duration", durations=(3_000, 40_000))
        tensor = mcts(grid, EventCountRing(1), grid.latest_time, spec)
        return write_mcts(tensor), MCTS_HEADER_SIZE, read_mcts
    weights = random_weights(NetworkSpec(2, (2, 3, 2, 2), 4), 0)
    return save_weights(weights), 44, load_weights


@pytest.mark.parametrize("name", ["binary-v1", "csv", "mcts", "slwt"])
def test_mutated_inputs_parse_or_raise_value_error(name):
    """Every seeded mutant of a valid stream, dump or weight file either
    parses or raises ValueError (StreamFormatError is one), at a small
    traced peak: a mutated size field never allocates what it declares."""
    blob, header, parse = _valid_input(name)
    parse(blob)
    rng = np.random.default_rng(list(map(ord, name)))
    outcomes = set()
    for kind, data in _mutants(blob, header, rng):
        tracemalloc.start()
        try:
            parse(data)
            outcomes.add("parsed")
        except ValueError:
            outcomes.add("ValueError")
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 4 * len(blob) + (1 << 16), (name, kind, peak)
    assert "ValueError" in outcomes, name


# checks no other test reaches: label -> (call, exception type, message)
_SIGNED = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
_CHECKS = {
    "int64 array as events": (
        lambda: EventBatch(np.zeros(2, np.int64), SensorGeometry(4, 4)),
        TypeError, f"expected event dtype {EVENT_DTYPE}, got int64"),
    "record with a signed polarity": (
        lambda: EventBatch(np.zeros(2, _SIGNED), SensorGeometry(4, 4)),
        TypeError, f"expected event dtype {EVENT_DTYPE}, got {_SIGNED}"),
    "two-dimensional events": (
        lambda: EventBatch(np.zeros((2, 3), EVENT_DTYPE),
                           SensorGeometry(4, 4)),
        ValueError, "event array must be one-dimensional"),
    "parse an unknown format": (
        lambda: parse_events(b"t,x,y,p\n", "json"),
        ValueError, "unknown event format 'json'"),
    "write an unknown format": (
        lambda: write_events(_empty_batch(SensorGeometry(4, 4)), "binary-v2"),
        ValueError, "unknown event format 'binary-v2'"),
    "corners of a vertical edge": (
        lambda: corner_positions(MotionSpec("vertical-edge", (10.0, 0.0), 1.0),
                                 SensorGeometry(8, 8), 0),
        ValueError, "corner ground truth exists only for grid-of-corners"),
}


@pytest.mark.parametrize("label", _CHECKS)
def test_check_raises_its_message(label):
    call, kind, message = _CHECKS[label]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message
