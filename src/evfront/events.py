"""Event stream data model, serialization and synthesis.

An event is ``(t, x, y, p)``: an integer microsecond timestamp, a pixel
coordinate, and a polarity of 0 (brightness decrease) or 1 (increase).
Batches keep timestamps non-decreasing; equal timestamps are legal because
real sensors emit bursts sharing a stamp.

Timestamps lie in ``[0, TIMESTAMP_LIMIT)``, that is ``[0, 2**62)``:
``EventBatch`` and both parsers reject a stamp outside it, at its
position. So code behind them holds a stamp, or the difference of two, in
int64 without overflow. The wire formats still carry stamps as u64.

Wire formats
------------
binary-v1   magic ``EVT1``, width and height as u16 little-endian, then
            packed 13-byte records, ``EVENT_DTYPE`` as it lies in memory:
            t u64 | x u16 | y u16 | p u8. No padding, no footer.
csv         header line ``t,x,y,p`` (optional on input), one event per
            row. Geometry travels out of band.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from dataclasses import dataclass

import numpy as np

US_PER_S = 1_000_000

TIMESTAMP_LIMIT = 1 << 62  # accepted stamps: [0, TIMESTAMP_LIMIT)

BINARY_MAGIC = b"EVT1"
BINARY_HEADER_SIZE = 8

# The binary-v1 record, in memory as on the wire; numpy keeps it at 13
# bytes because no alignment is requested.
EVENT_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")])
BINARY_RECORD_SIZE = EVENT_DTYPE.itemsize

CSV_HEADER = "t,x,y,p"

_DECODE_RUN = 1 << 14  # sort keys decoded at a time by synthesize
_CHECK_RUN = 1 << 16  # records at a time: _first_bad_record, csv output
# synthesize's bound on a scene's events (28 GB of binary-v1 records) and
# on its lattice offsets per axis
_MAX_SYNTH_EVENTS = 1 << 31


class StreamFormatError(ValueError):
    """An event stream violated its declared format.

    ``offset`` is the byte offset of the offending record (binary input),
    ``line`` the 1-based physical line number (csv input).
    """

    def __init__(self, message: str, *, offset: int | None = None,
                 line: int | None = None):
        where = ""
        if offset is not None:
            where = f" (byte offset {offset})"
        elif line is not None:
            where = f" (line {line})"
        super().__init__(message + where)
        self.offset = offset
        self.line = line


@dataclass(frozen=True)
class SensorGeometry:
    width: int
    height: int

    def __post_init__(self) -> None:
        if not (1 <= self.width <= 65535 and 1 <= self.height <= 65535):
            raise ValueError(f"geometry sides must be 1 to 65535, got "
                             f"{self.width}x{self.height}")

    @property
    def pixel_count(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class EventBatch:
    """A time-ordered run of events on one sensor.

    ``events`` is a structured array with ``EVENT_DTYPE`` fields; it is
    treated as immutable once the batch exists.
    """

    events: np.ndarray
    geometry: SensorGeometry

    def __post_init__(self) -> None:
        ev = self.events
        if ev.dtype != EVENT_DTYPE:
            raise TypeError(f"expected event dtype {EVENT_DTYPE}, got {ev.dtype}")
        if ev.ndim != 1:
            raise ValueError("event array must be one-dimensional")
        _check_records(ev["t"], ev["x"], ev["y"], ev["p"], self.geometry)

    def __len__(self) -> int:
        return len(self.events)

    def slice(self, start: int, stop: int) -> "EventBatch":
        """Events ``start:stop``, a view; not re-validated."""
        # a contiguous run of a validated batch is valid as it stands
        return _trusted_batch(self.events[start:stop], self.geometry)


def _trusted_batch(events: np.ndarray,
                   geometry: SensorGeometry) -> EventBatch:
    """A batch of events already checked against ``geometry``, built
    without ``__post_init__`` validating them again."""
    batch = object.__new__(EventBatch)
    object.__setattr__(batch, "events", events)
    object.__setattr__(batch, "geometry", geometry)
    return batch


def _first_bad_record(t, x, y, p, geometry: SensorGeometry
                      ) -> tuple[int, str] | None:
    """Index and fault of the first record that breaks a rule, or None.
    A record breaking several rules reports the first of: a stamp outside
    ``[0, TIMESTAMP_LIMIT)``, a stamp below its predecessor, a coordinate
    off ``geometry``, a polarity other than 0 or 1. The columns are
    numpy arrays; a parser passes Python ints (``dtype=object``), which
    cannot overflow before they are checked. The rules run over
    ``_CHECK_RUN`` records at a time, each run's first stamp against the
    previous run's last, so the temporaries stay the same size however
    long the columns."""
    w, h = geometry.width, geometry.height
    for lo in range(0, len(t), _CHECK_RUN):
        ts, xs, ys, ps = (c[lo:lo + _CHECK_RUN] for c in (t, x, y, p))
        down = np.empty(len(ts), dtype=bool)
        down[0] = lo > 0 and ts[0] < t[lo - 1]
        down[1:] = ts[1:] < ts[:-1]
        rules = ((ts < 0) | (ts >= TIMESTAMP_LIMIT), down,
                 (xs < 0) | (xs >= w) | (ys < 0) | (ys >= h),
                 (ps != 0) & (ps != 1))
        bad = np.logical_or.reduce(rules)
        if bad.any():
            i = int(np.argmax(bad))
            faults = (f"timestamp {ts[i]} outside [0, 2**62)",
                      "timestamps must be non-decreasing",
                      f"coordinate ({xs[i]},{ys[i]}) outside {w}x{h}",
                      f"polarity {ps[i]} not in {{0,1}}")
            return lo + i, next(f for f, rule in zip(faults, rules)
                                if rule[i])
    return None


def _check_records(t, x, y, p, geometry: SensorGeometry) -> None:
    """Raise ValueError naming the first record that breaks a rule."""
    fault = _first_bad_record(t, x, y, p, geometry)
    if fault is not None:
        raise ValueError("event {}: {}".format(*fault))


def _integer_column(name: str, values) -> np.ndarray:
    """``values`` as an array of the same integers: an integer array as
    it is, else Python ints as objects, which hold any value exactly
    (numpy turns ints past int64 into floats). Anything else raises
    TypeError, so no cast changes a value before it is checked."""
    given = np.asarray(values)
    if given.dtype.kind in "iu":
        return given
    column = np.asarray(values, dtype=object)
    if all(isinstance(v, (int, np.integer)) for v in column.flat):
        return column
    raise TypeError(f"event column {name} must hold integers, "
                    f"got {given.dtype}")


def _records(t, x, y, p) -> np.ndarray:
    """Parallel columns packed as ``EVENT_DTYPE`` records."""
    ev = np.empty(len(t), dtype=EVENT_DTYPE)
    ev["t"] = t
    ev["x"] = x
    ev["y"] = y
    ev["p"] = p
    return ev


def batch_from_columns(t, x, y, p, geometry: SensorGeometry) -> EventBatch:
    """Assemble a batch from parallel integer columns. Their values are
    checked as given, then packed: a value no record field holds is
    reported, never wrapped or truncated into one."""
    columns = [_integer_column(*c) for c in zip("txyp", (t, x, y, p))]
    _check_records(*columns, geometry)
    return _trusted_batch(_records(*columns), geometry)


@dataclass(frozen=True)
class MotionSpec:
    """Synthetic scene description.

    The contrast rule is fixed: a leading edge emits 1, a trailing edge
    0. ``velocity`` is in pixels per second. For ``grid-of-corners`` the
    pattern is a lattice of bright squares of side ``square_side`` on a
    ``grid_pitch`` spacing, translating rigidly at ``velocity``.
    """

    pattern: str
    velocity: tuple[float, float]
    duration: float
    grid_pitch: int = 16
    square_side: int = 6

    def __post_init__(self) -> None:
        if self.pattern not in ("vertical-edge", "grid-of-corners"):
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        if not all(math.isfinite(v) for v in self.velocity):
            raise ValueError(f"velocity components must be finite, got "
                             f"{self.velocity}")
        if math.hypot(*self.velocity) == 0:
            raise ValueError("velocity must be non-zero")
        if self.square_side < 1:
            raise ValueError("square side must be at least 1")
        if self.grid_pitch <= self.square_side:
            raise ValueError("grid pitch must exceed square side")


# ---------------------------------------------------------------------------
# parsing / writing


def parse_events(data: bytes, format: str,
                 geometry: SensorGeometry | None = None) -> EventBatch:
    """Decode a byte stream into an EventBatch.

    ``geometry`` is required for csv input (the format does not carry it)
    and ignored for binary-v1 (the header does). A binary-v1 batch is a
    view of ``data``'s records, not a copy, and read-only for ``bytes``.
    """
    if format == "binary-v1":
        return _parse_binary(data)
    if format == "csv":
        if geometry is None:
            raise ValueError("csv input needs an explicit sensor geometry")
        return _parse_csv(data, geometry)
    raise ValueError(f"unknown event format {format!r}")


def binary_header(geometry: SensorGeometry) -> bytes:
    """The binary-v1 header; the records follow it as they lie."""
    return (BINARY_MAGIC + geometry.width.to_bytes(2, "little")
            + geometry.height.to_bytes(2, "little"))


def write_events(batch: EventBatch, format: str) -> bytes:
    if format == "binary-v1":
        # one copy: join reads the records' buffer into the result
        return b"".join((binary_header(batch.geometry),
                         np.ascontiguousarray(batch.events)))
    if format == "csv":  # a run of records at a time, as Python rows
        ev = batch.events
        runs = ("".join(f"{t},{x},{y},{p}\n" for t, x, y, p
                        in ev[lo:lo + _CHECK_RUN].tolist()).encode("ascii")
                for lo in range(0, len(ev), _CHECK_RUN))
        return b"".join([f"{CSV_HEADER}\n".encode("ascii"), *runs])
    raise ValueError(f"unknown event format {format!r}")


def _parse_binary(data: bytes) -> EventBatch:
    if len(data) < BINARY_HEADER_SIZE:
        raise StreamFormatError("header shorter than 8 bytes", offset=0)
    if data[:4] != BINARY_MAGIC:
        raise StreamFormatError(f"bad magic {data[:4]!r}", offset=0)
    width = int.from_bytes(data[4:6], "little")
    height = int.from_bytes(data[6:8], "little")
    if width == 0 or height == 0:
        raise StreamFormatError("zero sensor dimension in header", offset=4)
    geometry = SensorGeometry(width, height)

    n, leftover = divmod(len(data) - BINARY_HEADER_SIZE, BINARY_RECORD_SIZE)
    if leftover:
        raise StreamFormatError(
            "truncated record",
            offset=BINARY_HEADER_SIZE + n * BINARY_RECORD_SIZE)
    ev = np.frombuffer(data, EVENT_DTYPE, offset=BINARY_HEADER_SIZE)
    fault = _first_bad_record(ev["t"], ev["x"], ev["y"], ev["p"], geometry)
    if fault is not None:
        i, what = fault
        raise StreamFormatError(
            what, offset=BINARY_HEADER_SIZE + i * BINARY_RECORD_SIZE)
    return _trusted_batch(ev, geometry)


def _parse_csv(data: bytes, geometry: SensorGeometry) -> EventBatch:
    """The line loop only splits rows, which end at \\n, \\r\\n or \\r,
    into Python ints. A syntax fault, a non-ASCII byte included, ends the
    rows, and is raised only if no record before it breaks a rule."""
    rows: list[list[int]] = []  # line number, t, x, y, p
    syntax = None
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.decode("ascii", "surrogateescape").strip()
        if not line or line == CSV_HEADER and lineno == 1:
            continue
        parts = line.split(",")
        if line == CSV_HEADER:
            syntax = StreamFormatError("header row after data", line=lineno)
        elif len(parts) != 4:
            syntax = StreamFormatError(f"expected 4 fields, got {len(parts)}",
                                       line=lineno)
        else:
            try:
                rows.append([lineno, *map(int, parts)])
                continue
            except ValueError:
                syntax = StreamFormatError(f"non-integer field in {line!r}",
                                           line=lineno)
        break

    lines, t, x, y, p = np.array(rows, dtype=object).reshape(-1, 5).T
    fault = _first_bad_record(t, x, y, p, geometry)
    if fault is not None:
        i, what = fault
        raise StreamFormatError(what, line=lines[i])
    if syntax is not None:
        raise syntax
    return _trusted_batch(_records(t, x, y, p), geometry)


# ---------------------------------------------------------------------------
# synthesis


def synthesize(spec: MotionSpec, geometry: SensorGeometry,
               start_time: int = 0) -> EventBatch:
    """Generate the event stream of a rigidly translating pattern.

    Crossing times come from exact linear motion, truncated to integer
    microseconds and sorted with a canonical (t, x, y, p) tie order.

    Each event is one int64 key ``t_us * 2*W*H + (x*H + y)*2 + p``,
    which orders as (t, x, y, p) do and decodes back to the record, so
    one in-place sort by value orders the stream; equal keys are equal
    records, so no stable sort, permutation or gather is needed. The keys
    fit in int64 while ``(floor(duration * 1e6) + 1) * 2*W*H <= 2**63``:
    a longer scene on the sensor is rejected before any arithmetic, as
    are a ``start_time`` outside ``[0, 2**62)`` and a scene that may hold
    more than 2**31 events or span more than 2**31 lattice offsets. The
    edge costs one evaluation per column (see ``_edge_keys``), the corner
    grid one per pixel offset from a square's anchor, on each column
    offset's band of rows only, plus a shifted copy per square of the
    crossings inside the frame (see ``_grid_keys``). The stream is byte
    for byte that of evaluating every square on every pixel and sorting
    on four keys.
    """
    if not 0 <= start_time < TIMESTAMP_LIMIT:
        raise ValueError(f"start time {start_time} outside [0, 2**62)")
    w, h = geometry.width, geometry.height
    span = 2 * w * h  # sort keys per microsecond
    last_us = spec.duration * US_PER_S
    if not last_us < 2**63 or (math.floor(last_us) + 1) * span > 2**63:
        raise ValueError(
            f"a {spec.duration} s scene on a {w}x{h} sensor exceeds the sort "
            f"key limit: (floor(duration * 1e6) + 1) * 2*W*H must not "
            f"exceed 2**63")
    # the edge passes each pixel twice; on the grid a pixel's path visits
    # at most |dx|/pitch + |dy|/pitch + 3 lattice cells and enters and
    # leaves each cell's square at most once
    vx, vy = spec.velocity
    per_pixel = 2.0 if spec.pattern == "vertical-edge" else 2.0 * (
        (abs(vx) + abs(vy)) * spec.duration / spec.grid_pitch + 3)
    if not per_pixel * w * h <= _MAX_SYNTH_EVENTS:
        raise ValueError(
            f"a {spec.duration} s scene at {spec.velocity} px/s on a {w}x{h} "
            f"sensor may hold more than 2**31 events")
    # runs keep their freed arrays in the C heap (pipeline's thresholds);
    # given back first, they leave this scene's buffers no holes to fit
    # or miss, so it holds the same resident memory after any run
    _c_malloc("malloc_trim", 0)
    keys_of = _edge_keys if spec.pattern == "vertical-edge" else _grid_keys
    pieces = keys_of(spec, geometry, span)
    # the keys are sorted in the first 8n bytes of the 13n-byte record
    # buffer returned, each piece shifted straight into its place
    n = sum(len(piece) for piece, _ in pieces)
    ev = np.empty(n, dtype=EVENT_DTYPE)
    keys = ev.view(np.uint8)[:8 * n].view(np.int64)
    at = 0
    for piece, shift in pieces:
        np.add(piece, shift, out=keys[at:at + len(piece)])
        at += len(piece)
    del pieces  # freed before the decode's temporaries are made
    keys.sort()
    last = int(keys[-1]) // span + start_time if n else 0
    if last >= TIMESTAMP_LIMIT:
        raise ValueError(f"timestamp {last} outside [0, 2**62)")
    # decode a cache-sized run at a time, back to front, each run's keys
    # copied out before its records are written: record k starts at byte
    # 13k >= 8k, so it overwrites no key still to be read. Remainders are
    # taken as products (numpy divides by a scalar fast but takes its
    # remainder slowly); the records are sorted and in range by
    # construction
    for i in reversed(range(0, n, _DECODE_RUN)):
        key, rec = keys[i:i + _DECODE_RUN].copy(), ev[i:i + _DECODE_RUN]
        rec["p"] = key & 1
        key >>= 1
        t = key // (w * h)
        rec["t"] = t + start_time
        key -= t * (w * h)
        x = key // h
        rec["x"] = x
        rec["y"] = key - x * h
    return _trusted_batch(ev, geometry)


def _c_malloc(name: str, *args) -> None:
    """Call glibc's ``name`` (``mallopt``, ``malloc_trim``) with ``args``;
    nothing where the C library has no such function."""
    with contextlib.suppress(AttributeError, OSError, TypeError):
        getattr(ctypes.CDLL(None), name)(*args)


def _stamp_keys(t: np.ndarray, key: np.ndarray, span: int) -> np.ndarray:
    """Sort keys ``floor(t * 1e6) * span + key`` of crossings at t seconds."""
    keys = np.floor(t * US_PER_S).astype(np.int64)
    keys *= span
    keys += key
    return keys


def _edge_keys(spec: MotionSpec, geometry: SensorGeometry,
               span: int) -> list[tuple[np.ndarray, int]]:
    """Sort keys (see ``synthesize``) of a full-height vertical edge's
    crossings, unsorted, as ``(piece, shift)`` pairs, one per edge.

    The leading edge starts on the first column in its direction of travel
    and reaches column c at (c - c0)/vx; the trailing edge runs one pixel
    behind. Crossings at exactly t = duration are included. Every row of
    a column is crossed at once, so a column's keys are its row-0 key
    plus the row offsets 0, 2, ..., 2h-2.
    """
    vx = spec.velocity[0]
    w, h = geometry.width, geometry.height
    if vx == 0:
        return []
    cols = np.arange(w, dtype=np.float64)
    c0 = 0.0 if vx > 0 else float(w - 1)
    rows = np.arange(0, 2 * h, 2, dtype=np.int64)
    pieces = []
    for step, pol in ((0.0, 1), (math.copysign(1.0, vx), 0)):
        t = (cols + step - c0) / vx
        hit = (t >= 0) & (t <= spec.duration)
        row0 = _stamp_keys(t[hit], 2 * h * np.flatnonzero(hit) + pol, span)
        pieces.append(((row0[:, None] + rows).ravel(), 0))
    return pieces


def _lattice_lines(spec: MotionSpec, geometry: SensorGeometry):
    """Anchors of the lattice columns and rows whose squares' paths can
    touch the frame, ascending, as integer-valued floats; 0 is one.

    At time t the square of anchor a covers [a + v*t, a + side + v*t], so
    it can reach pixels 0..extent only from an anchor in
    [-side - max(0, sweep), extent - min(0, sweep)].
    """
    vx, vy = spec.velocity
    pitch, side = spec.grid_pitch, spec.square_side
    spans = []
    for extent, v in ((geometry.width, vx), (geometry.height, vy)):
        sweep = v * spec.duration
        if math.isfinite(sweep):
            lo = math.ceil((min(0.0, -sweep) - side) / pitch) * pitch
            hi = math.floor((extent + max(0.0, -sweep)) / pitch) * pitch
        if not math.isfinite(sweep) or extent + hi - lo > _MAX_SYNTH_EVENTS:
            raise ValueError(
                f"the {spec.duration} s scene at {spec.velocity} px/s spans "
                f"more than 2**31 lattice offsets")
        spans.append(np.arange(lo, hi + 1, pitch, dtype=np.float64))
    return spans


def _grid_anchors(spec: MotionSpec, geometry: SensorGeometry) -> np.ndarray:
    """Top-left corners of every lattice square whose path can touch the frame."""
    ax, ay = np.meshgrid(*_lattice_lines(spec, geometry))
    return np.stack([ax.ravel(), ay.ravel()], axis=1)


def _axis_interval(p0: np.ndarray, v: float, a: float, s: float):
    """Times at which p0 - v*t lies inside the slab [a, a+s]."""
    if v == 0:
        lo = np.where((p0 >= a) & (p0 <= a + s), -np.inf, np.inf)
        return lo, -lo
    t0 = (p0 - a - s) / v
    t1 = (p0 - a) / v
    return np.minimum(t0, t1), np.maximum(t0, t1)


def _crossings(offsets: np.ndarray, v: float, spec: MotionSpec):
    """The pixel offsets from a slab's anchor that are inside the slab at
    some time in (0, duration], with their intervals. A pixel on no such
    offset neither enters nor leaves a square in the stream."""
    lo, hi = _axis_interval(offsets.astype(np.float64), v, 0.0,
                            spec.square_side)
    keep = (lo <= spec.duration) & (hi > 0)
    return offsets[keep], lo[keep], hi[keep]


def _grid_keys(spec: MotionSpec, geometry: SensorGeometry,
               span: int) -> list[tuple[np.ndarray, int]]:
    """Sort keys (see ``synthesize``) of the squares' crossings, unsorted,
    as ``(piece, shift)`` pairs: the keys are ``piece + shift``.

    A pixel tracks q(t) = p - v*t through the static lattice; entering a
    square emits 1, leaving emits 0. Squares never overlap (pitch >
    side), so per-square intervals are disjoint per pixel. A crossing
    depends only on the pixel's offset (e, d) = (x - ax, y - ay) from the
    square's anchor: ``x - ax`` is exact in float64, so the interval of
    the offset is the pixel's, bit for bit. So the crossings of every
    offset are computed once, and each square emits those that fall
    inside the frame, shifted to its anchor.
    """
    (vx, vy), w, h = spec.velocity, geometry.width, geometry.height
    xs, ys = (line.astype(np.int64) for line in _lattice_lines(spec, geometry))
    e, lo_x, hi_x = _crossings(np.arange(-xs[-1], w - xs[0]), vx, spec)
    d, lo_y, hi_y = _crossings(np.arange(-ys[-1], h - ys[0]), vy, spec)
    if vy < 0:  # order the rows so that both ends of their intervals ascend
        d, lo_y, hi_y = d[::-1], lo_y[::-1], hi_y[::-1]
    # the rows that can overlap column offset e (hi_y > lo_x, lo_y < hi_x)
    # are the run [a, b) of them; no row outside it meets that column.
    # a <= b, as lo < hi on every crossing offset
    a = np.searchsorted(hi_y, lo_x, "right")
    n = np.searchsorted(lo_y, hi_x, "left") - a
    col = np.repeat(np.arange(len(e)), n)
    row = np.arange(len(col)) + np.repeat(a - np.cumsum(n) + n, n)
    e, d = e[col], d[row]
    t_in = np.maximum(lo_x[col], lo_y[row])
    t_out = np.minimum(hi_x[col], hi_y[row])
    # t_in <= duration and t_out > 0 hold on every crossing offset
    valid = t_in < t_out
    enter = valid & (t_in > 0)
    leave = valid & (t_out <= spec.duration)
    # keys of the square at the first anchor (x0, y0), pixels off the frame
    # included; another square's keys are larger by its anchor's shift
    x0, y0 = xs[0], ys[0]
    pixel = ((e + x0) * h + d + y0) * 2
    base = _stamp_keys(np.concatenate([t_in[enter], t_out[leave]]),
                       np.concatenate([pixel[enter] + 1, pixel[leave]]), span)
    e = np.concatenate([e[enter], e[leave]])
    d = np.concatenate([d[enter], d[leave]])
    order = np.argsort(d)
    base, e, d = base[order], e[order], d[order]
    pieces = []
    for ax in xs:
        inside = (e >= -ax) & (e < w - ax)
        b, dy = base[inside], d[inside]
        # in row-offset order, the crossings of the square at (ax, ay)
        # that fall inside the frame are one run of b
        lo = np.searchsorted(dy, -ys).tolist()
        hi = np.searchsorted(dy, h - ys).tolist()
        shift = (((ax - x0) * h + ys - y0) * 2).tolist()
        pieces += [(b[i:j], s) for i, j, s in zip(lo, hi, shift)]
    return pieces


def corner_positions(spec: MotionSpec, geometry: SensorGeometry,
                     t_us: int, start_time: int = 0) -> np.ndarray:
    """Ground-truth corner locations of the grid-of-corners pattern at t_us.

    Returns an (N, 2) array of (x, y) image positions for every square
    corner inside the frame at that instant.
    """
    if spec.pattern != "grid-of-corners":
        raise ValueError("corner ground truth exists only for grid-of-corners")
    vx, vy = spec.velocity
    dt = (t_us - start_time) / US_PER_S
    side = float(spec.square_side)
    anchors = _grid_anchors(spec, geometry)
    offsets = np.array([[0, 0], [side, 0], [0, side], [side, side]])
    corners = (anchors[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    corners = corners + np.array([vx * dt, vy * dt])
    inside = ((corners[:, 0] >= 0) & (corners[:, 0] <= geometry.width - 1)
              & (corners[:, 1] >= 0) & (corners[:, 1] <= geometry.height - 1))
    return corners[inside]


def linear_warp(velocity: tuple[float, float], tau_a: int, tau_b: int):
    """Point map for a rigid translation between two reference times."""
    dx = velocity[0] * (tau_b - tau_a) / US_PER_S
    dy = velocity[1] * (tau_b - tau_a) / US_PER_S

    def warp(points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) + np.array([dx, dy])

    return warp
