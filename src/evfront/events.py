"""Event stream data model, serialization and synthesis.

An event is ``(t, x, y, p)``: an integer microsecond timestamp, a pixel
coordinate, and a polarity of -1 (brightness decrease) or +1 (increase).
Batches keep timestamps non-decreasing; equal timestamps are legal because
real sensors emit bursts sharing a stamp.

Timestamps lie in ``[0, TIMESTAMP_LIMIT)``, that is ``[0, 2**62)``:
``EventBatch`` and both parsers reject a stamp outside it, at its
position. So code behind them holds a stamp, or the difference of two, in
int64 without overflow. The wire formats still carry stamps as u64.

Wire formats
------------
binary-v1   magic ``EVT1``, width and height as u16 little-endian, then
            packed 13-byte records: t u64 | x u16 | y u16 | p u8, with
            polarity encoded 0 -> -1 and 1 -> +1. No padding, no footer.
csv         header line ``t,x,y,p`` (optional on input), one event per
            row, polarity in {0, 1}. Geometry travels out of band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

US_PER_S = 1_000_000

TIMESTAMP_LIMIT = 1 << 62  # accepted stamps: [0, TIMESTAMP_LIMIT)

BINARY_MAGIC = b"EVT1"
BINARY_HEADER_SIZE = 8
BINARY_RECORD_SIZE = 13

# Packed wire record; numpy keeps this at 13 bytes because no alignment
# is requested.
_RECORD_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")])

# In-memory layout with signed polarity.
EVENT_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "<i1")])

CSV_HEADER = "t,x,y,p"

_DECODE_RUN = 1 << 14  # sort keys decoded at a time by synthesize
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
        if len(ev):
            fault = _first_bad_stamp(ev["t"])
            if fault is not None:
                i, what = fault
                raise ValueError(f"event {i}: {what}")
            if np.any(ev["x"] >= self.geometry.width) or \
               np.any(ev["y"] >= self.geometry.height):
                raise ValueError("event coordinates outside sensor geometry")
            if not np.all(np.abs(ev["p"]) == 1):
                raise ValueError("polarity must be -1 or +1")

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


def _first_bad_stamp(t: np.ndarray) -> tuple[int, str] | None:
    """Index and fault of the first stamp that decreases or lies outside
    ``[0, TIMESTAMP_LIMIT)``, or None. Compares in uint64: up to the first
    decrease the stamps are sorted, so that run is in range iff its last
    stamp is."""
    down = t[1:] < t[:-1]
    end = int(np.argmax(down)) + 1 if down.any() else len(t)
    if end and t[end - 1] >= TIMESTAMP_LIMIT:
        i = int(np.argmax(t[:end] >= TIMESTAMP_LIMIT))
        return i, f"timestamp {int(t[i])} outside [0, 2**62)"
    if end < len(t):
        return end, "timestamps must be non-decreasing"
    return None


def batch_from_columns(t, x, y, p, geometry: SensorGeometry) -> EventBatch:
    """Assemble a batch from parallel coordinate arrays."""
    ev = np.empty(len(t), dtype=EVENT_DTYPE)
    ev["t"] = t
    ev["x"] = x
    ev["y"] = y
    ev["p"] = p
    return EventBatch(ev, geometry)


@dataclass(frozen=True)
class MotionSpec:
    """Synthetic scene description.

    The contrast rule is fixed: a leading edge emits +1, a trailing edge
    -1. ``velocity`` is in pixels per second. For ``grid-of-corners`` the
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
    and ignored for binary-v1 (the header does).
    """
    if format == "binary-v1":
        return _parse_binary(data)
    if format == "csv":
        if geometry is None:
            raise ValueError("csv input needs an explicit sensor geometry")
        return _parse_csv(data, geometry)
    raise ValueError(f"unknown event format {format!r}")


def write_events(batch: EventBatch, format: str) -> bytes:
    if format == "binary-v1":
        return _write_binary(batch)
    if format == "csv":
        return _write_csv(batch)
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

    body = data[BINARY_HEADER_SIZE:]
    n, leftover = divmod(len(body), BINARY_RECORD_SIZE)
    if leftover:
        raise StreamFormatError(
            "truncated record",
            offset=BINARY_HEADER_SIZE + n * BINARY_RECORD_SIZE)
    raw = np.frombuffer(body, dtype=_RECORD_DTYPE)

    def record_offset(i: int) -> int:
        return BINARY_HEADER_SIZE + i * BINARY_RECORD_SIZE

    bad_p = np.nonzero(raw["p"] > 1)[0]
    if bad_p.size:
        i = int(bad_p[0])
        raise StreamFormatError(f"polarity byte {raw['p'][i]} not in {{0,1}}",
                                offset=record_offset(i))
    oob = np.nonzero((raw["x"] >= width) | (raw["y"] >= height))[0]
    if oob.size:
        i = int(oob[0])
        raise StreamFormatError(
            f"coordinate ({raw['x'][i]},{raw['y'][i]}) outside {width}x{height}",
            offset=record_offset(i))
    fault = _first_bad_stamp(raw["t"])
    if fault is not None:
        i, what = fault
        raise StreamFormatError(what, offset=record_offset(i))

    ev = np.empty(n, dtype=EVENT_DTYPE)
    ev["t"] = raw["t"]
    ev["x"] = raw["x"]
    ev["y"] = raw["y"]
    ev["p"] = raw["p"].astype(np.int8) * 2 - 1
    return _trusted_batch(ev, geometry)


def _parse_csv(data: bytes, geometry: SensorGeometry) -> EventBatch:
    text = data.decode("ascii")
    rows: list[tuple[int, int, int, int]] = []
    prev_t = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line == CSV_HEADER:
            if lineno == 1:
                continue
            raise StreamFormatError("header row after data", line=lineno)
        parts = line.split(",")
        if len(parts) != 4:
            raise StreamFormatError(f"expected 4 fields, got {len(parts)}",
                                    line=lineno)
        try:
            t, x, y, p = (int(part) for part in parts)
        except ValueError:
            raise StreamFormatError(f"non-integer field in {line!r}",
                                    line=lineno) from None
        if not 0 <= t < TIMESTAMP_LIMIT:
            raise StreamFormatError(f"timestamp {t} outside [0, 2**62)",
                                    line=lineno)
        if p not in (0, 1):
            raise StreamFormatError(f"polarity {p} not in {{0,1}}", line=lineno)
        if not (0 <= x < geometry.width and 0 <= y < geometry.height):
            raise StreamFormatError(
                f"coordinate ({x},{y}) outside "
                f"{geometry.width}x{geometry.height}", line=lineno)
        if t < prev_t:
            raise StreamFormatError("decreasing timestamp", line=lineno)
        prev_t = t
        rows.append((t, x, y, 2 * p - 1))

    return _trusted_batch(np.array(rows, dtype=EVENT_DTYPE), geometry)


def _write_binary(batch: EventBatch) -> bytes:
    header = (BINARY_MAGIC
              + batch.geometry.width.to_bytes(2, "little")
              + batch.geometry.height.to_bytes(2, "little"))
    raw = np.empty(len(batch), dtype=_RECORD_DTYPE)
    raw["t"] = batch.events["t"]
    raw["x"] = batch.events["x"]
    raw["y"] = batch.events["y"]
    raw["p"] = (batch.events["p"] > 0).astype(np.uint8)
    return header + raw.tobytes()


def _write_csv(batch: EventBatch) -> bytes:
    lines = [CSV_HEADER]
    for rec in batch.events:
        p01 = 1 if rec["p"] > 0 else 0
        lines.append(f"{rec['t']},{rec['x']},{rec['y']},{p01}")
    return ("\n".join(lines) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# synthesis


def synthesize(spec: MotionSpec, geometry: SensorGeometry,
               start_time: int = 0) -> EventBatch:
    """Generate the event stream of a rigidly translating pattern.

    Crossing times come from exact linear motion, truncated to integer
    microseconds and sorted with a canonical (t, x, y, p) tie order.

    Each event is one int64 key ``t_us * 2*W*H + (x*H + y)*2 + (p > 0)``,
    which orders as (t, x, y, p) do and decodes back to the record, so
    one in-place sort by value orders the stream; equal keys are equal
    records, so no stable sort, permutation or gather is needed. The keys
    fit in int64 while ``(floor(duration * 1e6) + 1) * 2*W*H <= 2**63``:
    a longer scene on the sensor is rejected before any arithmetic, as
    are a ``start_time`` outside ``[0, 2**62)`` and a scene that may hold
    more than 2**31 events or span more than 2**31 lattice offsets. The
    corner grid costs one evaluation per pixel offset from a square's
    anchor, on each column offset's band of rows only, plus a shifted
    copy per square of the crossings inside the frame (see
    ``_grid_keys``). The stream is byte for byte that of evaluating every
    square on every pixel and sorting on four keys.
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
    if spec.pattern == "vertical-edge":
        t, x, y, p = _edge_events(spec, geometry)
        keys = _stamp_keys(t, (x.astype(np.int64) * h + y) * 2 + (p > 0), span)
    else:
        keys = _grid_keys(spec, geometry, span)
    keys.sort()
    last = int(keys[-1]) // span + start_time if len(keys) else 0
    if last >= TIMESTAMP_LIMIT:
        raise ValueError(f"timestamp {last} outside [0, 2**62)")
    # decode a cache-sized run at a time (remainders as products: numpy
    # divides by a scalar fast but takes its remainder slowly); the
    # records are sorted and in range by construction
    ev = np.empty(len(keys), dtype=EVENT_DTYPE)
    for i in range(0, len(keys), _DECODE_RUN):
        key, rec = keys[i:i + _DECODE_RUN], ev[i:i + _DECODE_RUN]
        rec["p"] = (key & 1) * 2 - 1
        key >>= 1
        t = key // (w * h)
        rec["t"] = t + start_time
        key -= t * (w * h)
        x = key // h
        rec["x"] = x
        rec["y"] = key - x * h
    return _trusted_batch(ev, geometry)


def _stamp_keys(t: np.ndarray, key: np.ndarray, span: int) -> np.ndarray:
    """Sort keys ``floor(t * 1e6) * span + key`` of crossings at t seconds."""
    keys = np.floor(t * US_PER_S).astype(np.int64)
    keys *= span
    keys += key
    return keys


def _edge_events(spec: MotionSpec, geometry: SensorGeometry):
    """Crossing times of a full-height vertical edge.

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
            empty.astype(np.int8)
    c0 = 0.0 if vx > 0 else float(w - 1)
    t_lead = (cols - c0) / vx
    t_trail = (cols + math.copysign(1.0, vx) - c0) / vx

    ts, xs, ps = [], [], []
    for t_cross, pol in ((t_lead, 1), (t_trail, -1)):
        hit = (t_cross >= 0) & (t_cross <= spec.duration)
        ts.append(np.repeat(t_cross[hit], h))
        xs.append(np.repeat(cols[hit].astype(np.uint16), h))
        ps.append(np.full(hit.sum() * h, pol, dtype=np.int8))
    t = np.concatenate(ts)
    x = np.concatenate(xs)
    y = np.tile(np.arange(h, dtype=np.uint16), len(t) // h if h else 0)
    p = np.concatenate(ps)
    return t, x, y, p


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
               span: int) -> np.ndarray:
    """Sort keys (see ``synthesize``) of the squares' crossings, unsorted.

    A pixel tracks q(t) = p - v*t through the static lattice; entering a
    square emits +1, leaving emits -1. Squares never overlap (pitch >
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
    keys = []
    for ax in xs:
        inside = (e >= -ax) & (e < w - ax)
        b, dy = base[inside], d[inside]
        # in row-offset order, the crossings of the square at (ax, ay)
        # that fall inside the frame are one run of b
        lo = np.searchsorted(dy, -ys).tolist()
        hi = np.searchsorted(dy, h - ys).tolist()
        shift = (((ax - x0) * h + ys - y0) * 2).tolist()
        keys += [b[i:j] + s for i, j, s in zip(lo, hi, shift)]
    return np.concatenate(keys)


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
