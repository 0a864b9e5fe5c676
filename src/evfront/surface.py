"""Time-surface state and multi-channel time-surface construction.

The sufficient statistic for a linear-decay time surface is the most
recent event timestamp per pixel and polarity: the per-pixel max over
in-window events is always attained by the newest one, because the decay
is increasing in the event time. ``TimestampGrid`` stores exactly that,
and ``EventCountRing`` keeps the recent global event timestamps needed to
size constant-event-count windows.

Window sizing comes in two modes. Fixed-duration uses caller-supplied
``durations``. Constant-count derives each duration from the stream: with
N_k the absolute event count for channel pair k and I the index of the
newest event, the realized window is ``tau - t[I - N_k]``. As defined,
the closed window then holds N_k + 1 events when timestamps are distinct;
that off-by-one is intentional and pinned by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import (TIMESTAMP_LIMIT, EventBatch, MotionSpec, SensorGeometry,
                     synthesize)

MCTS_MAGIC = b"MCTS"
MCTS_VERSION = 1
MCTS_HEADER_SIZE = 32  # eight little-endian 32-bit slots

DEFAULT_NORMALIZED_COUNTS = (0.03, 0.1, 0.3, 1.0)

# last_t of a pixel that has seen no event. Its age at tau, tau + 2**62,
# fits in int64 for every tau in [-2**62, 2**62) and exceeds tau, the age
# of the oldest stamp there can be.
NEVER = -TIMESTAMP_LIMIT


@dataclass(frozen=True)
class WindowSpec:
    """Channel-pair window configuration.

    Parameters
    ----------
    mode : {"fixed-duration", "constant-count"}
    durations : tuple of int, optional
        Window lengths in microseconds, strictly increasing
        (fixed-duration mode).
    normalized_counts : tuple of float, optional
        Target events per pixel, strictly increasing (constant-count
        mode). The defaults span two decades.
    """

    mode: str
    durations: tuple[int, ...] | None = None
    normalized_counts: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        # ``not 0 < v < inf`` also rejects NaN
        if self.mode == "fixed-duration":
            seq = self.durations
            if not seq or any(not 0 < d < math.inf for d in seq):
                raise ValueError("fixed-duration mode needs positive durations"
                                 ", all finite")
        elif self.mode == "constant-count":
            seq = self.normalized_counts
            if not seq or any(not 0 < c < math.inf for c in seq):
                raise ValueError("constant-count mode needs positive counts"
                                 ", all finite")
        else:
            raise ValueError(f"unknown window mode {self.mode!r}")
        if any(a >= b for a, b in zip(seq, seq[1:])):
            raise ValueError("window list must be strictly increasing")

    @property
    def K(self) -> int:
        seq = self.durations if self.mode == "fixed-duration" \
            else self.normalized_counts
        return len(seq)

    @classmethod
    def default_constant_count(cls) -> "WindowSpec":
        return cls("constant-count", normalized_counts=DEFAULT_NORMALIZED_COUNTS)


def stream_ring_capacity(spec: WindowSpec, batch: EventBatch) -> int:
    """Ring size for the largest window, plus the newest slot, capped at
    ``len(batch) + 1``: a ring holding the whole stream never wraps, so
    it answers every lookup as a larger one would."""
    if spec.mode != "constant-count":
        return 1
    top = max(normalized_counts_to_absolute(spec, batch.geometry))
    return min(top, len(batch)) + 1


@dataclass
class TimestampGrid:
    """Most recent event timestamp per pixel and polarity.

    ``last_t`` is a (2, height, width) int64 array; channel p holds
    polarity p, 0 (decrease) or 1 (increase). A cell that has seen no
    event holds ``NEVER``, so ``valid``, where an event landed, is derived
    from ``last_t`` and stored nowhere. ``latest_time`` / ``first_time`` are
    None until an event arrives.
    """

    geometry: SensorGeometry
    last_t: np.ndarray
    latest_time: int | None = None
    first_time: int | None = None
    applied_count: int = 0

    @classmethod
    def create(cls, geometry: SensorGeometry) -> "TimestampGrid":
        shape = (2, geometry.height, geometry.width)
        return cls(geometry, np.full(shape, NEVER, dtype=np.int64))

    @property
    def valid(self) -> np.ndarray:
        """``last_t != NEVER``: a fresh mask, read-only, as writing to it
        would change nothing."""
        mask = self.last_t != NEVER
        mask.flags.writeable = False
        return mask

    def copy(self) -> "TimestampGrid":
        return TimestampGrid(self.geometry, self.last_t.copy(),
                             self.latest_time, self.first_time,
                             self.applied_count)


class EventCountRing:
    """Circular buffer of the most recent event timestamps, both polarities.

    Arrival order is preserved; ``timestamp_back(n)`` answers t[I - n]
    lookups for window sizing. Pushes are O(1) per event.
    """

    __slots__ = ("capacity", "_buf", "_head", "_count")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("ring capacity must be at least 1")
        self.capacity = capacity
        self._buf = np.zeros(capacity, dtype=np.int64)
        self._head = 0          # next write slot
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push_many(self, timestamps: np.ndarray) -> None:
        n = len(timestamps)
        cap = self.capacity
        kept = min(n, cap)  # only the newest ``cap`` stamps survive
        start = (self._head + n - kept) % cap
        first = min(kept, cap - start)  # up to the end of the buffer
        self._buf[start:start + first] = timestamps[n - kept:n - kept + first]
        self._buf[:kept - first] = timestamps[n - kept + first:]
        self._head = (start + kept) % cap
        self._count = min(self._count + n, cap)

    def timestamp_back(self, n: int) -> int | None:
        """Timestamp n positions before the most recent entry, or None."""
        if n < 0 or n >= self._count:
            return None
        return int(self._buf[(self._head - 1 - n) % self.capacity])

    def state_bytes(self) -> bytes:
        """Raw internal layout, for exact state comparison."""
        return (self._buf.tobytes()
                + self._head.to_bytes(8, "little")
                + self._count.to_bytes(8, "little"))

    def copy(self) -> "EventCountRing":
        dup = object.__new__(EventCountRing)
        dup.capacity = self.capacity
        dup._buf = self._buf.copy()
        dup._head = self._head
        dup._count = self._count
        return dup


def apply_events(grid: TimestampGrid, ring: EventCountRing,
                 batch: EventBatch) -> int:
    """Fold a batch into the grid and ring; returns the number applied.

    The batch must be of the grid's sensor and may not start before
    ``grid.latest_time``. Where it hits one pixel and polarity more
    than once, its largest stamp, which is its newest, wins, in whatever
    order numpy writes. Cost is O(1) per event.
    """
    if batch.geometry != grid.geometry:
        g, b = grid.geometry, batch.geometry
        raise ValueError(f"batch geometry {b.width}x{b.height} differs "
                         f"from the grid's {g.width}x{g.height}")
    n = len(batch)
    if n == 0:
        return 0
    ev = batch.events
    # read three times below; the batch holds stamps below 2**62, so the
    # int64 view reads the same values
    t = np.ascontiguousarray(ev["t"]).view(np.int64)
    if grid.latest_time is not None and int(t[0]) < grid.latest_time:
        bad = int(np.argmax(t < grid.latest_time))
        raise ValueError(
            f"event at stream position {grid.applied_count + bad} "
            f"(t={int(t[bad])}) is older than latest applied time "
            f"{grid.latest_time}")

    height, width = grid.last_t.shape[1:]
    flat = ev["p"].astype(np.intp)  # (polarity, y, x) -> flat offset
    flat *= height
    flat += ev["y"]
    flat *= width
    flat += ev["x"]
    _write_newest(grid.last_t.reshape(-1), flat, t)
    grid.latest_time = int(t[-1])  # sorted, so >= t[0] >= latest_time
    if grid.first_time is None:
        grid.first_time = int(t[0])
    grid.applied_count += n
    ring.push_many(t)
    return n


def _write_newest(last_t: np.ndarray, flat: np.ndarray,
                  t: np.ndarray) -> None:
    """``last_t[flat] = t``, an index given twice keeping its largest stamp.

    numpy does not say which of several writes to one element lands, so a
    maximum over the stamps that did not land follows. ``np.maximum.at``
    over every stamp is exact too and about 1.6x faster alone. Yet on
    the threaded 240x180 flood with two cores free, four pairs of runs
    of it with the bisection cut, against neither, read ingest +21% but
    frames/s -12%, frame time p50 +17% and tail +23%, result latency
    tail +21%; with the threads on one core it helped both.
    """
    last_t[flat] = t
    lost = (last_t[flat] < t).nonzero()[0]  # usually empty
    if lost.size:
        np.maximum.at(last_t, flat[lost], t[lost])


def time_surface(grid: TimestampGrid, tau: int, dt: int,
                 polarity: int) -> np.ndarray:
    """Linear-decay time surface for one polarity.

    Parameters
    ----------
    tau : int
        Reference time in microseconds, in [-2**62, 2**62).
    dt : int
        Window length in microseconds, positive.
    polarity : {0, 1}

    Returns
    -------
    (height, width) float32 array with values in [0, 1]: a pixel whose
    newest event of this polarity lies in the closed window
    [tau - dt, tau] reads 1 - (tau - t)/dt, every other pixel reads 0.
    """
    _check_tau(tau)
    if dt <= 0:
        raise ValueError("window duration must be positive")
    if polarity not in (0, 1):
        raise ValueError("polarity must be 0 or 1")
    age = tau - grid.last_t[polarity]
    out = np.zeros(age.shape, dtype=np.float32)
    _decay_nested(out[None], age[None], tau, (dt,))
    return out


def _check_tau(tau: int) -> None:
    # with stamps and NEVER, every age stays inside int64
    if not -TIMESTAMP_LIMIT <= tau < TIMESTAMP_LIMIT:
        raise ValueError(f"tau {tau} outside [-2**62, 2**62)")


def _decay(age: np.ndarray, dt: int) -> np.ndarray:
    """1 - age/dt, rounded to float32: every surface value there is."""
    return (1.0 - age / dt).astype(np.float32)


def normalized_counts_to_absolute(spec: WindowSpec,
                                  geometry: SensorGeometry) -> list[int]:
    """Realize per-pixel targets as absolute counts, N_k = round(nbar*W*H).

    Rounds half up, within [1, 2**62]: no stream holds more events.
    """
    if spec.mode != "constant-count":
        raise ValueError("absolute counts exist only in constant-count mode")
    pixels = geometry.pixel_count
    return [max(1, int(min(nbar * pixels + 0.5, 2.0 ** 62)))
            for nbar in spec.normalized_counts]


def adaptive_windows(ring: EventCountRing, tau: int, counts: tuple[int, ...],
                     first_time: int | None) -> tuple[int, ...]:
    """Window durations that capture a constant event count.

    For each N the duration is ``tau - t[I - N]``, indexing N positions
    back from the newest ring entry. When fewer than N + 1 timestamps
    are retained the window falls back to ``tau - first_time`` (warm-up).
    Every duration is clamped to at least 1 microsecond.
    """
    if len(ring) == 0 and first_time is None:
        raise ValueError("no events observed; cannot size adaptive windows")
    durations = []
    for n_back in counts:
        anchor = ring.timestamp_back(n_back)
        if anchor is None:
            dt = tau - first_time
        else:
            dt = tau - anchor
        durations.append(max(1, int(dt)))
    return tuple(durations)


@dataclass(frozen=True)
class MctsTensor:
    """Stack of 2K time surfaces at a common reference time.

    Channels 0..K-1 hold polarity 0 for the K windows in order, channels
    K..2K-1 hold polarity 1. ``window_durations`` records the realized
    durations; it is None for tensors re-read from a dump, which does not
    carry them.
    """

    channels: np.ndarray
    tau: int
    window_durations: tuple[int, ...] | None

    def __post_init__(self) -> None:
        ch = self.channels
        if ch.ndim != 3 or ch.dtype != np.float32:
            raise ValueError("channels must be a (2K, H, W) float32 array")
        if ch.shape[0] % 2 != 0 or ch.shape[0] == 0:
            raise ValueError("channel count must be a positive even number")
        if self.window_durations is not None \
                and 2 * len(self.window_durations) != ch.shape[0]:
            raise ValueError("one duration per channel pair required")

    @property
    def K(self) -> int:
        return self.channels.shape[0] // 2


def mcts(grid: TimestampGrid, ring: EventCountRing, tau: int,
         spec: WindowSpec) -> MctsTensor:
    """Build the multi-channel time surface tensor at tau, in
    [-2**62, 2**62)."""
    _check_tau(tau)
    durations = _durations(grid, ring, tau, spec)
    k = len(durations)
    channels = np.zeros((2 * k, *grid.last_t.shape[1:]), dtype=np.float32)
    # polarity 0 fills 0..K-1, 1 fills K..2K-1; one age plane each,
    # shared by the K windows
    _decay_nested(channels, tau - grid.last_t, tau, durations)
    return MctsTensor(channels, tau, tuple(durations))


def _durations(grid: TimestampGrid, ring: EventCountRing, tau: int,
               spec: WindowSpec) -> tuple[int, ...]:
    if spec.mode == "constant-count":
        counts = normalized_counts_to_absolute(spec, grid.geometry)
        return adaptive_windows(ring, tau, counts, grid.first_time)
    return spec.durations


def merged_surface(grid: TimestampGrid, ring: EventCountRing, tau: int,
                   spec: WindowSpec, pair: int) -> np.ndarray:
    """Planes ``pair`` and ``K + pair`` of the tensor ``mcts`` builds for
    ``spec``, merged by maximum, bit for bit: the decay does not grow
    with age, so it is the decay of each pixel's smaller age (as uint64,
    as ``mcts`` reads it) over window ``pair``."""
    if not 0 <= pair < spec.K:
        raise ValueError(f"channel pair {pair} outside 0..{spec.K - 1}")
    _check_tau(tau)
    dt = _durations(grid, ring, tau, spec)[pair]
    age = np.subtract(tau, grid.last_t).view(np.uint64)
    youngest = np.minimum(age[0], age[1], out=age[0])
    values = _decay(youngest, dt)
    values[youngest > min(dt, tau)] = 0.0
    return values


def _decay_nested(channels: np.ndarray, age: np.ndarray, tau: int,
                  durations) -> None:
    # Plane i of each polarity decays the ages in [0, durations[i]]. Ages
    # of stamps are at most tau; NEVER's, tau + 2**62, and those after tau
    # (above 2**63 as uint64) exceed it, so one unsigned comparison with
    # min(dt, tau) keeps exactly the events with 0 <= age <= dt. Windows
    # are nested: each narrower one's pixels come from the next wider
    widest = min(max(durations), tau)
    if widest < 0:  # tau precedes every stamp
        return
    k, plane = len(durations), age[0].size
    ages = age.reshape(-1)
    at = np.flatnonzero(ages.view(np.uint64) <= widest)
    ages = ages[at]  # in 0..widest
    # at + i*plane is plane i of polarity 0; polarity 1 sits K planes on
    at[np.searchsorted(at, plane):] += (k - 1) * plane
    flat = channels.reshape(-1)
    for i in sorted(range(k), key=lambda i: -durations[i]):
        dt = durations[i]
        if dt < widest:
            keep = ages <= dt
            at, ages = at[keep], ages[keep]
            widest = dt
        flat[i * plane:][at] = _decay(ages, dt)


# ---------------------------------------------------------------------------
# motion-invariance experiment


@dataclass(frozen=True)
class MotionInvarianceReport:
    """Constant-count vs fixed-duration stacks across a speed change.

    ``l1_constant_count[k]`` / ``l1_fixed[k]`` are the mean per-pixel
    absolute differences between the two speeds for channel pair k. The
    experiment passes when the constant-count distance is strictly
    smaller on all pairs but at most one.
    """

    speeds: tuple[float, float]
    realized_durations: tuple[tuple[int, ...], tuple[int, ...]]
    fixed_durations: tuple[int, ...]
    l1_constant_count: tuple[float, ...]
    l1_fixed: tuple[float, ...]
    pairs_favoring_constant: int
    passed: bool


def motion_invariance_report(
        geometry: SensorGeometry, speed: float = 100.0, factor: float = 3.0,
        normalized_counts: tuple[float, ...] = DEFAULT_NORMALIZED_COUNTS,
        edge_fraction: float = 0.8) -> MotionInvarianceReport:
    """Compare the two window modes on one scene at two speeds.

    A vertical edge is synthesized at ``speed`` and ``speed * factor``
    and each stream is evaluated when the edge reaches the same column,
    so both tensors depict the same scene geometry. The fixed-duration
    list is calibrated to the constant-count windows realized at the base
    speed, making the modes agree there by construction; the comparison
    is how far each drifts at the changed speed.
    """
    if not (0 < speed < np.inf and 0 < factor < np.inf):
        raise ValueError(f"speed and factor must be finite and positive, "
                         f"got {speed} and {factor}")
    target_col = int(edge_fraction * (geometry.width - 1))
    if target_col < 1:
        raise ValueError("geometry too narrow for the edge experiment")
    cc_spec = WindowSpec("constant-count",
                         normalized_counts=tuple(normalized_counts))
    speeds = (float(speed), float(speed * factor))
    stacks_cc, stacks_fx, realized = [], [], []
    fixed_spec = None
    for s in speeds:
        motion = MotionSpec("vertical-edge", (s, 0.0),
                            duration=target_col / s)
        batch = synthesize(motion, geometry)
        grid = TimestampGrid.create(geometry)
        ring = EventCountRing(stream_ring_capacity(cc_spec, batch))
        apply_events(grid, ring, batch)
        tau = grid.latest_time
        tensor_cc = mcts(grid, ring, tau, cc_spec)
        realized.append(tensor_cc.window_durations)
        if fixed_spec is None:
            fixed_spec = WindowSpec(
                "fixed-duration",
                durations=_strictly_increasing(tensor_cc.window_durations))
        stacks_cc.append(tensor_cc)
        stacks_fx.append(mcts(grid, ring, tau, fixed_spec))

    k_pairs = cc_spec.K
    l1_cc, l1_fx = [], []
    for k in range(k_pairs):
        pair = [k, k_pairs + k]
        l1_cc.append(float(np.mean(np.abs(
            stacks_cc[0].channels[pair] - stacks_cc[1].channels[pair]))))
        l1_fx.append(float(np.mean(np.abs(
            stacks_fx[0].channels[pair] - stacks_fx[1].channels[pair]))))
    wins = sum(a < b for a, b in zip(l1_cc, l1_fx))
    return MotionInvarianceReport(
        speeds=speeds,
        realized_durations=(realized[0], realized[1]),
        fixed_durations=fixed_spec.durations,
        l1_constant_count=tuple(l1_cc),
        l1_fixed=tuple(l1_fx),
        pairs_favoring_constant=wins,
        passed=wins >= max(1, k_pairs - 1),
    )


def _strictly_increasing(durations: tuple[int, ...]) -> tuple[int, ...]:
    # equal-timestamp bursts can tie neighboring windows; nudge by 1 us
    out = []
    for d in durations:
        out.append(d if not out or d > out[-1] else out[-1] + 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# export


def write_pgm(values: np.ndarray) -> bytes:
    """One channel as a 16-bit binary PGM (big-endian samples, P5)."""
    h, w = values.shape
    if len(values) and (values.min() < 0.0 or values.max() > 1.0):
        raise ValueError("surface values must lie in [0, 1]")
    levels = np.floor(values.astype(np.float64) * 65535.0 + 0.5)
    body = levels.astype(">u2").tobytes()
    return f"P5\n{w} {h}\n65535\n".encode("ascii") + body


def write_mcts(tensor: MctsTensor) -> bytes:
    """Serialize a tensor as the flat float32 dump.

    Header is eight little-endian 32-bit slots: the magic ``MCTS``, a
    format version, K, height, width, tau split into low and high words,
    and a reserved zero. Channel data follows in C order. Realized window
    durations are not part of the format.
    """
    k2, h, w = tensor.channels.shape
    tau = int(tensor.tau)
    head = np.array([
        int.from_bytes(MCTS_MAGIC, "little"),
        MCTS_VERSION,
        k2 // 2,
        h,
        w,
        tau & 0xFFFFFFFF,
        (tau >> 32) & 0xFFFFFFFF,
        0,
    ], dtype="<u4")
    return head.tobytes() + tensor.channels.astype("<f4").tobytes()


def read_mcts(data: bytes) -> MctsTensor:
    if len(data) < MCTS_HEADER_SIZE:
        raise ValueError("dump shorter than its header")
    if data[:4] != MCTS_MAGIC:
        raise ValueError(f"bad magic {data[:4]!r}")
    head = np.frombuffer(data[:MCTS_HEADER_SIZE], dtype="<u4")
    version, k, h, w = int(head[1]), int(head[2]), int(head[3]), int(head[4])
    if version != MCTS_VERSION:
        raise ValueError(f"unsupported dump version {version}")
    tau = int(head[5]) | (int(head[6]) << 32)
    expected = 2 * k * h * w * 4
    if len(data) != MCTS_HEADER_SIZE + expected:
        raise ValueError(
            f"dump holds {len(data) - MCTS_HEADER_SIZE} payload bytes, "
            f"expected {expected}")
    channels = np.frombuffer(data, dtype="<f4",
                             offset=MCTS_HEADER_SIZE).reshape(2 * k, h, w)
    return MctsTensor(channels.copy(), tau, None)
