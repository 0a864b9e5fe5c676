"""Keypoint detection and description on multi-channel time surfaces.

Two detector paths share the keypoint type and hand matching their
descriptors as one (N, D) float32 array of L2-normalized rows: a small
learned network (4-layer conv encoder, cell-softmax detector head,
64-dim descriptor head) run as a pure numpy forward pass over the whole
surface tensor, and a deterministic Harris-style fallback that needs no
weights and reads one (h, w) plane, a channel pair's surfaces merged by
maximum (``surface.merged_surface``).
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WEIGHTS_MAGIC = b"SLWT"
WEIGHTS_VERSION = 1

# a conv stage is split into row bands only where every band's gemm does
# at least this many multiply-adds (about 0.5 ms on one core). Smaller
# bands saved nothing on 2 cores: each pays for a hand-off and packs the
# whole kernel again
_MIN_BAND_MACS = 1 << 24
# a band runs its rows in chunks through two buffers of about this many
# bytes together, so a stage's working memory does not grow with the
# sensor, and a chunk's operands stay in a core's L2 (2 MB here)
_CHUNK_BYTES = 1 << 20
# bands and chunks are column splits of a stage's gemm. They match the
# whole gemm bit for bit only while OpenBLAS picks the same kernel and
# accumulation order for every split, which BLAS does not promise: on
# x86-64, splits of at most 10**6 multiply-adds (m*n*k) go to a
# small-matrix sgemm kernel and can round differently. So no chunk's gemm
# does fewer than this many, and no band's fewer than _MIN_BAND_MACS; at
# 128x128 and 176x240 the smallest chunk does 4.4M (176x240, first stage,
# 1920 columns). The force_bands tests guard it, and only on the host
# that runs them
_MIN_CHUNK_MACS = 1 << 21

HARRIS_K = 0.04
PATCH = 8  # classical descriptor patch side; 8*8 = 64 = learned D
# zero border of the Harris buffers: the box sums read one cell past a
# one-pixel border
_RING = 2


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture constants. The encoder is fixed at four stages, each
    halving resolution, so the cell size is 2**4 = 16."""

    input_channels: int = 8
    encoder_widths: tuple[int, ...] = (32, 64, 128, 128)
    descriptor_dim: int = 64

    def __post_init__(self) -> None:
        if len(self.encoder_widths) != 4:
            raise ValueError("encoder must have exactly 4 layers")
        if self.input_channels < 1 or self.descriptor_dim < 1:
            raise ValueError("channel counts must be positive")
        if any(w < 1 for w in self.encoder_widths):
            raise ValueError("encoder widths must be positive")

    @property
    def cell(self) -> int:
        return 2 ** len(self.encoder_widths)

    @property
    def detector_head_channels(self) -> int:
        return self.cell * self.cell + 1  # cell scores plus dustbin


@dataclass(frozen=True)
class WeightBundle:
    """The network's weights: every tensor in SLWT order. Per encoder
    layer, the (out, in, 3, 3) kernel, then batchnorm scale, shift, mean
    and variance (``_LAYER_FIELDS``); then the (cell^2+1, last_width)
    detector kernel and its bias, and the (D, last_width) descriptor
    kernel and its bias (``_HEAD_FIELDS``)."""

    spec: NetworkSpec
    tensors: tuple[np.ndarray, ...]
    bn_epsilon: float

    def __post_init__(self) -> None:
        layers = len(self.spec.encoder_widths)
        names = [f"layer {i} {name}" for i in range(layers)
                 for name in _LAYER_FIELDS] + list(_HEAD_FIELDS)
        if len(self.tensors) != len(names):
            raise ValueError(f"{len(self.tensors)} tensors, expected "
                             f"{len(names)}")
        if not (self.bn_epsilon > 0 and math.isfinite(self.bn_epsilon)):
            raise ValueError("bn epsilon must be positive and finite")
        # every tensor against the spec's shapes. A NaN or inf would flow
        # through every frame as NaN scores and descriptors
        for name, got, want in zip(names, self.tensors, _shapes(self.spec)):
            if got.shape != want:
                raise ValueError(f"{name} shape {got.shape}, expected "
                                 f"{want}")
            if not np.isfinite(got).all():
                raise ValueError(f"{name} holds a NaN or infinite value")
        # each layer's variance, summed with epsilon as _stage sums them
        step = len(_LAYER_FIELDS)
        for i, var in enumerate(self.tensors[step - 1:step * layers:step]):
            if np.any(var + np.float32(self.bn_epsilon) <= 0):
                raise ValueError(f"layer {i} bn variance plus epsilon must "
                                 "be positive")


@dataclass(frozen=True)
class KeypointSet:
    """Detected points, scores descending, pairwise at least radius apart."""

    xy: np.ndarray      # (N, 2) float64 image coordinates
    scores: np.ndarray  # (N,) float

    def __len__(self) -> int:
        return len(self.scores)


def random_weights(spec: NetworkSpec, seed: int) -> WeightBundle:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    rng = np.random.default_rng(seed)

    def uniform(fan_in: int, shape) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, shape).astype(np.float32)

    return WeightBundle(spec, tuple(_build_sequence(spec, uniform)),
                        float(np.float32(1e-5)))


def _build_sequence(spec: NetworkSpec, fill,
                    const=lambda shape, v: np.full(shape, v, np.float32)):
    """Every tensor in SLWT order: ``fill(fan_in, shape)`` makes each
    kernel and bias, in that order, and ``const(shape, value)`` each
    batchnorm tensor, the identity."""
    ins = (spec.input_channels,) + spec.encoder_widths[:-1]
    seq = []
    for cin, cout in zip(ins, spec.encoder_widths):
        # the kernel, then scale, shift, mean and variance: _LAYER_FIELDS
        seq += [fill(cin * 9, (cout, cin, 3, 3)),
                *(const((cout,), v) for v in (1, 0, 0, 1))]
    head_in = spec.encoder_widths[-1]
    for rows in (spec.detector_head_channels, spec.descriptor_dim):
        seq += [fill(head_in, (rows, head_in)), fill(head_in, (rows,))]
    return seq


def _shapes(spec: NetworkSpec) -> list[tuple[int, ...]]:
    """The shape of every tensor in SLWT order; allocates none of them."""
    return _build_sequence(spec, lambda _, shape: shape,
                           lambda shape, _: shape)


_LAYER_FIELDS = ("conv_kernels", "bn_scale", "bn_shift", "bn_mean", "bn_var")
_HEAD_FIELDS = ("detector_kernel", "detector_bias", "descriptor_kernel",
                "descriptor_bias")


# ---------------------------------------------------------------------------
# forward pass


def _stage(weights: WeightBundle, i: int, x: np.ndarray,
           bands: int) -> np.ndarray:
    """Encoder stage ``i``: 3x3 conv (stride 1, zero padding 1), inference
    batchnorm, ReLU and 2x2 max-pool, in row bands of the output, each
    band in row chunks.

    It runs conv, a 2x2 pool by the sign of the batchnorm scale,
    batchnorm on the pooled map, then ReLU, with the same values while
    the conv outputs are finite. Each of batchnorm's four ops rounds
    correctly and inv = 1/sqrt(var + eps) is positive, so per channel
    batchnorm is non-decreasing in x where the scale is >= 0 and
    non-increasing where it is negative: the window maximum of batchnorm
    is batchnorm of the window's maximum, or of its minimum, and ReLU
    commutes with max. Only a zero's sign may differ, which the next
    gemm absorbs.

    Each band covers an even number of conv rows and runs them in chunks
    of an even number of rows, so each chunk's pool stays inside it. A
    chunk does all four steps from the shared input into its rows of the
    output, through its band's two buffers: the im2col scratch and the
    conv buffer. They are sized for the band's longest chunk, about
    ``_CHUNK_BYTES`` together, and allocated here by the calling thread;
    the bands share no other memory. So a stage's working memory does not
    grow with the sensor. A band's rows are split evenly into as few
    chunks as the budget allows, so no chunk's gemm is a small tail, and
    into fewer where a chunk would fall below ``_MIN_CHUNK_MACS``. One
    band is the whole stage, and a band within the budget is one chunk.
    """
    step = len(_LAYER_FIELDS)
    kernel, scale, shift, mean, var = weights.tensors[step * i:step * (i + 1)]
    cout, cin = kernel.shape[:2]
    h, w = x.shape[1:]
    # inference form only; running statistics come with the weights.
    # Applied in place; folding into the kernels would change the rounding
    inv = 1.0 / np.sqrt(var + np.float32(weights.bn_epsilon))
    affine = tuple(a[:, None, None] for a in (mean, inv, scale, shift))
    negative = np.flatnonzero(scale < 0)
    gemm = kernel.reshape(cout, cin * 9)
    pairs = h // 2
    bands = _parts(pairs, bands, 2 * w, -(-_MIN_BAND_MACS // gemm.size))
    edges = [pairs * k // bands for k in range(bands + 1)]  # in row pairs
    # per conv pixel of a chunk: ``unit`` values of scratch, its im2col
    # column and later half a channel column of row-pair maxima, and
    # ``depth`` of the conv buffer, its conv output or, before the gemm,
    # its input pixel (plus two rows of input per chunk)
    unit, depth = max(cin * 9, (cout + 1) // 2), max(cout, cin)
    # the row pairs of a chunk within the budget, at least one
    fit = max(1, _CHUNK_BYTES // max(1, 2 * w * (unit + depth) * x.itemsize))
    out = np.empty((cout, pairs, w // 2), dtype=x.dtype)
    tasks = []
    for p0, p1 in zip(edges, edges[1:]):
        chunks = _parts(p1 - p0, -(-(p1 - p0) // fit), 2 * w,
                        -(-_MIN_CHUNK_MACS // gemm.size))
        # the first ``extra`` chunks take one row pair more: a band's
        # chunks have at most two sizes, the longer first
        size, extra = divmod(p1 - p0, chunks)
        cuts = [2 * (p0 + size * k + min(k, extra))
                for k in range(chunks + 1)]
        rows = 2 * (size + (extra > 0))  # the longest chunk's
        tasks.append(functools.partial(
            _band, x, cuts, gemm, affine, negative,
            np.empty(unit * rows * w, dtype=x.dtype),
            np.empty(max(cout * rows, cin * (rows + 2)) * w + 2,
                     dtype=x.dtype), out))
    _run_bands(tasks)
    return out


def _parts(pairs: int, parts: int, width: int, least: int) -> int:
    """How many parts ``pairs`` row pairs of ``width`` gemm columns each
    split into evenly: ``parts``, or fewer while the smallest part would
    have under ``least`` columns, and at least 1."""
    while parts > 1 and pairs // parts * width < least:
        parts -= 1
    return max(parts, 1)


def _band(x: np.ndarray, cuts: list[int], gemm: np.ndarray, affine: tuple,
          negative: np.ndarray, scratch: np.ndarray, conv: np.ndarray,
          out: np.ndarray) -> None:
    """One band of ``_stage``: conv rows ``cuts[0]`` to ``cuts[-1]`` of
    ``x``, one chunk of rows ``cuts[k]`` to ``cuts[k + 1]`` after another,
    each through the conv, the pool by the sign of the scale, batchnorm
    and ReLU into its rows of ``out``."""
    cout = gemm.shape[0]
    cin, h, w = x.shape
    mean, inv, scale, shift = affine
    longest = cuts[1] - cuts[0]
    # before its gemm, a chunk's input rows r0 - 1 to r1 sit in the conv
    # buffer, one plane of longest + 2 rows per channel after one spare
    # value, the rows past x's edges zero. Tap (dy, dx) of conv pixel
    # (r, c) reads plane pixel (r + dy, c + dx - 1): one strided view of
    # the whole buffer, whose reads one column past the plane's edge land
    # on the row before or after, or on a spare value, and are zeroed in
    # the im2col
    plane = conv[1:1 + cin * (longest + 2) * w].reshape(cin, longest + 2, w)
    s = conv.itemsize
    taps = np.lib.stride_tricks.as_strided(
        conv, (cin, 3, 3, longest, w),
        ((longest + 2) * w * s, w * s, s, w * s, s), writeable=False)
    rows = None
    for r0, r1 in zip(cuts, cuts[1:]):
        if r1 - r0 != rows:
            # the views for this chunk size, made again only when it
            # changes: each chunk then costs only its numpy calls, and the
            # other band's thread waits less for the GIL
            rows = r1 - r0
            # the im2col buffer is channel-major (cin, 3, 3, rows, w), so
            # one gemm yields (cout, rows*w)
            cols = scratch[:cin * 9 * rows * w].reshape(cin, 3, 3, rows, w)
            gemm_in = cols.reshape(cin * 9, rows * w)
            chunk_taps = taps[:, :, :, :rows]
            left, right = cols[:, :, 0, :, 0], cols[:, :, 2, :, -1]
            gemm_out = conv[:cout * rows * w].reshape(cout, rows * w)
            # pool: row pairs first, as contiguous half rows, into the
            # scratch, free once the gemm is done; then column pairs into
            # the start of the conv buffer, contiguous for batchnorm
            halves = gemm_out.reshape(cout, rows // 2, 2 * w)
            upper, lower = halves[:, :, :w], halves[:, :, w:]
            maxima = scratch[:cout * rows // 2 * w] \
                .reshape(cout, rows // 2, w)
            even, odd = maxima[:, :, 0::2], maxima[:, :, 1::2]
            pooled = conv[:cout * rows // 2 * (w // 2)] \
                .reshape(cout, rows // 2, w // 2)
        if r0 == 0:
            plane[:, 0] = 0
        lo, hi = max(r0 - 1, 0), min(r1 + 1, h)  # the input rows inside x
        plane[:, lo + 1 - r0:hi + 1 - r0] = x[:, lo:hi]
        if r1 == h:
            plane[:, rows + 1] = 0
        cols[...] = chunk_taps
        left[...] = 0
        right[...] = 0
        np.matmul(gemm, gemm_in, out=gemm_out)
        # ``negative`` lists the channels of negative scale, pooled by
        # minimum
        _pool_pairs(upper, lower, maxima, negative)
        _pool_pairs(even, odd, pooled, negative)
        pooled -= mean
        pooled *= inv
        pooled *= scale
        pooled += shift
        np.maximum(pooled, np.float32(0), out=out[:, r0 // 2:r1 // 2])


def _pool_pairs(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                negative: np.ndarray) -> None:
    np.maximum(a, b, out=out)
    if negative.size:
        out[negative] = np.minimum(a[negative], b[negative])


# one helper thread, started on the first stage with more than one band,
# as (pid, executor): a forked child inherits the executor but not its
# thread, so it starts its own
_helper: tuple | None = None
_helper_lock = threading.Lock()


def _executor():
    global _helper
    with _helper_lock:
        if _helper is None or _helper[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor
            _helper = os.getpid(), ThreadPoolExecutor(
                1, thread_name_prefix="evfront-encoder-bands")
        return _helper[1]


def _run_bands(tasks: list) -> None:
    """Runs the first band on the calling thread and hands the rest to
    the helper; any the helper has not started by then, the caller takes
    back and runs, so a helper that is not scheduled holds nothing up.
    numpy releases the GIL in the gemm, the slice copies and the ufuncs,
    so bands on both threads run at once. Returns, or raises the first
    failure, only once every band has stopped: they write into the
    caller's buffers. After a failure no further band starts."""
    # each handed-over band sits in a box the caller empties before it
    # returns: a band still queued, or still held by the helper after it
    # ran, must not keep the stage's buffers alive
    boxes = [[task] for task in tasks[1:]]
    futures = [_executor().submit(_run_boxed, box) for box in boxes]
    error = None
    try:
        tasks[0]()
    except BaseException as exc:  # noqa: BLE001 - re-raised below
        error = exc
    # the helper takes bands first to last, the caller last to first
    for task, future in zip(tasks[:0:-1], futures[::-1]):
        if future.cancel():
            if error is None:
                try:
                    task()
                except BaseException as exc:  # noqa: BLE001
                    error = exc
        elif future.exception() is not None:  # waits for the band
            error = error or future.exception()
    for box in boxes:
        box.clear()
    if error is not None:
        raise error


def _run_boxed(box: list) -> None:
    if box:
        box[0]()


def encoder_bands() -> int:
    """Row bands per conv stage: the usable cores over the BLAS threads,
    at least 1 and at most 2, one for the caller and one for the helper.
    A BLAS whose thread count is unknown counts as using every core, so
    it gets one band. Bitwise equality with one band rests on OpenBLAS's
    unpromised kernel choice; see ``_MIN_BAND_MACS``."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(2, cores // (blas_threads() or cores)))


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy wheels bundle, or None when
    numpy links another BLAS."""
    get = _openblas_thread_getter()
    return None if get is None else get()


@functools.cache
def _openblas_thread_getter():
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob(
            "*openblas*"):
        get = getattr(ctypes.CDLL(str(path)),
                      "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            return get
    return None


def _softmax_channels(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def _encode(weights: WeightBundle, x: np.ndarray) -> np.ndarray:
    spec = weights.spec
    cell = spec.cell
    if x.ndim != 3 or x.shape[0] != spec.input_channels:
        raise ValueError(f"input shape {x.shape} does not carry "
                         f"{spec.input_channels} channels")
    h, w = x.shape[1:]
    if h % cell or w % cell:
        raise ValueError(f"input {h}x{w} not divisible by cell {cell}")

    bands = encoder_bands()
    feat = x.astype(np.float32, copy=False)
    for i in range(len(spec.encoder_widths)):
        feat = _stage(weights, i, feat, bands)
    # the heads' gemms round differently by operand layout; they have
    # always read the features pixel-major, (h, w, c) in memory
    return np.ascontiguousarray(feat.transpose(1, 2, 0)).transpose(2, 0, 1)


def _detector_head(weights: WeightBundle, feat: np.ndarray) -> np.ndarray:
    kernel, bias = weights.tensors[-4:-2]
    logits = np.tensordot(kernel, feat, axes=([1], [0])) + bias[:, None, None]
    return _softmax_channels(logits)


def detector_probabilities(weights: WeightBundle,
                           x: np.ndarray) -> np.ndarray:
    """Per-cell detector softmax with the dustbin channel still attached.

    Returns (cell*cell + 1, H/cell, W/cell); channels sum to one at every
    cell. ``forward`` reports the same distribution minus the dustbin,
    rearranged to full resolution.
    """
    return _detector_head(weights, _encode(weights, x))


def forward(weights: WeightBundle,
            x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the network on a (2K, H, W) float32 tensor.

    Returns (heatmap, descriptor_map): a full-resolution (H, W) score map
    in [0, 1] and an unnormalized (D, H/cell, W/cell) descriptor map.
    Normalization happens after interpolation, not here.
    """
    cell = weights.spec.cell
    feat = _encode(weights, x)
    probs = _detector_head(weights, feat)
    cells = probs[:-1]  # drop the dustbin
    hc, wc = cells.shape[1:]
    heatmap = cells.reshape(cell, cell, hc, wc) \
        .transpose(2, 0, 3, 1).reshape(hc * cell, wc * cell)

    kernel, bias = weights.tensors[-2:]
    desc_map = np.tensordot(kernel, feat, axes=([1], [0])) \
        + bias[:, None, None]
    return heatmap.astype(np.float32, copy=False), \
        desc_map.astype(np.float32, copy=False)


# ---------------------------------------------------------------------------
# keypoint selection


def nms(heatmap: np.ndarray, radius: int, threshold: float,
        max_k: int) -> KeypointSet:
    """Greedy non-maximum suppression.

    Candidates must reach ``threshold`` and be the strict maximum of
    their (2*radius+1)^2 neighborhood; they are taken in descending score
    order, ties broken row-major, at most ``max_k``. Two strict maxima
    can never share a neighborhood, so selected points are automatically
    spaced by more than ``radius``. Every radius of at least
    ``max(h, w) - 1`` spans the whole plane, so a larger one is clamped.
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if max_k < 0:
        raise ValueError("max_k cannot be negative")
    h, w = heatmap.shape
    radius = min(radius, max(h, w, 1))
    stride = w + 2 * radius
    flat, plane = _ringed(h, w, radius, -np.inf, heatmap.dtype)
    plane[...] = heatmap
    # pixel (y, x) sits at first + y*stride + x, and the window centred
    # on it has its top-left cell at y*stride + x
    first = radius * stride + radius
    n = (h - 1) * stride + w
    values = flat[first:first + n]
    with np.errstate(over="ignore"):
        # cast once to the type numpy compares in (the heatmap's, for a
        # Python float), where a threshold past its range is +-inf
        threshold = np.result_type(heatmap.dtype, threshold).type(threshold)
    full_max = _window_max(flat, 2 * radius + 1, stride)[:n]
    at = first + np.flatnonzero((values == full_max) & (values >= threshold))
    # a strict maximum is a maximum of its full square whose value occurs
    # there once. Its value occurs once in its 3x3 square too: checking
    # that first drops plateaus, and any border cell (its neighbours on
    # the border are -inf as well), before the costlier whole windows
    span = np.arange(-radius, radius + 1)
    window = span[:, None] * stride + span
    for offsets in (window[radius - 1:radius + 2, radius - 1:radius + 2],
                    window):
        # one row per offset, so every op runs along the candidates
        ties = flat[offsets.reshape(-1, 1) + at] == flat[at]
        at = at[ties.sum(axis=0) == 1]  # ascending: row-major order
    scores = flat[at]
    ys, xs = np.divmod(at - first, stride)
    order = np.argsort(-scores, kind="stable")[:max_k]
    xy = np.stack([xs[order], ys[order]], axis=1).astype(np.float64)
    return KeypointSet(xy, scores[order])


def _ringed(h: int, w: int, ring: int, fill: float,
            dtype) -> tuple[np.ndarray, np.ndarray]:
    """A flat buffer holding an h x w plane inside a ``ring``-wide border.

    The row stride is ``w + 2*ring``, so a shift by one row or column is
    a shift of a contiguous slice. Returns the buffer, its border set to
    ``fill``, and the (h, w) view of the plane inside it, left for the
    caller to write.
    """
    stride = w + 2 * ring
    flat = np.empty((h + 2 * ring) * stride, dtype=dtype)
    rows = flat.reshape(-1, stride)
    rows[:ring] = rows[ring + h:] = fill
    rows[ring:ring + h, :ring] = rows[ring:ring + h, ring + w:] = fill
    return flat, rows[ring:ring + h, ring:ring + w]


def _window_max(flat: np.ndarray, size: int, stride: int) -> np.ndarray:
    """Maximum of every size x size window of a flat plane of row stride
    ``stride``, indexed by the window's top-left cell.

    Along rows and then along columns, each step merges two running
    maxima, doubling the span they cover; max is exact, so the grouping
    does not change any value. Windows that wrap past a row end are
    computed too; callers read only the ones that do not.
    """
    x = flat
    for unit in (1, stride):
        span = 1
        while span < size:
            step = min(span, size - span)
            x = np.maximum(x[:-step * unit], x[step * unit:])
            span += step
    return x


def interpolate_descriptors(desc_map: np.ndarray, keypoints: KeypointSet,
                            cell: int) -> np.ndarray:
    """Bilinear descriptor lookup at sub-cell precision: one (N, D)
    float32 row per keypoint.

    Image coordinates map to cell-map coordinates via
    ((x + 0.5)/cell - 0.5); the four surrounding cells are blended with
    edge clamping, then each row is L2-normalized. A row of zero norm
    stays zero.
    """
    d, mh, mw = desc_map.shape
    n = len(keypoints)
    mx = (keypoints.xy[:, 0] + 0.5) / cell - 0.5
    my = (keypoints.xy[:, 1] + 0.5) / cell - 0.5
    x0 = np.floor(mx)
    y0 = np.floor(my)
    fx = (mx - x0)[:, None]
    fy = (my - y0)[:, None]
    cx = np.clip(np.stack([x0, x0 + 1]), 0, mw - 1).astype(np.intp)
    cy = np.clip(np.stack([y0, y0 + 1]), 0, mh - 1).astype(np.intp)
    # the four corners in one gather from a pixel-major copy, widened
    # first, which is exact: (y0, x0), (y0, x0+1), (y0+1, x0), (y0+1, x0+1)
    pixels = desc_map.reshape(d, mh * mw).T.astype(np.float64)
    corners = pixels.take((cy[:, None] * mw + cx).reshape(-1), axis=0)
    v00, v10, v01, v11 = corners.reshape(4, n, d)
    # (1-fy)*((1-fx)*v00 + fx*v10) + fy*((1-fx)*v01 + fx*v11), op by op
    for near, far, f in ((v00, v10, fx), (v01, v11, fx), (v00, v01, fy)):
        near *= 1 - f
        far *= f
        near += far
    return _normalize_rows(v00.astype(np.float32))


def _normalize_rows(vectors: np.ndarray) -> np.ndarray:
    """Divides each float32 row by its norm, in place, and returns
    ``vectors``; a row of norm zero or NaN is divided by 1 instead, so it
    stays as it is."""
    wide = vectors.astype(np.float64)
    norms = np.sqrt(np.add.reduce(wide * wide, axis=1))  # as np.linalg.norm
    norms[~(norms > 0)] = 1.0
    # the float64 quotient, rounded to float32 as it is stored
    np.divide(vectors, norms[:, None], out=vectors, casting="same_kind")
    return vectors


# ---------------------------------------------------------------------------
# classical fallback


def classical_detect(merged: np.ndarray, radius: int, threshold: float,
                     max_k: int) -> tuple[KeypointSet, np.ndarray]:
    """Harris corners plus patch descriptors of the (h, w) plane
    ``merged``, no weights involved.

    The pipeline passes the channel pair's two surfaces merged by maximum
    (``surface.merged_surface``). The corner response is
    det - 0.04*trace^2 of the 3x3-summed structure tensor of
    finite-difference gradients. The descriptors are one (N, 64) float32
    array: the flattened 8x8 patch around each keypoint, mean-subtracted
    and L2-normalized, 64-dim like the learned path. A flat patch's row
    stays zero.
    """
    keypoints = nms(_harris(merged), radius, threshold, max_k)

    # 8x8 patch with top-left 3 px up/left of the keypoint, edge-replicated
    h, w = merged.shape
    cols, rows = keypoints.xy.astype(np.intp).T
    span = np.arange(PATCH) - (PATCH // 2 - 1)
    rows = np.minimum(np.maximum(rows[:, None] + span, 0), h - 1)
    cols = np.minimum(np.maximum(cols[:, None] + span, 0), w - 1)
    rows *= w
    patches = merged.reshape(-1)[rows[:, :, None] + cols[:, None, :]] \
        .reshape(len(keypoints), PATCH * PATCH).astype(np.float32, copy=False)
    # np.mean's float32 sum; its quotient by 64 rounds as np.mean's does
    patches -= np.add.reduce(patches, axis=1, keepdims=True) / PATCH ** 2
    return keypoints, _normalize_rows(patches)


def _harris(merged: np.ndarray) -> np.ndarray:
    """The Harris response of the (h, w) merged plane, an (h, w) view.

    The plane is widened to float64 inside a zero border ``_RING`` wide.
    Every step is a 1D op on contiguous slices of whole plane rows,
    shifted by one cell or one row, in the operation order of the 2D
    forms: ``np.gradient``, then the products, their 3x3 box sums and
    det - k*trace^2.
    """
    h, w = merged.shape
    if h < 2 or w < 2:
        raise ValueError(f"a {h}x{w} plane is too small for a gradient: "
                         "each side needs at least 2 pixels")
    flat, plane = _ringed(h, w, _RING, 0.0, np.float64)
    plane[...] = merged  # widening to float64 is exact
    stride = w + 2 * _RING
    lo, n = _RING * stride, h * stride  # the plane's rows, ring included
    # the gradients, then the box sums' row sums, then the response
    work = np.empty((3, n + 2 * stride))
    grad = work[:2, :n]
    gx, gy = grad
    np.subtract(flat[lo + 1:lo + n + 1], flat[lo - 1:lo + n - 1], out=gx)
    np.subtract(flat[lo + stride:lo + n + stride],
                flat[lo - stride:lo + n - stride], out=gy)
    grad *= 0.5  # rounds the same real number as np.gradient's / 2.0
    # one-sided differences on the edges, as np.gradient takes them
    rows = flat[lo:lo + n].reshape(h, stride)
    gx2, gy2 = gx.reshape(h, stride), gy.reshape(h, stride)
    c0, c1 = _RING, _RING + w - 1
    np.subtract(rows[:, c0 + 1], rows[:, c0], out=gx2[:, c0])
    np.subtract(rows[:, c1], rows[:, c1 - 1], out=gx2[:, c1])
    np.subtract(rows[1], rows[0], out=gy2[0])
    np.subtract(rows[h - 1], rows[h - 2], out=gy2[h - 1])
    gx2[:, :c0] = 0.0  # the ring: gy is already zero there, gx is not
    gx2[:, c1 + 1:] = 0.0

    products = np.empty((3, flat.size))
    products[:, :lo] = 0.0
    products[:, lo + n:] = 0.0
    np.multiply(gx, gx, out=products[0, lo:lo + n])
    np.multiply(gy, gy, out=products[1, lo:lo + n])
    np.multiply(gx, gy, out=products[2, lo:lo + n])
    sxx, syy, sxy = _boxsum3(products, lo, n, stride, work)

    # sxx*syy - sxy*sxy - HARRIS_K*(sxx + syy)**2, in that order
    response = np.multiply(sxx, syy, out=work[0, :n])
    sxy *= sxy
    response -= sxy
    sxx += syy
    sxx *= sxx
    sxx *= HARRIS_K
    response -= sxx
    return response.reshape(h, stride)[:, _RING:_RING + w]


def _boxsum3(x: np.ndarray, lo: int, n: int, stride: int,
             rows: np.ndarray) -> np.ndarray:
    """3x3 box sums of the cells lo..lo+n of each row of ``x``.

    ``x`` stacks flat planes of row stride ``stride``; the cells a box
    reaches outside the plane must be zero, and one more cell must exist
    before and after those. Rows first, each sum taken left to right:
    this order reproduces the bits of a 3x3 sliding-window sum; columns
    first is off by an ulp. The row sums go to ``rows``, of shape
    ``(len(x), n + 2*stride)``; the box sums overwrite ``x[:, lo:lo+n]``,
    which is returned.
    """
    a, b = lo - stride, lo + n + stride
    np.add(x[:, a - 1:b - 1], x[:, a:b], out=rows)
    rows += x[:, a + 1:b + 1]
    out = np.add(rows[:, :n], rows[:, stride:stride + n], out=x[:, lo:lo + n])
    out += rows[:, 2 * stride:]
    return out


# ---------------------------------------------------------------------------
# weight serialization


def save_weights(weights: WeightBundle) -> bytes:
    """SLWT container: magic, u32 header (version, input channels, layer
    count, widths, descriptor dim, cell), f32 epsilon, then every tensor
    in declared order as little-endian float32."""
    spec = weights.spec
    head = [WEIGHTS_VERSION, spec.input_channels, len(spec.encoder_widths),
            *spec.encoder_widths, spec.descriptor_dim, spec.cell]
    parts = [WEIGHTS_MAGIC,
             np.asarray(head, dtype="<u4").tobytes(),
             np.float32(weights.bn_epsilon).astype("<f4").tobytes()]
    parts += [arr.astype("<f4").tobytes() for arr in weights.tensors]
    return b"".join(parts)


def load_weights(data: bytes) -> WeightBundle:
    if len(data) < 4 or data[:4] != WEIGHTS_MAGIC:
        raise ValueError(f"bad magic {data[:4]!r}")
    if len(data) < 16:
        raise ValueError("weights header truncated")
    fixed = np.frombuffer(data, dtype="<u4", offset=4, count=3)
    version, input_channels, n_layers = (int(v) for v in fixed)
    if version != WEIGHTS_VERSION:
        raise ValueError(f"unsupported weights version {version}")
    if n_layers != 4:
        raise ValueError(f"encoder must have exactly 4 layers, header says "
                         f"{n_layers}")
    if len(data) < 16 + 4 * (n_layers + 2) + 4:
        raise ValueError("weights header truncated")
    tail = np.frombuffer(data, dtype="<u4", offset=16, count=n_layers + 2)
    widths = tuple(int(v) for v in tail[:n_layers])
    descriptor_dim, cell = int(tail[n_layers]), int(tail[n_layers + 1])
    spec = NetworkSpec(input_channels, widths, descriptor_dim)
    if cell != spec.cell:
        raise ValueError(f"header cell {cell} contradicts layer count")
    offset = 16 + 4 * (n_layers + 2)
    epsilon = float(np.frombuffer(data, dtype="<f4", offset=offset, count=1)[0])
    offset += 4

    # the file length against the declared shapes first, so a header
    # declaring huge widths allocates nothing
    shapes = _shapes(spec)
    counts = [math.prod(shape) for shape in shapes]
    extra = len(data) - offset - 4 * sum(counts)
    if extra < 0:
        raise ValueError(f"weight tensors truncated: the header declares "
                         f"{sum(counts)} values, file has "
                         f"{(len(data) - offset) // 4}")
    if extra:
        raise ValueError(f"{extra} trailing bytes after tensors")
    values = np.frombuffer(data, dtype="<f4", offset=offset).copy()
    parts = np.split(values, np.cumsum(counts)[:-1])
    tensors = tuple(part.reshape(shape) for part, shape in zip(parts, shapes))
    return WeightBundle(spec, tensors, epsilon)
