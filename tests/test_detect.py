"""Network forward pass, NMS, descriptors, weights, classical detector."""

import functools
import hashlib
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import maximum_filter

from evfront import detect
from evfront.detect import (
    HARRIS_K,
    PATCH,
    Descriptors,
    KeypointSet,
    NetworkSpec,
    _RING,
    _boxsum3,
    _normalize_rows,
    _ringed,
    classical_detect,
    detector_probabilities,
    forward,
    interpolate_descriptors,
    load_weights,
    nms,
    random_weights,
    save_weights,
)
from evfront.events import (
    MotionSpec,
    SensorGeometry,
    corner_positions,
    synthesize,
)
from evfront.surface import (
    EventCountRing,
    TimestampGrid,
    WindowSpec,
    apply_events,
    mcts,
    merged_surface,
)


SPEC = NetworkSpec()


# ---------------------------------------------------------------------------
# reference implementations: the straightforward forms the fast paths in
# evfront.detect replace, kept as bitwise oracles


def conv3x3_reference(x, kernel):
    # pixel-major im2col + one gemm
    cout, cin = kernel.shape[:2]
    h, w = x.shape[1:]
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2))
    cols = windows.transpose(1, 2, 0, 3, 4).reshape(h * w, cin * 9)
    out = cols @ kernel.reshape(cout, cin * 9).T
    return out.T.reshape(cout, h, w)


def encode_reference(weights, x):
    # conv, batchnorm, ReLU, then a 2x2 max-pool per stage, each op on a
    # fresh array
    feat = x.astype(np.float32, copy=False)
    for i in range(len(weights.spec.encoder_widths)):
        feat = conv3x3_reference(feat, weights.conv_kernels[i])
        inv = 1.0 / np.sqrt(weights.bn_var[i] + np.float32(weights.bn_epsilon))
        feat = ((feat - weights.bn_mean[i][:, None, None])
                * inv[:, None, None] * weights.bn_scale[i][:, None, None]
                + weights.bn_shift[i][:, None, None])
        feat = np.maximum(feat, np.float32(0))
        c, h, w = feat.shape
        feat = feat.reshape(c, h // 2, 2, w // 2, 2).max(axis=(2, 4))
    return feat


def signed_zero_bundle(base, rng):
    """Batchnorm scales of 0.0, -0.0 and both signs, shifts of -0.0 and
    both signs, and nonzero statistics: channels that pool by minimum,
    and zeros of both signs inside the encoder."""
    def draw(arrays, lo, hi):
        return [rng.uniform(lo, hi, a.shape).astype(np.float32)
                for a in arrays]

    scale = draw(base.bn_scale, -2.0, 2.0)
    shift = draw(base.bn_shift, -1.0, 1.0)
    for s, b in zip(scale, shift):
        s[0::4] = 0.0
        s[1::4] = -0.0
        b[0::3] = -0.0
    return replace(base, bn_scale=tuple(scale), bn_shift=tuple(shift),
                   bn_mean=tuple(draw(base.bn_mean, -0.5, 0.5)),
                   bn_var=tuple(draw(base.bn_var, 0.1, 2.0)))


def head_outputs(monkeypatch, w, x, feat):
    """forward's heatmap and descriptor map, and the detector softmax, on
    top of encoder features ``feat``."""
    with monkeypatch.context() as m:
        m.setattr(detect, "_encode", lambda *_: feat)
        return (*forward(w, x), detector_probabilities(w, x))


def assert_same_bytes(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def interpolate_descriptors_reference(desc_map, keypoints, cell):
    # four gathers and a float64 blend through temporaries
    d, mh, mw = desc_map.shape
    mx = (keypoints.xy[:, 0] + 0.5) / cell - 0.5
    my = (keypoints.xy[:, 1] + 0.5) / cell - 0.5
    x0 = np.floor(mx)
    y0 = np.floor(my)
    fx = (mx - x0)[:, None]
    fy = (my - y0)[:, None]

    def cell_at(cx, cy):
        cx = np.clip(cx, 0, mw - 1).astype(np.intp)
        cy = np.clip(cy, 0, mh - 1).astype(np.intp)
        return desc_map[:, cy, cx].T  # (N, D)

    v00 = cell_at(x0, y0)
    v10 = cell_at(x0 + 1, y0)
    v01 = cell_at(x0, y0 + 1)
    v11 = cell_at(x0 + 1, y0 + 1)
    blend = ((1 - fy) * ((1 - fx) * v00 + fx * v10)
             + fy * ((1 - fx) * v01 + fx * v11))
    return normalize_rows_reference(blend.astype(np.float32))


def normalize_rows_reference(vectors):
    # a full copy and a masked write-back, zero rows or not
    norms = np.linalg.norm(vectors.astype(np.float64), axis=1)
    valid = norms > 0
    out = vectors.copy()
    out[valid] = (vectors[valid] / norms[valid, None]).astype(np.float32)
    return Descriptors(out, valid)


def boxsum3_reference(x):
    return sliding_window_view(np.pad(x, 1), (3, 3)).sum(axis=(-1, -2))


def nms_reference(heatmap, radius, threshold, max_k):
    # strict maximum via a holed footprint: the centre must beat every
    # other pixel of its square
    size = 2 * radius + 1
    footprint = np.ones((size, size), dtype=bool)
    footprint[radius, radius] = False
    neighbor_max = maximum_filter(heatmap, footprint=footprint,
                                  mode="constant", cval=-np.inf)
    ys, xs = np.nonzero((heatmap > neighbor_max) & (heatmap >= threshold))
    scores = heatmap[ys, xs]
    order = np.argsort(-scores, kind="stable")[:max_k]
    xy = np.stack([xs[order], ys[order]], axis=1).astype(np.float64)
    return KeypointSet(xy, scores[order])


def nms_dense_reference(heatmap, radius, threshold, max_k):
    # every window whole: a strict maximum is the maximum of its square,
    # its value occurs there once, and it passes ``>= threshold`` in
    # numpy's own promotion of the heatmap and the threshold
    size = 2 * radius + 1
    padded = np.pad(heatmap, radius, constant_values=-np.inf)
    windows = sliding_window_view(padded, (size, size))
    peak = windows.max(axis=(-2, -1))
    once = (windows == heatmap[..., None, None]).sum(axis=(-2, -1)) == 1
    ys, xs = np.nonzero((heatmap == peak) & once & (heatmap >= threshold))
    scores = heatmap[ys, xs]
    order = np.argsort(-scores, kind="stable")[:max_k]
    xy = np.stack([xs[order], ys[order]], axis=1).astype(np.float64)
    return KeypointSet(xy, scores[order])


def patch_tail_reference(merged, xy):
    # the np.clip, 2D-index and np.mean form of classical_detect's
    # descriptor tail
    h, w = merged.shape
    cols, rows = xy.astype(np.intp).T
    span = np.arange(PATCH) - (PATCH // 2 - 1)
    rows = np.clip(rows[:, None] + span, 0, h - 1)
    cols = np.clip(cols[:, None] + span, 0, w - 1)
    patches = merged[rows[:, :, None], cols[:, None, :]] \
        .reshape(len(xy), PATCH * PATCH).astype(np.float32)
    patches -= patches.mean(axis=1, keepdims=True)
    return normalize_rows_reference(patches)


def patches_reference(merged, xy):
    pad = PATCH
    padded = np.pad(merged, pad, mode="edge")
    patches = np.empty((len(xy), PATCH * PATCH), dtype=np.float32)
    for i, (x, y) in enumerate(xy.astype(int)):
        y0 = y - PATCH // 2 + 1 + pad
        x0 = x - PATCH // 2 + 1 + pad
        patches[i] = padded[y0:y0 + PATCH, x0:x0 + PATCH].ravel()
    return patches


def pair_plane(tensor, pair):
    """Planes ``pair`` and ``K + pair`` of a tensor merged by maximum: the
    classical detector's input."""
    return np.maximum(tensor.channels[pair], tensor.channels[tensor.K + pair])


def classical_reference(merged, radius, threshold, max_k):
    gy, gx = np.gradient(merged.astype(np.float64))
    sxx = boxsum3_reference(gx * gx)
    syy = boxsum3_reference(gy * gy)
    sxy = boxsum3_reference(gx * gy)
    response = sxx * syy - sxy * sxy - HARRIS_K * (sxx + syy) ** 2
    keypoints = nms_reference(response, radius, threshold, max_k)
    patches = patches_reference(merged, keypoints.xy)
    patches -= patches.mean(axis=1, keepdims=True)
    return keypoints, normalize_rows_reference(patches)


def assert_same_keypoints(got, want):
    assert got.xy.dtype == want.xy.dtype
    assert got.scores.dtype == want.scores.dtype
    assert np.array_equal(got.xy, want.xy)
    assert np.array_equal(got.scores, want.scores)


def zero_bundle(spec):
    """All-zero kernels and biases, identity batchnorm."""
    return detect._from_sequence(spec, detect._build_sequence(
        spec, lambda fan_in, shape: np.zeros(shape, np.float32)))


def corner_tensor(geo, spec, velocity=(40.0, 30.0), duration=1.0,
                  pitch=16, side=6):
    motion = MotionSpec("grid-of-corners", velocity, duration,
                        grid_pitch=pitch, square_side=side)
    batch = synthesize(motion, geo)
    grid = TimestampGrid.create(geo)
    ring = EventCountRing(spec.ring_capacity(geo))
    apply_events(grid, ring, batch)
    return motion, mcts(grid, ring, grid.latest_time, spec)


class TestNetworkSpec:
    def test_cell_size_from_depth(self):
        assert SPEC.cell == 16
        assert SPEC.detector_head_channels == 257

    def test_exactly_four_encoder_stages(self):
        with pytest.raises(ValueError):
            NetworkSpec(encoder_widths=(32, 64, 128))


class TestForwardShapes:
    def test_shape_contract(self):
        rng = np.random.default_rng(1)
        w = random_weights(SPEC, 0)
        for h, wd in ((32, 32), (48, 80), (64, 32)):
            x = rng.random((8, h, wd), dtype=np.float32)
            heat, desc = forward(w, x)
            assert heat.shape == (h, wd)
            assert heat.dtype == np.float32
            assert desc.shape == (64, h // 16, wd // 16)
            assert desc.dtype == np.float32

    def test_rejects_non_divisible_input(self):
        w = random_weights(SPEC, 0)
        x = np.zeros((8, 30, 32), dtype=np.float32)
        with pytest.raises(ValueError):
            forward(w, x)

    def test_rejects_wrong_channel_count(self):
        w = random_weights(SPEC, 0)
        x = np.zeros((6, 32, 32), dtype=np.float32)
        with pytest.raises(ValueError):
            forward(w, x)


class TestForwardNumerics:
    def test_heatmap_is_probability_like(self):
        rng = np.random.default_rng(2)
        w = random_weights(SPEC, 3)
        x = rng.random((8, 48, 48), dtype=np.float32)
        heat, _ = forward(w, x)
        assert heat.min() >= 0.0
        assert heat.max() <= 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        w = random_weights(SPEC, 5)
        x = rng.random((8, 32, 48), dtype=np.float32)
        h1, d1 = forward(w, x)
        h2, d2 = forward(w, x)
        assert np.array_equal(h1, h2)
        assert np.array_equal(d1, d2)

    def test_translation_equivariance_one_cell(self):
        # shifting the input by one cell shifts the heatmap by a cell and
        # the descriptor map by one entry, exactly, away from borders
        rng = np.random.default_rng(6)
        w = random_weights(SPEC, 7)
        c = SPEC.cell
        x = rng.random((8, 8 * c, 8 * c), dtype=np.float32)
        shifted = np.roll(x, (c, c), axis=(1, 2))
        h0, d0 = forward(w, x)
        h1, d1 = forward(w, shifted)
        m = 2 * c  # two-cell interior margin
        assert np.array_equal(h0[m:-m - c, m:-m - c],
                              h1[m + c:-m, m + c:-m])
        assert np.array_equal(d0[:, 2:-3, 2:-3], d1[:, 3:-2, 3:-2])

    def test_zero_weights_give_uniform_softmax(self):
        w = zero_bundle(SPEC)
        x = np.zeros((8, 32, 32), dtype=np.float32)
        heat, desc = forward(w, x)
        assert np.allclose(heat, 1.0 / SPEC.detector_head_channels)
        assert np.array_equal(desc, np.zeros_like(desc))

    def test_matches_reference_encoder_bitwise(self, monkeypatch):
        # heads run unchanged on top of the reference encoder; batchnorm
        # with negative and zero scales and nonzero statistics exercises
        # the pool by the scale's sign, batchnorm after the pool and the
        # in-place op order. The outputs agree byte for byte: zeros of
        # either sign inside the encoder do not reach them
        rng = np.random.default_rng(9)
        bundles = [random_weights(SPEC, seed) for seed in (0, 1, 2)]
        base = bundles[0]

        def stats(arrays, lo, hi):
            return tuple(rng.uniform(lo, hi, a.shape).astype(np.float32)
                         for a in arrays)

        bundles.append(replace(
            base, bn_scale=stats(base.bn_scale, -2.0, 2.0),
            bn_shift=stats(base.bn_shift, -1.0, 1.0),
            bn_mean=stats(base.bn_mean, -0.5, 0.5),
            bn_var=stats(base.bn_var, 0.1, 2.0)))
        bundles.append(signed_zero_bundle(base, rng))
        inputs = []
        for h, wd in ((16, 16), (64, 64), (128, 128), (176, 240)):
            x = rng.random((8, h, wd), dtype=np.float32)
            x[rng.random(x.shape) < 0.5] = 0  # surfaces are mostly empty
            inputs.append(x)
        got = [(forward(w, x), detector_probabilities(w, x))
               for w in bundles for x in inputs]
        monkeypatch.setattr(detect, "_encode", encode_reference)
        want = [(forward(w, x), detector_probabilities(w, x))
                for w in bundles for x in inputs]
        for ((heat, desc), probs), ((heat0, desc0), probs0) in zip(got, want):
            assert_same_bytes((heat, desc, probs), (heat0, desc0, probs0))


def force_bands(monkeypatch, bands):
    # past the rule's cap of 2: the stages split into any band count
    monkeypatch.setattr(detect, "encoder_bands", lambda: bands)


def count_splits(monkeypatch):
    """Records the number of bands each stage hands to ``_run_bands``."""
    splits = []
    run = detect._run_bands
    monkeypatch.setattr(detect, "_run_bands",
                        lambda tasks: (splits.append(len(tasks)), run(tasks)))
    return splits


class _AwayHelper:
    """Stands in for a helper thread that never gets to run: every band
    handed to it stays pending, and queued with its arguments."""

    queued = []

    def submit(self, fn, *args):
        self.queued.append(args)
        return Future()


class TestEncoderBands:
    """Conv stages in row bands, the band count forced.

    Split points, at the 2**24 multiply-add floor per band: 16x16 and
    64x64 inputs split no stage; at 128x128 three bands fit only in the
    middle stages, with 20, 22 and 22 rows in the second; 176x240 splits
    every stage in three, 58, 58 and 60 rows in the first.
    """

    SPLITS = {
        1: {(16, 16): [1] * 4, (64, 64): [1] * 4, (128, 128): [1] * 4,
            (176, 240): [1] * 4},
        2: {(16, 16): [1] * 4, (64, 64): [1] * 4, (128, 128): [2] * 4,
            (176, 240): [2] * 4},
        3: {(16, 16): [1] * 4, (64, 64): [1] * 4, (128, 128): [2, 3, 3, 2],
            (176, 240): [3] * 4},
    }

    @staticmethod
    def bundles():
        rng = np.random.default_rng(12)
        base = random_weights(SPEC, 4)

        def stats(arrays, lo, hi):
            return tuple(rng.uniform(lo, hi, a.shape).astype(np.float32)
                         for a in arrays)

        return [base, replace(
            base, bn_scale=stats(base.bn_scale, -2.0, 2.0),
            bn_shift=stats(base.bn_shift, -1.0, 1.0),
            bn_mean=stats(base.bn_mean, -0.5, 0.5),
            bn_var=stats(base.bn_var, 0.1, 2.0)),
            signed_zero_bundle(base, rng)]

    @pytest.mark.parametrize("cores, blas, bands", [
        (2, 1, 2), (2, 2, 1), (4, 2, 2), (3, 2, 1), (1, 1, 1), (8, None, 1),
        (4, 1, 2), (16, 2, 2)])
    def test_band_count_is_cores_over_blas_threads(self, monkeypatch, cores,
                                                   blas, bands):
        # an unknown BLAS counts as using every core; one helper thread
        # caps the count at 2
        monkeypatch.setattr(detect, "blas_threads", lambda: blas)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        assert detect.encoder_bands() == bands

    @pytest.mark.parametrize("bands", [1, 2, 3])
    def test_forced_bands_match_reference_bitwise(self, monkeypatch, bands):
        force_bands(monkeypatch, bands)
        splits = count_splits(monkeypatch)
        rng = np.random.default_rng(13)
        for shape, want_splits in self.SPLITS[bands].items():
            x = rng.random((8, *shape), dtype=np.float32)
            x[rng.random(x.shape) < 0.5] = 0
            for w in self.bundles():
                splits.clear()
                feat = detect._encode(w, x)
                assert splits == want_splits
                # equal values; a zero's sign may differ, but not in the
                # heads' outputs
                want = encode_reference(w, x)
                assert np.array_equal(feat, want)
                assert_same_bytes(head_outputs(monkeypatch, w, x, feat),
                                  head_outputs(monkeypatch, w, x, want))

    @pytest.mark.parametrize("bands, want_splits", [
        (1, [1] * 4), (2, [2, 2, 2, 1]), (3, [3, 3, 3, 1])])
    def test_one_input_channel_bitwise(self, monkeypatch, bands,
                                       want_splits):
        # 9*cin < cout/2 in the first stage: the row maxima need more
        # scratch than the im2col columns
        force_bands(monkeypatch, bands)
        splits = count_splits(monkeypatch)
        w = random_weights(NetworkSpec(1, (32, 16, 64, 8), 16), 7)
        x = np.random.default_rng(16).random((1, 512, 512), dtype=np.float32)
        assert np.array_equal(detect._encode(w, x), encode_reference(w, x))
        assert splits == want_splits

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_band_failure_surfaces_after_both_bands_stop(self, monkeypatch,
                                                         failing):
        force_bands(monkeypatch, 2)
        w = random_weights(SPEC, 5)
        x = np.random.default_rng(14).random((8, 128, 128), dtype=np.float32)
        want = forward(w, x)
        caller = threading.current_thread()
        band = detect._band
        both_running = threading.Barrier(2, timeout=30)
        finished = []

        def one_fails(*args):
            both_running.wait()  # one band on each thread
            on_caller = threading.current_thread() is caller
            if on_caller == (failing == "caller"):
                raise RuntimeError(f"{failing} band failed")
            time.sleep(0.05)  # the other band fails long before this ends
            band(*args)
            finished.append(on_caller)

        monkeypatch.setattr(detect, "_band", one_fails)
        with pytest.raises(RuntimeError, match=f"{failing} band failed"):
            forward(w, x)
        assert finished == [failing == "helper"]
        monkeypatch.setattr(detect, "_band", band)
        heat, desc = forward(w, x)
        assert np.array_equal(heat, want[0])
        assert np.array_equal(desc, want[1])

    @pytest.mark.parametrize("fails, want_ran", [(0, []), (2, [0, 3])])
    def test_no_band_starts_after_a_failure(self, monkeypatch, fails,
                                            want_ran):
        # the helper never runs, so the caller takes the handed-over
        # bands back, last first
        monkeypatch.setattr(detect, "_executor", _AwayHelper)
        ran = []

        def band(k):
            if k == fails:
                raise ValueError(f"band {k} failed")
            ran.append(k)

        with pytest.raises(ValueError, match=f"band {fails} failed"):
            detect._run_bands([functools.partial(band, k) for k in range(4)])
        assert ran == want_ran

    def test_caller_runs_every_band_while_the_helper_is_away(
            self, monkeypatch):
        # a helper that is not scheduled does not hold the caller up
        force_bands(monkeypatch, 2)
        w = random_weights(SPEC, 8)
        x = np.random.default_rng(17).random((8, 128, 128), dtype=np.float32)
        want = forward(w, x)
        ran_on = []
        band = detect._band

        def record(*args):
            ran_on.append(threading.current_thread())
            band(*args)

        monkeypatch.setattr(detect, "_band", record)
        monkeypatch.setattr(detect, "_executor", _AwayHelper)
        monkeypatch.setattr(_AwayHelper, "queued", [])
        heat, desc = forward(w, x)
        assert np.array_equal(heat, want[0])
        assert np.array_equal(desc, want[1])
        assert set(ran_on) == {threading.current_thread()}
        assert len(ran_on) == 8  # two bands in each of four stages
        # what stays queued holds none of the stages' buffers
        assert _AwayHelper.queued == [([],)] * 4

    def test_forked_child_starts_its_own_helper(self, monkeypatch):
        # a child inherits the parent's executor, not its thread
        parent = detect._executor()
        assert detect._executor() is parent
        monkeypatch.setattr(os, "getpid", lambda: -1)
        child = detect._executor()
        assert child is not parent
        assert child.submit(lambda: 7).result(timeout=30) == 7
        child.shutdown()

    def test_concurrent_callers_agree(self, monkeypatch):
        # more callers than cores, switching threads often, all sharing
        # the one helper
        w = random_weights(SPEC, 6)
        rng = np.random.default_rng(15)
        inputs = [rng.random((8, 128, 128), dtype=np.float32)
                  for _ in range(4)]
        force_bands(monkeypatch, 1)
        want = [forward(w, x) for x in inputs]
        force_bands(monkeypatch, 2)
        splits = count_splits(monkeypatch)
        ran_on = set()
        band = detect._band

        def record(*args):
            ran_on.add(threading.current_thread().name)
            band(*args)

        monkeypatch.setattr(detect, "_band", record)
        got = [[] for _ in inputs]
        start = threading.Barrier(len(inputs))

        def call(k):
            start.wait(timeout=30)
            for _ in range(5):
                got[k].append(forward(w, inputs[k]))

        threads = [threading.Thread(target=call, args=(k,), name=f"caller{k}")
                   for k in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert splits == [2] * 4 * 5 * len(inputs)
        assert {f"caller{k}" for k in range(len(inputs))} <= ran_on
        assert any(name.startswith("evfront-encoder-bands")
                   for name in ran_on)
        for results, (heat, desc) in zip(got, want):
            assert len(results) == 5
            for heat1, desc1 in results:
                assert np.array_equal(heat1, heat)
                assert np.array_equal(desc1, desc)


class TestNms:
    def test_spacing_exhaustive(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            heat = rng.random((40, 40)).astype(np.float32)
            radius = int(rng.integers(1, 6))
            kps = nms(heat, radius, 0.0, 200)
            pts = kps.xy
            for i in range(len(pts) - 1):
                d = np.abs(pts[i + 1:] - pts[i]).max(axis=1)
                assert (d > radius).all()

    def test_strict_local_maxima_only(self):
        heat = np.zeros((9, 9), dtype=np.float32)
        heat[4, 4] = 1.0
        heat[4, 5] = 1.0  # tied neighbor: both suppressed
        kps = nms(heat, 2, 0.5, 10)
        assert len(kps.xy) == 0

    def test_threshold_applies(self):
        heat = np.zeros((9, 9), dtype=np.float32)
        heat[2, 3] = 0.4
        heat[6, 6] = 0.9
        kps = nms(heat, 1, 0.5, 10)
        assert len(kps.xy) == 1
        assert tuple(kps.xy[0]) == (6.0, 6.0)
        # past float32's range a threshold compares as +-inf, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for big in (1e300, -1e300):
                got = nms(heat, 1, big, 10)
                assert len(got) == (0 if big > 0 else 2)
                assert_same_keypoints(
                    got, nms(heat, 1, math.copysign(math.inf, big), 10))

    def test_scores_descending_and_capped(self):
        rng = np.random.default_rng(9)
        heat = rng.random((64, 64)).astype(np.float32)
        kps = nms(heat, 1, 0.0, 25)
        assert len(kps.xy) == 25
        assert (np.diff(kps.scores) <= 0).all()

    def test_negative_cap_rejected(self):
        heat = np.random.default_rng(9).random((16, 16)).astype(np.float32)
        assert len(nms(heat, 2, 0.0, 0)) == 0
        with pytest.raises(ValueError, match="max_k"):
            nms(heat, 2, 0.0, -1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_radius_past_the_plane_is_clamped(self, dtype):
        # any radius of at least max(h, w) - 1 spans the whole plane
        rng = np.random.default_rng(23)
        for k in range(30):
            h, w = (int(v) for v in rng.integers(1, 40, 2))
            heat = rng.random((h, w)).astype(dtype)
            if k % 3 == 0:  # plateaus
                heat = np.round(heat * 4) / 4
            want = nms(heat, max(h, w, 2) - 1, 0.0, 500)
            got = nms(heat, 10**6, 0.0, 500)
            assert got.xy.tobytes() == want.xy.tobytes()
            assert got.scores.tobytes() == want.scores.tobytes()

    def test_border_peak_detected(self):
        heat = np.zeros((8, 8), dtype=np.float32)
        heat[0, 0] = 0.7
        kps = nms(heat, 3, 0.1, 10)
        assert (kps.xy == [0.0, 0.0]).all()

    def test_ties_at_radius_suppress_and_beyond_keep(self):
        for dtype in (np.float32, np.float64):
            for r in (1, 2, 3):
                for step in ((0, 1), (1, 0), (1, 1)):
                    for gap, kept in ((r, 0), (r + 1, 2)):
                        heat = np.zeros((20, 20), dtype=dtype)
                        heat[5, 5] = 1.0
                        heat[5 + gap * step[0], 5 + gap * step[1]] = 1.0
                        kps = nms(heat, r, 0.5, 10)
                        assert len(kps) == kept
                        assert_same_keypoints(
                            kps, nms_reference(heat, r, 0.5, 10))

    @staticmethod
    def _hand_built(dtype):
        maps = []
        plateau = np.zeros((16, 16), dtype=dtype)
        plateau[3:6, 3:6] = 0.8             # flat top: no strict maximum
        plateau[10:12, 9:13] = 0.6
        plateau[10, 14] = 0.7               # beside a plateau edge
        maps.append(plateau)
        bump = plateau.copy()
        bump[4, 4] = 0.9                    # peak rising out of a plateau
        maps.append(bump)
        border = np.zeros((9, 13), dtype=dtype)
        border[0, 0] = border[0, 12] = border[8, 6] = border[4, 0] = 0.5
        border[8, 12] = border[8, 11] = 0.4  # tie on the border
        maps.append(border)
        maps.append(border - 1)             # negative: outside must lose
        maps.append(np.full((9, 11), 0.3, dtype=dtype))
        maps.append(np.full((1, 1), 0.3, dtype=dtype))
        maps.append(np.array([[0.2, 0.1, 0.2]], dtype=dtype))
        neg = np.full((12, 12), -np.inf, dtype=dtype)
        maps.append(neg)
        neg = neg.copy()
        neg[2, 2] = 0.5
        neg[2, 5] = -1.0
        neg[9, 9] = neg[9, 11] = 0.25
        maps.append(neg)
        rng = np.random.default_rng(21)
        for levels in (2, 4, 16):           # dense ties everywhere
            maps.append(rng.integers(0, levels, (30, 24)).astype(dtype))
        # holes and edges of -inf: with threshold -inf they, and the -inf
        # border nms puts around a map, pass the threshold
        holes = rng.random((23, 31)).astype(dtype)
        holes[rng.random(holes.shape) < 0.6] = -np.inf
        holes[:, :3] = holes[-2:] = -np.inf
        maps.append(holes)
        sparse = np.full((20, 20), -np.inf, dtype=dtype)
        sparse[0, 0] = sparse[19, 19] = sparse[10, 4] = 1.0
        sparse[0, 19] = -1.0
        maps.append(sparse)
        # every pixel a full-square maximum and none strict: the uniform
        # heatmap of zero weights, above the default threshold
        maps.append(np.full((180, 240), 1 / 257, dtype=dtype))
        return maps

    def test_matches_reference_on_hand_built_maps(self):
        for dtype in (np.float32, np.float64):
            for heat in self._hand_built(dtype):
                for r in (1, 2, 3, 4):
                    for threshold in (-np.inf, 0.0, 0.5):
                        for max_k in (3, 1000):
                            got = nms(heat, r, threshold, max_k)
                            want = nms_reference(heat, r, threshold, max_k)
                            assert got.scores.dtype == dtype
                            assert_same_keypoints(got, want)

    def test_matches_reference_on_equal_peak_lattices(self):
        # equal isolated peaks are strictly above their 3x3 rings, so only
        # the whole-window tie check can suppress them: spacing 2..r ties,
        # r + 1 does not
        rng = np.random.default_rng(26)
        for dtype in (np.float32, np.float64):
            for r in (2, 3, 4):
                for spacing in range(2, r + 2):
                    heat = (rng.random((37, 45)) * 0.5).astype(dtype)
                    heat[1::spacing, 2::spacing] = 0.9
                    got = nms(heat, r, 0.1, 1000)
                    assert_same_keypoints(got,
                                          nms_reference(heat, r, 0.1, 1000))
                    if spacing <= r:
                        assert not (got.scores == dtype(0.9)).any()
                    else:
                        assert (got.scores == dtype(0.9)).sum() == \
                            (heat == dtype(0.9)).sum()

    def test_matches_reference_on_learned_heatmaps(self):
        rng = np.random.default_rng(22)
        geo = SensorGeometry(64, 64)
        _, tensor = corner_tensor(geo, WindowSpec.default_constant_count())
        for seed in (0, 1, 2):
            w = random_weights(SPEC, seed)
            for x in (tensor.channels,
                      rng.random((8, 48, 64), dtype=np.float32)):
                heat, _ = forward(w, x)
                for r in (1, 2, 4):
                    for threshold in (0.0, 1e-4, float(np.median(heat))):
                        assert_same_keypoints(
                            nms(heat, r, threshold, 256),
                            nms_reference(heat, r, threshold, 256))


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_dense_reference_on_seeded_maps(self, dtype):
        # plateaus, NaN and infinite cells, and values at and next to
        # thresholds float32 cannot hold, given as Python floats (numpy
        # compares them in the map's dtype) and as np.float64 (compared
        # in float64)
        rng = np.random.default_rng(41)
        near = []
        for t in (1e-4, 0.1):
            t32 = np.float32(t)
            near += [t, t32, np.nextafter(t32, np.float32(0)),
                     np.nextafter(t32, np.float32(1))]
        specials = np.array(near + [np.nan, np.inf, -np.inf, 0.0])
        thresholds = (1e-4, 0.1, np.float64(1e-4), np.float64(0.1),
                      -np.inf, np.inf, np.nan)
        kept = 0
        for trial in range(24):
            h, w = (int(v) for v in rng.integers(3, 28, 2))
            heat = rng.random((h, w)) * (0.2, 0.2, 1e-6)[trial % 3]
            if trial % 3 == 1:
                heat = np.round(heat * 40) / 40  # plateaus
            # on the faint background the specials are the peaks
            cells = rng.random((h, w)) < 0.1
            heat[cells] = rng.choice(specials, int(cells.sum()))
            heat = heat.astype(dtype)
            for radius in range(1, 6):
                for threshold in thresholds:
                    got = nms(heat, radius, threshold, 64)
                    want = nms_dense_reference(heat, radius, threshold, 64)
                    assert_same_bytes((got.xy, got.scores),
                                      (want.xy, want.scores))
                    kept += len(got)
        assert kept > 1000


class TestInterpolateDescriptors:
    def test_cell_center_returns_cell_vector(self):
        rng = np.random.default_rng(10)
        dmap = rng.standard_normal((64, 4, 4)).astype(np.float32)
        # center of cell (1, 2): x = 2*16 + 7.5, y = 1*16 + 7.5
        kps = KeypointSet(np.array([[39.5, 23.5]]), np.array([1.0]))
        d = interpolate_descriptors(dmap, kps, 16)
        want = dmap[:, 1, 2] / np.linalg.norm(dmap[:, 1, 2])
        assert np.allclose(d.vectors[0], want, atol=1e-6)

    def test_midpoint_blends_equally(self):
        dmap = np.zeros((64, 1, 2), dtype=np.float32)
        u = np.zeros(64); u[0] = 1.0
        v = np.zeros(64); v[1] = 1.0
        dmap[:, 0, 0] = u
        dmap[:, 0, 1] = v
        # halfway between cell centers x=7.5 and x=23.5
        kps = KeypointSet(np.array([[15.5, 7.5]]), np.array([1.0]))
        d = interpolate_descriptors(dmap, kps, 16)
        want = (u + v) / np.linalg.norm(u + v)
        assert np.allclose(d.vectors[0], want, atol=1e-6)

    def test_unit_norm_outputs(self):
        rng = np.random.default_rng(11)
        dmap = rng.standard_normal((64, 3, 5)).astype(np.float32)
        xy = np.column_stack([rng.uniform(0, 80, 50), rng.uniform(0, 48, 50)])
        kps = KeypointSet(xy, np.ones(50))
        d = interpolate_descriptors(dmap, kps, 16)
        norms = np.linalg.norm(d.vectors, axis=1)
        assert np.allclose(norms[d.valid], 1.0, atol=1e-4)

    def test_no_keypoints(self):
        dmap = np.ones((32, 3, 5), dtype=np.float32)
        kps = KeypointSet(np.zeros((0, 2)), np.zeros(0))
        d = interpolate_descriptors(dmap, kps, 16)
        assert d.vectors.shape == (0, 32) and d.vectors.dtype == np.float32
        assert d.valid.shape == (0,) and d.valid.dtype == bool

    def test_edge_keypoints_clamp(self):
        rng = np.random.default_rng(12)
        dmap = rng.standard_normal((64, 2, 2)).astype(np.float32)
        kps = KeypointSet(np.array([[0.0, 0.0], [31.0, 31.0]]),
                          np.ones(2))
        d = interpolate_descriptors(dmap, kps, 16)
        w0 = dmap[:, 0, 0] / np.linalg.norm(dmap[:, 0, 0])
        w1 = dmap[:, 1, 1] / np.linalg.norm(dmap[:, 1, 1])
        assert np.allclose(d.vectors[0], w0, atol=1e-6)
        assert np.allclose(d.vectors[1], w1, atol=1e-6)


    def test_matches_reference_bytes(self):
        # sub-pixel and integer keypoints over the whole map and its
        # edges, cells whose descriptor is zero, and an all-zero map
        rng = np.random.default_rng(24)
        invalid = 0
        for d, mh, mw in ((64, 8, 8), (64, 11, 15), (16, 1, 1), (3, 2, 5)):
            dmap = rng.standard_normal((d, mh, mw)).astype(np.float32)
            dmap[:, rng.random((mh, mw)) < 0.3] = 0
            xy = np.column_stack([rng.uniform(0, 16 * mw - 1, 300),
                                  rng.uniform(0, 16 * mh - 1, 300)])
            xy[:100] = np.round(xy[:100])
            xy[100:110] = [[0, 0], [16 * mw - 1, 16 * mh - 1]] * 5
            kps = KeypointSet(xy, np.ones(len(xy)))
            for m in (dmap, np.zeros_like(dmap)):
                got = interpolate_descriptors(m, kps, 16)
                want = interpolate_descriptors_reference(m, kps, 16)
                assert_same_bytes((got.vectors, got.valid),
                                  (want.vectors, want.valid))
                invalid += int((~got.valid).sum())
        assert invalid > 4 * 300  # the zero maps, and some zero cells

    def test_normalize_rows_matches_reference_bytes(self):
        # rows of widely spread norms, zero rows of either sign, NaN rows,
        # no rows
        rng = np.random.default_rng(25)
        for n, d in ((0, 64), (1, 64), (40, 64), (300, 8)):
            v = (rng.standard_normal((n, d))
                 * 10.0 ** rng.uniform(-6, 6, (n, 1))).astype(np.float32)
            for zeros in (False, True):
                if zeros:
                    v[0::3] = 0.0
                    v[1::7] = -0.0
                    v[2::5, -1] = np.nan
                want = normalize_rows_reference(v)
                got = _normalize_rows(v.copy())
                assert_same_bytes((got.vectors, got.valid),
                                  (want.vectors, want.valid))

    def test_normalize_rows_takes_the_linalg_norm(self):
        # the norm np.linalg.norm takes, on rows of zero, NaN and infinite
        # components and on norms spread over 40 decades
        rng = np.random.default_rng(43)
        v = (rng.standard_normal((64, 64))
             * 10.0 ** rng.uniform(-20, 20, (64, 1))).astype(np.float32)
        v[0] = 0.0
        v[1] = -0.0
        v[2, 5] = np.nan
        v[3, 7] = np.inf
        v[4] = -np.inf
        v[5, 1], v[5, 2] = np.inf, np.nan
        v[6, 3] = -np.inf
        with np.errstate(invalid="ignore"):  # inf / inf
            want = normalize_rows_reference(v)
            got = _normalize_rows(v.copy())
        assert_same_bytes((got.vectors, got.valid),
                          (want.vectors, want.valid))
        # zero norms, then NaN norms
        assert np.flatnonzero(~got.valid).tolist() == [0, 1, 2, 5]


class TestWeights:
    @pytest.mark.parametrize("field", ["conv_kernels", "bn_scale",
                                       "bn_shift", "bn_mean", "bn_var"])
    @pytest.mark.parametrize("change", ["short", "long"])
    def test_per_layer_tuple_length_checked(self, field, change):
        w = zero_bundle(SPEC)
        tensors = getattr(w, field)
        bad = tensors[:-1] if change == "short" else tensors + tensors[-1:]
        with pytest.raises(ValueError,
                           match=f"{field}: one per encoder layer"):
            replace(w, **{field: bad})

    @pytest.mark.parametrize("layer", range(4))
    def test_variance_plus_epsilon_must_be_positive(self, layer):
        # at -eps the sum is 0 and inv is inf; below it, sqrt is NaN. A
        # file holding such a variance is refused on load too
        w = random_weights(SPEC, 0)
        eps = np.float32(w.bn_epsilon)
        # entry 1 of the layer's variance: after the 44-byte header and
        # the tensors before it in SLWT order
        at = 44 + 4 * sum(t.size for t in
                          detect._tensor_sequence(w)[:5 * layer + 4]) + 4
        for bad in (-eps, np.float32(-1.0)):
            var = [v.copy() for v in w.bn_var]
            var[layer][1] = bad
            with pytest.raises(ValueError,
                               match=f"layer {layer} bn variance"):
                replace(w, bn_var=tuple(var))
            blob = bytearray(save_weights(w))
            blob[at:at + 4] = bad.astype("<f4").tobytes()
            with pytest.raises(ValueError,
                               match=f"layer {layer} bn variance"):
                load_weights(bytes(blob))
        var[layer][1] = -eps / 2  # the sum is still positive
        assert replace(w, bn_var=tuple(var)).bn_var[layer][1] == -eps / 2

    def test_round_trip_random_bundles(self):
        rng = np.random.default_rng(13)
        for seed in rng.integers(0, 1_000, 5):
            w = random_weights(SPEC, int(seed))
            back = load_weights(save_weights(w))
            assert back.spec == w.spec
            assert back.bn_epsilon == w.bn_epsilon
            for a, b in zip(w.conv_kernels, back.conv_kernels):
                assert np.array_equal(a, b)
            for name in ("bn_scale", "bn_shift", "bn_mean", "bn_var"):
                for a, b in zip(getattr(w, name), getattr(back, name)):
                    assert np.array_equal(a, b)
            assert np.array_equal(w.detector_kernel, back.detector_kernel)
            assert np.array_equal(w.detector_bias, back.detector_bias)
            assert np.array_equal(w.descriptor_kernel, back.descriptor_kernel)
            assert np.array_equal(w.descriptor_bias, back.descriptor_bias)

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            load_weights(b"NOPE" + b"\x00" * 100)

    def test_truncated_tensor_section(self):
        blob = save_weights(random_weights(SPEC, 0))
        with pytest.raises(ValueError) as err:
            load_weights(blob[:-40])
        assert "truncated" in str(err.value)

    def test_huge_declared_widths_rejected_before_allocating(self):
        # the header's shapes are checked against the file length first:
        # widths of 2**20 declare 36 TiB of kernels in a 44-byte file
        header = b"SLWT" + np.array(
            [1, 8, 4, 2**20, 2**20, 2**20, 2**20, 64, 16], "<u4").tobytes()
        blob = header + np.float32(1e-5).astype("<f4").tobytes()
        assert len(blob) == 44
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated"):
                load_weights(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_bundle_shapes_checked_without_a_zero_model(self):
        w = random_weights(SPEC, 0)
        with pytest.raises(ValueError, match="layer 0 conv_kernels shape"):
            replace(w, spec=NetworkSpec(8, (2**20,) * 4, 64))

    def test_header_only(self):
        blob = save_weights(random_weights(SPEC, 0))
        with pytest.raises(ValueError):
            load_weights(blob[:16])

    def test_trailing_bytes_rejected(self):
        blob = save_weights(random_weights(SPEC, 0))
        with pytest.raises(ValueError):
            load_weights(blob + b"\x00\x00\x00\x00")

    def test_seeded_init_reproducible(self):
        a = random_weights(SPEC, 42)
        b = random_weights(SPEC, 42)
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.conv_kernels, b.conv_kernels))

    def test_init_respects_fan_in_bound(self):
        w = random_weights(SPEC, 1)
        k0 = w.conv_kernels[0]          # (32, 8, 3, 3), fan_in = 72
        bound = 1.0 / np.sqrt(8 * 9)
        assert np.abs(k0).max() <= bound

    @pytest.mark.parametrize("make, digest", [
        (lambda: random_weights(NetworkSpec(), 0),
         "7d23eecea48e2042f2e2e3ec64de92a62fe5b930257c5d32598508e7e4b9c587"),
        (lambda: random_weights(NetworkSpec(), 4242),
         "13eee85d23ae4517eb987098f0199ed82307e91acad1cc6d2980bb89d1e6150f"),
        (lambda: random_weights(NetworkSpec(1, (32, 16, 64, 8), 16), 7),
         "8f3f432e47d18105430b88d44ae7d8067ea35734c827a96d26b35588736e7bb6"),
        (lambda: zero_bundle(NetworkSpec()),
         "163ca8031533bcb24150cc718f5a2ff74e343f5364ef53423bd07d348847a6b1"),
    ])
    def test_weight_bytes_pinned(self, make, digest):
        # the draw order and the SLWT tensor order together fix these
        # bytes; files saved by earlier versions must load unchanged
        assert hashlib.sha256(save_weights(make())).hexdigest() == digest


class TestClassicalDetect:
    def test_flat_surface_yields_nothing(self):
        kps, desc = classical_detect(np.zeros((32, 32), dtype=np.float32),
                                     4, 1e-4, 100)
        assert len(kps.xy) == 0
        assert desc.vectors.shape == (0, 64)
        assert desc.vectors.dtype == np.float32
        assert desc.valid.shape == (0,) and desc.valid.dtype == bool

    def test_recovers_ground_truth_corners(self):
        # at least 90% of true corner positions have a detection within
        # 2 px; axis-aligned motion keeps all four corner types visible
        # as segment ends of the emitting vertical edges
        geo = SensorGeometry(128, 128)
        wspec = WindowSpec.default_constant_count()
        motion, tensor = corner_tensor(geo, wspec, velocity=(50.0, 0.0))
        kps, _ = classical_detect(pair_plane(tensor, 2), 2, 1e-8, 1024)
        truth = corner_positions(motion, geo, tensor.tau)
        hits = 0
        for c in truth:
            d = np.linalg.norm(kps.xy - c, axis=1).min()
            hits += d <= 2.0
        assert hits / len(truth) >= 0.9

    def test_descriptors_unit_norm_64d(self):
        geo = SensorGeometry(64, 64)
        wspec = WindowSpec.default_constant_count()
        _, tensor = corner_tensor(geo, wspec)
        _, desc = classical_detect(pair_plane(tensor, 1), 4, 1e-4, 256)
        assert desc.vectors.shape[1] == 64
        norms = np.linalg.norm(desc.vectors[desc.valid], axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)

    def test_translation_symmetry_duplicates(self):
        # same-type corners on the rigid lattice look identical
        geo = SensorGeometry(64, 64)
        wspec = WindowSpec.default_constant_count()
        _, tensor = corner_tensor(geo, wspec)
        _, desc = classical_detect(pair_plane(tensor, 1), 4, 1e-4, 256)
        distinct = np.unique(np.round(desc.vectors, 5), axis=0)
        assert len(distinct) < len(desc.vectors)

    def test_matches_reference_on_corner_grids(self):
        rng = np.random.default_rng(23)
        wspec = WindowSpec.default_constant_count()
        for w, h in ((64, 64), (128, 128), (240, 180)):
            velocity = tuple(rng.uniform(-60.0, 60.0, 2))
            _, tensor = corner_tensor(SensorGeometry(w, h), wspec,
                                      velocity=velocity, pitch=24, side=8)
            for pair in range(tensor.K):
                merged = pair_plane(tensor, pair)
                for params in ((4, 1e-4, 256), (2, 1e-8, 1024)):
                    kps, desc = classical_detect(merged, *params)
                    want_kps, want_desc = classical_reference(merged, *params)
                    assert_same_keypoints(kps, want_kps)
                    assert np.array_equal(desc.vectors, want_desc.vectors)
                    assert np.array_equal(desc.valid, want_desc.valid)

    def test_patch_tail_matches_clip_and_mean_form(self):
        # small random planes with threshold -inf put patches past all
        # four borders, where they are edge-replicated; the tiny and huge
        # scales give float32 sums whose means round
        rng = np.random.default_rng(42)
        borders = set()
        for trial in range(36):
            h, w = (int(v) for v in rng.integers(2, 24, 2))
            merged = rng.random((h, w)) * (1.0, 1e-39, 1e30)[trial % 3]
            merged[rng.random(merged.shape) < 0.4] = 0.0
            merged = merged.astype(np.float32)
            kps, desc = classical_detect(merged, 1, -np.inf, 500)
            want = patch_tail_reference(merged, kps.xy)
            assert_same_bytes((desc.vectors, desc.valid),
                              (want.vectors, want.valid))
            x, y = kps.xy.T  # a patch spans x - 3 .. x + 4
            borders |= {name for name, past in (
                ("left", x < 3), ("right", x + 4 >= w),
                ("top", y < 3), ("bottom", y + 4 >= h)) if past.any()}
        assert borders == {"left", "right", "top", "bottom"}

    def test_boxsum_matches_reference_bitwise(self):
        # the flat box sum on the Harris buffer layout: planes stacked in
        # zero-ringed buffers, summed over their rows
        rng = np.random.default_rng(24)
        for shape in ((128, 128), (180, 240), (7, 5), (1, 1), (3, 64),
                      (64, 3)):
            h, w = shape
            stride = w + 2 * _RING
            xs = [rng.standard_normal(shape) * scale
                  for scale in (1e-15, 1.0, 1e15)]
            stack = []
            for x in xs:
                flat, plane = _ringed(h, w, _RING, 0.0, np.float64)
                plane[...] = x
                stack.append(flat)
            sums = _boxsum3(np.stack(stack), _RING * stride, h * stride,
                            stride, np.empty((3, (h + 2) * stride)))
            for x, got in zip(xs, sums):
                got = got.reshape(h, stride)[:, _RING:_RING + w]
                assert np.array_equal(got, boxsum3_reference(x))

    def test_matches_reference_on_narrow_planes(self):
        # 2- and 3-pixel sides put both one-sided gradient edges, or one
        # central column, next to the border
        rng = np.random.default_rng(25)
        for h, w in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 17), (19, 3),
                     (3, 40)):
            for merged in rng.random((2, h, w), dtype=np.float32):
                merged[merged < 0.3] = 0.0
                for params in ((1, -np.inf, 100), (2, 0.0, 100),
                               (1, 1e-4, 2)):
                    kps, desc = classical_detect(merged, *params)
                    want_kps, want_desc = classical_reference(merged, *params)
                    assert_same_keypoints(kps, want_kps)
                    assert np.array_equal(desc.vectors, want_desc.vectors)

    def test_one_pixel_side_rejected_like_np_gradient(self):
        for h, w in ((1, 5), (6, 1), (1, 1)):
            merged = np.ones((h, w), dtype=np.float32)
            with pytest.raises(ValueError):
                classical_reference(merged, 1, 0.0, 10)
            with pytest.raises(ValueError):
                classical_detect(merged, 1, 0.0, 10)

    def test_channel_pair_bounds_checked(self):
        # the classical input of a pair outside 0..K-1 is refused where it
        # is built, not read from another window
        geo = SensorGeometry(32, 32)
        spec = WindowSpec.default_constant_count()
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(spec.ring_capacity(geo))
        apply_events(grid, ring, synthesize(
            MotionSpec("grid-of-corners", (40.0, 30.0), 0.2), geo))
        for pair in (-1, spec.K):
            with pytest.raises(ValueError, match="channel pair"):
                merged_surface(grid, ring, grid.latest_time, spec, pair)
