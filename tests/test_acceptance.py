"""End-to-end guarantees, one test per criterion.

Each test owns one externally visible promise of the package; the
conftest summary hook prints a PASS/FAIL line per test after the run.
All randomness is seeded, all thresholds are asserted at full strength.
"""

import sys
import threading
import time

import numpy as np

from evfront.detect import (
    NetworkSpec,
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
    batch_from_columns,
    linear_warp,
    parse_events,
    synthesize,
    write_events,
)
from evfront.matching import (
    QuantizedDescriptors,
    distance_matrix,
    match_mutual_nn,
    quantize,
    verify_matches,
)
from evfront.pipeline import (
    PipelineConfig,
    ReplaySource,
    SharedSurfaceState,
    freeze_snapshot,
    preprocess_tick,
    run_pipeline,
)
from evfront.surface import (
    EventCountRing,
    MctsTensor,
    TimestampGrid,
    adaptive_windows,
    apply_events,
    motion_invariance_report,
    read_mcts,
    time_surface,
    write_mcts,
)
from test_surface import brute_force_surface


def _random_batch(rng, geometry, n, t_span=50_000):
    t = np.sort(rng.integers(0, t_span, n).astype(np.uint64))
    return batch_from_columns(
        t, rng.integers(0, geometry.width, n).astype(np.uint16),
        rng.integers(0, geometry.height, n).astype(np.uint16),
        rng.choice(np.array([0, 1], np.uint8), n), geometry)


def test_time_surface_equals_exhaustive_reference():
    # the latest-timestamp grid is a sufficient statistic: evaluating it
    # must reproduce the per-event maximum bitwise, on every stream
    rng = np.random.default_rng(2024)
    for trial in range(200):
        w = int(rng.integers(1, 33))
        h = int(rng.integers(1, 33))
        big = trial % 10 == 0
        n = int(rng.integers(1, 10_001 if big else 601))
        geo = SensorGeometry(w, h)
        batch = _random_batch(rng, geo, n)
        t = batch.events["t"]
        tau = int(rng.integers(0, 60_000))
        cut = int(np.searchsorted(t, tau, side="right"))
        grid = TimestampGrid.create(geo)
        ring = EventCountRing(4)
        apply_events(grid, ring, batch.slice(0, cut))
        dt = int(rng.integers(1, 30_000))
        for polarity in (0, 1):
            ours = time_surface(grid, tau, dt, polarity)
            ref = brute_force_surface(batch, geo, tau, dt, polarity)
            assert ours.dtype == np.float32
            assert np.array_equal(ours, ref), (trial, tau, dt, polarity)


def test_constant_count_window_durations():
    # timestamps 0,10,..,100: the N=4 window must stretch back to the
    # fifth-newest stamp, so the closed window holds exactly N+1 events
    stamps = np.arange(0, 101, 10, dtype=np.uint64)
    ring = EventCountRing(8)
    ring.push_many(stamps)
    durations = adaptive_windows(ring, 100, (4,), first_time=0)
    assert durations == (40,)
    held = [int(t) for t in stamps if 100 - 40 <= t <= 100]
    assert held == [60, 70, 80, 90, 100]

    # same rule at other counts on the same sequence
    assert adaptive_windows(ring, 100, (1, 2, 7), first_time=0) \
        == (10, 20, 70)


def test_constant_count_is_more_motion_invariant():
    report = motion_invariance_report(SensorGeometry(100, 100),
                                      speed=100.0, factor=3.0)
    wins = report.pairs_favoring_constant
    assert wins >= 3, (wins, report.l1_constant_count, report.l1_fixed)
    assert report.passed


def test_network_output_contract():
    spec = NetworkSpec()
    weights = random_weights(spec, 4242)
    rng = np.random.default_rng(4242)
    c = spec.cell
    x = rng.random((spec.input_channels, 6 * c, 8 * c), dtype=np.float32)

    heatmap, desc_map = forward(weights, x)
    assert heatmap.shape == (6 * c, 8 * c)
    assert desc_map.shape == (spec.descriptor_dim, 6, 8)

    # the detector head is a softmax: channels sum to one at every cell,
    # and what forward reports is that distribution minus the dustbin
    probs = detector_probabilities(weights, x)
    assert probs.shape == (c * c + 1, 6, 8)
    assert np.abs(probs.sum(axis=0) - 1.0).max() <= 1e-5
    block_sums = heatmap.reshape(6, c, 8, c).sum(axis=(1, 3))
    assert np.allclose(block_sums, 1.0 - probs[-1], atol=1e-5)

    kps = nms(heatmap, 4, 0.0, 300)
    descs = interpolate_descriptors(desc_map, kps, c)
    norms = np.linalg.norm(descs, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-4

    # interior translation equivariance at exactly one cell
    shifted = np.roll(x, (c, c), axis=(1, 2))
    h1, d1 = forward(weights, shifted)
    m = 2 * c
    assert np.array_equal(heatmap[m:-m - c, m:-m - c],
                          h1[m + c:-m, m + c:-m])
    assert np.array_equal(desc_map[:, 2:-3, 2:-3], d1[:, 3:-2, 3:-2])


def test_quantized_cosine_fidelity():
    rng = np.random.default_rng(515)

    def unit(n):
        v = rng.standard_normal((n, 64))
        return (v / np.linalg.norm(v, axis=1, keepdims=True)) \
            .astype(np.float32)

    # absolute distance error against float64 cosine, s = 127
    a, b = unit(1000), unit(1000)
    qa = quantize(a)
    qb = quantize(b)
    q_dist = np.diagonal(distance_matrix(qa.vectors, qb.vectors))
    f_dist = 1.0 - np.sum(a.astype(np.float64) * b.astype(np.float64),
                          axis=1) / (np.linalg.norm(a, axis=1)
                                     * np.linalg.norm(b, axis=1))
    assert np.abs(q_dist - f_dist).max() <= 0.02

    # nearest-neighbor preservation over a 100-entry database: restrict
    # to queries whose float margin is at least 0.05 and require that
    # quantization flips the winner on under 1% of them
    database = unit(100)
    planted = []
    for sigma in (0.3, 0.8):
        idx = rng.integers(0, 100, 600)
        noisy = database[idx] + sigma * unit(600)
        planted.append(noisy / np.linalg.norm(noisy, axis=1, keepdims=True))
    queries = np.concatenate(planted + [unit(300)]).astype(np.float32)

    f_matrix = 1.0 - queries.astype(np.float64) @ database.T.astype(np.float64)
    order = np.sort(f_matrix, axis=1)
    margins = order[:, 1] - order[:, 0]
    keep = margins >= 0.05
    assert keep.sum() >= 1000, int(keep.sum())

    q_queries = quantize(queries)
    q_database = quantize(database)
    q_matrix = distance_matrix(q_queries.vectors, q_database.vectors)
    agree = np.argmin(q_matrix, axis=1) == np.argmin(f_matrix, axis=1)
    rate = agree[keep].mean()
    assert rate >= 0.99, float(rate)

    # integer rescaling cancels in the normalized ratio, so distances are
    # scale-invariant as long as nothing clamps
    small = rng.integers(-25, 26, (300, 64)).astype(np.int8)
    other = rng.integers(-25, 26, (300, 64)).astype(np.int8)
    base = distance_matrix(small, other)
    for factor in (2, 3, 5):
        scaled = distance_matrix((small * factor).astype(np.int8),
                                 (other.astype(np.int16) * factor
                                  ).astype(np.int8))
        assert np.array_equal(base, scaled)


def test_snapshot_atomicity_under_contention():
    # a writer thread folds chunks into shared state while this thread
    # snapshots as fast as it can; every snapshot held must byte-equal a
    # single-threaded replay of the same number of chunks. A tiny GIL
    # switch interval plus a yield per chunk forces dense interleaving.
    # Versions only grow, so the snapshots come in version order: one
    # reference state advances through them, and only the newest ``keep``
    # of each version are held, so the check's work is bounded by the
    # chunks, however often the host lets this thread snapshot.
    keep = 2  # snapshots held per version
    geo = SensorGeometry(64, 48)
    violations = 0
    mid_run_versions = 0
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seed in range(20):
            rng = np.random.default_rng(seed)
            batch = _random_batch(rng, geo, 100_000, t_span=1_000_000)
            cuts = [0]
            while cuts[-1] < len(batch):
                cuts.append(min(len(batch),
                                cuts[-1] + int(rng.integers(500, 2001))))
            chunks = [batch.slice(a, b) for a, b in zip(cuts, cuts[1:])]

            state = SharedSurfaceState(geo, 128)
            snaps = []
            done = threading.Event()
            pauses = rng.uniform(0.0, 5e-5, len(chunks))

            def writer():
                for chunk, pause in zip(chunks, pauses):
                    preprocess_tick(state, chunk,
                                    int(chunk.events["t"][-1]))
                    time.sleep(pause)
                done.set()

            def hold(snap):
                # the newest of each version: a torn copy is likeliest
                # just before the version moves
                if len(snaps) >= keep and snaps[-keep].version == snap.version:
                    del snaps[-keep]
                snaps.append(snap)

            worker = threading.Thread(target=writer)
            worker.start()
            while not done.is_set():
                hold(freeze_snapshot(state))
            worker.join()
            hold(freeze_snapshot(state))

            versions = [snap.version for snap in snaps]
            assert versions == sorted(versions)
            assert len(snaps) <= keep * (len(chunks) + 1)
            mid_run_versions += len({v for v in versions
                                     if 0 < v < len(chunks)})
            ref = SharedSurfaceState(geo, 128)
            for snap in snaps:
                for chunk in chunks[ref.version:snap.version]:
                    preprocess_tick(ref, chunk, int(chunk.events["t"][-1]))
                same = (
                    snap.grid.last_t.tobytes() == ref.grid.last_t.tobytes()
                    and snap.grid.valid.tobytes() == ref.grid.valid.tobytes()
                    and snap.grid.latest_time == ref.grid.latest_time
                    and snap.grid.first_time == ref.grid.first_time
                    and snap.grid.applied_count == ref.grid.applied_count
                    and snap.ring.state_bytes() == ref.ring.state_bytes())
                violations += not same
            assert snaps[-1].version == len(chunks)
    finally:
        sys.setswitchinterval(old_interval)
    assert violations == 0
    # the stress is only meaningful if snapshots landed mid-write
    assert mid_run_versions >= 20, mid_run_versions


def test_end_to_end_inlier_ratio():
    # full path on a synthetic corner grid with known rigid motion:
    # parse-free ingest, constant-count surfaces, classical keypoints,
    # int8 descriptors, mutual matching, ground-truth verification
    geometry = SensorGeometry(128, 128)
    velocity = (-56.0, -42.0)
    spec = MotionSpec("grid-of-corners", velocity, 1.0,
                      grid_pitch=48, square_side=16)
    batch = synthesize(spec, geometry)
    config = PipelineConfig(tick=10_000, channel_pair=3,
                            match_max_distance=0.4)
    results, metrics = run_pipeline(ReplaySource(batch), config,
                                    mode="serial")
    assert metrics.error is None
    assert len(results) >= 11, len(results)

    inliers = 0
    total = 0
    for previous, current in zip(results, results[1:]):
        matches = current.matches_to_previous
        if not matches:
            continue
        warp = linear_warp(velocity, current.tau, previous.tau)
        flags = verify_matches(matches, current.keypoints,
                               previous.keypoints, warp, threshold=5.0)
        inliers += int(flags.sum())
        total += len(flags)
    assert total >= len(results) - 1
    ratio = inliers / total
    assert ratio >= 0.8, (ratio, inliers, total)


def test_ingest_scales_linearly():
    # the per-event cost of grid plus ring updates must not grow with
    # stream length: double the events, at most 2.5x the time. The time
    # is the ingesting thread's CPU time, which leaves out the time other
    # processes hold the core
    geometry = SensorGeometry(240, 180)
    rng = np.random.default_rng(3)
    n, step = 1_000_000, 10_000
    streams = {m: _random_batch(rng, geometry, m, t_span=10 * m)
               for m in (n, 2 * n)}

    def ingest_times():
        # both streams ingest at once, each into its own grid and ring,
        # batch by batch: one batch of the single stream per two of the
        # double, so both pass the same point of their streams together
        # and a slow spell of the host lands on both alike
        states = {m: (TimestampGrid.create(geometry), EventCountRing(1024))
                  for m in streams}
        times = dict.fromkeys(streams, 0)
        for k in range(2 * n // step):
            due = {2 * n: k * step}
            if k % 2 == 0:
                due[n] = k // 2 * step
            for m, lo in due.items():
                start = time.thread_time_ns()
                apply_events(*states[m], streams[m].slice(lo, lo + step))
                times[m] += time.thread_time_ns() - start
        return times

    # the fastest of the repeats on each side is the one least disturbed
    times = [ingest_times() for _ in range(5)]
    single = min(t[n] for t in times)
    double = min(t[2 * n] for t in times)
    assert double <= 2.5 * single, (single, double)


def test_wire_format_round_trips():
    rng = np.random.default_rng(31)

    for _ in range(10):
        geo = SensorGeometry(int(rng.integers(1, 500)),
                             int(rng.integers(1, 500)))
        batch = _random_batch(rng, geo, int(rng.integers(0, 2000)))
        binary = parse_events(write_events(batch, "binary-v1"), "binary-v1")
        assert np.array_equal(binary.events, batch.events)
        assert binary.geometry == geo
        csv = parse_events(write_events(batch, "csv"), "csv", geometry=geo)
        assert np.array_equal(csv.events, batch.events)

    for _ in range(5):
        k = int(rng.integers(1, 5))
        h, w = int(rng.integers(1, 64)), int(rng.integers(1, 64))
        tensor = MctsTensor(
            rng.random((2 * k, h, w), dtype=np.float32),
            int(rng.integers(0, 2**40)),
            tuple(int(d) for d in rng.integers(1, 10**6, k)))
        loaded = read_mcts(write_mcts(tensor))
        assert np.array_equal(loaded.channels, tensor.channels)
        assert loaded.tau == tensor.tau
        assert loaded.window_durations is None

    for seed in range(5):
        weights = random_weights(NetworkSpec(), seed)
        loaded = load_weights(save_weights(weights))
        assert loaded.spec == weights.spec
        assert loaded.bn_epsilon == weights.bn_epsilon
        # every tensor in SLWT order, bit for bit
        for got, want in zip(loaded.tensors, weights.tensors, strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
