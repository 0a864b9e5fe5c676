"""Quantization, integer cosine distance, mutual matching, verification."""

import numpy as np
import pytest

from evfront.detect import KeypointSet
from evfront.matching import (
    DEFAULT_MAX_DISTANCE,
    QMAX,
    Match,
    QuantizedDescriptors,
    distance_matrix,
    match_mutual_nn,
    quantize,
    verify_matches,
)


def _unit_rows(rng, n, d=64):
    v = rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v.astype(np.float32)


def float_cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 2.0
    return 1.0 - float(a @ b) / (na * nb)


def distance_matrix_reference(a, b):
    # 64-bit integer dot products and norms, one real division per pair
    av = a.astype(np.int64)
    bv = b.astype(np.int64)
    dots = av @ bv.T
    aa = (av * av).sum(axis=1)
    bb = (bv * bv).sum(axis=1)
    denom = (aa[:, None] * bb[None, :]).astype(np.float64)
    good = denom > 0
    dist = np.full(dots.shape, 2.0)
    ratio = np.sqrt((dots[good].astype(np.float64) ** 2) / denom[good])
    dist[good] = 1.0 - np.copysign(ratio, dots[good])
    return dist


def distance_matrix_previous(a, b):
    # the float form distance_matrix replaced: float64 norm sums, the
    # sign taken from the GEMM's own dots, a mask write every time
    exact = np.float32 if a.shape[1] * 128 ** 2 <= 2 ** 24 else np.float64
    af = a.astype(exact)
    bf = b.astype(exact)
    dots = af @ bf.T
    denom = (af * af).sum(axis=1, dtype=np.float64)[:, None] \
        * (bf * bf).sum(axis=1, dtype=np.float64)
    dist = dots.astype(np.float64)
    dist *= dist
    with np.errstate(invalid="ignore"):
        dist /= denom
    np.sqrt(dist, out=dist)
    np.copysign(dist, dots, out=dist)
    np.subtract(1.0, dist, out=dist)
    dist[denom == 0] = 2.0
    return dist


def quantize_previous(vectors):
    # floor(|x| + 0.5) with x's sign, through temporaries
    scaled = vectors.astype(np.float64) * 127.0
    rounded = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    return np.clip(rounded, -QMAX, QMAX).astype(np.int8)


def match_mutual_nn_reference(dist, max_distance):
    # over a precomputed reference distance matrix
    best_b = dist.argmin(axis=1)
    best_a = dist.argmin(axis=0)
    out = []
    for i, j in enumerate(best_b):
        if best_a[j] == i and dist[i, j] <= max_distance:
            out.append(Match(int(i), int(j), float(dist[i, j])))
    return out


def _hard_int8_sets(rng, n, d):
    """Random rows mixed with all-zero rows, rows of +-127 only, duplicated
    rows and near copies of the other side's rows."""
    a = rng.integers(-127, 128, (n, d)).astype(np.int8)
    b = rng.integers(-127, 128, (n + 7, d)).astype(np.int8)
    for v in (a, b):
        rows = len(v)
        v[rng.random(rows) < 0.1] = 0
        extreme = rng.random(rows) < 0.1
        v[extreme] = rng.choice(np.array([-127, 127], np.int8),
                                (int(extreme.sum()), d))
        dup = rng.random(rows) < 0.2
        v[dup] = v[rng.integers(0, rows, int(dup.sum()))]
    near = rng.random(n) < 0.5
    noise = rng.integers(-3, 4, (int(near.sum()), d))
    b[:n][near] = np.clip(a[near] + noise, -127, 127).astype(np.int8)
    return a, b


class TestQuantize:
    def test_values_clamped_to_int8_range(self):
        rng = np.random.default_rng(1)
        d = _unit_rows(rng, 100)
        q = quantize(d)
        assert q.vectors.dtype == np.int8
        assert q.vectors.min() >= -QMAX
        assert q.vectors.max() <= QMAX

    def test_minus_128_component_rejected(self):
        # np.abs maps int8 -128 to -128, so an abs-based check lets it by
        with pytest.raises(ValueError, match="outside"):
            QuantizedDescriptors(np.array([[0, -128, 5]], np.int8))
        edge = QuantizedDescriptors(np.array([[-QMAX, QMAX]], np.int8))
        assert len(edge) == 1

    def test_rounds_half_away_from_zero(self):
        # 0.5 * 127 = 63.5 exactly, on the rounding boundary; its float32
        # neighbours land just off it
        half = np.float32(0.5)
        below = np.nextafter(half, np.float32(0))
        above = np.nextafter(half, np.float32(1))
        d = np.array([[half, -half, below, -below, above, -above]],
                     dtype=np.float32)
        q = quantize(d)
        assert list(q.vectors[0]) == [64, -64, 63, -63, 64, -64]

    def test_matches_previous_form_bytes(self):
        # exact .5 ties at 127 (the odd halves) and their float32
        # neighbours, signed zeros, saturating and infinite values, and
        # unit rows
        quarters = np.arange(-600, 601, dtype=np.float32) * np.float32(0.25)
        columns = np.concatenate([
            quarters, np.nextafter(quarters, np.float32(np.inf)),
            np.nextafter(quarters, np.float32(-np.inf)),
            np.array([0.0, -0.0, 1e30, -1e30, np.inf, -np.inf], np.float32)])
        rows = np.resize(columns, (len(columns) // 8 + 1, 8))
        rng = np.random.default_rng(3)
        for vectors in (rows, rows * np.float32(1 / 127),
                        _unit_rows(rng, 300)):
            got = quantize(vectors).vectors
            want = quantize_previous(vectors)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_default_scale_is_qmax(self):
        # a unit component maps to QMAX, a quarter to round(31.75)
        d = np.array([[1.0, -1.0, 0.25, 0.0]], np.float32)
        assert list(quantize(d).vectors[0]) == [QMAX, -QMAX, 32, 0]

    def test_unit_vector_error_bound(self):
        # per-component error <= 0.5/127 after scaling by s=127
        rng = np.random.default_rng(2)
        d = _unit_rows(rng, 500)
        q = quantize(d)
        err = np.abs(q.vectors / 127.0 - d)
        assert err.max() <= 0.5 / 127 + 1e-9


class TestCosineDistance:
    def test_matches_float_reference_closely(self):
        rng = np.random.default_rng(3)
        a = rng.integers(-127, 128, (200, 64)).astype(np.int8)
        b = rng.integers(-127, 128, (200, 64)).astype(np.int8)
        for i in range(200):
            got = distance_matrix(a[i:i + 1], b[i:i + 1])[0, 0]
            want = float_cosine(a[i].astype(np.float64),
                                b[i].astype(np.float64))
            assert got == pytest.approx(want, abs=1e-12)

    def test_range_zero_to_two(self):
        a = np.array([[1, 0]], dtype=np.int8)
        assert distance_matrix(a, a)[0, 0] == 0.0
        assert distance_matrix(a, -a)[0, 0] == pytest.approx(2.0)
        assert distance_matrix(a, np.array([[0, 1]], np.int8))[0, 0] \
            == pytest.approx(1.0)

    def test_zero_norm_maps_to_max_distance(self):
        z = np.zeros((1, 4), dtype=np.int8)
        a = np.array([[1, 2, 3, 4]], dtype=np.int8)
        assert distance_matrix(z, a)[0, 0] == 2.0
        assert distance_matrix(a, z)[0, 0] == 2.0
        assert distance_matrix(z, z)[0, 0] == 2.0

    def test_exact_scale_invariance(self):
        # quantized vectors scaled by a common integer factor keep the
        # identical distance: the factor cancels inside the dot products
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.integers(-25, 26, (1, 64)).astype(np.int8)
            b = rng.integers(-25, 26, (1, 64)).astype(np.int8)
            for f in (2, 3, 5):
                assert distance_matrix(a, b)[0, 0] == distance_matrix(
                    (a * f).astype(np.int8), (b * f).astype(np.int8))[0, 0]

    def test_matrix_agrees_with_scalar(self):
        # a pair's distance does not depend on the other rows in the GEMM
        rng = np.random.default_rng(5)
        a = rng.integers(-127, 128, (20, 64)).astype(np.int8)
        b = rng.integers(-127, 128, (30, 64)).astype(np.int8)
        m = distance_matrix(a, b)
        assert m.shape == (20, 30)
        for i in (0, 7, 19):
            for j in (0, 13, 29):
                assert m[i, j] == distance_matrix(a[i:i + 1],
                                                  b[j:j + 1])[0, 0]

    def test_extreme_rows_bitwise(self):
        # every component +-127: the largest possible dots and norms
        rng = np.random.default_rng(12)
        for d in (1, 64, 2048):
            a = rng.choice(np.array([-127, 127], np.int8), (30, d))
            b = np.concatenate([a[:10], -a[10:20],
                                rng.choice(np.array([-127, 127], np.int8),
                                           (10, d))])
            assert np.array_equal(distance_matrix(a, b),
                                  distance_matrix_reference(a, b))

    def test_float32_gemm_limit_bitwise(self):
        # the dots run in float32 while D*128**2 <= 2**24, so up to D=1024;
        # -128 gives the largest products, and odd products of 127s push
        # sums past 2**24 from D=1041, where float32 would round
        rng = np.random.default_rng(16)
        for d in (1024, 1025, 1041):
            a = rng.choice(np.array([-128, -127, 127], np.int8), (20, d))
            a[:5] = -128
            a[5:10] = 127
            b = np.concatenate([a[:10], -a[10:15].clip(-127),
                                rng.choice(np.array([-128, 127], np.int8),
                                           (10, d))])
            assert np.array_equal(distance_matrix(a, b),
                                  distance_matrix_reference(a, b))

    def test_matches_previous_form_bytes(self):
        # zero-norm rows and columns or none, negated rows for negative
        # dots, -128 entries, both sides of the float32 limit
        rng = np.random.default_rng(17)
        for n, m, d in ((1, 1, 64), (45, 50, 64), (40, 33, 1024),
                        (7, 9, 2048), (30, 20, 1)):
            a = rng.integers(-128, 128, (n, d)).astype(np.int8)
            b = rng.integers(-127, 128, (m, d)).astype(np.int8)
            b[: min(n, m) // 2] = -a[: min(n, m) // 2].clip(-127)
            a[1::4] = -128
            for zeros in (False, True):
                if zeros:
                    a[::5] = 0
                    b[2::3] = 0
                for x, y in ((a, b), (b, a), (a, a)):
                    got = distance_matrix(x, y)
                    want = distance_matrix_previous(x, y)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()

    def test_scalar_is_matrix_element(self):
        rng = np.random.default_rng(13)
        a = rng.integers(-127, 128, (25, 64)).astype(np.int8)
        b = rng.integers(-127, 128, (30, 64)).astype(np.int8)
        a[[0, 9]] = 0
        b[[4, 29]] = 0
        m = distance_matrix(a, b)
        got = np.array([[distance_matrix(u[None], v[None])[0, 0] for v in b]
                        for u in a])
        assert np.array_equal(got, m)


class TestMutualNn:
    def test_identity_sets_match_by_index(self):
        rng = np.random.default_rng(6)
        q = quantize(_unit_rows(rng, 50))
        matches = match_mutual_nn(q, q)
        assert len(matches) == 50
        assert all(m.index_a == m.index_b for m in matches)
        assert all(m.distance == 0.0 for m in matches)

    def test_mutuality_required(self):
        # b0 is the nearest of both a0 and a1, but b0's own nearest is a1
        # (angularly closer), so a0 stays unmatched
        a = QuantizedDescriptors(
            np.array([[100, 0], [99, 1], [0, 100]], dtype=np.int8))
        b = QuantizedDescriptors(np.array([[100, 1], [0, 99]], dtype=np.int8))
        matches = match_mutual_nn(a, b)
        pairs = {(m.index_a, m.index_b) for m in matches}
        assert pairs == {(1, 0), (2, 1)}

    def test_max_distance_filters(self):
        a = QuantizedDescriptors(np.array([[127, 0]], dtype=np.int8))
        b = QuantizedDescriptors(np.array([[0, 127]], dtype=np.int8))
        assert match_mutual_nn(a, b, max_distance=0.7) == []
        assert len(match_mutual_nn(a, b, max_distance=1.0)) == 1

    def test_duplicate_ties_collapse_to_lowest_index(self):
        dup = np.array([[50, 50], [50, 50], [3, 127]], dtype=np.int8)
        a = QuantizedDescriptors(dup)
        b = QuantizedDescriptors(dup.copy())
        matches = match_mutual_nn(a, b)
        pairs = {(m.index_a, m.index_b) for m in matches}
        assert pairs == {(0, 0), (2, 2)}

    def test_empty_sets(self):
        e = QuantizedDescriptors(np.zeros((0, 8), np.int8))
        f = QuantizedDescriptors(np.ones((3, 8), np.int8))
        assert match_mutual_nn(e, f) == []
        assert match_mutual_nn(f, e) == []

    def test_indices_appear_at_most_once(self):
        rng = np.random.default_rng(7)
        a = quantize(_unit_rows(rng, 80))
        b = quantize(_unit_rows(rng, 60))
        matches = match_mutual_nn(a, b, max_distance=2.0)
        ia = [m.index_a for m in matches]
        ib = [m.index_b for m in matches]
        assert len(ia) == len(set(ia))
        assert len(ib) == len(set(ib))

    def test_matches_integer_and_loop_references(self):
        rng = np.random.default_rng(14)
        for n in (1, 40, 210, 1000):
            for d in (1, 64, 2048):
                a, b = _hard_int8_sets(rng, n, d)
                want = distance_matrix_reference(a, b)
                assert np.array_equal(distance_matrix(a, b), want)
                qa = QuantizedDescriptors(a)
                qb = QuantizedDescriptors(b)
                # the reference is symmetric bit for bit: integer dots
                # and norm products commute exactly
                for x, y, dist in ((qa, qb, want), (qb, qa, want.T)):
                    for ceiling in (0.1, 0.4, DEFAULT_MAX_DISTANCE, 2.0):
                        got = match_mutual_nn(x, y, ceiling)
                        assert got == match_mutual_nn_reference(dist,
                                                                ceiling)
                        assert all(type(m.index_a) is int
                                   and type(m.index_b) is int
                                   and type(m.distance) is float
                                   for m in got)


class TestVerifyMatches:
    def test_strict_threshold(self):
        kps_a = KeypointSet(np.array([[0.0, 0.0], [10.0, 0.0]]),
                            np.ones(2))
        kps_b = KeypointSet(np.array([[3.0, 4.0], [10.0, 5.0]]),
                            np.ones(2))
        matches = [Match(0, 0, 0.0), Match(1, 1, 0.0)]
        inl = verify_matches(matches, kps_a, kps_b, lambda p: p,
                             threshold=5.0)
        # both errors are exactly 5.0: strictly-below test excludes them
        assert list(inl) == [False, False]
        inl = verify_matches(matches, kps_a, kps_b, lambda p: p,
                             threshold=5.001)
        assert list(inl) == [True, True]

    def test_warp_applied_to_first_set(self):
        kps_a = KeypointSet(np.array([[1.0, 1.0]]), np.ones(1))
        kps_b = KeypointSet(np.array([[4.0, 5.0]]), np.ones(1))
        shift = lambda p: p + np.array([3.0, 4.0])
        inl = verify_matches([Match(0, 0, 0.0)], kps_a, kps_b, shift, 0.5)
        assert list(inl) == [True]

    def test_empty_matches(self):
        kps = KeypointSet(np.zeros((0, 2)), np.zeros(0))
        out = verify_matches([], kps, kps, lambda p: p)
        assert out.shape == (0,)


class TestQuantizedFidelity:
    def test_distance_error_small_on_unit_vectors(self):
        # quantization at s=127 changes the cosine distance of unit-norm
        # pairs only slightly; the acceptance bound is 0.02
        rng = np.random.default_rng(8)
        d = _unit_rows(rng, 400)
        q = quantize(d)
        for i in range(0, 400, 2):
            qd = distance_matrix(q.vectors[i:i + 1],
                                 q.vectors[i + 1:i + 2])[0, 0]
            fd = float_cosine(d[i].astype(np.float64),
                              d[i + 1].astype(np.float64))
            assert abs(qd - fd) <= 0.02


# checks no other test reaches: label -> (call, exception type, message)
_CHECKS = {
    "int16 descriptors": (
        lambda: QuantizedDescriptors(np.zeros((2, 4), np.int16)),
        TypeError, "quantized descriptors must be int8"),
    "float descriptors": (
        lambda: QuantizedDescriptors(np.zeros((2, 4), np.float32)),
        TypeError, "quantized descriptors must be int8"),
    "4 against 8 components": (
        lambda: match_mutual_nn(
            QuantizedDescriptors(np.ones((2, 4), np.int8)),
            QuantizedDescriptors(np.ones((3, 8), np.int8))),
        ValueError, "descriptor dimensionality differs"),
}


@pytest.mark.parametrize("label", _CHECKS)
def test_check_raises_its_message(label):
    call, kind, message = _CHECKS[label]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message
