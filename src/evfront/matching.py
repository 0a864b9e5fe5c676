"""Quantized descriptor matching.

Descriptors are mapped to signed 8-bit integers with the fixed symmetric
scale ``QMAX`` = 127; the scale cancels out of cosine distances, so
matching never needs to undo the quantization. Dot products run as one
BLAS GEMM in float32 while D*128^2 <= 2^24 and in float64 beyond, which
is exact: every partial sum is an integer of at most D*128^2, in the
dots and in the squared norms alike. Each square of a dot and product of
two norms is then one correctly rounded float64 multiplication of exact
integers, the same value a 64-bit integer product would round to. One
real division produces each distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .detect import KeypointSet

QMAX = 127
DEFAULT_MAX_DISTANCE = 0.7
DEFAULT_INLIER_THRESHOLD = 5.0


@dataclass(frozen=True)
class QuantizedDescriptors:
    vectors: np.ndarray  # (N, D) int8 in [-127, 127]

    def __post_init__(self) -> None:
        if self.vectors.dtype != np.int8:
            raise TypeError("quantized descriptors must be int8")
        # not np.abs: in int8 it maps -128 to -128
        if self.vectors.size and (int(self.vectors.min()) < -QMAX
                                  or int(self.vectors.max()) > QMAX):
            raise ValueError("component outside [-127, 127]")

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class Match:
    index_a: int
    index_b: int
    distance: float


def quantize(vectors: np.ndarray) -> QuantizedDescriptors:
    """clamp(round(d * 127), -127, 127), rounding half away from zero, of
    each component d of the (N, D) float descriptor rows ``vectors``."""
    # in float64, as a float64 scalar makes it; x + copysign(0.5, x)
    # rounds symmetrically, so trunc rounds as floor(|x| + 0.5) with sign
    x = np.multiply(vectors, np.float64(QMAX))
    x += np.copysign(0.5, x)
    np.trunc(x, out=x)
    np.clip(x, -QMAX, QMAX, out=x)
    return QuantizedDescriptors(x.astype(np.int8))


def distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances between int8 descriptor sets.

    1 - sign(dot)*sqrt(dot^2/(aa*bb)) per pair, so a common scale of the
    integer vectors cancels exactly before the single division; rows or
    columns with zero norm read 2 everywhere.
    """
    # float32 holds every integer up to 2**24 exactly
    exact = np.float32 if a.shape[1] * 128 ** 2 <= 2 ** 24 else np.float64
    af = a.astype(exact)
    bf = b.astype(exact)
    dots = (af @ bf.T).astype(np.float64, copy=False)
    aa, bb = (np.einsum("ij,ij->i", v, v).astype(np.float64)
              for v in (af, bf))
    denom = aa[:, None] * bb
    dist = dots * dots
    with np.errstate(invalid="ignore"):
        dist /= denom  # 0/0 where a norm is zero, overwritten below
    np.sqrt(dist, out=dist)
    np.copysign(dist, dots, out=dist)
    np.subtract(1.0, dist, out=dist)
    if not (aa.all() and bb.all()):
        dist[denom == 0] = 2.0
    return dist


def match_mutual_nn(a: QuantizedDescriptors, b: QuantizedDescriptors,
                    max_distance: float = DEFAULT_MAX_DISTANCE) -> list[Match]:
    """Mutual nearest-neighbor matches under a distance ceiling.

    (i, j) is kept iff j is i's nearest in b, i is j's nearest in a, and
    the distance is at most ``max_distance``. Ties resolve to the lower
    index on both sides, so each index appears at most once.
    """
    if len(a) == 0 or len(b) == 0:
        return []
    if a.vectors.shape[1] != b.vectors.shape[1]:
        raise ValueError("descriptor dimensionality differs")
    dist = distance_matrix(a.vectors, b.vectors)
    best_b = dist.argmin(axis=1)   # first minimum = lowest index
    best_a = dist.argmin(axis=0)
    rows = np.arange(len(a))
    nearest = dist[rows, best_b]
    keep = (best_a[best_b] == rows) & (nearest <= max_distance)
    return [Match(i, j, d) for i, j, d in zip(rows[keep].tolist(),
                                              best_b[keep].tolist(),
                                              nearest[keep].tolist())]


def verify_matches(matches: list[Match], kps_a: KeypointSet,
                   kps_b: KeypointSet, warp,
                   threshold: float = DEFAULT_INLIER_THRESHOLD) -> np.ndarray:
    """Inlier flags under a ground-truth warp.

    A match is an inlier iff the Euclidean reprojection error
    ||warp(kp_a) - kp_b|| is strictly below ``threshold``.
    """
    if not matches:
        return np.zeros(0, dtype=bool)
    ia = np.array([m.index_a for m in matches])
    ib = np.array([m.index_b for m in matches])
    projected = np.asarray(warp(kps_a.xy[ia]), dtype=np.float64)
    errors = np.linalg.norm(projected - kps_b.xy[ib], axis=1)
    return errors < threshold
