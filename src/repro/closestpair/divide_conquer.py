"""Closest pair of points by parallel divide-and-conquer (any dimension).

The classic scheme generalized to R^d: split on the widest dimension at
the median, solve halves (in parallel), then merge through the strip of
points within delta of the splitting plane.  The strip is processed by
sorting along another dimension and comparing each point only against
neighbors within delta in that order — O(n) expected work per level for
constant d.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import dist_sq
from ..core.points import as_array
from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import charge

__all__ = ["closest_pair"]

_BRUTE = 64
_PAR_CUTOFF = 8192


def _brute(pts: np.ndarray, ids: np.ndarray) -> tuple[float, int, int]:
    m = len(ids)
    charge(m * m)
    best = (np.inf, -1, -1)
    sub = pts[ids]
    for i in range(m - 1):
        d2 = dist_sq(sub[i + 1 :], sub[i])
        j = int(np.argmin(d2))
        if d2[j] < best[0]:
            best = (float(d2[j]), int(ids[i]), int(ids[i + 1 + j]))
    return best


def _strip_scan(pts: np.ndarray, ids: np.ndarray, sort_dim: int, delta2: float) -> tuple[float, int, int]:
    """Best pair within a strip: sort on sort_dim, compare neighbors."""
    best = (delta2, -1, -1)
    if len(ids) < 2:
        return (np.inf, -1, -1) if best[1] < 0 else best
    order = ids[np.argsort(pts[ids, sort_dim], kind="stable")]
    coords = pts[order]
    keys = coords[:, sort_dim]
    charge(len(ids) * 8)
    delta = np.sqrt(delta2)
    m = len(order)
    found = (np.inf, -1, -1)
    for i in range(m - 1):
        j = i + 1
        while j < m and keys[j] - keys[i] < delta:
            d2 = dist_sq(coords[j], coords[i])
            if d2 < best[0]:
                best = (d2, int(order[i]), int(order[j]))
                found = best
                delta = np.sqrt(d2)
            j += 1
    return found


def _rec(pts: np.ndarray, ids: np.ndarray, depth: int, parallel: bool) -> tuple[float, int, int]:
    if len(ids) <= _BRUTE:
        return _brute(pts, ids)
    sub = pts[ids]
    charge(len(ids))
    lo = sub.min(axis=0)
    hi = sub.max(axis=0)
    dim = int(np.argmax(hi - lo))
    vals = sub[:, dim]
    half = len(ids) // 2
    order = np.argpartition(vals, half)
    left_ids = ids[order[:half]]
    right_ids = ids[order[half:]]
    split = float(vals[order[half]])

    if parallel and len(ids) > _PAR_CUTOFF:
        res = get_scheduler().parallel_do(
            [
                lambda: _rec(pts, left_ids, depth + 1, parallel),
                lambda: _rec(pts, right_ids, depth + 1, parallel),
            ]
        )
        bl, br = res
    else:
        bl = _rec(pts, left_ids, depth + 1, parallel)
        br = _rec(pts, right_ids, depth + 1, parallel)
    best = bl if bl[0] <= br[0] else br

    delta = np.sqrt(best[0])
    strip_mask = np.abs(vals - split) < delta
    strip_ids = ids[strip_mask]
    if len(strip_ids) >= 2:
        sort_dim = (dim + 1) % pts.shape[1]
        bs = _strip_scan(pts, strip_ids, sort_dim, best[0])
        if bs[0] < best[0]:
            best = bs
    return best


def closest_pair(points, parallel: bool = True) -> tuple[float, int, int]:
    """Closest pair of distinct points.

    Returns (distance, i, j) with i, j indices into the input.
    """
    pts = as_array(points)
    n = len(pts)
    if n < 2:
        raise ValueError("closest_pair requires at least 2 points")
    d2, i, j = _rec(pts, np.arange(n, dtype=np.int64), 0, parallel)
    return float(np.sqrt(d2)), i, j
