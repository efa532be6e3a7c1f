"""Welzl's algorithm for smallest enclosing ball — sequential variants.

``welzl_seq`` is the classic randomized incremental algorithm expressed
in Gärtner's bounded-depth form (recursion only over the support set, a
linear scan over the prefix).  ``welzl_mtf`` adds the move-to-front
heuristic [Welzl'91]; ``welzl_mtf_pivot`` additionally uses Gärtner's
pivoting: instead of processing the violating point directly, process
the point *furthest* from the current center.

All return a :class:`~repro.seb.ball.Ball`.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import dist, dist_sq
from ..core.points import as_array
from ..parlay.workdepth import charge
from .ball import EPS, Ball, circumball

__all__ = ["welzl_seq", "welzl_mtf", "welzl_mtf_pivot"]


def _mtf_mb(order: list[int], end: int, support: list[int], pts: np.ndarray, mtf: bool) -> Ball:
    """Ball of pts[order[:end]] with ``support`` forced on the boundary.

    Recursion depth is bounded by d+1 (only grows the support).

    The containment scan is batched: the ball only changes at a
    violation, so every check between violations tests the same ball —
    one vectorized distance reduction per round finds the earliest
    violator, replacing the per-point scalar loop.  The violator
    sequence (and the per-point charges) are those of the scalar scan.
    """
    d = pts.shape[1]
    if support:
        b = circumball(pts[np.asarray(support, dtype=np.int64)])
    else:
        b = Ball(pts[order[0]] * 0.0, -1.0)
    if len(support) == d + 1:
        return b
    i = 0
    while i < end:
        if b.radius < 0:
            # the empty ball contains nothing: the next point violates
            charge(1, 1)
            j = i
        else:
            tail = np.asarray(order[i:end], dtype=np.int64)
            out = dist(pts[tail], b.center) > b.radius * (1.0 + EPS) + 1e-300
            if not out.any():
                charge(end - i, end - i)
                return b
            k = int(np.argmax(out))
            charge(k + 1, k + 1)
            j = i + k
        pid = order[j]
        b = _mtf_mb(order, j, support + [pid], pts, mtf)
        if mtf and j > 0:
            # move the violator to the front so later passes see it
            # early (reduces future violations)
            order.insert(0, order.pop(j))
        i = j + 1
    return b


def welzl_seq(points, seed: int = 0) -> Ball:
    """Classic Welzl randomized incremental algorithm (no heuristics)."""
    pts = as_array(points)
    if len(pts) == 0:
        raise ValueError("empty input")
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(len(pts)))
    return _mtf_mb(order, len(order), [], pts, mtf=False)


def welzl_mtf(points, seed: int = 0) -> Ball:
    """Welzl with the move-to-front heuristic."""
    pts = as_array(points)
    if len(pts) == 0:
        raise ValueError("empty input")
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(len(pts)))
    return _mtf_mb(order, len(order), [], pts, mtf=True)


def welzl_mtf_pivot(points, seed: int = 0, max_iter: int = 10_000) -> Ball:
    """Welzl with move-to-front and Gärtner's pivoting heuristic.

    The outer loop checks all points against the current ball; on a
    violation it *pivots*: the point furthest from the center (found
    with a parallel max-reduce in ParGeo) is pushed through the
    move-to-front machinery.
    """
    pts = as_array(points)
    n = len(pts)
    if n == 0:
        raise ValueError("empty input")
    rng = np.random.default_rng(seed)
    # start from a small random active list; pivots join it as found
    active = list(rng.permutation(n)[: min(n, pts.shape[1] + 1)])
    b = _mtf_mb(active, len(active), [], pts, mtf=True)
    for _ in range(max_iter):
        d2 = dist_sq(pts, b.center)
        charge(n)
        j = int(np.argmax(d2))  # pivot: furthest point overall
        lim = (b.radius * (1.0 + EPS)) ** 2
        if d2[j] <= lim + 1e-300:
            return b
        if j not in active:
            active.insert(0, j)
        else:
            active.insert(0, active.pop(active.index(j)))
        b = _mtf_mb(active, len(active), [], pts, mtf=True)
    return b
