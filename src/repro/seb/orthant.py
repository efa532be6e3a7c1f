"""Larsson et al.'s iterative orthant scan (parallelized) — paper §4.

The space around the current ball center divides into the 2^d orthants.
An *orthant scan* finds, per orthant, the furthest point outside the
ball (a "visible point").  The ball is then recomputed as the smallest
enclosing ball of {current support} ∪ {orthant extremes}, and the scan
repeats until no point is outside.

The scan is parallelized by blocks: each block is processed
sequentially, blocks run in parallel, and the per-orthant extrema merge
at the end — exactly the paper's parallelization.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import dist_sq, sq_norm
from ..core.points import as_array
from ..parlay.primitives import query_blocks
from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import charge
from .ball import EPS, Ball, ball_of_support

__all__ = ["orthant_scan_once", "orthant_scan_seb"]

#: cap on orthant count for high dimensions (beyond ~7d, orthants are
#: mostly empty anyway; we bucket by the first 7 coordinate signs)
_MAX_SIGN_DIMS = 7


def orthant_scan_once(pts: np.ndarray, ball: Ball) -> tuple[bool, np.ndarray]:
    """One parallel orthant scan of ``pts`` against ``ball``.

    Returns (has_outlier, extreme_points): the furthest outside point of
    each nonempty orthant (stacked as rows; empty if no outliers).
    """
    n = len(pts)
    d = pts.shape[1]
    sd = min(d, _MAX_SIGN_DIMS)
    n_orth = 1 << sd
    sched = get_scheduler()
    blocks = query_blocks(n, grain=2048)

    def scan_block(b: int):
        lo, hi = blocks[b]
        seg = pts[lo:hi]
        charge(max(hi - lo, 1))
        diff = seg - ball.center
        d2 = sq_norm(diff)
        lim = (ball.radius * (1.0 + EPS)) ** 2
        out = d2 > lim + 1e-300
        if not out.any():
            return None
        # orthant id: sign bits of (p - center) on the first sd dims
        bits = (diff[out][:, :sd] > 0).astype(np.int64)
        oid = bits @ (1 << np.arange(sd, dtype=np.int64))
        dist = d2[out]
        best_d = np.full(n_orth, -1.0)
        best_i = np.full(n_orth, -1, dtype=np.int64)
        idx = np.flatnonzero(out) + lo
        np.maximum.at(best_d, oid, dist)
        # earliest index achieving each orthant's max: reversed fancy
        # assignment makes the first (lowest idx) candidate win
        hit = np.flatnonzero(dist == best_d[oid])[::-1]
        best_i[oid[hit]] = idx[hit]
        return best_d, best_i

    results = sched.parallel_do([(lambda b=b: scan_block(b)) for b in range(len(blocks))])
    best_d = np.full(n_orth, -1.0)
    best_i = np.full(n_orth, -1, dtype=np.int64)
    for r in results:
        if r is None:
            continue
        bd, bi = r
        better = bd > best_d
        best_d[better] = bd[better]
        best_i[better] = bi[better]
    sel = best_i[best_i >= 0]
    if len(sel) == 0:
        return False, np.empty((0, d))
    return True, pts[sel]


def orthant_scan_seb(points, max_iter: int = 1000, seed: int = 0) -> Ball:
    """Smallest enclosing ball via iterated orthant scans (Larsson).

    Each round scans the whole input; the ball's support set plus the
    orthant extremes define the next candidate ball.  Terminates when a
    scan finds no visible points.
    """
    pts = as_array(points)
    if len(pts) == 0:
        raise ValueError("empty input")
    d = pts.shape[1]
    init = pts[: min(len(pts), d + 1)]
    ball = ball_of_support(init, seed=seed)
    prev_radius = -1.0
    for _ in range(max_iter):
        has_out, extremes = orthant_scan_once(pts, ball)
        if not has_out:
            return ball
        support = np.vstack([ball.support, extremes]) if len(ball.support) else extremes
        ball = ball_of_support(support, seed=seed)
        if ball.radius <= prev_radius * (1.0 + 1e-15):
            # radius stalled: nudge with the single furthest point
            j = int(np.argmax(dist_sq(pts, ball.center)))
            support = np.vstack([ball.support, pts[None, j]])
            ball = ball_of_support(support, seed=seed)
        prev_radius = ball.radius
    # convergence fallback (should not trigger on real data): exact solve
    from .welzl import welzl_mtf_pivot

    return welzl_mtf_pivot(pts, seed=seed)
