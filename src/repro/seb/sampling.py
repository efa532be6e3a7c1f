"""The paper's new sampling-based smallest enclosing ball (§4, Fig. 6).

Phase 1 (sampling): walk a random permutation in constant-size chunks —
each chunk is a uniform random sample.  Orthant-scan the chunk against
the current ball and recompute the ball from the support candidates.
When a chunk contains no visible point, the ball is already a good
estimate and sampling stops (on average the paper observes only ~5% of
the input is scanned).

Phase 2 (final computation): run Larsson's full orthant scan until no
visible points remain — usually 1–2 scans thanks to the good start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.distance import dist_sq
from ..core.points import as_array
from ..obs.span import span
from ..parlay.random import random_permutation
from ..parlay.workdepth import charge
from .ball import Ball, ball_of_support
from .orthant import orthant_scan_once

__all__ = ["sampling_seb", "SamplingStats"]


@dataclass
class SamplingStats:
    """Instrumentation: how much work the sampling phase saved."""

    sample_chunks: int = 0
    points_sampled: int = 0
    final_scans: int = 0
    fraction_sampled: float = 0.0


def sampling_seb(
    points,
    chunk: int = 2048,
    seed: int = 0,
    max_iter: int = 1000,
) -> tuple[Ball, SamplingStats]:
    """Smallest enclosing ball via sampling + final orthant scans.

    Returns (ball, stats).
    """
    pts = as_array(points)
    n = len(pts)
    if n == 0:
        raise ValueError("empty input")
    d = pts.shape[1]
    stats = SamplingStats()

    perm = random_permutation(n, seed=seed)
    shuffled = pts[perm]

    # initialize with a few arbitrary points (Fig. 6 line 3)
    ball = ball_of_support(shuffled[: min(n, d + 1)], seed=seed)

    # --- sampling phase (Fig. 6 lines 5-13) ---
    with span("seb.sample", batch=chunk):
        scanned = 0
        while scanned < n:
            seg = shuffled[scanned : min(scanned + chunk, n)]
            scanned += len(seg)
            stats.sample_chunks += 1
            stats.points_sampled += len(seg)
            has_out, extremes = orthant_scan_once(seg, ball)
            if not has_out:
                break  # current sample does not violate B
            support = np.vstack([ball.support, extremes]) if len(ball.support) else extremes
            ball = ball_of_support(support, seed=seed)
        stats.fraction_sampled = stats.points_sampled / n

    # --- final computation phase (Fig. 6 lines 15-20) ---
    with span("seb.final", batch=n):
        prev_radius = -1.0
        for _ in range(max_iter):
            stats.final_scans += 1
            has_out, extremes = orthant_scan_once(pts, ball)
            if not has_out:
                return ball, stats
            support = np.vstack([ball.support, extremes]) if len(ball.support) else extremes
            ball = ball_of_support(support, seed=seed)
            if ball.radius <= prev_radius * (1.0 + 1e-15):
                charge(n)
                j = int(np.argmax(dist_sq(pts, ball.center)))
                ball = ball_of_support(np.vstack([ball.support, pts[None, j]]), seed=seed)
            prev_radius = ball.radius
    from .welzl import welzl_mtf_pivot

    return welzl_mtf_pivot(pts, seed=seed), stats
