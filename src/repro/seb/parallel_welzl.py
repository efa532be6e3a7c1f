"""Parallel Welzl via prefix doubling (Blelloch et al.) — paper §4.

The algorithm processes prefixes of a random permutation of
exponentially increasing size.  Each prefix is checked *in parallel*
for visible points; if one exists, the earliest violator p_i is found
and the ball is recomputed on the prefix up to i with p_i forced into
the support (a recursive call).  ParGeo's practical optimization:
prefixes below a cutoff are handled by the sequential algorithm
(little parallelism, lower overhead) — we keep that structure with a
Python-scaled cutoff.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import dist_sq
from ..core.points import as_array
from ..parlay.random import random_permutation
from ..parlay.workdepth import charge
from .ball import EPS, Ball, circumball
from .welzl import _mtf_mb

__all__ = ["parallel_welzl"]

#: prefixes smaller than this run through the sequential algorithm
#: (the paper uses 500000 on its 36-core machine; scaled down here)
_SEQ_PREFIX_CUTOFF = 4096


def _first_violator(pts: np.ndarray, prefix: np.ndarray, ball: Ball) -> int:
    """Index (within prefix order) of the earliest outside point, or -1.

    A data-parallel scan: distances vectorized, earliest via argmax of
    the violation mask (W=m, D=log m).
    """
    m = len(prefix)
    charge(max(m, 1))
    d2 = dist_sq(pts[prefix], ball.center)
    lim = (ball.radius * (1.0 + EPS)) ** 2
    out = d2 > lim + 1e-300
    if not out.any():
        return -1
    return int(np.argmax(out))


def _pw(pts: np.ndarray, order: np.ndarray, support: list[int]) -> Ball:
    """Ball of pts[order] with ``support`` point ids on the boundary."""
    d = pts.shape[1]
    if support:
        ball = circumball(pts[np.asarray(support, dtype=np.int64)])
    else:
        ball = Ball(np.zeros(d), -1.0)
    if len(support) == d + 1 or len(order) == 0:
        return ball

    if len(order) <= _SEQ_PREFIX_CUTOFF:
        # sequential Welzl on small prefixes (ParGeo's optimization)
        lst = list(order)
        return _mtf_mb(lst, len(lst), list(support), pts, mtf=True)

    i = 0
    size = _SEQ_PREFIX_CUTOFF
    n = len(order)
    while i < n:
        hi = min(i + size, n)
        if ball.radius < 0:
            j = 0
        else:
            j = _first_violator(pts, order[i:hi], ball)
            if j < 0:
                i = hi
                size *= 2  # prefix doubling
                continue
        vid = int(order[i + j])
        # recompute on the prefix up to the violator, with it in support
        ball = _pw(pts, order[: i + j], support + [vid])
        i = i + j + 1
    return ball


def parallel_welzl(points, seed: int = 0) -> Ball:
    """Smallest enclosing ball via the parallel prefix-doubling Welzl."""
    pts = as_array(points)
    if len(pts) == 0:
        raise ValueError("empty input")
    order = random_permutation(len(pts), seed=seed)
    return _pw(pts, order, [])
