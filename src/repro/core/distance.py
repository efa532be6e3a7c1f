"""Distance kernels: the one place that decides how squares are summed.

Every squared Euclidean distance in the library — kd-tree pruning and
leaf scans, BDL buffers, shard routing, views, WSPD, EMST, SEB, closest
pair — comes from :func:`sq_norm` or a kernel built on it.  The squares
are summed **left to right, one coordinate at a time**, so two code
paths that see the same operands always produce the same float64 bits.
That is what makes walk and frontier searches prune identically and
maintained views equal their from-scratch recompute, in any dimension.

A 1-D operand comes back as a Python float, summed by a plain loop (the
per-node walk calls it once per node); an ``(..., d)`` operand comes
back as an array over the last axis.  Both give the same bits.

:func:`pairwise_dists_sq` and :func:`cross_dists_sq` are a different
algorithm (the GEMM expansion ``|a|^2 + |b|^2 - 2 a.b``): fast on large
blocks, not bitwise equal to the kernels above, and used only where no
bitwise contract depends on the result.
"""

from __future__ import annotations

import numpy as np

from ..parlay.workdepth import charge

__all__ = [
    "box_dist_sq",
    "cross_dists_sq",
    "dist",
    "dist_sq",
    "far_dist_sq",
    "pairwise_dists_sq",
    "sq_norm",
]


def _sum_squares(sq: np.ndarray) -> np.ndarray:
    """Sum already-squared coordinates over the last axis, left to right."""
    d = sq.shape[-1]
    if d == 1:
        return sq[..., 0].copy()
    out = sq[..., 0] + sq[..., 1]
    for j in range(2, d):
        out += sq[..., j]
    return out


def sq_norm(v: np.ndarray):
    """Squared Euclidean norm over the last axis, summed left to right.

    A 1-D ``v`` gives a float; ``(n, d)`` or ``(m, s, d)`` gives an
    array of shape ``v.shape[:-1]``.
    """
    if v.ndim == 1:
        s = 0.0
        for x in v.tolist():
            s += x * x
        return s
    return _sum_squares(v * v)


def dist_sq(a: np.ndarray, b: np.ndarray):
    """Squared distance between points ``a`` and ``b`` (broadcasting
    over leading axes, as :func:`sq_norm`)."""
    d = a - b
    if d.ndim == 1:
        return sq_norm(d)
    d *= d
    return _sum_squares(d)


def dist(a: np.ndarray, b: np.ndarray):
    """Euclidean distance, the square root of :func:`dist_sq`."""
    return np.sqrt(dist_sq(a, b))


def box_dist_sq(lo_a: np.ndarray, hi_a: np.ndarray,
                lo_b: np.ndarray, hi_b: np.ndarray):
    """Squared gap between boxes ``[lo_a, hi_a]`` and ``[lo_b, hi_b]``
    (0 where they meet).  A point ``p`` is the box ``[p, p]``.  An empty
    box ``(+inf, -inf)`` is infinitely far from everything."""
    gap = np.maximum(lo_a - hi_b, 0.0) + np.maximum(lo_b - hi_a, 0.0)
    return sq_norm(gap)


def far_dist_sq(lo: np.ndarray, hi: np.ndarray, p: np.ndarray):
    """Squared distance from ``p`` to the farthest corner of ``[lo, hi]``."""
    return sq_norm(np.maximum(np.abs(p - lo), np.abs(p - hi)))


def pairwise_dists_sq(pts: np.ndarray) -> np.ndarray:
    """Full (n, n) squared distance matrix by GEMM expansion.
    W=n^2 d, D=log n."""
    n = len(pts)
    charge(max(n * n, 1))
    sq = sq_norm(pts)
    out = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.maximum(out, 0.0, out=out)
    return out


def cross_dists_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(|a|, |b|) matrix of squared distances by GEMM expansion.
    W=|a||b|d, D=log(|a||b|)."""
    charge(max(len(a) * len(b), 1))
    out = sq_norm(a)[:, None] + sq_norm(b)[None, :] - 2.0 * (a @ b.T)
    np.maximum(out, 0.0, out=out)
    return out
