"""Orthogonal (box) and spherical range search over the kd-tree.

The traversal takes whole subtrees whose bounding box is contained in
the query region, skips disjoint subtrees, and recurses on the rest —
the standard data-parallel range search ParGeo performs.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import box_dist_sq, dist_sq, far_dist_sq
from ..parlay.primitives import query_blocks
from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import charge
from . import batch
from .tree import KDTree

__all__ = [
    "range_count_box",
    "range_query_ball",
    "range_query_ball_batch",
    "range_query_batch",
    "range_query_box",
]

#: Batches of at least this many boxes or balls run on the frontier
#: engine; smaller ones walk.  Measured on 20K uniform 2D points,
#: 2-core x86 container, CPython 3.11, numpy 2.4 (ms/query, walk vs
#: frontier, ball r=0.01 / box half-width 0.01 on the unit square):
#: ball 0.61 vs 0.71 at m=1, 0.43 vs 0.67 at m=2, 0.57 vs 0.48 at m=3;
#: box 0.35 vs 1.39 at m=1, 0.75 vs 0.80 at m=2, 0.66 vs 0.51 at m=3.
#: From m=4 the frontier wins both by a wide margin.
_RANGE_FRONTIER_MIN = 3


def _collect_box(tree: KDTree, idx: int, lo: np.ndarray, hi: np.ndarray, out: list) -> None:
    if idx < 0 or tree.live[idx] == 0:
        return
    charge(2 * tree.dim + 4, 1)  # per-node box arithmetic
    nlo, nhi = tree.box_lo[idx], tree.box_hi[idx]
    if np.any(nlo > hi) or np.any(nhi < lo):
        return  # disjoint
    if np.all(nlo >= lo) and np.all(nhi <= hi):
        out.append(tree.node_points(idx))  # contained: take all
        return
    if tree.is_leaf[idx]:
        ids = tree.node_points(idx)
        if len(ids):
            pts = tree.points[ids]
            charge(len(ids) * tree.dim)
            mask = np.all((pts >= lo) & (pts <= hi), axis=1)
            out.append(ids[mask])
        return
    _collect_box(tree, int(tree.left[idx]), lo, hi, out)
    _collect_box(tree, int(tree.right[idx]), lo, hi, out)


def range_query_box(tree: KDTree, lo, hi) -> np.ndarray:
    """Ids of live points inside the closed box [lo, hi]."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    out: list = []
    _collect_box(tree, tree.root, lo, hi, out)
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(out)


def range_count_box(tree: KDTree, lo, hi) -> int:
    """Number of live points inside the closed box [lo, hi]."""
    return len(range_query_box(tree, lo, hi))


def _collect_ball(tree: KDTree, idx: int, c: np.ndarray, r2: float, out: list) -> None:
    if idx < 0 or tree.live[idx] == 0:
        return
    charge(2 * tree.dim + 4, 1)  # per-node box arithmetic
    nlo, nhi = tree.box_lo[idx], tree.box_hi[idx]
    if box_dist_sq(nlo, nhi, c, c) > r2:
        return  # disjoint
    if far_dist_sq(nlo, nhi, c) <= r2:
        out.append(tree.node_points(idx))  # contained
        return
    if tree.is_leaf[idx]:
        ids = tree.node_points(idx)
        if len(ids):
            charge(len(ids) * tree.dim)
            out.append(ids[dist_sq(tree.points[ids], c) <= r2])
        return
    _collect_ball(tree, int(tree.left[idx]), c, r2, out)
    _collect_ball(tree, int(tree.right[idx]), c, r2, out)


def range_query_ball(tree: KDTree, center, radius: float) -> np.ndarray:
    """Ids of live points within Euclidean distance ``radius`` of center."""
    c = np.asarray(center, dtype=np.float64)
    r = float(radius)
    out: list = []
    _collect_ball(tree, tree.root, c, r * r, out)
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(out)


def _box_walk(tree: KDTree, los, his, grain: int = 16) -> list[np.ndarray]:
    """The walk path of :func:`range_query_batch`: one DFS per box."""
    m = len(los)
    results: list = [None] * m
    blocks = query_blocks(m, grain=grain)

    def run_block(b: int) -> None:
        lo_i, hi_i = blocks[b]
        for i in range(lo_i, hi_i):
            results[i] = range_query_box(tree, los[i], his[i])

    get_scheduler().parallel_for(len(blocks), run_block)
    return results


def _ball_walk(tree: KDTree, centers, radii, grain: int = 16) -> list[np.ndarray]:
    """The walk path of :func:`range_query_ball_batch`: one DFS per ball."""
    m = len(centers)
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (m,))
    results: list = [None] * m
    blocks = query_blocks(m, grain=grain)

    def run_block(b: int) -> None:
        lo_i, hi_i = blocks[b]
        for i in range(lo_i, hi_i):
            results[i] = range_query_ball(tree, centers[i], float(radii[i]))

    get_scheduler().parallel_for(len(blocks), run_block)
    return results


def range_query_batch(tree: KDTree, los, his, grain: int = 16) -> list[np.ndarray]:
    """Data-parallel batch of box queries (one result list per box).

    Queries run in blocks across the scheduler — the paper's range
    search benchmark shape (parallel across queries).  Batches of
    ``_RANGE_FRONTIER_MIN`` or more run on the frontier engine of
    :mod:`repro.kdtree.batch`, smaller ones walk; results and charges
    are identical.
    """
    los = np.asarray(los, dtype=np.float64)
    his = np.asarray(his, dtype=np.float64)
    if len(los) >= _RANGE_FRONTIER_MIN:
        return batch.batched_range_query_batch(tree, los, his, grain=grain)
    return _box_walk(tree, los, his, grain)


def range_query_ball_batch(tree: KDTree, centers, radii, grain: int = 16) -> list[np.ndarray]:
    """Data-parallel batch of ball queries (per-query radii allowed);
    the batch size picks the path as in :func:`range_query_batch`."""
    centers = np.asarray(centers, dtype=np.float64)
    if len(centers) >= _RANGE_FRONTIER_MIN:
        return batch.batched_range_query_ball_batch(tree, centers, radii, grain=grain)
    return _ball_walk(tree, centers, radii, grain)
