"""Data-parallel k-nearest-neighbor search (paper Appendix C.1.3).

Queries are parallelized across the batch, and each search keeps one
:class:`~repro.kdtree.knnbuffer.KNNBuffer` per query.  The search
descends to the query's leaf first, then unwinds: while the buffer is
not yet full (and no pruning bound was seeded) it greedily ingests
sibling subtrees; after that it prunes with the k-th-nearest bound,
taking whole subtrees whose box lies inside the bound, skipping those
that are disjoint, and recursing into the ones that straddle it.
That is exactly the paper's strategy.

:func:`knn` (one tree) and :func:`knn_across` (several trees sharing
one buffer per query, as a BDL-tree's log-structure does) are the
entry points.  Each picks its execution path from the batch size:

* below ``_KNN_FRONTIER_MIN`` queries, the per-query recursive **walk**
  (:func:`_search`);
* from there on, the **frontier** engine of :mod:`repro.kdtree.batch`,
  which replays the walk of every query in lock step with one numpy
  kernel per step.

The two paths return bitwise-identical results and charge identical
work/depth; the choice only moves wall clock.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import box_dist_sq, dist_sq, far_dist_sq
from ..core.points import as_array
from ..obs.span import span
from ..parlay.scheduler import get_scheduler
from ..parlay.primitives import query_blocks
from ..parlay.workdepth import charge
from . import batch
from .knnbuffer import KNNBuffer
from .tree import KDTree

__all__ = ["extract_knn_results", "knn", "knn_across", "knn_single"]

#: Batches of at least this many queries run on the frontier engine;
#: smaller ones walk.  The frontier pays a fixed ~2.5 ms of numpy
#: dispatch per call, which the batch has to amortize.  Measured on
#: 20K uniform 2D points, k=8, 2-core x86 container, CPython 3.11,
#: numpy 2.4 (ms/query, walk vs frontier): 0.51 vs 0.63 at m=32 and
#: 0.48 vs 0.39 at m=64; a finer sweep on the same machine crossed at
#: m=40 (0.47 vs 0.46) with the frontier ahead from m=48 (0.38 vs 0.34).
_KNN_FRONTIER_MIN = 48


def _ingest_subtree(tree: KDTree, idx: int, q: np.ndarray, buf: KNNBuffer) -> None:
    """Add every live point under ``idx`` to the buffer."""
    ids = tree.node_points(idx)
    if len(ids) == 0:
        return
    charge(len(ids) * tree.dim)
    buf.insert_batch(dist_sq(tree.points[ids], q), tree.gids[ids])


def _search(tree: KDTree, idx: int, q: np.ndarray, buf: KNNBuffer) -> None:
    if idx < 0 or tree.live[idx] == 0:
        return
    charge(2 * tree.dim + 4, 1)  # per-node box/plane arithmetic
    if tree.is_leaf[idx]:
        _ingest_subtree(tree, idx, q, buf)
        return

    # distance-ordered descent
    li, ri = int(tree.left[idx]), int(tree.right[idx])
    d = int(tree.split_dim[idx])
    first, second = (li, ri) if q[d] <= tree.split_val[idx] else (ri, li)

    _search(tree, first, q, buf)

    if second < 0 or tree.live[second] == 0:
        return
    if not buf.full() and np.isinf(buf.bound):
        # fill up with nearby points as fast as possible (paper C.1.3);
        # a seeded bound keeps pruning even while the buffer is underfull
        _search(tree, second, q, buf)
        return
    lo, hi = tree.box_lo[second], tree.box_hi[second]
    if box_dist_sq(lo, hi, q, q) >= buf.bound:
        return  # disjoint from the k-NN ball: prune
    if far_dist_sq(lo, hi, q) < buf.bound:
        _ingest_subtree(tree, second, q, buf)  # wholly inside: take all
    else:
        _search(tree, second, q, buf)


def knn_single(tree: KDTree, q: np.ndarray, k: int, buf: KNNBuffer | None = None) -> KNNBuffer:
    """k-NN of a single query point; returns the filled buffer."""
    if buf is None:
        buf = KNNBuffer(k)
    if tree.root >= 0:
        _search(tree, tree.root, np.asarray(q, dtype=np.float64), buf)
    return buf


def _walk_into(tree: KDTree, qs: np.ndarray, buffers: list[KNNBuffer]) -> None:
    """Walk ``tree`` once per query, accumulating into ``buffers``."""
    if tree.root < 0:
        return
    sched = get_scheduler()
    blocks = query_blocks(len(qs), grain=64)

    def run_block(b: int) -> None:
        lo, hi = blocks[b]
        for i in range(lo, hi):
            _search(tree, tree.root, qs[i], buffers[i])

    sched.parallel_for(len(blocks), run_block)


def _knn_walk(trees, qs: np.ndarray, k: int, exclude_self: bool = False,
              bound=None, scan=None) -> tuple[np.ndarray, np.ndarray]:
    """The walk path of :func:`knn_across`: one scalar buffer per query."""
    m = len(qs)
    kk = k + 1 if exclude_self else k
    buffers = [KNNBuffer(kk) for _ in range(m)]
    if bound is not None:
        for b, seed in zip(buffers, np.asarray(bound, dtype=np.float64)):
            b.bound = float(seed)
    for t in trees:
        _walk_into(t, qs, buffers)
    if scan is not None:
        pts, gids = scan
        charge(m * len(pts))
        for i in range(m):
            buffers[i].insert_batch(dist_sq(pts, qs[i]), gids)
    return extract_knn_results(buffers, k, exclude_self)


def _knn_frontier(trees, qs: np.ndarray, k: int, exclude_self: bool = False,
                  bound=None, scan=None) -> tuple[np.ndarray, np.ndarray]:
    """The frontier path of :func:`knn_across`: one batch buffer set."""
    m = len(qs)
    kk = k + 1 if exclude_self else k
    buf = batch.BatchKNNBuffers(m, kk)
    if bound is not None:
        # the search only ever tightens a seeded bound (_compact takes
        # the max of the k best, all below the seed)
        buf.bound[:] = np.asarray(bound, dtype=np.float64)
    for t in trees:
        # called through the module so instrumentation can wrap it
        batch.batched_knn_into(t, qs, buf)
    if scan is not None:
        pts, gids = scan
        nb = len(pts)
        charge(m * nb)
        rows = np.arange(m, dtype=np.int64)
        lens = np.full(m, nb, dtype=np.int64)
        # chunk the (m, nb) cross-distance matrix to bound memory
        step = max(1, (1 << 22) // nb)
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            d2 = dist_sq(pts[None, :, :], qs[lo:hi, None, :]).ravel()
            buf.insert_grouped(rows[lo:hi], d2, np.tile(gids, hi - lo), lens[lo:hi])
        # the walk charges each query's scan insert serially
        buf.flush_serial()
    return buf.extract(k, exclude_self)


def knn(tree: KDTree, queries, k: int, exclude_self: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Data-parallel k-NN over a batch of query points.

    Returns ``(dists, ids)`` of shape (m, k): *squared* distances and
    point ids, each row sorted by distance.  With ``exclude_self`` the
    query point itself (the closest zero-distance hit) is excluded;
    callers should then ask for ``k`` true neighbors.  The batch size
    picks the walk or the frontier path (see the module docstring).
    """
    qs = as_array(queries)
    frontier = len(qs) >= _KNN_FRONTIER_MIN
    with span("kdtree.knn", batch=len(qs), k=k,
              path="frontier" if frontier else "walk"):
        run = _knn_frontier if frontier else _knn_walk
        return run([tree], qs, k, exclude_self)


def knn_across(trees, queries, k: int, exclude_self: bool = False,
               bound=None, scan=None) -> tuple[np.ndarray, np.ndarray]:
    """k-NN with one buffer per query shared across several trees.

    This is the search BDL-trees run: results merge across ``trees``
    (searched in order) and across ``scan``, an optional
    ``(points, gids)`` pair checked by brute force (a BDL-tree's
    unbuilt buffer).  ``bound`` is an optional per-query *exclusive*
    squared-distance cutoff: candidates at ``d2 >= bound[i]`` are
    pruned and rows may come back underfull (inf/-1 padded).  Returns
    what :func:`knn` returns; the batch size picks the path.
    """
    qs = as_array(queries)
    run = _knn_frontier if len(qs) >= _KNN_FRONTIER_MIN else _knn_walk
    return run(trees, qs, k, exclude_self, bound, scan)


def extract_knn_results(
    buffers: list[KNNBuffer], k: int, exclude_self: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Data-parallel extraction of (dists, ids) from k-NN buffers."""
    m = len(buffers)
    dists = np.full((m, k), np.inf)
    ids = np.full((m, k), -1, dtype=np.int64)
    sched = get_scheduler()
    blocks = query_blocks(m, grain=256)

    def run_block(b: int) -> None:
        lo, hi = blocks[b]
        for i in range(lo, hi):
            d, j = buffers[i].result()
            if exclude_self:
                # drop the closest zero-distance hit (the query itself)
                if len(d) and d[0] <= 1e-18:
                    d, j = d[1:], j[1:]
                else:
                    d, j = d[:k], j[:k]
            take = min(k, len(d))
            dists[i, :take] = d[:take]
            ids[i, :take] = j[:take]

    sched.parallel_for(len(blocks), run_block)
    return dists, ids
