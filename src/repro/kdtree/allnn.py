"""All-nearest-neighbors: every point's nearest other point.

The production path runs the point set as one 1-NN batch on the
frontier engine of :mod:`repro.kdtree.batch`.  The dual-tree traversal
(Callahan–Kosaraju / Gray–Moore style: node pairs prune when the box
distance exceeds every query's current bound) stays as the private
oracle it is tested against.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import box_dist_sq, cross_dists_sq
from ..core.points import as_array
from ..parlay.workdepth import charge
from . import batch
from .tree import KDTree

__all__ = ["all_nearest_neighbors"]

_BRUTE = 1024


def all_nearest_neighbors(points) -> tuple[np.ndarray, np.ndarray]:
    """Nearest neighbor of every point (excluding itself).

    Returns (dists, ids): Euclidean distance and index of each point's
    nearest other point.  The whole point set runs as one 1-NN batch on
    the frontier engine, banning each query's own id so duplicates
    still pair up with each other.
    """
    pts = as_array(points)
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    return batch.batched_allnn_on_tree(KDTree(pts, leaf_size=16))


def _dual_tree_allnn(points) -> tuple[np.ndarray, np.ndarray]:
    """Classic dual-tree all-NN: the oracle :func:`all_nearest_neighbors`
    is tested against (same return convention)."""
    pts = as_array(points)
    n = len(pts)
    tree = KDTree(pts, leaf_size=16)
    best_d = np.full(n, np.inf)
    best_i = np.full(n, -1, dtype=np.int64)

    def node_bound(q: int) -> float:
        """Max of the current bounds over query points in node q."""
        ids = tree.node_points(q)
        charge(max(len(ids), 1))
        return float(best_d[ids].max()) if len(ids) else 0.0

    lo, hi = tree.box_lo, tree.box_hi

    def dual(q: int, r: int) -> None:
        charge(1, 1)
        if box_dist_sq(lo[q], hi[q], lo[r], hi[r]) >= node_bound(q):
            return
        nq = int(tree.end[q] - tree.start[q])
        nr = int(tree.end[r] - tree.start[r])
        if nq * nr <= _BRUTE or (tree.is_leaf[q] and tree.is_leaf[r]):
            qi = tree.node_points(q)
            ri = tree.node_points(r)
            if len(qi) == 0 or len(ri) == 0:
                return
            d2 = cross_dists_sq(pts[qi], pts[ri])
            if q == r:
                np.fill_diagonal(d2, np.inf)
            else:
                same = qi[:, None] == ri[None, :]
                d2[same] = np.inf
            j = np.argmin(d2, axis=1)
            dmin = d2[np.arange(len(qi)), j]
            better = dmin < best_d[qi]
            best_d[qi[better]] = dmin[better]
            best_i[qi[better]] = ri[j[better]]
            return
        # recurse: split the bigger node; visit nearer ref child first
        if (nq >= nr and not tree.is_leaf[q]) or tree.is_leaf[r]:
            for child in (int(tree.left[q]), int(tree.right[q])):
                if child >= 0:
                    dual(child, r)
        else:
            kids = [int(tree.left[r]), int(tree.right[r])]
            kids = [k for k in kids if k >= 0]
            kids.sort(key=lambda k: box_dist_sq(lo[q], hi[q], lo[k], hi[k]))
            for k in kids:
                dual(q, k)

    dual(tree.root, tree.root)
    return np.sqrt(best_d), best_i
