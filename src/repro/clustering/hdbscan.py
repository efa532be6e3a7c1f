"""Hierarchical DBSCAN* (single-linkage over mutual reachability).

Following the EMST-based formulation (Wang et al., which ParGeo's WSPD
module feeds): core distance = distance to the ``min_pts``-th nearest
neighbor (kd-tree k-NN); the mutual-reachability distance of (u, v) is
``max(core(u), core(v), d(u, v))``; the HDBSCAN* hierarchy is the
single-linkage dendrogram of the mutual-reachability EMST.

The MR-EMST here uses dense Prim (O(n^2) vectorized) — exact and simple;
fine for the ~10^4-point workloads this library benches in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.distance import dist
from ..core.points import as_array
from ..emst.unionfind import UnionFind
from ..kdtree.tree import KDTree
from ..parlay.workdepth import charge

__all__ = ["core_distances", "mutual_reachability_mst", "hdbscan", "Dendrogram"]


def core_distances(points, min_pts: int) -> np.ndarray:
    """Distance to the min_pts-th nearest neighbor of each point."""
    pts = as_array(points)
    tree = KDTree(pts)
    d, _ = tree.knn(pts, min_pts, exclude_self=True)
    return np.sqrt(d[:, min_pts - 1])


def mutual_reachability_mst(points, min_pts: int) -> tuple[np.ndarray, np.ndarray]:
    """EMST under the mutual-reachability metric (edges, weights)."""
    pts = as_array(points)
    n = len(pts)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    core = core_distances(pts, min_pts) if min_pts > 1 else np.zeros(n)
    charge(n * n)

    # dense Prim, vectorized over the frontier
    in_tree = np.zeros(n, dtype=bool)
    best_d = np.full(n, np.inf)
    best_src = np.full(n, -1, dtype=np.int64)
    in_tree[0] = True
    cur = 0
    edges = np.empty((n - 1, 2), dtype=np.int64)
    weights = np.empty(n - 1)
    for step in range(n - 1):
        d = dist(pts, pts[cur])
        mr = np.maximum(np.maximum(d, core), core[cur])
        better = (~in_tree) & (mr < best_d)
        best_d[better] = mr[better]
        best_src[better] = cur
        cand = np.where(in_tree, np.inf, best_d)
        nxt = int(np.argmin(cand))
        edges[step] = (best_src[nxt], nxt)
        weights[step] = best_d[nxt]
        in_tree[nxt] = True
        cur = nxt
    return edges, weights


@dataclass
class Dendrogram:
    """Single-linkage hierarchy: merges sorted by height."""

    merges: np.ndarray  # (n-1, 2) cluster ids being merged
    heights: np.ndarray  # (n-1,) merge distances
    n: int

    def cut(self, height: float) -> np.ndarray:
        """Flat labels from cutting the hierarchy at ``height``."""
        uf = UnionFind(self.n)
        order = np.argsort(self.heights, kind="stable")
        for i in order:
            if self.heights[i] > height:
                break
            uf.union(int(self.merges[i, 0]), int(self.merges[i, 1]))
        labels = np.empty(self.n, dtype=np.int64)
        roots: dict[int, int] = {}
        for v in range(self.n):
            r = uf.find(v)
            if r not in roots:
                roots[r] = len(roots)
            labels[v] = roots[r]
        return labels

    def n_clusters_at(self, height: float) -> int:
        return len(np.unique(self.cut(height)))


def hdbscan(points, min_pts: int = 5) -> Dendrogram:
    """HDBSCAN* hierarchy of a point set."""
    pts = as_array(points)
    edges, weights = mutual_reachability_mst(pts, min_pts)
    order = np.argsort(weights, kind="stable")
    return Dendrogram(edges[order], weights[order], len(pts))
