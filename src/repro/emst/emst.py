"""Euclidean minimum spanning tree via WSPD + filtered Kruskal.

The classic Callahan–Kosaraju construction: with separation s >= 2,
every EMST edge is the bichromatic closest pair of some well-separated
pair.  We process pairs lazily in a priority queue keyed first by the
pair's box-distance lower bound; a popped pair is resolved to its exact
BCCP edge and re-queued at its true length, so Kruskal only unions
globally-minimal edges and BCCPs of far-apart pairs are never computed
once the forest connects (the "GeoFilterKruskal" idea of Wang et al.,
which ParGeo uses).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core.distance import box_dist_sq
from ..core.points import as_array
from ..kdtree.tree import KDTree
from ..parlay.workdepth import charge, parallel_merge, tracker
from ..wspd.wspd import wspd
from .bccp import bccp_nodes
from .unionfind import UnionFind

__all__ = ["emst", "emst_from_tree"]


def emst_from_tree(tree: KDTree, s: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """EMST of the tree's points.  Returns (edges (m,2), weights (m,))."""
    n = tree.n_points
    if n <= 1:
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    pairs = wspd(tree, s=s)
    charge(len(pairs))

    # heap entries: (key, counter, resolved, payload)
    lo, hi = tree.box_lo, tree.box_hi
    heap: list = []
    for c, p in enumerate(pairs):
        lb = box_dist_sq(lo[p.a], hi[p.a], lo[p.b], hi[p.b])
        heapq.heappush(heap, (lb, c, False, p))
    counter = len(pairs)

    uf = UnionFind(n)
    edges = []
    weights = []
    # Pair resolutions (connectivity filter + BCCP) are independent and
    # run in parallel batches in the GFK algorithm, as do the batched
    # union-find rounds of the filtered Kruskal; we execute them lazily
    # in heap order but compose their costs as parallel phases.
    resolve_costs = []
    union_costs = []
    while heap and uf.n_components > 1:
        key, _, resolved, payload = heapq.heappop(heap)
        if resolved:
            d2, u, v = payload
            with tracker.frame() as c:
                took = uf.union(u, v)
            union_costs.append(c)
            if took:
                edges.append((u, v))
                weights.append(np.sqrt(d2))
        else:
            p = payload
            with tracker.frame() as c:
                # cheap reject: singleton pairs already connected
                sa = tree.end[p.a] - tree.start[p.a]
                sb = tree.end[p.b] - tree.start[p.b]
                skip = False
                if sa == 1 and sb == 1:
                    u = int(tree.gids[tree.perm[tree.start[p.a]]])
                    v = int(tree.gids[tree.perm[tree.start[p.b]]])
                    skip = uf.connected(u, v)
                if not skip:
                    d2, u, v = bccp_nodes(tree, p.a, tree, p.b)
            resolve_costs.append(c)
            if skip or u < 0:
                continue
            heapq.heappush(heap, (d2, counter, True, (d2, u, v)))
            counter += 1
    parallel_merge(resolve_costs)
    # batched Kruskal: ~log n rounds of concurrent unions
    if union_costs:
        rounds = max(1, int(np.log2(len(union_costs) + 1)))
        per_round = -(-len(union_costs) // rounds)
        for r in range(rounds):
            batch = union_costs[r * per_round : (r + 1) * per_round]
            if batch:
                parallel_merge(batch)
    return np.array(edges, dtype=np.int64).reshape(-1, 2), np.asarray(weights)


def emst(points, s: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean MST of a point set.

    Returns (edges, weights): (n-1, 2) point-index pairs and Euclidean
    lengths.  Exact for separation s >= 2.
    """
    pts = as_array(points)
    tree = KDTree(pts, leaf_size=1)
    return emst_from_tree(tree, s=s)
