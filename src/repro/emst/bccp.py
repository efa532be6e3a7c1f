"""Bichromatic closest pair between kd-tree nodes (dual-tree search).

Given two kd-tree nodes, find the closest (red, blue) point pair — the
kernel of the WSPD-based EMST and of the standalone bichromatic closest
pair problem.  The recursion prunes node pairs whose box distance
exceeds the best pair found so far and brute-forces small products.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import box_dist_sq, cross_dists_sq
from ..kdtree.tree import KDTree
from ..parlay.workdepth import charge

__all__ = ["bccp_nodes", "bccp_points"]

_BRUTE_LIMIT = 2048



def bccp_nodes(
    tree_a: KDTree,
    a: int,
    tree_b: KDTree,
    b: int,
    best: tuple[float, int, int] | None = None,
) -> tuple[float, int, int]:
    """Closest pair (d^2, id_a, id_b) between points under nodes a, b.

    Node ids index their respective trees; returned point ids are the
    trees' global ids.
    """
    if best is None:
        best = (np.inf, -1, -1)
    charge(1, 1)
    la, ha, lb, hb = tree_a.box_lo, tree_a.box_hi, tree_b.box_lo, tree_b.box_hi
    if box_dist_sq(la[a], ha[a], lb[b], hb[b]) >= best[0]:
        return best
    na = int(tree_a.end[a] - tree_a.start[a])
    nb = int(tree_b.end[b] - tree_b.start[b])
    if na * nb <= _BRUTE_LIMIT or (tree_a.is_leaf[a] and tree_b.is_leaf[b]):
        ia = tree_a.node_points(a)
        ib = tree_b.node_points(b)
        if len(ia) == 0 or len(ib) == 0:
            return best
        d2 = cross_dists_sq(tree_a.points[ia], tree_b.points[ib])
        j = int(np.argmin(d2))
        r, c = divmod(j, len(ib))
        dmin = float(d2[r, c])
        if dmin < best[0]:
            best = (dmin, int(tree_a.gids[ia[r]]), int(tree_b.gids[ib[c]]))
        return best
    # recurse on the larger node first, nearer child first
    if (na >= nb and not tree_a.is_leaf[a]) or tree_b.is_leaf[b]:
        kids = [int(tree_a.left[a]), int(tree_a.right[a])]
        kids = [k for k in kids if k >= 0]
        kids.sort(key=lambda k: box_dist_sq(la[k], ha[k], lb[b], hb[b]))
        for k in kids:
            best = bccp_nodes(tree_a, k, tree_b, b, best)
    else:
        kids = [int(tree_b.left[b]), int(tree_b.right[b])]
        kids = [k for k in kids if k >= 0]
        kids.sort(key=lambda k: box_dist_sq(la[a], ha[a], lb[k], hb[k]))
        for k in kids:
            best = bccp_nodes(tree_a, a, tree_b, k, best)
    return best


def bccp_points(red, blue) -> tuple[float, int, int]:
    """Bichromatic closest pair between two point sets.

    Returns (distance, red_index, blue_index).
    """
    from ..core.points import as_array

    r = as_array(red)
    b = as_array(blue)
    if len(r) == 0 or len(b) == 0:
        raise ValueError("bccp of empty set")
    ta = KDTree(r, leaf_size=16)
    tb = KDTree(b, leaf_size=16)
    d2, i, j = bccp_nodes(ta, ta.root, tb, tb.root)
    return float(np.sqrt(d2)), i, j
