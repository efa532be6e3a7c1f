"""Well-separated pair decomposition (Callahan–Kosaraju) on the kd-tree.

Two kd-tree nodes A, B are *s-well-separated* when the distance between
their bounding boxes is at least ``s`` times the larger box's enclosing
radius.  The decomposition covers every pair of distinct points by
exactly one node pair; with separation s=2 it yields O(n) pairs and
underlies the EMST and spanner constructions (paper Module (2)/(3)).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.distance import box_dist_sq, sq_norm
from ..kdtree.tree import KDTree
from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import charge, parallel_merge, tracker

__all__ = ["WSPair", "well_separated", "wspd", "wspd_pairs_count"]


@dataclass(frozen=True)
class WSPair:
    """A well-separated pair of kd-tree node ids."""

    a: int
    b: int


def _radius_sq(tree: KDTree, n: int) -> float:
    return sq_norm(tree.box_hi[n] - tree.box_lo[n]) / 4.0


def well_separated(tree: KDTree, a: int, b: int, s: float) -> bool:
    """Callahan–Kosaraju separation test on bounding boxes."""
    charge(1, 1)
    r2 = max(_radius_sq(tree, a), _radius_sq(tree, b))
    lo, hi = tree.box_lo, tree.box_hi
    return box_dist_sq(lo[a], hi[a], lo[b], hi[b]) >= s * s * r2


def wspd(tree: KDTree, s: float = 2.0) -> list[WSPair]:
    """Compute the s-WSPD of the tree's points.

    Returns node-id pairs; use ``tree.node_points(pair.a)`` for the
    member point ids.
    """
    if s <= 0:
        raise ValueError("separation must be positive")
    if tree.leaf_size != 1:
        # CK's decomposition needs singleton leaves: intra-leaf point
        # pairs would otherwise never be covered by any node pair
        raise ValueError("wspd requires a KDTree built with leaf_size=1")
    if tree.root < 0:
        return []
    sched = get_scheduler()
    out: list[WSPair] = []

    def find_pairs(a: int, b: int, sink: list) -> None:
        charge(1, 1)
        if well_separated(tree, a, b, s):
            sink.append(WSPair(a, b))
            return
        # split the node with the larger diameter
        if _radius_sq(tree, a) < _radius_sq(tree, b):
            a, b = b, a
        if tree.is_leaf[a]:
            if tree.is_leaf[b]:
                # two singleton leaves are always well-separated (their
                # radii are 0), so this only happens for degenerate
                # multi-point leaves; emit the covering pair directly
                sink.append(WSPair(a, b))
                return
            a, b = b, a
        # the two recursive calls are a fork-join pair in CK's algorithm;
        # execute serially but compose their costs in parallel
        la, ra = int(tree.left[a]), int(tree.right[a])
        costs = []
        for child in (la, ra):
            if child >= 0:
                with tracker.frame() as c:
                    find_pairs(child, b, sink)
                costs.append(c)
        parallel_merge(costs)

    def rec(node: int, sink: list) -> None:
        if node < 0 or tree.is_leaf[node]:
            return
        l, r = int(tree.left[node]), int(tree.right[node])
        size = tree.end[node] - tree.start[node]
        if size > 8192 and l >= 0 and r >= 0:
            sinks = [[], [], []]
            sched.parallel_do(
                [
                    lambda: rec(l, sinks[0]),
                    lambda: rec(r, sinks[1]),
                    lambda: find_pairs(l, r, sinks[2]),
                ]
            )
            for sk in sinks:
                sink.extend(sk)
        else:
            costs = []
            for task in (
                (lambda: rec(l, sink)) if l >= 0 else None,
                (lambda: rec(r, sink)) if r >= 0 else None,
                (lambda: find_pairs(l, r, sink)) if (l >= 0 and r >= 0) else None,
            ):
                if task is None:
                    continue
                with tracker.frame() as c:
                    task()
                costs.append(c)
            parallel_merge(costs)

    rec(tree.root, out)
    return out


def wspd_pairs_count(tree: KDTree, s: float = 2.0) -> int:
    return len(wspd(tree, s))
