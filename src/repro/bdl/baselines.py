"""Baseline dynamic kd-trees from the paper's BDL evaluation (§6.3).

**B1** rebuilds the whole (static, perfectly balanced) kd-tree on every
batch insertion or deletion: slow updates, fast queries.

**B2** inserts points directly into the existing spatial structure
without recalculating splits (per-leaf grow buffers), and deletes by
tombstoning: very fast updates, but trees built through a sequence of
batch inserts become unbalanced and query performance suffers.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import box_dist_sq, dist_sq
from ..core.points import as_array
from ..kdtree.knnbuffer import KNNBuffer
from ..kdtree.tree import KDTree, OBJECT_MEDIAN, SPATIAL_MEDIAN
from ..parlay.scheduler import get_scheduler
from ..parlay.primitives import query_blocks
from ..parlay.workdepth import charge

__all__ = ["RebuildTree", "InPlaceTree"]


class RebuildTree:
    """Baseline B1: full rebuild on every batch update."""

    def __init__(self, dim: int, split: str = OBJECT_MEDIAN, leaf_size: int = 16):
        self.dim = dim
        self.split = split
        self.leaf_size = leaf_size
        self.pts = np.empty((0, dim), dtype=np.float64)
        self.gids = np.empty(0, dtype=np.int64)
        self.next_gid = 0
        self.tree: KDTree | None = None

    def _rebuild(self) -> None:
        if len(self.pts):
            self.tree = KDTree(
                self.pts, split=self.split, leaf_size=self.leaf_size, gids=self.gids
            )
        else:
            self.tree = None

    def insert(self, points) -> np.ndarray:
        pts = as_array(points)
        m = len(pts)
        gids = np.arange(self.next_gid, self.next_gid + m, dtype=np.int64)
        self.next_gid += m
        self.pts = np.vstack([self.pts, pts])
        self.gids = np.concatenate([self.gids, gids])
        self._rebuild()
        return gids

    def erase(self, points) -> int:
        q = as_array(points)
        if len(q) == 0 or len(self.pts) == 0:
            return 0
        from .bdltree import _match_rows

        hit = _match_rows(self.pts, q)
        k = int(np.count_nonzero(hit))
        if k:
            self.pts = self.pts[~hit]
            self.gids = self.gids[~hit]
            self._rebuild()
        return k

    def size(self) -> int:
        return len(self.pts)

    def knn(self, queries, k: int, exclude_self: bool = False):
        if self.tree is None:
            qs = as_array(queries)
            return (
                np.full((len(qs), k), np.inf),
                np.full((len(qs), k), -1, dtype=np.int64),
            )
        return self.tree.knn(queries, k, exclude_self=exclude_self)


class _B2Node:
    """A node of the in-place (B2) tree.

    Leaves hold capacity-doubled numpy buffers — the "separate memory
    buffer at each leaf" the paper describes (and the reason B2's bulk
    construction is slower than B1's).
    """

    __slots__ = ("split_dim", "split_val", "left", "right", "lo", "hi",
                 "count", "buf", "bgids", "balive", "n")

    def __init__(self):
        self.split_dim = -1
        self.split_val = 0.0
        self.left: "_B2Node | None" = None
        self.right: "_B2Node | None" = None
        self.lo: np.ndarray | None = None
        self.hi: np.ndarray | None = None
        self.count = 0  # live points in subtree
        # leaf buffers (None on internal nodes)
        self.buf: np.ndarray | None = None
        self.bgids: np.ndarray | None = None
        self.balive: np.ndarray | None = None
        self.n = 0  # filled slots in the leaf buffers

    @property
    def is_leaf(self) -> bool:
        return self.split_dim < 0

    @property
    def alive(self) -> np.ndarray:
        """Alive flags of the leaf's filled slots (testing/introspection)."""
        return self.balive[: self.n] if self.balive is not None else np.empty(0, bool)

    def leaf_set(self, pts: np.ndarray, gids: np.ndarray) -> None:
        """Initialize leaf storage with the given points."""
        m = len(pts)
        cap = max(8, 2 * m)
        d = pts.shape[1]
        self.buf = np.empty((cap, d))
        self.buf[:m] = pts
        self.bgids = np.empty(cap, dtype=np.int64)
        self.bgids[:m] = gids
        self.balive = np.zeros(cap, dtype=bool)
        self.balive[:m] = True
        self.n = m

    def leaf_extend(self, pts: np.ndarray, gids: np.ndarray) -> None:
        """Append points, doubling capacity as needed."""
        m = len(pts)
        need = self.n + m
        if self.buf is None:
            self.leaf_set(pts, gids)
            return
        if need > len(self.buf):
            cap = max(2 * len(self.buf), need)
            nb = np.empty((cap, self.buf.shape[1]))
            nb[: self.n] = self.buf[: self.n]
            ng = np.empty(cap, dtype=np.int64)
            ng[: self.n] = self.bgids[: self.n]
            na = np.zeros(cap, dtype=bool)
            na[: self.n] = self.balive[: self.n]
            self.buf, self.bgids, self.balive = nb, ng, na
        self.buf[self.n : need] = pts
        self.bgids[self.n : need] = gids
        self.balive[self.n : need] = True
        self.n = need


class InPlaceTree:
    """Baseline B2: direct insertion into the existing structure.

    Initial construction builds a balanced tree (with per-leaf buffers);
    later insertions descend by the existing splits and append to leaf
    buffers, splitting a leaf locally when its buffer overflows — no
    rebalancing ever happens, so incremental construction yields skewed
    trees.  Deletion tombstones matching points.
    """

    def __init__(self, dim: int, split: str = OBJECT_MEDIAN, leaf_size: int = 16):
        self.dim = dim
        self.split = split
        self.leaf_size = leaf_size
        self.root: _B2Node | None = None
        self.next_gid = 0

    # -- construction -------------------------------------------------------
    def _build_node(self, pts: np.ndarray, gids: np.ndarray, depth: int) -> _B2Node:
        node = _B2Node()
        m = len(pts)
        charge(max(m, 1))
        node.lo = pts.min(axis=0)
        node.hi = pts.max(axis=0)
        node.count = m
        if m <= self.leaf_size:
            node.leaf_set(pts, gids)
            return node
        if self.split == SPATIAL_MEDIAN:
            d = int(np.argmax(node.hi - node.lo))
            sv = 0.5 * (float(node.lo[d]) + float(node.hi[d]))
            mask = pts[:, d] <= sv
            if not mask.any() or mask.all():
                d = depth % self.dim
                sv = float(np.median(pts[:, d]))
                mask = pts[:, d] <= sv
                if not mask.any() or mask.all():
                    node.leaf_set(pts, gids)
                    return node
        else:
            d = depth % self.dim
            half = m // 2
            order = np.argpartition(pts[:, d], half)
            sv = float(pts[order[half], d])
            mask = np.zeros(m, dtype=bool)
            mask[order[:half]] = True
        node.split_dim = d
        node.split_val = sv
        node.left = self._build_node(pts[mask], gids[mask], depth + 1)
        node.right = self._build_node(pts[~mask], gids[~mask], depth + 1)
        return node

    # -- updates --------------------------------------------------------------
    def insert(self, points) -> np.ndarray:
        pts = as_array(points)
        m = len(pts)
        gids = np.arange(self.next_gid, self.next_gid + m, dtype=np.int64)
        self.next_gid += m
        if m == 0:
            return gids
        if self.root is None:
            self.root = self._build_node(pts, gids, 0)
            return gids
        # batch descent: partition the batch by each node's existing
        # split (vectorized) and append the groups to the leaves — the
        # same structural result as point-at-a-time insertion, and
        # data-parallel across subtrees like the real B2
        self._insert_batch_rec(self.root, pts, gids)
        return gids

    def _insert_batch_rec(self, node: _B2Node, pts: np.ndarray, gids: np.ndarray) -> None:
        m = len(pts)
        if m == 0:
            return
        charge(max(m, 1))
        node.count += m
        node.lo = np.minimum(node.lo, pts.min(axis=0)) if node.lo is not None else pts.min(axis=0)
        node.hi = np.maximum(node.hi, pts.max(axis=0)) if node.hi is not None else pts.max(axis=0)
        if node.is_leaf:
            # per-leaf grow buffer; no split — see note in _insert_one
            node.leaf_extend(pts, gids)
            return
        mask = pts[:, node.split_dim] <= node.split_val
        from ..parlay.workdepth import fork_costs

        fork_costs(
            [
                lambda: self._insert_batch_rec(node.left, pts[mask], gids[mask]),
                lambda: self._insert_batch_rec(node.right, pts[~mask], gids[~mask]),
            ]
        )

    def _insert_one(self, p: np.ndarray, gid: int) -> None:
        node = self.root
        assert node is not None
        charge(1, 1)
        while not node.is_leaf:
            charge(1, 1)
            node.count += 1
            node.lo = np.minimum(node.lo, p)
            node.hi = np.maximum(node.hi, p)
            node = node.left if p[node.split_dim] <= node.split_val else node.right
        node.count += 1
        node.lo = np.minimum(node.lo, p) if node.lo is not None else p.copy()
        node.hi = np.maximum(node.hi, p) if node.hi is not None else p.copy()
        node.leaf_extend(p[None, :], np.array([gid], dtype=np.int64))
        # NOTE: no leaf split — B2 "inserts points directly into the
        # existing tree structure without recalculating the splits"
        # (paper §6.3).  Leaves grow unboundedly, which is precisely why
        # incrementally-built B2 trees answer k-NN slowly (Fig. 14).

    def split_leaf(self, node: _B2Node) -> None:
        """Optional local leaf split (not used by default — the paper's
        B2 never restructures; exposed for experimentation)."""
        return self._split_leaf(node)

    def _split_leaf(self, node: _B2Node) -> None:
        alive = node.balive[: node.n]
        pts = node.buf[: node.n][alive]
        gids = node.bgids[: node.n][alive]
        if len(pts) < 2:
            return
        d = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        sv = float(np.median(pts[:, d]))
        mask = pts[:, d] <= sv
        if not mask.any() or mask.all():
            return  # cannot split (duplicates); stay a big leaf
        charge(len(pts))
        node.split_dim = d
        node.split_val = sv
        left, right = _B2Node(), _B2Node()
        for child, cmask in ((left, mask), (right, ~mask)):
            sub_p = pts[cmask]
            child.leaf_set(sub_p, gids[cmask])
            child.lo = sub_p.min(axis=0)
            child.hi = sub_p.max(axis=0)
            child.count = len(sub_p)
        node.left, node.right = left, right
        node.count = left.count + right.count
        node.buf = node.bgids = node.balive = None
        node.n = 0

    def erase(self, points) -> int:
        """Tombstone matching points; no structural change."""
        q = as_array(points)
        if self.root is None or len(q) == 0:
            return 0
        return self._erase_rec(self.root, q)

    def _erase_rec(self, node: _B2Node, q: np.ndarray) -> int:
        charge(max(len(q), 1))
        if node.is_leaf:
            if node.n == 0:
                return 0
            from .bdltree import _match_rows

            pts = node.buf[: node.n]
            alive = node.balive[: node.n]
            hit = _match_rows(pts, q) & alive
            k = int(np.count_nonzero(hit))
            if k:
                alive[hit] = False
                node.count -= k
            return k
        d, sv = node.split_dim, node.split_val
        ql = q[q[:, d] <= sv]
        qr = q[q[:, d] >= sv]
        # the two subtrees tombstone independently (fork-join)
        from ..parlay.workdepth import fork_costs

        tasks = []
        if len(ql) and node.left is not None:
            tasks.append(lambda: self._erase_rec(node.left, ql))
        if len(qr) and node.right is not None:
            tasks.append(lambda: self._erase_rec(node.right, qr))
        k = sum(fork_costs(tasks)) if tasks else 0
        node.count -= k
        return k

    def size(self) -> int:
        return self.root.count if self.root is not None else 0

    # -- queries --------------------------------------------------------------
    def _knn_one(self, node: _B2Node, p: np.ndarray, buf: KNNBuffer) -> None:
        charge(1, 1)
        if node.count == 0:
            return
        if node.is_leaf:
            if node.n:
                alive = node.balive[: node.n]
                pts = node.buf[: node.n][alive]
                gids = node.bgids[: node.n][alive]
                if len(pts):
                    charge(len(pts) * self.dim)
                    buf.insert_batch(dist_sq(pts, p), gids)
            return
        first, second = (
            (node.left, node.right)
            if p[node.split_dim] <= node.split_val
            else (node.right, node.left)
        )
        if first is not None:
            self._knn_one(first, p, buf)
        if second is None or second.count == 0:
            return
        if not buf.full():
            self._knn_one(second, p, buf)
            return
        if box_dist_sq(second.lo, second.hi, p, p) < buf.bound:
            self._knn_one(second, p, buf)

    def knn(self, queries, k: int, exclude_self: bool = False):
        qs = as_array(queries)
        m = len(qs)
        kk = k + 1 if exclude_self else k
        dists = np.full((m, k), np.inf)
        ids = np.full((m, k), -1, dtype=np.int64)
        if self.root is None:
            return dists, ids
        sched = get_scheduler()
        blocks = query_blocks(m, grain=64)
        buffers = [KNNBuffer(kk) for _ in range(m)]

        def run_block(b):
            lo, hi = blocks[b]
            for i in range(lo, hi):
                self._knn_one(self.root, qs[i], buffers[i])

        sched.parallel_for(len(blocks), run_block)
        from ..kdtree.knn import extract_knn_results

        return extract_knn_results(buffers, k, exclude_self)

    def height(self) -> int:
        def h(n: _B2Node | None) -> int:
            if n is None:
                return 0
            if n.is_leaf:
                return 1
            return 1 + max(h(n.left), h(n.right))

        return h(self.root)
