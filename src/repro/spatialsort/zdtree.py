"""A Morton-ordered batch-dynamic tree (Zd-tree stand-in, paper §6.3).

Blelloch & Dobson's Zd-tree couples a kd-tree with the Morton ordering:
the structure *is* the sorted code array, nodes are contiguous ranges
split by code bits, and batch updates are merges into the sorted order.
We implement that design: construction = parallel Morton sort; batch
insert/delete = sorted merges/filters (cheap — the property the paper's
comparison highlights); k-NN = implicit traversal of the code-bit tree
with grid-cell pruning.

Only low dimensions are practical (code bits per dimension shrink as d
grows) — matching the real Zd-tree's 2-/3-d restriction.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import box_dist_sq, dist_sq
from ..core.points import as_array
from ..kdtree.knnbuffer import KNNBuffer
from ..parlay.scheduler import get_scheduler
from ..parlay.primitives import query_blocks
from ..parlay.workdepth import charge

__all__ = ["ZdTree"]

_LEAF = 32


class ZdTree:
    """Batch-dynamic point structure ordered by Morton code."""

    def __init__(self, dim: int, bounds_lo=None, bounds_hi=None, bits: int | None = None):
        if dim > 7:
            raise ValueError("ZdTree supports d <= 7 (Morton bits run out)")
        self.dim = dim
        self.bits = bits if bits is not None else max(1, 62 // dim)
        # fixed quantization frame; defaults resolve on first insert
        self._lo = None if bounds_lo is None else np.asarray(bounds_lo, dtype=np.float64)
        self._hi = None if bounds_hi is None else np.asarray(bounds_hi, dtype=np.float64)
        self.pts = np.empty((0, dim), dtype=np.float64)
        self.gids = np.empty(0, dtype=np.int64)
        self.codes = np.empty(0, dtype=np.uint64)
        self.next_gid = 0

    # -- quantization ---------------------------------------------------------
    def _ensure_frame(self, pts: np.ndarray) -> None:
        if self._lo is None:
            lo = pts.min(axis=0)
            hi = pts.max(axis=0)
            pad = 0.5 * np.where(hi > lo, hi - lo, 1.0)
            self._lo = lo - pad
            self._hi = hi + pad

    def _code(self, pts: np.ndarray) -> np.ndarray:
        scale = (1 << self.bits) - 1
        span = self._hi - self._lo
        q = np.clip((pts - self._lo) / span * scale, 0, scale).astype(np.uint64)
        charge(len(pts) * self.bits * self.dim)
        codes = np.zeros(len(pts), dtype=np.uint64)
        for b in range(self.bits):
            for j in range(self.dim):
                codes |= ((q[:, j] >> np.uint64(b)) & np.uint64(1)) << np.uint64(
                    b * self.dim + j
                )
        return codes

    # -- updates --------------------------------------------------------------
    def insert(self, points) -> np.ndarray:
        pts = as_array(points)
        m = len(pts)
        gids = np.arange(self.next_gid, self.next_gid + m, dtype=np.int64)
        self.next_gid += m
        if m == 0:
            return gids
        self._ensure_frame(pts)
        codes = self._code(pts)
        order = np.argsort(codes, kind="stable")
        charge(m * max(np.log2(max(m, 2)), 1))
        pts, gids_s, codes = pts[order], gids[order], codes[order]
        # merge into the existing sorted order
        pos = np.searchsorted(self.codes, codes, side="right")
        charge(len(self.codes) + m)
        self.pts = np.insert(self.pts, pos, pts, axis=0)
        self.gids = np.insert(self.gids, pos, gids_s)
        self.codes = np.insert(self.codes, pos, codes)
        return gids

    def erase(self, points) -> int:
        q = as_array(points)
        if len(q) == 0 or len(self.pts) == 0:
            return 0
        self._ensure_frame(q)
        codes = self._code(q)
        charge(len(q) * max(np.log2(max(len(self.codes), 2)), 1))
        kill = np.zeros(len(self.pts), dtype=bool)
        for c, row in zip(codes, q):
            lo = int(np.searchsorted(self.codes, c, side="left"))
            hi = int(np.searchsorted(self.codes, c, side="right"))
            for i in range(lo, hi):
                if not kill[i] and np.all(self.pts[i] == row):
                    kill[i] = True
        k = int(np.count_nonzero(kill))
        if k:
            keep = ~kill
            self.pts = self.pts[keep]
            self.gids = self.gids[keep]
            self.codes = self.codes[keep]
        return k

    def size(self) -> int:
        return len(self.pts)

    # -- k-NN -------------------------------------------------------------------
    def _knn_rec(self, lo: int, hi: int, level: int, prefix: int,
                 cell_lo: np.ndarray, cell_hi: np.ndarray,
                 q: np.ndarray, buf: KNNBuffer) -> None:
        charge(1, 1)
        if hi - lo <= _LEAF or level < 0:
            seg = self.pts[lo:hi]
            charge(max(hi - lo, 1) * self.dim)
            buf.insert_batch(dist_sq(seg, q), self.gids[lo:hi])
            return
        dim_j = level % self.dim
        boundary = np.uint64(prefix | (1 << level))
        mid = lo + int(np.searchsorted(self.codes[lo:hi], boundary, side="left"))
        midval = 0.5 * (cell_lo[dim_j] + cell_hi[dim_j])
        lo_hi = cell_hi.copy(); lo_hi[dim_j] = midval
        hi_lo = cell_lo.copy(); hi_lo[dim_j] = midval
        children = [
            (lo, mid, prefix, cell_lo, lo_hi),
            (mid, hi, prefix | (1 << level), hi_lo, cell_hi),
        ]
        # visit the child containing q first
        if q[dim_j] > midval:
            children.reverse()
        # cells are derived by float halving while codes come from a
        # multiply-quantize; inflate cells a hair so 1-ulp disagreements
        # at cell boundaries can never prune the true neighbor
        margin = 1e-9 * float(np.max(self._hi - self._lo))
        for (clo, chi, cpfx, cl, ch) in children:
            if chi <= clo:
                continue
            gap2 = box_dist_sq(cl - margin, ch + margin, q, q)
            if buf.full() and gap2 >= buf.bound:
                continue
            self._knn_rec(clo, chi, level - 1, cpfx, cl, ch, q, buf)

    def knn(self, queries, k: int, exclude_self: bool = False):
        qs = as_array(queries)
        m = len(qs)
        kk = k + 1 if exclude_self else k
        dists = np.full((m, k), np.inf)
        ids = np.full((m, k), -1, dtype=np.int64)
        if len(self.pts) == 0:
            return dists, ids
        top = self.bits * self.dim - 1
        sched = get_scheduler()
        blocks = query_blocks(m, grain=64)
        buffers = [KNNBuffer(kk) for _ in range(m)]

        def run_block(b):
            blo, bhi = blocks[b]
            for i in range(blo, bhi):
                self._knn_rec(
                    0, len(self.pts), top, 0, self._lo.copy(), self._hi.copy(),
                    qs[i], buffers[i],
                )

        sched.parallel_for(len(blocks), run_block)
        from ..kdtree.knn import extract_knn_results

        return extract_knn_results(buffers, k, exclude_self)
