"""Incrementally maintained DBSCAN labels over a batch-dynamic index.

The view keeps, per mirror row, the exact closed eps-ball population
``ncount`` (so core status is a threshold check), a component id in a
growing union-find space for core rows (merging reuses the repo's
:class:`~repro.emst.unionfind.UnionFind`), and for border rows an
*anchor* — the smallest-gid core neighbor, which is precisely the core
point :func:`repro.clustering.dbscan.dbscan` lets a border point adopt
its label from.

Every neighborhood comes from the view's :class:`~repro.views.base.Grid`
(cell width eps * (1 + 1/1024)), which the view's apply calls keep
current in place, batch by batch.  Each repair step asks one batched
closed-ball query and gets flat ``(rows, offsets)`` arrays back; neighbor
counts, core flips, component edges and anchors are all computed from
those arrays, with no per-row Python loop.  A batch only re-examines
points whose eps-neighborhood changed:

* **insert** — ball queries centered at the inserted points update the
  neighbor counts of exactly the rows inside those balls; rows whose
  count crosses ``min_pts`` flip to core; new cores (inserted or
  flipped) get fresh components and union with their core neighbors.
  Existing component edges never break (no distance changed, no point
  left), so untouched components carry over verbatim.
* **erase** — symmetric count updates; components that lost a member
  or a core flip are *broken* and their surviving cores re-cluster
  from fresh singletons, while every unbroken component is provably
  intact (its members and pairwise distances are untouched).

The answer is built on read, at most once per version: a mutation only
drops the previous tuple.  Labels come out in canonical form —
components numbered by first appearance scanning rows in ascending gid
order, borders adopting their anchor's label — which is exactly the
numbering ``dbscan()`` produces on the gid-sorted live set, so the view
answer is identical to the from-scratch reference
:meth:`DBSCANView.compute`.

Ball membership is ``pairs_d2 <= eps**2``; in 2D that is bitwise the
einsum the kd-tree range search evaluates, so grid repair queries and
the tree queries the reference runs agree point-for-point.
"""

from __future__ import annotations

import numpy as np

from ..clustering.dbscan import dbscan
from ..emst.unionfind import UnionFind
from ..parlay.workdepth import charge
from .base import Grid, MaterializedView, Mirror

__all__ = ["DBSCANView"]


class DBSCANView(MaterializedView):
    """Materialized DBSCAN labels ``(gids_sorted, labels)`` tuples."""

    kind = "dbscan"

    def __init__(self, name: str, *, eps: float, min_pts: int):
        super().__init__(name)
        self.eps = float(eps)
        self.min_pts = int(min_pts)
        self._eps2 = float(eps) ** 2
        # per mirror row (grown lazily alongside the mirror):
        self._ncount = np.zeros(0, dtype=np.int64)
        self._core = np.zeros(0, dtype=bool)
        self._comp = np.full(0, -1, dtype=np.int64)   # uf slot per core row
        self._anchor = np.full(0, -1, dtype=np.int64)  # min-gid core nb row
        self._uf = UnionFind(0)
        self._uf_used = 0
        self._mirror: Mirror | None = None
        self._answer: tuple | None = None  # this version's tuple, once read
        #: canonical tuples built so far (at most one per version)
        self.answer_builds = 0

    @property
    def answer(self) -> tuple | None:
        """``(gids, labels)`` at ``version``, built on its first read."""
        if self._answer is None and self._mirror is not None:
            self._answer = self._derive_answer()
            self.answer_builds += 1
        return self._answer

    # ------------------------------------------------------------------
    # canonical from-scratch reference
    # ------------------------------------------------------------------
    @classmethod
    def compute(cls, pts: np.ndarray, gids: np.ndarray, *,
                eps: float, min_pts: int) -> tuple:
        """``((gid, ...), (label, ...))`` over gid-ascending live points."""
        gids = np.asarray(gids, dtype=np.int64)
        order = np.argsort(gids)
        labels = dbscan(
            np.ascontiguousarray(pts, dtype=np.float64)[order],
            eps, min_pts,
        )
        return (
            tuple(int(g) for g in gids[order]),
            tuple(int(v) for v in labels),
        )

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _grow(self, n: int) -> None:
        add = n - len(self._ncount)
        if add <= 0:
            return
        self._ncount = np.concatenate(
            [self._ncount, np.zeros(add, dtype=np.int64)])
        self._core = np.concatenate([self._core, np.zeros(add, dtype=bool)])
        self._comp = np.concatenate(
            [self._comp, np.full(add, -1, dtype=np.int64)])
        self._anchor = np.concatenate(
            [self._anchor, np.full(add, -1, dtype=np.int64)])

    def _fresh_slots(self, k: int) -> np.ndarray:
        need = self._uf_used + k
        if need > len(self._uf.parent):
            cap = max(16, 2 * len(self._uf.parent), need)
            nxt = UnionFind(cap)
            nxt.parent[: self._uf_used] = self._uf.parent[: self._uf_used]
            nxt.rank[: self._uf_used] = self._uf.rank[: self._uf_used]
            self._uf = nxt
        slots = np.arange(self._uf_used, need, dtype=np.int64)
        self._uf_used = need
        return slots

    def _balls(self, mirror: Mirror, rows: np.ndarray):
        """Closed eps-balls of ``rows`` as edges ``(src, dst, counts)``.

        ``dst`` lists each ball's live rows (ascending), ``src`` the
        center row of each entry, ``counts`` each ball's size.
        """
        hits, offs = self.grid.balls(mirror.pts, mirror.pts[rows], self._eps2)
        counts = np.diff(offs)
        return np.repeat(rows, counts), hits, counts

    def _roots(self, slots: np.ndarray) -> np.ndarray:
        """Vectorized union-find roots (no path compression)."""
        p = self._uf.parent
        r = np.asarray(slots, dtype=np.int64)
        while True:
            pr = p[r]
            if np.array_equal(pr, r):
                return r
            r = pr

    def _union(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Union the components of every core-core ball edge."""
        charge(max(len(src), 1))
        e = self._core[dst]
        a = self._roots(self._comp[src[e]])
        b = self._roots(self._comp[dst[e]])
        diff = a != b
        if not diff.any():
            return
        # one union call per distinct pair of components, not per edge
        key = np.unique(a[diff] * self._uf_used + b[diff])
        for x, y in zip((key // self._uf_used).tolist(),
                        (key % self._uf_used).tolist()):
            self._uf.union(x, y)

    def _recluster(self, rows: np.ndarray, src: np.ndarray,
                   dst: np.ndarray) -> None:
        """Fresh components for an edge-closed set of core ``rows``.

        ``rows`` must contain every core reachable from any of its
        members (true for all broken components together, and for the
        full core set on rebuild), and ``src``/``dst`` hold the ball
        edges of at least every member, so the core-core edges among
        them describe the whole subgraph.  Connected components
        come from vectorized min-label propagation with pointer jumping
        — O(edges * log diameter) array work.
        """
        m = len(rows)
        if m == 0:
            return
        e = self._core[src] & self._core[dst]
        pos = np.full(len(self._comp), -1, dtype=np.int64)
        pos[rows] = np.arange(m)
        ei, ej = pos[src[e]], pos[dst[e]]
        charge(len(ei) + m)
        labels = np.arange(m)
        while True:
            new = labels.copy()
            # balls are symmetric and rows edge-closed: every edge
            # appears in both orientations, one scatter covers both
            np.minimum.at(new, ei, labels[ej])
            new = np.minimum(new, new[new])
            if np.array_equal(new, labels):
                break
            labels = new
        uniq, inverse = np.unique(labels, return_inverse=True)
        self._comp[rows] = self._fresh_slots(len(uniq))[inverse]

    def _reanchor(self, rows: np.ndarray, src: np.ndarray, dst: np.ndarray,
                  gids: np.ndarray) -> None:
        """Anchor of each non-core row in ``rows`` := the row of its
        min-gid core neighbor (or -1); ``src``/``dst`` hold their balls."""
        self._anchor[rows] = -1
        e = ~self._core[src] & self._core[dst]
        s, d = src[e], dst[e]
        if len(s) == 0:
            return
        # stable: among equal gids the lowest row wins, as in argmin
        order = np.lexsort((gids[d], s))
        s, d = s[order], d[order]
        first = np.ones(len(s), dtype=bool)
        first[1:] = s[1:] != s[:-1]
        self._anchor[s[first]] = d[first]

    # ------------------------------------------------------------------
    # the answer, built on read
    # ------------------------------------------------------------------
    def _derive_answer(self) -> tuple:
        mirror = self._mirror
        rows = mirror.live_rows()
        rows = rows[np.argsort(mirror.gids[rows])]
        charge(max(len(rows), 1))
        labels = np.full(len(rows), -1, dtype=np.int64)
        core = self._core[rows]
        if core.any():
            # components numbered by first appearance in gid order
            roots = self._roots(self._comp[rows[core]])
            _, first, inv = np.unique(
                roots, return_index=True, return_inverse=True)
            rank = np.empty(len(first), dtype=np.int64)
            rank[np.argsort(first)] = np.arange(len(first))
            labels[core] = rank[inv]
            by_row = np.full(len(self._core), -1, dtype=np.int64)
            by_row[rows[core]] = labels[core]
            a = self._anchor[rows[~core]]
            labels[~core] = np.where(a >= 0, by_row[a], -1)
        return (tuple(mirror.gids[rows].tolist()), tuple(labels.tolist()))

    # ------------------------------------------------------------------
    # state (re)build
    # ------------------------------------------------------------------
    def _rebuild(self, mirror: Mirror) -> None:
        self._mirror, self._answer = mirror, None
        self._grow(len(mirror.gids))
        self._core[:] = False
        self._comp[:] = -1
        self._anchor[:] = -1
        self._uf = UnionFind(0)
        self._uf_used = 0
        rows = mirror.live_rows()
        self.grid = Grid(self.eps * (1.0 + 1.0 / 1024.0), mirror.dim)
        self.grid.insert(mirror.pts, rows)
        src, dst, counts = self._balls(mirror, rows)
        self._ncount[rows] = counts
        self._core[rows] = counts >= self.min_pts
        self._recluster(rows[self._core[rows]], src, dst)
        self._reanchor(rows[~self._core[rows]], src, dst, mirror.gids)

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def _repair_insert(self, mirror: Mirror, rows: np.ndarray) -> None:
        self.note_repair()
        self._mirror, self._answer = mirror, None
        self._grow(len(mirror.gids))
        src, dst, counts = self._balls(mirror, rows)

        # 1. neighbor counts: each inserted point adds one to every row
        #    inside its ball; inserted rows take their full ball size
        touched, add = np.unique(dst, return_counts=True)
        old = ~np.isin(touched, rows)
        old_touched = touched[old]
        self._ncount[old_touched] += add[old]
        self._ncount[rows] = counts

        # 2. core flips (insert only raises counts: flips are on-only)
        was_core = self._core[old_touched]
        self._core[touched] = self._ncount[touched] >= self.min_pts
        flip_on = old_touched[~was_core & self._core[old_touched]]

        # 3. components: fresh singletons for new cores, then union with
        #    every core neighbor; old edges all survive untouched
        new_cores = np.concatenate([rows[self._core[rows]], flip_on])
        self._comp[new_cores] = self._fresh_slots(len(new_cores))
        fsrc, fdst, _ = self._balls(mirror, flip_on)
        ins = self._core[src]
        esrc = np.concatenate([src[ins], fsrc])
        edst = np.concatenate([dst[ins], fdst])
        self._union(esrc, edst)

        # 4. anchors: a border row's min-gid core neighbor can only
        #    change through a member of new_cores entering its ball
        self._anchor[new_cores] = -1
        e = ~self._core[edst]
        c, b = esrc[e], edst[e]
        if len(b):
            g = mirror.gids[c]
            order = np.lexsort((g, b))
            c, b, g = c[order], b[order], g[order]
            first = np.ones(len(b), dtype=bool)
            first[1:] = b[1:] != b[:-1]
            c, b, g = c[first], b[first], g[first]
            cur = self._anchor[b]
            better = (cur < 0) | (g < mirror.gids[np.maximum(cur, 0)])
            self._anchor[b[better]] = c[better]
        # inserted non-core rows need a full scan of their own ball
        self._reanchor(rows[~self._core[rows]], src, dst, mirror.gids)

    def _repair_erase(self, mirror: Mirror, rows: np.ndarray) -> None:
        self.note_repair()
        self._mirror, self._answer = mirror, None
        src, dst, _ = self._balls(mirror, rows)  # post-update live set

        # 1. broken components: any component that lost a core member,
        #    found before counts move the flips
        broken = [self._roots(self._comp[rows[self._core[rows]]])]

        # 2. neighbor counts drop by the killed multiplicity
        touched, sub = np.unique(dst, return_counts=True)
        self._ncount[touched] -= sub

        # 3. core flips (erase only lowers counts: flips are off-only)
        was_core = self._core[touched]
        self._core[touched] = self._ncount[touched] >= self.min_pts
        flip_off = touched[was_core & ~self._core[touched]]
        broken.append(self._roots(self._comp[flip_off]))
        broken = np.unique(np.concatenate(broken))
        self._comp[flip_off] = -1
        self._core[rows] = False
        self._comp[rows] = -1

        # 4. re-cluster the surviving cores of broken components from
        #    fresh singletons; unbroken components kept no secrets —
        #    same members, same distances — and carry over as-is
        if len(broken):
            live_cores = np.flatnonzero(self._comp >= 0)
            affected = live_cores[np.isin(
                self._roots(self._comp[live_cores]), broken)]
            asrc, adst, _ = self._balls(mirror, affected)
            self._recluster(affected, asrc, adst)

        # 5. anchors: stale only where the anchor itself died or
        #    un-cored — both within eps of the border, so inside the
        #    balls of the killed and flipped-off rows; flipped-off rows
        #    become borders and need their own
        _, fdst, _ = self._balls(mirror, flip_off)
        near = np.unique(np.concatenate([dst, fdst]))
        a = self._anchor[near]
        gone = np.concatenate([rows, flip_off])
        stale = near[~self._core[near] & (a >= 0) & np.isin(a, gone)]
        need = np.union1d(flip_off, stale)
        nsrc, ndst, _ = self._balls(mirror, need)
        self._reanchor(need, nsrc, ndst, mirror.gids)
