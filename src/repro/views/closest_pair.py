"""Batch-dynamic closest-pair view (sparse-partition style).

Follows the structure of Wang, Yu, Gu & Shun's parallel batch-dynamic
closest pair: the view keeps exactly the live rows bucketed in a
:class:`~repro.views.base.Grid` (inserted and erased in place with each
batch) whose cell width ``w`` satisfies the **sparse-partition
invariant** ``w^2 >= answer_d2`` — every pair that could beat (or tie)
the current answer has per-coordinate extent at most ``w`` and
therefore lies in the same or an adjacent cell.  A batch insert then
repairs the answer with one batched ball query of radius
``sqrt(answer_d2)`` around the batch, which scans only the ``3^d``
neighborhoods of the cells the batch touched; a batch erase that keeps both
answer endpoints alive is free (deleting points can only *remove*
pairs, so the surviving minimum is unchanged); an erase that kills an
endpoint falls back to a counted from-scratch recompute, which also
re-tightens the grid.

The answer is canonical: the lexicographically smallest ``(d2, gi,
gj)`` (``gi < gj`` by global id) over all live pairs, with every
distance evaluated by :func:`~repro.core.distance.dist_sq` — so the
incremental path, the fallback, and the from-scratch reference
:meth:`ClosestPairView.compute` agree bitwise, ties included.
"""

from __future__ import annotations

import numpy as np

from ..closestpair.divide_conquer import _rec
from ..core.distance import dist_sq
from ..parlay.workdepth import charge
from .base import Grid, MaterializedView, Mirror

__all__ = ["ClosestPairView"]


def _lex_min(a, b):
    """Smaller of two (d2, gi, gj) answers (None = no pair)."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def _pair_key(d2: float, ga: int, gb: int) -> tuple:
    return (float(d2), min(int(ga), int(gb)), max(int(ga), int(gb)))


def _duplicate_answer(pts: np.ndarray, gids: np.ndarray):
    """Canonical zero-distance answer: lex-min over duplicate groups."""
    view = np.ascontiguousarray(pts).view(
        [("", pts.dtype)] * pts.shape[1]
    ).ravel()
    order = np.argsort(view, kind="stable")
    sv = view[order]
    best = None
    start = 0
    for i in range(1, len(sv) + 1):
        if i == len(sv) or sv[i] != sv[start]:
            if i - start >= 2:
                g = np.sort(gids[order[start:i]])
                best = _lex_min(best, _pair_key(0.0, g[0], g[1]))
            start = i
    return best


class ClosestPairView(MaterializedView):
    """Materialized closest pair over one batch-dynamic index."""

    kind = "closest_pair"

    # ------------------------------------------------------------------
    # canonical from-scratch reference
    # ------------------------------------------------------------------
    @classmethod
    def compute(cls, pts: np.ndarray, gids: np.ndarray):
        """The canonical answer for a live set: ``(d2, gi, gj)`` or None."""
        if len(pts) < 2:
            return None
        pts = np.ascontiguousarray(pts, dtype=np.float64)
        answer, _grid = cls._canonical(
            pts, np.asarray(gids, dtype=np.int64),
            np.arange(len(pts), dtype=np.int64),
        )
        return answer

    @classmethod
    def _canonical(cls, pts: np.ndarray, gids: np.ndarray, rows: np.ndarray):
        """(answer, grid over ``rows``) from scratch.

        Uses the repo's divide-and-conquer closest pair for ``r2``, the
        :func:`dist_sq` of an actual live pair, so the canonical minimum
        is at most ``r2``; then canonicalizes: one batched ball query
        on a grid of width just above ``sqrt(r2)`` collects every pair
        within ``r2``, and the answer is their lexicographic minimum.
        """
        n = len(rows)
        answer, w = None, 1.0
        if n >= 2:
            sub = pts[rows]
            r2, _i, _j = _rec(sub, np.arange(n, dtype=np.int64), 0, False)
            if r2 == 0.0:
                answer = _duplicate_answer(sub, gids[rows])
            else:
                w = float(np.nextafter(np.sqrt(r2), np.inf))
        grid = Grid(w, pts.shape[1])
        grid.insert(pts, rows)
        if answer is None and n >= 2:
            answer = cls._best_within(pts, gids, grid, rows, r2)
        return answer, grid

    @classmethod
    def _best_within(cls, pts, gids, grid: Grid, rows, cutoff):
        """Lex-min pair ``(row, other)`` with d2 <= cutoff over ``rows``."""
        hits, offs = grid.balls(pts, pts[rows], cutoff)
        src = np.repeat(rows, np.diff(offs))
        other = src != hits
        return cls._best_of(pts, gids, src[other], hits[other], cutoff)

    @staticmethod
    def _best_of(pts, gids, rows_a, rows_b, cutoff):
        """Lex-min (d2, gi, gj) among row pairs with d2 <= cutoff."""
        if len(rows_a) == 0:
            return None
        charge(len(rows_a))
        d2 = dist_sq(pts[rows_a], pts[rows_b])
        keep = d2 <= cutoff
        if not keep.any():
            return None
        d2 = d2[keep]
        ga = gids[rows_a[keep]]
        gb = gids[rows_b[keep]]
        lo = np.minimum(ga, gb)
        hi = np.maximum(ga, gb)
        k = np.lexsort((hi, lo, d2))[0]
        return _pair_key(d2[k], lo[k], hi[k])

    # ------------------------------------------------------------------
    # state (re)build
    # ------------------------------------------------------------------
    def _rebuild(self, mirror: Mirror) -> None:
        self.answer, self.grid = self._canonical(
            mirror.pts, mirror.gids, mirror.live_rows())

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def _repair_insert(self, mirror: Mirror, rows: np.ndarray) -> None:
        if mirror.n_live() < 2:
            return
        if self.answer is None:
            # fewer than 2 points before: nothing to repair against, and
            # the grid's cell width may be left over from an older state
            self.note_recompute()
            self._rebuild(mirror)
            return
        self.note_repair()
        # the grid already holds the batch; <= cutoff keeps ties, which
        # may be lexicographically smaller
        self.answer = _lex_min(self.answer, self._best_within(
            mirror.pts, mirror.gids, self.grid, rows, self.answer[0]))

    def _repair_erase(self, mirror: Mirror, rows: np.ndarray) -> None:
        if mirror.n_live() < 2:
            self.answer = None
            self.note_repair()
            return
        a = self.answer
        if a is not None and a[1] in mirror.row_of and a[2] in mirror.row_of:
            # both endpoints survive: erasing only removes pairs, so the
            # previous lexicographic minimum still wins
            self.note_repair()
            return
        self.note_recompute()
        self._rebuild(mirror)
