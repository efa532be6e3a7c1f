"""Shared machinery of materialized views: mirror + repair protocol.

A :class:`MaterializedView` owns a derived answer over the live point
set of one batch-dynamic index, maintained *incrementally*: the
:class:`~repro.views.manager.ViewManager` calls :meth:`apply_insert` /
:meth:`apply_erase` after each effective batch mutation, handing the
view the rows that changed, and the view either repairs its state in
place (cheap, counted in ``repairs``) or falls back to a from-scratch
recompute (counted in ``recomputes`` — the trigger is always counted,
never silent).

The correctness contract every view obeys — and the hypothesis suite
asserts — is **canonical equality**: after any sequence of batches,
``view.answer`` is bitwise-equal to ``type(view).compute(pts, gids,
...)`` over the live mirror.  ``compute`` is the from-scratch reference
(also what :func:`repro.serve.trace.run_unbatched` uses as the
recompute baseline), so an incrementally maintained view can never
drift from what a cold recompute would return.

Views that need exact neighbourhoods share one :class:`Grid`: a uniform
grid over mirror rows that the view's ``apply_insert`` / ``apply_erase``
maintain in place, batch by batch, and that answers a whole batch of
closed-ball queries in one vectorized pass.
"""

from __future__ import annotations

import numpy as np

from ..parlay.workdepth import charge

__all__ = ["Grid", "MaterializedView", "Mirror", "pairs_d2"]

#: centers per candidate-expansion chunk in :meth:`Grid.balls`: a dense
#: neighbourhood holds a few hundred candidates per center, so expanding
#: every center of a large batch at once would hold the whole candidate
#: set in memory; chunking keeps peak memory flat in the batch size
_BALL_CHUNK = 128

#: cells are trusted only where ``|coord / w|`` stays below this: there
#: the division's rounding stays far inside the DBSCAN view's 1/1024
#: width margin; a row beyond it (or with a non-finite quotient) is
#: scanned, not bucketed
_FAR = 1e12


def pairs_d2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise squared distances, one canonical evaluation everywhere.

    Every distance that can reach a view answer — incremental repair,
    recompute fallback, and the from-scratch reference — goes through
    this one expression, so equal point pairs always produce the same
    float64 bit pattern regardless of which path computed them.  The
    squares are summed coordinate by coordinate, left to right (the
    order ``(d * d).sum(axis=1)`` takes, at a fraction of its cost on
    two or three columns).
    """
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    d *= d
    out = d[:, 0].copy()
    for j in range(1, d.shape[1]):
        out += d[:, j]
    return out


def _unique_rows(a: np.ndarray):
    """``(distinct rows of a, inverse)`` — ``np.unique(axis=0)``, faster."""
    order = np.lexsort(a.T[::-1])
    s = a[order]
    first = np.ones(len(s), dtype=bool)
    first[1:] = np.any(s[1:] != s[:-1], axis=1)
    inv = np.empty(len(a), dtype=np.int64)
    inv[order] = np.cumsum(first) - 1
    return s[first], inv


def _ragged_arange(sizes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i] + sizes[i])``."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - (ends - sizes), sizes) + np.arange(ends[-1])


class Grid:
    """Uniform grid of mirror rows, cell width ``w``, maintained in place.

    ``cells`` maps a cell ``floor(p / w)`` (a tuple of ints) to the
    ascending array of the rows inside it; :meth:`insert` and
    :meth:`erase` touch only the cells of their batch.  Rows whose
    ``|p / w|`` reaches 1e12 (or is not finite) are held in ``far``
    instead: their cell is not trusted, so while any is held — and when
    3^d cell lookups would rival scanning every row — :meth:`balls`
    scans every held row.  Either way membership is decided by the one
    exact ``pairs_d2(row, center) <= r2`` predicate, so the answer is
    bitwise the brute scan's.
    """

    def __init__(self, w: float, dim: int):
        self.w = float(w)
        self.cells: dict[tuple, np.ndarray] = {}
        self.far = np.empty(0, dtype=np.int64)
        self._n = 0
        self._offsets = np.stack(
            np.meshgrid(*([np.arange(-1, 2)] * dim), indexing="ij"),
            axis=-1,
        ).reshape(-1, dim)

    def __len__(self) -> int:
        return self._n

    def rows(self) -> np.ndarray:
        """Every held row, ascending."""
        return np.sort(np.concatenate([self.far, *self.cells.values()]))

    def _locate(self, pts: np.ndarray):
        """(near mask, cells of the near points)."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = np.asarray(pts, dtype=np.float64) / self.w
            near = np.all(np.abs(u) < _FAR, axis=1)
        return near, np.floor(u[near]).astype(np.int64)

    def _by_cell(self, pts: np.ndarray, rows: np.ndarray):
        """Split ``rows`` into far rows and ``{cell: ascending rows}``."""
        rows = np.asarray(rows, dtype=np.int64)
        near, cells = self._locate(pts[rows])
        rows_near = rows[near]
        groups = {}
        if len(rows_near):
            uniq, inv = _unique_rows(cells)
            order = np.argsort(inv, kind="stable")
            bounds = np.cumsum(np.bincount(inv, minlength=len(uniq)))
            for key, part in zip(map(tuple, uniq.tolist()),
                                 np.split(rows_near[order], bounds[:-1])):
                groups[key] = np.sort(part)
        return rows[~near], groups

    def insert(self, pts: np.ndarray, rows: np.ndarray) -> None:
        """Add ``rows`` (indices into ``pts``)."""
        far, groups = self._by_cell(pts, rows)
        charge(max(len(rows), 1))
        if len(far):
            self.far = np.union1d(self.far, far)
        for key, part in groups.items():
            old = self.cells.get(key)
            self.cells[key] = part if old is None else np.union1d(old, part)
        self._n += len(far) + sum(len(p) for p in groups.values())

    def erase(self, pts: np.ndarray, rows: np.ndarray) -> None:
        """Drop ``rows``; ``pts`` must still hold their coordinates."""
        far, groups = self._by_cell(pts, rows)
        charge(max(len(rows), 1))
        if len(far):
            n0 = len(self.far)
            self.far = np.setdiff1d(self.far, far, assume_unique=True)
            self._n -= n0 - len(self.far)
        for key, part in groups.items():
            old = self.cells.get(key)
            if old is None:
                continue
            left = np.setdiff1d(old, part, assume_unique=True)
            self._n -= len(old) - len(left)
            if len(left):
                self.cells[key] = left
            else:
                del self.cells[key]

    def balls(self, pts: np.ndarray, centers: np.ndarray, r2: float):
        """Held rows within the closed ball ``d2 <= r2`` of each center.

        Returns flat ``(rows, offs)``: center ``i``'s rows, ascending,
        are ``rows[offs[i]:offs[i + 1]]``.  Exact when ``w`` exceeds
        ``sqrt(r2)`` by enough to absorb the cell division's rounding
        (then every hit lies in the 3^d cells around its center); the
        caller owns that margin.
        """
        centers = np.asarray(centers, dtype=np.float64)
        m, dim, n = len(centers), self._offsets.shape[1], len(pts)
        if m == 0 or self._n == 0:
            return np.empty(0, dtype=np.int64), np.zeros(m + 1, dtype=np.int64)
        near, ccells = self._locate(centers)
        if len(self.far) or not near.all() or 3 ** dim >= max(self._n, 2):
            return self._brute(pts, centers, r2)
        # the candidate pool: each distinct neighbour cell looked up once
        ucc, cinv = _unique_rows(ccells)
        k = len(self._offsets)
        nbr = (ucc[:, None, :] + self._offsets[None, :, :]).reshape(-1, dim)
        unb, ninv = _unique_rows(nbr)
        got = [self.cells.get(key) for key in map(tuple, unb.tolist())]
        sizes = np.array([0 if g is None else len(g) for g in got],
                         dtype=np.int64)
        hit = [g for g in got if g is not None]
        if not hit:
            return np.empty(0, dtype=np.int64), np.zeros(m + 1, dtype=np.int64)
        pool = np.concatenate(hit)
        starts = np.cumsum(sizes) - sizes
        slot = ninv.reshape(-1, k)[cinv]          # (m, 3^d) neighbour ids
        slot_size, slot_start = sizes[slot], starts[slot]
        out, counts, work = [], np.zeros(m, dtype=np.int64), 0
        for lo in range(0, m, _BALL_CHUNK):
            hi = min(lo + _BALL_CHUNK, m)
            ss = slot_size[lo:hi].ravel()
            if not ss.any():
                continue
            cand = pool[_ragged_arange(ss, slot_start[lo:hi].ravel())]
            cid = np.repeat(np.arange(lo, hi), k).repeat(ss)
            work += len(cand)
            keep = pairs_d2(np.take(pts, cand, axis=0),
                            np.take(centers, cid, axis=0)) <= r2
            # (center, row) keys are distinct: one plain sort orders
            # the hits by center, then by row
            key = np.sort(cid[keep] * n + cand[keep])
            out.append(key % n)
            counts[lo:hi] = np.bincount(key // n - lo, minlength=hi - lo)
        charge(max(work, 1))
        return self._flat(out, counts)

    def _brute(self, pts, centers, r2):
        held = self.rows()
        charge(len(centers) * len(held))
        p = pts[held]
        out = [held[pairs_d2(p, c.reshape(1, -1)) <= r2] for c in centers]
        return self._flat(out, np.array([len(o) for o in out], dtype=np.int64))

    @staticmethod
    def _flat(parts, counts):
        rows = (np.concatenate(parts) if parts
                else np.empty(0, dtype=np.int64))
        offs = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        return rows, offs


class Mirror:
    """The manager's row-oriented copy of an index's live point set.

    Rows are append-only; erase marks ``alive`` False.  Views index
    into the shared arrays by row, so no view keeps its own coordinate
    copies.  ``row_of`` maps global id -> row (live rows only).
    """

    def __init__(self, pts: np.ndarray, gids: np.ndarray):
        self.pts = np.ascontiguousarray(pts, dtype=np.float64)
        self.gids = np.asarray(gids, dtype=np.int64).copy()
        self.alive = np.ones(len(self.gids), dtype=bool)
        self.row_of = {int(g): i for i, g in enumerate(self.gids)}

    @property
    def dim(self) -> int:
        return self.pts.shape[1]

    def n_live(self) -> int:
        return int(self.alive.sum())

    def live_rows(self) -> np.ndarray:
        return np.flatnonzero(self.alive)

    def live(self) -> tuple[np.ndarray, np.ndarray]:
        """(coords, gids) of the live rows, in row (= insertion) order."""
        rows = self.live_rows()
        return self.pts[rows], self.gids[rows]

    def append(self, pts: np.ndarray, gids: np.ndarray) -> np.ndarray:
        """Add a batch; returns the new row indices."""
        base = len(self.gids)
        self.pts = np.vstack([self.pts, np.asarray(pts, dtype=np.float64)])
        self.gids = np.concatenate(
            [self.gids, np.asarray(gids, dtype=np.int64)]
        )
        self.alive = np.concatenate(
            [self.alive, np.ones(len(gids), dtype=bool)]
        )
        rows = np.arange(base, len(self.gids), dtype=np.int64)
        for r in rows:
            self.row_of[int(self.gids[r])] = int(r)
        return rows

    def kill_matching(self, q: np.ndarray) -> np.ndarray:
        """Mark live rows whose coords match a row of ``q`` dead.

        Returns the killed rows.  Matching replicates the index's erase
        semantics (:func:`repro.bdl.bdltree._match_rows`): *every* live
        row equal to *any* requested coordinate dies.
        """
        from ..bdl.bdltree import _match_rows

        rows = self.live_rows()
        if len(rows) == 0:
            return rows
        hit = _match_rows(self.pts[rows], np.asarray(q, dtype=np.float64))
        killed = rows[hit]
        self.alive[killed] = False
        for r in killed:
            self.row_of.pop(int(self.gids[r]), None)
        return killed


class MaterializedView:
    """Base class: identity, repair/recompute counters, answer cache.

    Subclasses implement ``_rebuild(mirror)`` (from-scratch state +
    answer), ``_repair_insert(mirror, rows)`` and
    ``_repair_erase(mirror, rows)`` (incremental maintenance; may call
    :meth:`note_recompute` + ``_rebuild`` to fall back), and the
    classmethod ``compute(pts, gids, ...)`` (the canonical reference).
    A view that keeps a :class:`Grid` in ``grid`` has it brought up to
    date with the batch before its repair runs.
    """

    #: subclass view kind tag ("closest_pair" / "dbscan" / "hull2d")
    kind = "view"
    #: the maintained answer (a subclass may build it on read instead)
    answer = None
    #: the view's grid over the live rows, if it keeps one
    grid: Grid | None = None

    def __init__(self, name: str):
        self.name = name
        self.version = -1       #: index version the answer belongs to
        self.repairs = 0        #: incremental repair count
        self.recomputes = 0     #: from-scratch fallback count

    # -- counters ----------------------------------------------------------
    def note_repair(self) -> None:
        self.repairs += 1

    def note_recompute(self) -> None:
        self.recomputes += 1

    # -- protocol ----------------------------------------------------------
    def rebuild(self, mirror: Mirror, version: int) -> None:
        """From-scratch (re)build; counted by the *caller* when it is a
        fallback (initial builds are free)."""
        self._rebuild(mirror)
        self.version = version

    def apply_insert(self, mirror: Mirror, rows: np.ndarray,
                     version: int) -> None:
        if self.grid is not None:
            self.grid.insert(mirror.pts, rows)
        self._repair_insert(mirror, rows)
        self.version = version

    def apply_erase(self, mirror: Mirror, rows: np.ndarray,
                    version: int) -> None:
        if self.grid is not None:
            self.grid.erase(mirror.pts, rows)
        self._repair_erase(mirror, rows)
        self.version = version

    def stats(self) -> dict:
        return {
            "kind": self.kind,
            "version": self.version,
            "repairs": self.repairs,
            "recomputes": self.recomputes,
        }
