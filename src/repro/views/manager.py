"""The :class:`ViewManager`: batch mutations in, repaired views out.

The manager owns the mirror (the row-oriented copy of the index's live
point set) and the registered views, and is the *only* sanctioned write
path to a view-bearing index: :meth:`insert` / :meth:`erase` apply the
batch to the index first, then repair every view inside a traced
``view_repair`` span, emitting per-view repair/recompute counters and
repair-phase timings on the metrics registry.

Answers are version-keyed and never stale: :meth:`get` returns
``(answer, version)`` where ``version`` is the index version the answer
was maintained to, and if the index was mutated *behind the manager's
back* (version drift detected on read), the manager resynchronizes —
a counted full recompute of every view — before answering.  A view may
build its answer on read (DBSCAN does), so that cost lands in
:meth:`get` or in a subscriber event, never in a mutation nobody
reads.

Subscribers registered with :meth:`subscribe` receive one event per
effective batch (op, batch size, new version, and every view's fresh
answer), which is what makes the views *subscribable resources* rather
than polled queries.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs.registry import MetricsRegistry
from ..obs.span import span
from .base import Mirror
from .closest_pair import ClosestPairView
from .dbscan import DBSCANView
from .hull2d import HullView

__all__ = ["ViewManager"]


class ViewManager:
    """Maintain materialized views over one batch-dynamic index.

    Parameters
    ----------
    index:
        A :class:`~repro.bdl.bdltree.BDLTree` or
        :class:`~repro.cluster.index.ShardedIndex` — anything with
        ``insert`` / ``erase`` / ``gather_points`` / ``version``.
    registry:
        Metrics registry to publish repair counters on (a private one
        is created when omitted).
    """

    def __init__(self, index, *, registry: MetricsRegistry | None = None):
        self.index = index
        self.registry = registry if registry is not None else MetricsRegistry()
        self.mirror = Mirror(*index.gather_points())
        self.views: dict[str, object] = {}
        self.version = int(index.version)
        self.last_stats = {"apply_s": 0.0, "repair_s": 0.0}
        self._listeners: list = []
        self._c_repairs = self.registry.counter(
            "view_repairs_total", "incremental view repairs", labels=("view",))
        self._c_recomputes = self.registry.counter(
            "view_recomputes_total", "view recompute fallbacks",
            labels=("view",))
        self._c_resyncs = self.registry.counter(
            "view_resyncs_total", "full resyncs after out-of-band mutation")
        self._c_listener_errors = self.registry.counter(
            "view_listener_errors_total", "subscriber callbacks that raised")
        self._h_repair = self.registry.histogram(
            "view_repair_seconds", "per-view repair/recompute wall time",
            labels=("view",))
        # the index advertises its manager so the serving layer can route
        index.views = self

    # ------------------------------------------------------------------
    # view registration
    # ------------------------------------------------------------------
    def register(self, view):
        if view.name in self.views:
            raise ValueError(f"view {view.name!r} already registered")
        view.rebuild(self.mirror, self.version)
        self.views[view.name] = view
        return view

    def closest_pair(self, name: str = "closest_pair") -> ClosestPairView:
        return self.register(ClosestPairView(name))

    def dbscan(self, name: str = "dbscan", *, eps: float,
               min_pts: int) -> DBSCANView:
        return self.register(DBSCANView(name, eps=eps, min_pts=min_pts))

    def hull2d(self, name: str = "hull2d") -> HullView:
        return self.register(HullView(name))

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------
    def insert(self, points, gids=None) -> np.ndarray:
        pts = np.ascontiguousarray(points, dtype=np.float64)
        t0 = time.perf_counter()
        out = self.index.insert(pts, gids)
        t1 = time.perf_counter()
        if len(out) == 0:
            self.last_stats = {"apply_s": t1 - t0, "repair_s": 0.0}
            return out
        rows = self.mirror.append(pts, out)
        self._repair_all("insert", rows, t0, t1)
        return out

    def erase(self, points) -> int:
        pts = np.ascontiguousarray(points, dtype=np.float64)
        t0 = time.perf_counter()
        deleted = int(self.index.erase(pts))
        t1 = time.perf_counter()
        if deleted == 0:
            self.last_stats = {"apply_s": t1 - t0, "repair_s": 0.0}
            return deleted
        killed = self.mirror.kill_matching(pts)
        if len(killed) != deleted:
            # the mirror no longer matches the index: heal via resync
            self.resync()
            self.last_stats["apply_s"] += t1 - t0
            return deleted
        self._repair_all("erase", killed, t0, t1)
        return deleted

    def _repair_all(self, op: str, rows: np.ndarray, t0: float,
                    t1: float) -> None:
        version = int(self.index.version)
        with span("view_repair", cat="views", batch=len(rows), op=op):
            for view in self.views.values():
                r0, rec0 = view.repairs, view.recomputes
                s0 = time.perf_counter()
                if op == "insert":
                    view.apply_insert(self.mirror, rows, version)
                else:
                    view.apply_erase(self.mirror, rows, version)
                self._h_repair.labels(view.name).observe(
                    time.perf_counter() - s0)
                self._c_repairs.labels(view.name).inc(view.repairs - r0)
                self._c_recomputes.labels(view.name).inc(
                    view.recomputes - rec0)
        t2 = time.perf_counter()
        self.version = version
        self.last_stats = {"apply_s": t1 - t0, "repair_s": t2 - t1}
        self._notify(op, len(rows), version)

    # ------------------------------------------------------------------
    # the read path — version-keyed, never stale
    # ------------------------------------------------------------------
    def get(self, name: str):
        """``(answer, version)`` for one view, resyncing on drift."""
        if int(self.index.version) != self.version:
            self.resync()
        view = self.views[name]
        return view.answer, view.version

    def resync(self) -> None:
        """Full counted recompute after an out-of-band index mutation."""
        self._c_resyncs.inc()
        t0 = time.perf_counter()
        self.mirror = Mirror(*self.index.gather_points())
        version = int(self.index.version)
        with span("view_repair", cat="views", op="resync"):
            for view in self.views.values():
                view.note_recompute()
                view.rebuild(self.mirror, version)
                self._c_recomputes.labels(view.name).inc()
        self.version = version
        self.last_stats = {
            "apply_s": 0.0, "repair_s": time.perf_counter() - t0}
        self._notify("resync", 0, version)

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, fn):
        """``fn(event)`` after every effective batch; returns ``fn``."""
        self._listeners.append(fn)
        return fn

    def unsubscribe(self, fn) -> None:
        self._listeners.remove(fn)

    def _notify(self, op: str, count: int, version: int) -> None:
        if not self._listeners:
            return
        event = {
            "op": op,
            "count": count,
            "version": version,
            "answers": {n: v.answer for n, v in self.views.items()},
        }
        for fn in list(self._listeners):
            try:
                fn(event)
            except Exception:
                self._c_listener_errors.inc()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {name: view.stats() for name, view in self.views.items()}
