"""3D convex hull algorithms (paper §3).

* ``quickhull3d_seq`` — optimized sequential quickhull (the baseline of
  Figure 12's overhead comparison).
* ``randinc_hull3d`` — parallel reservation-based randomized incremental
  algorithm (paper Fig. 5 + Appendix A).
* ``reservation_quickhull3d`` — parallel reservation-based quickhull
  (furthest-point batch selection).
* ``pseudohull_prune`` / ``pseudo_hull3d`` — Tang et al.-style point
  culling followed by reservation quickhull (the "Pseudo" series of
  Figure 9).
* ``divide_conquer_3d`` — block decomposition, sequential quickhull per
  block in parallel, reservation quickhull on the collected vertices.

All return ``(hull_vertex_ids, HullStats)`` unless noted; facet output
is available via ``*_facets`` variants.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import sq_norm
from ..core.points import as_array
from ..parlay.priority_write import NO_RESERVATION
from ..parlay.random import random_permutation
from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import charge, frame, parallel_merge
from .facets3d import FacetHull3D, build_initial_tetrahedron
from .incremental2d import HullStats

__all__ = [
    "quickhull3d_seq",
    "randinc_hull3d",
    "reservation_quickhull3d",
    "pseudohull_prune",
    "pseudo_hull3d",
    "divide_conquer_3d",
    "hull3d_facets",
]

#: Below this many live facets we fall back to one point per round
#: (Appendix B: little parallelism to exploit, avoid contention).
_LOW_FACET_THRESHOLD = 8


def _check_input(points) -> np.ndarray:
    pts = as_array(points)
    if pts.shape[1] != 3:
        raise ValueError("requires 3-dimensional points")
    return pts


# ---------------------------------------------------------------------------
# sequential quickhull
# ---------------------------------------------------------------------------


def quickhull3d_seq(points) -> tuple[np.ndarray, HullStats]:
    """Sequential quickhull: repeatedly insert the furthest conflict
    point of some facet (no reservations)."""
    pts = _check_input(points)
    h = build_initial_tetrahedron(pts)
    active = [f for f in range(len(h.va)) if h.far[f][1] >= 0]
    while active:
        f = active.pop()
        if not h.alive[f] or h.far[f][1] < 0:
            continue
        pid = h.far[f][1]
        if h.facet_of[pid] < 0:  # stale cache: point was consumed
            d, j = _refresh_far(h, f)
            if j < 0:
                continue
            pid = j
        h.stats.rounds += 1
        vis = h.visible_set(pid)
        new_ids = h.insert_point(pid, vis)
        active.extend(nf for nf in new_ids if h.far[nf][1] >= 0)
    return h.hull_vertices(), h.stats


def _refresh_far(h: FacetHull3D, f: int):
    ids = h.fpts[f]
    ids = ids[h.facet_of[ids] == f]
    h.fpts[f] = ids
    if len(ids) == 0:
        h.far[f] = (0.0, -1)
        return 0.0, -1
    d = h.dists(f, ids)
    j = int(np.argmax(d))
    h.far[f] = (float(d[j]), int(ids[j]))
    return h.far[f]


# ---------------------------------------------------------------------------
# reservation-based round loop (Fig. 5)
# ---------------------------------------------------------------------------


def _run_rounds_3d(h: FacetHull3D, select, batch: int) -> None:
    sched = get_scheduler()
    while True:
        # Appendix B: low facet count -> single point per round, chosen
        # from the facet with the most conflict points
        r = batch if h.n_alive_facets() >= _LOW_FACET_THRESHOLD else 1
        q_ids, prios = select(r)
        if len(q_ids) == 0:
            break
        h.stats.rounds += 1

        # phase 1: find visible regions (parallel, read-only)
        vis_sets = sched.map_tasks(lambda q: h.visible_set(int(q)), q_ids)

        # phase 2: reserve visible facets + horizon neighbors (WriteMin)
        reserve_sets = []
        touched: list[int] = []
        for vis in vis_sets:
            rs = vis + h.outside_neighbors(vis)
            reserve_sets.append(rs)
            touched.extend(rs)
        for rs, prio in zip(reserve_sets, prios):
            h.stats.reservations_attempted += 1
            charge(len(rs), 1)
            for f in rs:
                if prio < h.reservation[f]:
                    h.reservation[f] = int(prio)

        # phase 3: check reservations
        winners = []
        for qi, (rs, prio) in enumerate(zip(reserve_sets, prios)):
            charge(len(rs), 1)
            if all(h.reservation[f] == prio for f in rs):
                winners.append(qi)
                h.stats.reservations_succeeded += 1

        # phase 4: process winners — their facet sets are disjoint, so
        # this is a parallel step; costs merge as sum-work/max-depth
        costs = []
        for qi in winners:
            with frame() as c:
                h.insert_point(int(q_ids[qi]), vis_sets[qi])
            costs.append(c)
        parallel_merge(costs, fanout=max(len(winners), 1))

        # phase 5: clear reservations
        for f in touched:
            h.reservation[f] = NO_RESERVATION


def randinc_hull3d(points, batch: int | None = None, seed: int = 0) -> tuple[np.ndarray, HullStats]:
    """Parallel randomized incremental 3D hull (reservation-based)."""
    pts = _check_input(points)
    sched = get_scheduler()
    if batch is None:
        batch = max(4, 4 * sched.workers)
    h = build_initial_tetrahedron(pts)

    perm = random_permutation(len(pts), seed=seed)
    rank = np.empty(len(pts), dtype=np.int64)
    rank[perm] = np.arange(len(pts))
    live = np.flatnonzero(h.facet_of >= 0).astype(np.int64)
    pending = live[np.argsort(rank[live], kind="stable")]
    state = {"pending": pending}

    def select(r: int):
        p = state["pending"]
        p = p[h.facet_of[p] >= 0]
        charge(max(len(p), 1))
        state["pending"] = p
        q = p[:r]
        return q, rank[q]

    _run_rounds_3d(h, select, batch)
    return h.hull_vertices(), h.stats


def reservation_quickhull3d(points, batch: int | None = None) -> tuple[np.ndarray, HullStats]:
    """Parallel reservation-based quickhull for R^3."""
    pts = _check_input(points)
    sched = get_scheduler()
    if batch is None:
        batch = max(4, 4 * sched.workers)
    h = build_initial_tetrahedron(pts)

    def select(r: int):
        cands: dict[int, float] = {}
        counts: dict[int, int] = {}
        charge(max(len(h.va), 1))
        for f in range(len(h.va)):
            if h.alive[f] and h.far[f][1] >= 0:
                d, pid = h.far[f]
                if h.facet_of[pid] < 0:
                    d, pid = _refresh_far(h, f)
                    if pid < 0:
                        continue
                if pid not in cands or d > cands[pid]:
                    cands[pid] = d
                counts[pid] = counts.get(pid, 0) + len(h.fpts[f])
        if not cands:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        if r == 1:
            # low-facet fallback: the point whose facet sees the most
            # conflict points (maximizes hull volume growth, App. B)
            best = max(counts.items(), key=lambda kv: (kv[1], cands[kv[0]]))[0]
            return np.array([best], dtype=np.int64), np.zeros(1, dtype=np.int64)
        items = sorted(cands.items(), key=lambda kv: (-kv[1], kv[0]))[:r]
        q = np.array([pid for pid, _ in items], dtype=np.int64)
        prios = np.arange(len(q), dtype=np.int64)
        return q, prios

    _run_rounds_3d(h, select, batch)
    return h.hull_vertices(), h.stats


# ---------------------------------------------------------------------------
# pseudohull culling (Tang et al. variant)
# ---------------------------------------------------------------------------


def pseudohull_prune(points, threshold: int = 64) -> np.ndarray:
    """Cull interior points with a recursively grown pseudohull.

    Starting from the initial tetrahedron, each facet grows toward its
    furthest visible point, splitting into three; points interior to the
    growing polyhedron are dropped.  Growth stops when a facet has at
    most ``threshold`` points (prevents deep recursion on skewed data —
    the paper's modification of Tang et al.).  Recursive calls on
    different facets run asynchronously in parallel.

    Returns the ids of surviving candidate points (superset of the hull
    vertices).
    """
    pts = _check_input(points)
    n = len(pts)
    if n <= 4:
        return np.arange(n, dtype=np.int64)
    i0 = int(np.argmin(pts[:, 0]))
    i1 = int(np.argmax(pts[:, 0]))
    rel = pts - pts[i0]
    ab = pts[i1] - pts[i0]
    cr = np.cross(rel, ab)
    i2 = int(np.argmax(sq_norm(cr)))
    nrm = np.cross(ab, pts[i2] - pts[i0])
    i3 = int(np.argmax(np.abs(rel @ nrm)))
    corners = {i0, i1, i2, i3}
    interior = (pts[i0] + pts[i1] + pts[i2] + pts[i3]) / 4.0

    survivors: list[np.ndarray] = [np.fromiter(corners, dtype=np.int64)]
    sched = get_scheduler()
    scale = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    eps = 1e-12 * max(scale, 1.0)

    def facet_points(a: int, b: int, c: int, cand: np.ndarray) -> np.ndarray:
        pa = pts[a]
        nn = np.cross(pts[b] - pa, pts[c] - pa)
        nrm = float(np.linalg.norm(nn))
        if nrm > 0:
            nn = nn / nrm
        off = float(nn @ pa)
        if nn @ interior > off:
            nn = -nn
            off = float(nn @ pa)
        charge(max(len(cand), 1))
        d = pts[cand] @ nn - off
        return cand[d > eps], d[d > eps]

    def grow(a: int, b: int, c: int, cand: np.ndarray, dvals: np.ndarray) -> None:
        """Grow facet (a,b,c) toward its furthest visible point."""
        if len(cand) == 0:
            return
        if len(cand) <= threshold:
            survivors.append(cand)
            return
        j = int(np.argmax(dvals))  # parallel max-finding in the paper
        p = int(cand[j])
        survivors.append(np.array([p], dtype=np.int64))
        rest = np.delete(cand, j)
        tasks = []
        for (x, y) in ((a, b), (b, c), (c, a)):
            sub, d = facet_points(x, y, p, rest)
            if len(sub):
                tasks.append((x, y, p, sub, d))
        if len(tasks) > 1 and len(cand) > 4096:
            sched.parallel_do([(lambda t=t: grow(*t)) for t in tasks])
        else:
            for t in tasks:
                grow(*t)

    corner_list = [i0, i1, i2, i3]
    cand0 = np.setdiff1d(np.arange(n, dtype=np.int64), np.array(corner_list))
    top_tasks = []
    for skip in range(4):
        tri = [corner_list[j] for j in range(4) if j != skip]
        sub, d = facet_points(tri[0], tri[1], tri[2], cand0)
        if len(sub):
            top_tasks.append((tri[0], tri[1], tri[2], sub, d))
    sched.parallel_do([(lambda t=t: grow(*t)) for t in top_tasks])
    return np.unique(np.concatenate(survivors))


def pseudo_hull3d(points, threshold: int = 64, batch: int | None = None) -> tuple[np.ndarray, HullStats]:
    """Pseudohull culling + reservation quickhull on the survivors."""
    pts = _check_input(points)
    keep = pseudohull_prune(pts, threshold=threshold)
    sub, stats = reservation_quickhull3d(pts[keep], batch=batch)
    return keep[sub], stats


# ---------------------------------------------------------------------------
# divide and conquer
# ---------------------------------------------------------------------------


def divide_conquer_3d(
    points, c: int = 2, batch: int | None = None, nblocks: int | None = None
) -> tuple[np.ndarray, HullStats]:
    """Split into ``c * numProc`` blocks; sequential quickhull per block
    (in parallel); reservation quickhull over collected vertices.

    ``numProc`` defaults to the simulated target machine (36h cores).
    """
    from ..bench.harness import PAPER_CORES

    pts = _check_input(points)
    n = len(pts)
    sched = get_scheduler()
    if nblocks is None:
        nblocks = c * max(sched.workers, int(PAPER_CORES))
    nblocks = max(1, min(nblocks, n // 64 or 1))
    if nblocks <= 1 or n < 4096:
        return reservation_quickhull3d(pts, batch=batch)

    bounds = [(n * b // nblocks, n * (b + 1) // nblocks) for b in range(nblocks)]

    def solve_block(b: int):
        lo, hi = bounds[b]
        sub, _ = quickhull3d_seq(pts[lo:hi])
        return sub + lo

    subs = sched.parallel_do([(lambda b=b: solve_block(b)) for b in range(nblocks)])
    cand = np.concatenate(subs)
    final_local, stats = reservation_quickhull3d(pts[cand], batch=batch)
    return cand[final_local], stats


def hull3d_facets(points) -> np.ndarray:
    """Convenience: (m, 3) triangle facets of the hull (via quickhull)."""
    pts = _check_input(points)
    h = build_initial_tetrahedron(pts)
    active = [f for f in range(len(h.va)) if h.far[f][1] >= 0]
    while active:
        f = active.pop()
        if not h.alive[f] or h.far[f][1] < 0:
            continue
        pid = h.far[f][1]
        if h.facet_of[pid] < 0:
            d, j = _refresh_far(h, f)
            if j < 0:
                continue
            pid = j
        vis = h.visible_set(pid)
        new_ids = h.insert_point(pid, vis)
        active.extend(nf for nf in new_ids if h.far[nf][1] >= 0)
    return h.hull_facets()
