"""Facet-based 3D hull machinery shared by all R^3 hull algorithms.

A hull is a simplicial complex of triangular facets with:

* outward plane equations (normal, offset) oriented against an interior
  reference point,
* neighbor links across each of the three ridges,
* a conflict list of candidate points per facet (each candidate stores a
  reference to *one* visible facet — the paper's lightweight visibility
  bookkeeping),
* a cached furthest conflict point (for quickhull point selection), and
* a reservation slot (for the parallel reservation algorithm).

Inserting a visible point ``p``:

1. the visible region is found by breadth-first search across neighbor
   links starting from p's stored facet (visibility = signed plane
   distance > eps);
2. the **horizon** is the set of ridges between visible and non-visible
   facets; new facets fan from p over each horizon ridge;
3. conflict points of the deleted region redistribute onto the new
   facets (points visible to none are interior — discarded).
"""

from __future__ import annotations

import numpy as np

from ..core.distance import sq_norm
from ..parlay.priority_write import NO_RESERVATION
from ..parlay.workdepth import charge
from .incremental2d import HullStats

__all__ = ["FacetHull3D", "build_initial_tetrahedron"]


class FacetHull3D:
    """Mutable triangulated convex hull in R^3 with conflict lists."""

    def __init__(self, pts: np.ndarray, interior: np.ndarray, eps: float):
        self.pts = pts
        self.interior = interior
        self.eps = eps
        self.va: list[int] = []
        self.vb: list[int] = []
        self.vc: list[int] = []
        self.normal: list[np.ndarray] = []
        self.offset: list[float] = []
        self.nbr: list[list[int]] = []  # across edges (a,b), (b,c), (c,a)
        self.alive: list[bool] = []
        self.fpts: list[np.ndarray] = []  # conflict point ids
        self.far: list[tuple[float, int]] = []
        self.reservation: list[int] = []
        self.facet_of = np.full(len(pts), -1, dtype=np.int64)
        self.stats = HullStats()

    # ------------------------------------------------------------------
    # facet pool
    # ------------------------------------------------------------------
    def new_facet(self, a: int, b: int, c: int) -> int:
        """Create facet (a, b, c), oriented outward w.r.t. the interior.

        The plane equation is normalized (unit normal) so the visibility
        epsilon is a true distance — otherwise sliver facets (tiny cross
        products) would misclassify far-away points as coplanar.
        """
        pa, pb, pc = self.pts[a], self.pts[b], self.pts[c]
        n = np.cross(pb - pa, pc - pa)
        norm = float(np.linalg.norm(n))
        if norm > 0:
            n = n / norm
        off = float(n @ pa)
        if n @ self.interior > off:
            b, c = c, b
            n = -n
            off = float(n @ self.pts[a])
        fid = len(self.va)
        self.va.append(a)
        self.vb.append(b)
        self.vc.append(c)
        self.normal.append(n)
        self.offset.append(off)
        self.nbr.append([-1, -1, -1])
        self.alive.append(True)
        self.fpts.append(np.empty(0, dtype=np.int64))
        self.far.append((0.0, -1))
        self.reservation.append(NO_RESERVATION)
        self.stats.facets_created += 1
        charge(1, 1)
        return fid

    def facet_edges(self, f: int) -> list[tuple[int, int]]:
        a, b, c = self.va[f], self.vb[f], self.vc[f]
        return [(a, b), (b, c), (c, a)]

    def set_neighbor(self, f: int, u: int, v: int, g: int) -> None:
        """Set f's neighbor across the (undirected) edge {u, v} to g."""
        for slot, (x, y) in enumerate(self.facet_edges(f)):
            if {x, y} == {u, v}:
                self.nbr[f][slot] = g
                return
        raise ValueError(f"facet {f} has no edge {{{u}, {v}}}")

    def replace_neighbor(self, f: int, old: int, new: int) -> None:
        for slot in range(3):
            if self.nbr[f][slot] == old:
                self.nbr[f][slot] = new
                return
        raise ValueError(f"facet {f} is not a neighbor of {old}")

    # ------------------------------------------------------------------
    # visibility
    # ------------------------------------------------------------------
    def dists(self, f: int, cand: np.ndarray) -> np.ndarray:
        """Signed plane distances of candidates above facet f."""
        charge(max(len(cand), 1))
        return self.pts[cand] @ self.normal[f] - self.offset[f]

    def visible_one(self, f: int, pid: int) -> bool:
        charge(1, 1)
        return float(self.pts[pid] @ self.normal[f] - self.offset[f]) > self.eps

    def visible_set(self, pid: int) -> list[int]:
        """BFS over neighbor links: the connected visible region of pid."""
        f0 = int(self.facet_of[pid])
        seen = {f0}
        out = [f0]
        stack = [f0]
        while stack:
            f = stack.pop()
            for g in self.nbr[f]:
                if g >= 0 and g not in seen:
                    seen.add(g)
                    if self.visible_one(g, pid):
                        out.append(g)
                        stack.append(g)
        self.stats.facets_touched += len(out)
        return out

    def horizon(self, visible: list[int]) -> list[tuple[int, int, int]]:
        """Ridges (u, v, outside_facet) bounding the visible region.

        (u, v) is ordered as it appears in the *visible* facet, so the
        ridge cycle is consistently oriented.
        """
        vset = set(visible)
        ridges = []
        for f in visible:
            for (u, v), g in zip(self.facet_edges(f), self.nbr[f]):
                if g >= 0 and g not in vset:
                    ridges.append((u, v, g))
        return ridges

    def outside_neighbors(self, visible: list[int]) -> list[int]:
        """Live facets across the horizon (reserved alongside the
        visible set — see DESIGN.md §4)."""
        vset = set(visible)
        out = []
        for f in visible:
            for g in self.nbr[f]:
                if g >= 0 and g not in vset:
                    out.append(g)
        return out

    # ------------------------------------------------------------------
    # structural update
    # ------------------------------------------------------------------
    def assign_points(self, fids: list[int], cand: np.ndarray) -> None:
        """Distribute candidates to their most-visible facet among fids."""
        if len(cand) == 0:
            return
        charge(len(cand) * max(len(fids), 1))
        best_d = np.full(len(cand), self.eps)
        best_f = np.full(len(cand), -1, dtype=np.int64)
        for f in fids:
            d = self.pts[cand] @ self.normal[f] - self.offset[f]
            better = d > best_d
            best_d[better] = d[better]
            best_f[better] = f
        for f in fids:
            mask = best_f == f
            mine = cand[mask]
            old = self.fpts[f]
            self.fpts[f] = np.concatenate([old, mine]) if len(old) else mine
            if len(mine):
                self.facet_of[mine] = f
                j = int(np.argmax(best_d[mask]))
                if best_d[mask][j] > self.far[f][0]:
                    self.far[f] = (float(best_d[mask][j]), int(mine[j]))
        dropped = cand[best_f < 0]
        if len(dropped):
            self.facet_of[dropped] = -1

    def insert_point(self, pid: int, visible: list[int]) -> list[int]:
        """Replace the visible region with a fan of new facets over pid.

        Returns the new facet ids.
        """
        ridges = self.horizon(visible)
        # create the fan
        new_ids = []
        edge_owner: dict[tuple[int, int], int] = {}
        for (u, v, g) in ridges:
            nf = self.new_facet(u, v, pid)
            new_ids.append(nf)
            self.set_neighbor(nf, u, v, g)
            self.set_neighbor(g, u, v, nf)  # overwrite g's link to the dead facet
            # link sibling fan facets across the edges incident to pid
            for w in (u, v):
                key = (min(w, pid), max(w, pid))
                if key in edge_owner:
                    other = edge_owner.pop(key)
                    self.set_neighbor(nf, w, pid, other)
                    self.set_neighbor(other, w, pid, nf)
                else:
                    edge_owner[key] = nf
        if edge_owner:
            raise RuntimeError("horizon did not close; degenerate geometry")

        # kill the old region and gather its conflict points
        parts = []
        for f in visible:
            self.alive[f] = False
            if len(self.fpts[f]):
                parts.append(self.fpts[f])
            self.fpts[f] = np.empty(0, dtype=np.int64)
        if parts:
            cand = np.concatenate(parts)
            cand = cand[cand != pid]
        else:
            cand = np.empty(0, dtype=np.int64)
        self.stats.points_touched += len(cand) + 1
        self.facet_of[pid] = -1
        self.assign_points(new_ids, cand)
        return new_ids

    # ------------------------------------------------------------------
    # output & checks
    # ------------------------------------------------------------------
    def hull_facets(self) -> np.ndarray:
        """(m, 3) vertex-id triangles of the live hull facets."""
        out = [
            (self.va[f], self.vb[f], self.vc[f])
            for f in range(len(self.va))
            if self.alive[f]
        ]
        return np.array(out, dtype=np.int64)

    def hull_vertices(self) -> np.ndarray:
        """Sorted unique vertex ids on the hull."""
        tris = self.hull_facets()
        return np.unique(tris)

    def n_alive_facets(self) -> int:
        return sum(self.alive)

    def check_convex(self, sample: np.ndarray | None = None) -> float:
        """Max signed distance of any point above any live facet
        (<= eps for a correct hull).  Expensive; for tests."""
        cand = sample if sample is not None else np.arange(len(self.pts))
        worst = -np.inf
        for f in range(len(self.va)):
            if not self.alive[f]:
                continue
            d = self.pts[cand] @ self.normal[f] - self.offset[f]
            worst = max(worst, float(d.max()))
        return worst


def build_initial_tetrahedron(pts: np.ndarray) -> FacetHull3D:
    """Initial simplex: extreme pair on x, then line-furthest, then
    plane-furthest; facets oriented against the centroid."""
    n = len(pts)
    if n < 4:
        raise ValueError("need at least 4 points for a 3d hull")
    i0 = int(np.argmin(pts[:, 0]))
    i1 = int(np.argmax(pts[:, 0]))
    if i0 == i1:
        raise ValueError("degenerate input: all x equal")
    a, b = pts[i0], pts[i1]
    ab = b - a
    rel = pts - a
    crossn = np.cross(rel, ab)
    line_d = sq_norm(crossn)
    i2 = int(np.argmax(line_d))
    if line_d[i2] <= 0:
        raise ValueError("degenerate input: all points collinear")
    c = pts[i2]
    nrm = np.cross(ab, c - a)
    plane_d = np.abs(rel @ nrm)
    i3 = int(np.argmax(plane_d))
    if plane_d[i3] <= 0:
        raise ValueError("degenerate input: all points coplanar")

    scale = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    eps = 1e-12 * max(scale, 1.0)  # absolute distance (unit normals)
    interior = (pts[i0] + pts[i1] + pts[i2] + pts[i3]) / 4.0
    h = FacetHull3D(pts, interior, eps)

    corners = [i0, i1, i2, i3]
    fids = []
    for skip in range(4):
        tri = [corners[j] for j in range(4) if j != skip]
        fids.append(h.new_facet(*tri))
    # wire neighbors by shared edges
    owner: dict[tuple[int, int], list[int]] = {}
    for f in fids:
        for (u, v) in h.facet_edges(f):
            owner.setdefault((min(u, v), max(u, v)), []).append(f)
    for (u, v), fs in owner.items():
        assert len(fs) == 2
        h.set_neighbor(fs[0], u, v, fs[1])
        h.set_neighbor(fs[1], u, v, fs[0])

    cand = np.setdiff1d(np.arange(n, dtype=np.int64), np.array(corners))
    h.assign_points(fids, cand)
    return h
