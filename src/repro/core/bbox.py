"""Axis-aligned bounding boxes in R^d."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distance import box_dist_sq, far_dist_sq

__all__ = ["BBox", "TouchedRegion", "bbox_of"]


class BBox:
    """A closed axis-aligned box [lo, hi] in R^d."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        if self.lo.shape != self.hi.shape:
            raise ValueError("lo/hi shape mismatch")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    def diameter(self) -> float:
        """Euclidean length of the box diagonal."""
        return float(np.linalg.norm(self.hi - self.lo))

    def max_side(self) -> float:
        return float(np.max(self.hi - self.lo))

    def longest_dim(self) -> int:
        return int(np.argmax(self.hi - self.lo))

    # -- geometric queries ----------------------------------------------------
    def contains_point(self, p: np.ndarray) -> bool:
        return bool(np.all(p >= self.lo) and np.all(p <= self.hi))

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)

    def intersects(self, other: "BBox") -> bool:
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def contains_box(self, other: "BBox") -> bool:
        return bool(np.all(self.lo <= other.lo) and np.all(other.hi <= self.hi))

    def dist_sq_to_point(self, p: np.ndarray) -> float:
        """Squared distance from p to the box (0 if inside)."""
        return box_dist_sq(self.lo, self.hi, p, p)

    def max_dist_sq_to_point(self, p: np.ndarray) -> float:
        """Squared distance from p to the farthest corner of the box."""
        return far_dist_sq(self.lo, self.hi, p)

    def within_ball(self, center: np.ndarray, r: float) -> bool:
        """True iff the whole box lies inside the ball (center, r)."""
        return self.max_dist_sq_to_point(center) <= r * r

    def intersects_ball(self, center: np.ndarray, r: float) -> bool:
        return self.dist_sq_to_point(center) <= r * r

    def union(self, other: "BBox") -> "BBox":
        return BBox(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def __repr__(self) -> str:
        return f"BBox(lo={self.lo}, hi={self.hi})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, BBox):
            return NotImplemented
        return bool(np.all(self.lo == other.lo) and np.all(self.hi == other.hi))


@dataclass(frozen=True)
class TouchedRegion:
    """The key-range one batch mutation touched, for scoped invalidation.

    Batch insert/erase on :class:`~repro.bdl.bdltree.BDLTree` and
    :class:`~repro.cluster.index.ShardedIndex` publish one of these as
    ``index.last_touched``: the conservative bounding box of the batch
    (for erase, of the *requested* coordinates — a superset of what was
    actually deleted), the effective point count, the post-mutation
    ``version`` it belongs to, and — on a sharded index — the ids of
    the shards the batch routed to.  Derived-structure maintainers
    (:mod:`repro.views`) use it to repair only state intersecting the
    region instead of invalidating everything behind an opaque version
    bump.
    """

    kind: str                 #: "insert" | "erase"
    lo: np.ndarray            #: per-dimension batch minimum
    hi: np.ndarray            #: per-dimension batch maximum
    count: int                #: points inserted / points actually deleted
    version: int              #: index version this mutation produced
    shards: tuple = field(default=())  #: shard ids routed to (sharded only)

    def bbox(self) -> BBox:
        """The touched region as a closed :class:`BBox`."""
        return BBox(self.lo, self.hi)

    def intersects(self, box: BBox) -> bool:
        """True iff the touched region meets ``box`` (closed boxes)."""
        return self.bbox().intersects(box)


def _touched(kind: str, pts: np.ndarray, count: int, version: int,
             shards=()) -> TouchedRegion:
    """Build a :class:`TouchedRegion` for a nonempty batch."""
    return TouchedRegion(
        kind=kind,
        lo=pts.min(axis=0),
        hi=pts.max(axis=0),
        count=int(count),
        version=int(version),
        shards=tuple(shards),
    )


def bbox_of(pts: np.ndarray) -> BBox:
    """Bounding box of an (n, d) array of points (n >= 1)."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("bbox_of requires a nonempty (n, d) array")
    return BBox(pts.min(axis=0), pts.max(axis=0))
