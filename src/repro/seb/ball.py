"""Balls and support-set solvers for the smallest enclosing ball.

The smallest enclosing ball of a set in R^d is defined by a *support*
of at most d+1 points on its surface (paper Fig. 2(b)).  The two
kernels here are:

* :func:`circumball` — the smallest ball with *all* given (affinely
  independent) points on its boundary; the center is the point in the
  points' affine hull equidistant from all of them (a least-squares
  solve, min-norm for degenerate inputs).
* :func:`ball_of_support` — the smallest enclosing ball of a *tiny*
  point set (≤ ~2^d + d + 1 points), via exact Welzl recursion.  Used
  to recompute the ball from support candidates in the orthant-scan and
  sampling algorithms.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import dist, dist_sq, sq_norm
from ..parlay.workdepth import charge

__all__ = ["Ball", "circumball", "ball_of_support"]

#: Relative slack for "inside the ball" tests.
EPS = 1e-10


class Ball:
    """A d-ball with center, radius, and the support points defining it."""

    __slots__ = ("center", "radius", "support")

    def __init__(self, center: np.ndarray, radius: float, support: np.ndarray | None = None):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        self.support = (
            np.asarray(support, dtype=np.float64)
            if support is not None
            else np.empty((0, len(self.center)))
        )

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, p: np.ndarray, tol: float = EPS) -> bool:
        return bool(dist(p, self.center) <= self.radius * (1.0 + tol) + 1e-300)

    def contains_all(self, pts: np.ndarray, tol: float = EPS) -> bool:
        if len(pts) == 0:
            return True
        charge(len(pts))
        d2 = dist_sq(pts, self.center)
        lim = (self.radius * (1.0 + tol)) ** 2
        return bool(np.all(d2 <= lim + 1e-300))

    def outside_mask(self, pts: np.ndarray, tol: float = EPS) -> np.ndarray:
        """Boolean mask of points strictly outside (the 'visible' points)."""
        charge(max(len(pts), 1))
        d2 = dist_sq(pts, self.center)
        lim = (self.radius * (1.0 + tol)) ** 2
        return d2 > lim

    def __repr__(self) -> str:
        return f"Ball(center={self.center}, radius={self.radius:.6g})"


def circumball(points: np.ndarray) -> Ball:
    """Smallest ball with every given point on its boundary.

    ``points`` is a (k, d) array with 1 <= k <= d+1.  For k=1 the ball
    is the point itself with radius 0.  Degenerate (affinely dependent)
    inputs resolve to the min-norm center via ``lstsq``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("circumball requires a nonempty (k, d) array")
    k = len(pts)
    charge(k * k)
    if k == 1:
        return Ball(pts[0], 0.0, pts)
    p0 = pts[0]
    q = pts[1:] - p0
    rhs = 0.5 * sq_norm(q)
    sol, *_ = np.linalg.lstsq(q, rhs, rcond=None)
    center = p0 + sol
    radius = float(np.sqrt(sq_norm(sol)))
    return Ball(center, radius, pts)


def _welzl_small(pts: np.ndarray, r_rows: list[np.ndarray], d: int, rng: np.random.Generator) -> Ball:
    """Exact Welzl recursion for tiny point sets (support computation)."""
    if len(pts) == 0 or len(r_rows) == d + 1:
        if not r_rows:
            return Ball(np.zeros(d), -1.0)  # empty ball contains nothing
        return circumball(np.asarray(r_rows))
    p = pts[-1]
    b = _welzl_small(pts[:-1], r_rows, d, rng)
    if b.radius >= 0 and b.contains(p):
        return b
    return _welzl_small(pts[:-1], r_rows + [p], d, rng)


def ball_of_support(points: np.ndarray, seed: int = 0) -> Ball:
    """Smallest enclosing ball of a small point set (exact Welzl).

    Intended for support-candidate sets (a few dozen points at most);
    recursion is O(2^k) in the worst case but tiny in practice because
    the recursion prunes with containment checks.
    """
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) == 0:
        raise ValueError("ball_of_support of empty set")
    d = pts.shape[1]
    rng = np.random.default_rng(seed)
    pts = pts[rng.permutation(len(pts))]
    b = _welzl_small(pts, [], d, rng)
    # tighten support to boundary points
    if len(b.support):
        on = np.abs(dist(b.support, b.center) - b.radius) <= (
            EPS * max(b.radius, 1.0)
        )
        b.support = b.support[on] if on.any() else b.support
    return b
