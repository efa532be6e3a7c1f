"""Tests for the geometry kernel: points, boxes, distances."""

import numpy as np
import pytest

from repro.core import (
    BBox,
    PointSet,
    as_array,
    as_points,
    bbox_of,
    box_dist_sq,
    cross_dists_sq,
    dist,
    dist_sq,
    far_dist_sq,
    pairwise_dists_sq,
    sq_norm,
)


def _left_to_right(v):
    """Reference: squares summed one Python float at a time."""
    s = 0.0
    for x in v:
        s = s + float(x) * float(x)
    return s


class TestPointSet:
    def test_basic_wrapping(self):
        ps = PointSet(np.zeros((5, 3)))
        assert len(ps) == 5 and ps.dim == 3

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros(5))

    def test_subset_and_concat(self, rng):
        ps = PointSet(rng.normal(size=(10, 2)))
        sub = ps.subset([0, 3])
        assert len(sub) == 2
        assert len(ps.concat(sub)) == 12

    def test_concat_dim_mismatch(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((2, 2))).concat(PointSet(np.zeros((2, 3))))

    def test_equality(self):
        a = PointSet(np.ones((2, 2)))
        assert a == PointSet(np.ones((2, 2)))
        assert a != PointSet(np.zeros((2, 2)))

    def test_as_points_idempotent(self):
        ps = as_points([[1, 2], [3, 4]])
        assert as_points(ps) is ps

    def test_as_array_coerces(self):
        arr = as_array([[1, 2]])
        assert arr.dtype == np.float64 and arr.flags["C_CONTIGUOUS"]

    def test_copy_is_deep(self):
        a = PointSet(np.zeros((2, 2)))
        b = a.copy()
        b.coords[0, 0] = 9
        assert a.coords[0, 0] == 0


class TestBBox:
    def test_bbox_of(self, rng):
        pts = rng.normal(size=(50, 3))
        b = bbox_of(pts)
        assert np.all(b.lo <= pts.min(axis=0))
        assert np.all(b.hi >= pts.max(axis=0))

    def test_bbox_of_empty_raises(self):
        with pytest.raises(ValueError):
            bbox_of(np.empty((0, 2)))

    def test_contains_and_intersects(self):
        b = BBox([0, 0], [2, 2])
        assert b.contains_point(np.array([1, 1]))
        assert not b.contains_point(np.array([3, 0]))
        assert b.intersects(BBox([1, 1], [3, 3]))
        assert not b.intersects(BBox([5, 5], [6, 6]))

    def test_contains_box(self):
        outer = BBox([0, 0], [10, 10])
        assert outer.contains_box(BBox([1, 1], [2, 2]))
        assert not BBox([1, 1], [2, 2]).contains_box(outer)

    def test_dist_sq_to_point(self):
        b = BBox([0, 0], [1, 1])
        assert b.dist_sq_to_point(np.array([0.5, 0.5])) == 0
        assert b.dist_sq_to_point(np.array([2.0, 1.0])) == pytest.approx(1.0)

    def test_max_dist_to_farthest_corner(self):
        b = BBox([0, 0], [1, 1])
        assert b.max_dist_sq_to_point(np.array([0, 0])) == pytest.approx(2.0)

    def test_ball_predicates(self):
        b = BBox([0, 0], [1, 1])
        assert b.within_ball(np.array([0.5, 0.5]), 1.0)
        assert not b.within_ball(np.array([0.5, 0.5]), 0.5)
        assert b.intersects_ball(np.array([1.5, 0.5]), 0.6)
        assert not b.intersects_ball(np.array([3, 3]), 1.0)

    def test_union_and_geometry(self):
        u = BBox([0, 0], [1, 1]).union(BBox([2, 2], [3, 3]))
        assert u == BBox([0, 0], [3, 3])
        assert u.longest_dim() in (0, 1)
        assert u.max_side() == 3
        assert u.diameter() == pytest.approx(np.sqrt(18))
        assert np.allclose(u.center, [1.5, 1.5])


class TestDistances:
    def test_dist_sq_scalar(self):
        assert dist_sq(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 25.0
        assert dist(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_dists_to_point(self, rng):
        pts = rng.normal(size=(100, 4))
        q = rng.normal(size=4)
        out = dist_sq(pts, q)
        ref = [_left_to_right(p - q) for p in pts]
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
    def test_sq_norm_sums_left_to_right_in_every_shape(self, rng, d):
        # the walk calls the 1-D form, the frontier the row form, the
        # BDL buffer scan the (m, s, d) form: all must give equal bits
        v = rng.normal(size=(6, 50, d))
        ref = np.array([[_left_to_right(r) for r in m] for m in v])
        assert np.array_equal(sq_norm(v), ref)
        assert np.array_equal(sq_norm(v[0]), ref[0])
        assert [sq_norm(r) for r in v[0]] == ref[0].tolist()
        assert isinstance(sq_norm(v[0, 0]), float)
        a, b = v[0], v[1, 0]
        assert np.array_equal(dist_sq(a, b), [sq_norm(r - b) for r in a])
        assert np.array_equal(dist_sq(v[:, None, 0], v[None, 1]),
                              sq_norm(v[:, None, 0] - v[None, 1]))

    def test_box_and_far_corner_kernels(self):
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 2.0])
        # box to box: 1 apart on x, overlapping on y
        assert box_dist_sq(lo, hi, np.array([2.0, 1.0]), np.array([3.0, 5.0])) == 1.0
        assert box_dist_sq(lo, hi, lo + 0.5, hi) == 0.0
        # a point is the box [p, p]; rows broadcast
        p = np.array([[3.0, 2.0], [0.5, -1.0]])
        assert box_dist_sq(lo, hi, p, p).tolist() == [4.0, 1.0]
        assert far_dist_sq(lo, hi, p).tolist() == [9.0 + 4.0, 0.25 + 9.0]
        empty = np.array([np.inf, np.inf]), np.array([-np.inf, -np.inf])
        assert box_dist_sq(*empty, p[0], p[0]) == np.inf

    def test_pairwise_nonnegative_and_symmetric(self, rng):
        pts = rng.normal(size=(40, 3))
        D = pairwise_dists_sq(pts)
        assert np.all(D >= 0)
        assert np.allclose(D, D.T)
        assert np.allclose(np.diag(D), 0, atol=1e-9)

    def test_cross_dists_match_pairwise(self, rng):
        a = rng.normal(size=(10, 2))
        b = rng.normal(size=(15, 2))
        C = cross_dists_sq(a, b)
        for i in range(10):
            for j in range(15):
                assert C[i, j] == pytest.approx(dist_sq(a[i], b[j]), abs=1e-9)
