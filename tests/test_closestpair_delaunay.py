"""Tests for closest pair and Delaunay triangulation."""

import numpy as np
import pytest
from scipy.spatial import Delaunay as SciDelaunay
from scipy.spatial.distance import pdist

from repro.closestpair import closest_pair
from repro.delaunay import delaunay
from repro.generators import uniform, visual_var


class TestClosestPair:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_bruteforce(self, d, rng):
        for _ in range(5):
            pts = rng.uniform(0, 10, size=(400, d))
            dist, i, j = closest_pair(pts)
            assert dist == pytest.approx(pdist(pts).min(), abs=1e-10)
            assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(dist)

    def test_duplicate_points_distance_zero(self, rng):
        pts = rng.normal(size=(50, 2))
        pts = np.vstack([pts, pts[7]])
        dist, i, j = closest_pair(pts)
        assert dist == 0
        assert {i, j} == {7, 50}

    def test_two_points(self):
        dist, i, j = closest_pair(np.array([[0.0, 0], [3.0, 4.0]]))
        assert dist == pytest.approx(5.0)

    def test_requires_two(self):
        with pytest.raises(ValueError):
            closest_pair(np.zeros((1, 2)))

    def test_sequential_equals_parallel(self, rng):
        pts = rng.uniform(0, 1, size=(1000, 3))
        d1, *_ = closest_pair(pts, parallel=False)
        d2, *_ = closest_pair(pts, parallel=True)
        assert d1 == d2

    def test_clustered(self):
        pts = visual_var(1500, 2, seed=2).coords
        dist, i, j = closest_pair(pts)
        assert dist == pytest.approx(pdist(pts).min(), abs=1e-10)


class TestDelaunay:
    def test_matches_scipy_edges(self, rng):
        for trial in range(5):
            pts = rng.uniform(0, 10, size=(200, 2))
            dt = delaunay(pts)
            ours = dt.edges()
            ref = SciDelaunay(pts)
            re = np.vstack(
                [ref.simplices[:, [0, 1]], ref.simplices[:, [1, 2]], ref.simplices[:, [2, 0]]]
            )
            re.sort(axis=1)
            re = np.unique(re, axis=0)
            assert len(ours) == len(re) and np.all(ours == re)

    def test_empty_circumcircle_property(self, rng):
        pts = rng.uniform(0, 100, size=(300, 2))
        dt = delaunay(pts)
        assert dt.check_delaunay()

    def test_triangle_count_euler(self, rng):
        """2D Delaunay: T = 2n - 2 - h (h = hull vertices)."""
        from repro.hull import quickhull2d_seq

        pts = rng.uniform(0, 10, size=(500, 2))
        dt = delaunay(pts)
        h = len(quickhull2d_seq(pts))
        assert len(dt.triangles()) == 2 * len(pts) - 2 - h

    def test_all_triangles_ccw(self, rng):
        from repro.core.predicates import orient2d

        pts = rng.uniform(0, 10, size=(150, 2))
        dt = delaunay(pts)
        for (a, b, c) in dt.triangles():
            assert orient2d(pts[a], pts[b], pts[c]) > 0

    def test_minimum_input(self):
        dt = delaunay(np.array([[0.0, 0], [1, 0], [0, 1]]))
        assert len(dt.triangles()) == 1
        with pytest.raises(ValueError):
            delaunay(np.zeros((2, 2)))

    def test_grid_points(self):
        """Structured (cocircular-heavy) input still triangulates."""
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        # jitter breaks exact cocircularity the way real data would
        pts += np.random.default_rng(0).normal(scale=1e-6, size=pts.shape)
        dt = delaunay(pts)
        assert dt.check_delaunay()
        assert len(dt.triangles()) == 2 * 64 - 2 - len(
            __import__("repro.hull", fromlist=["quickhull2d_seq"]).quickhull2d_seq(pts)
        )

    def test_clustered(self):
        pts = visual_var(600, 2, seed=9).coords
        dt = delaunay(pts)
        assert dt.check_delaunay(sample=60)

    def test_repeated_points_match_scipy_on_distinct(self, rng):
        # 600 draws from 150 sites: most points repeat, several times
        sites = rng.uniform(0, 10, size=(150, 2))
        pts = sites[rng.integers(0, 150, size=600)]
        _, first = np.unique(pts, axis=0, return_index=True)
        ours = delaunay(pts).triangles()
        # copies appear in no triangle; every distinct point does
        assert set(ours.ravel().tolist()) == set(first.tolist())
        ref = first[SciDelaunay(pts[first]).simplices]
        assert {frozenset(t) for t in ours.tolist()} == {
            frozenset(t) for t in ref.tolist()}
        assert len(ours) == len(ref)
