"""Batched (array-at-a-time) query engine vs the per-query walk.

The contract of ``repro.kdtree.batch`` is *exact* equivalence: for any
tree (including ones with deleted points) and any query batch, the
frontier engine returns bitwise-identical results to the per-query
walk AND charges identical work/depth to the cost tracker — it is a
wall-clock optimization only.  The public entry points pick one of the
two from the batch size; these tests run both paths directly and
enforce the contract, including at the crossover itself.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.bdl import BDLTree
from repro.clustering import dbscan
from repro.cluster import ShardedIndex
from repro.kdtree import (
    BatchKNNBuffers,
    KDTree,
    KNNBuffer,
    all_nearest_neighbors,
    knn_across,
    range_query_ball_batch,
    range_query_batch,
)
from repro.kdtree.allnn import _dual_tree_allnn
from repro.kdtree.tree import SPATIAL_MEDIAN
from repro.kdtree.knn import knn
from repro.obs import trace
from repro.parlay import tracker, use_backend

from .paths import (
    KNN_CROSSOVER,
    RANGE_CROSSOVER,
    forced,
    frontier_ball,
    frontier_box,
    frontier_knn,
    recursive_builds,
    recursive_tree,
    walk_ball,
    walk_box,
    walk_knn,
)

BACKENDS = ("sequential", "threads", "processes")


def costed(fn, *args, **kwargs):
    tracker.reset()
    out = fn(*args, **kwargs)
    cost = tracker.total()
    tracker.reset()
    return out, cost


def assert_same_cost(cr, cb, label=""):
    # work values are integer-valued floats: exact under reordering
    assert cr.work == cb.work, f"{label} work {cr.work} != {cb.work}"
    # depth includes log2 terms: summed in different order across paths
    assert np.isclose(cr.depth, cb.depth, rtol=1e-9), f"{label} depth {cr.depth} != {cb.depth}"


def costed_on(path, fn, *args, **kwargs):
    with forced(path):
        return costed(fn, *args, **kwargs)


def _knn_paths(tree, qs, k):
    """Span attribute ``path`` of the public knn call on ``qs``."""
    with trace("t") as rec:
        knn(tree, qs, k)
    return [s.meta["path"] for s in rec.spans() if s.name == "kdtree.knn"]


class TestEngineSelection:
    def test_default_is_batched(self, rng):
        # the batch size picks the path; spans record which one ran
        t = KDTree(rng.uniform(size=(200, 2)))
        big = rng.uniform(size=(KNN_CROSSOVER, 2))
        assert _knn_paths(t, big, 3) == ["frontier"]
        assert _knn_paths(t, big[: KNN_CROSSOVER - 1], 3) == ["walk"]
        assert _knn_paths(t, big[:1], 3) == ["walk"]

    def test_unknown_engine_rejected(self, rng):
        # no entry point takes a path choice any more
        t = KDTree(rng.uniform(size=(32, 2)))
        qs = rng.uniform(size=(4, 2))
        with pytest.raises(TypeError):
            t.knn(qs, 2, engine="batched")
        with pytest.raises(TypeError):
            range_query_batch(t, qs, qs + 0.1, engine="batched")
        with pytest.raises(TypeError):
            range_query_ball_batch(t, qs, 0.1, engine="recursive")
        with pytest.raises(TypeError):
            BDLTree(2).knn(qs, 2, engine="recursive")

    def test_knn_rejects_unknown_engine(self, rng):
        t = KDTree(rng.uniform(size=(32, 2)))
        with pytest.raises(TypeError):
            knn(t, rng.uniform(size=(4, 2)), 2, engine="nope")


class TestKnnEquivalence:
    @pytest.mark.parametrize("dim", [2, 3, 5, 7])
    def test_results_and_charges_match(self, dim, rng):
        pts = rng.uniform(0, 100, size=(1500, dim))
        qs = rng.uniform(0, 100, size=(400, dim))
        t = KDTree(pts)
        (dr, ir), cr = costed(walk_knn, t, qs, 8)
        (db, ib), cb = costed(frontier_knn, t, qs, 8)
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert_same_cost(cr, cb, f"knn dim={dim}")

    @pytest.mark.parametrize("dim", [2, 5])
    def test_with_deleted_nodes(self, dim, rng):
        pts = rng.uniform(0, 100, size=(1200, dim))
        qs = rng.uniform(0, 100, size=(300, dim))
        t = KDTree(pts.copy())
        t.erase(pts[::3])  # tombstones points and kills whole subtrees
        (dr, ir), cr = costed(walk_knn, t, qs, 5)
        (db, ib), cb = costed(frontier_knn, t, qs, 5)
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert_same_cost(cr, cb, f"knn deleted dim={dim}")

    def test_exclude_self(self, rng):
        pts = rng.uniform(0, 10, size=(500, 3))
        t = KDTree(pts)
        (dr, ir), cr = costed(walk_knn, t, pts, 4, True)
        (db, ib), cb = costed(frontier_knn, t, pts, 4, True)
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert np.all(ib != np.arange(len(pts))[:, None])
        assert_same_cost(cr, cb, "exclude_self")

    def test_k_larger_than_n(self, rng):
        pts = rng.uniform(size=(7, 3))
        qs = rng.uniform(size=(5, 3))
        t = KDTree(pts)
        (dr, ir), cr = costed(walk_knn, t, qs, 12)
        (db, ib), cb = costed(frontier_knn, t, qs, 12)
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert np.all(ib[:, 7:] == -1)
        assert_same_cost(cr, cb, "k>n")

    def test_empty_tree_and_empty_batch(self, rng):
        te = KDTree(np.empty((0, 2)))
        (dr, ir), cr = costed(walk_knn, te, rng.uniform(size=(4, 2)), 2)
        (db, ib), cb = costed(frontier_knn, te, rng.uniform(size=(4, 2)), 2)
        assert np.array_equal(dr, db) and np.array_equal(ir, ib)
        assert_same_cost(cr, cb, "empty tree")

        t = KDTree(rng.uniform(size=(50, 2)))
        (dr, ir), cr = costed(walk_knn, t, np.empty((0, 2)), 3)
        (db, ib), cb = costed(frontier_knn, t, np.empty((0, 2)), 3)
        assert dr.shape == db.shape == (0, 3)
        assert_same_cost(cr, cb, "empty batch")

    def test_fully_deleted_tree(self, rng):
        pts = rng.uniform(size=(60, 2))
        t = KDTree(pts.copy())
        t.erase(pts)
        qs = rng.uniform(size=(10, 2))
        (dr, ir), cr = costed(walk_knn, t, qs, 3)
        (db, ib), cb = costed(frontier_knn, t, qs, 3)
        assert np.all(ib == -1)
        assert np.array_equal(ir, ib) and np.array_equal(dr, db)
        assert_same_cost(cr, cb, "dead tree")


class TestRangeEquivalence:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_box_batch(self, dim, rng):
        pts = rng.uniform(0, 100, size=(1500, dim))
        t = KDTree(pts)
        ctr = rng.uniform(0, 100, size=(200, dim))
        w = rng.uniform(1, 25, size=(200, dim))
        rr, cr = costed(walk_box, t, ctr - w, ctr + w)
        rb, cb = costed(frontier_box, t, ctr - w, ctr + w)
        assert len(rr) == len(rb)
        for a, b in zip(rr, rb):
            assert np.array_equal(a, b)
            assert a.dtype == b.dtype
        assert_same_cost(cr, cb, f"box dim={dim}")

    def test_ball_batch_per_query_radii_with_deletes(self, rng):
        pts = rng.uniform(0, 100, size=(1200, 3))
        t = KDTree(pts.copy())
        t.erase(pts[100:500])
        ctr = rng.uniform(0, 100, size=(150, 3))
        rad = rng.uniform(2, 20, size=150)
        rr, cr = costed(walk_ball, t, ctr, rad)
        rb, cb = costed(frontier_ball, t, ctr, rad)
        for a, b in zip(rr, rb):
            assert np.array_equal(a, b)
        assert_same_cost(cr, cb, "ball+deletes")

    def test_scalar_radius_broadcast(self, rng):
        pts = rng.uniform(0, 10, size=(400, 2))
        t = KDTree(pts)
        ctr = rng.uniform(0, 10, size=(60, 2))
        rr, cr = costed(walk_ball, t, ctr, 1.5)
        rb, cb = costed(frontier_ball, t, ctr, 1.5)
        for a, b in zip(rr, rb):
            assert np.array_equal(a, b)
        assert_same_cost(cr, cb, "scalar radius")


class TestConsumers:
    def test_bdl_knn(self, rng):
        pts = rng.uniform(0, 10, size=(2000, 3))
        b = BDLTree(3, buffer_size=128)
        for i in range(0, 2000, 400):
            b.insert(pts[i : i + 400])
        b.erase(pts[50:250])
        qs = rng.uniform(0, 10, size=(300, 3))
        (dr, ir), cr = costed_on("walk", b.knn, qs, 6)
        (db, ib), cb = costed_on("frontier", b.knn, qs, 6)
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert_same_cost(cr, cb, "bdl knn")

    def test_bdl_knn_buffer_only(self, rng):
        """All points still staged in the buffer tree: pure brute scan."""
        pts = rng.uniform(0, 10, size=(40, 2))
        b = BDLTree(2, buffer_size=64)
        b.insert(pts)
        qs = rng.uniform(0, 10, size=(12, 2))
        (dr, ir), cr = costed_on("walk", b.knn, qs, 3)
        (db, ib), cb = costed_on("frontier", b.knn, qs, 3)
        assert np.array_equal(dr, db) and np.array_equal(ir, ib)
        assert_same_cost(cr, cb, "bdl buffer-only")

    def test_allnn_matches_dual_tree(self, rng):
        for n, d in ((200, 2), (300, 3), (128, 5)):
            pts = rng.uniform(0, 10, size=(n, d))
            dd, di = _dual_tree_allnn(pts)
            bd, bi = all_nearest_neighbors(pts)
            assert np.allclose(dd, bd)
            assert np.all(bi != np.arange(n))
            # ids match wherever the nearest neighbor is unique
            uniq = ~np.isclose(bd, 0)
            assert np.array_equal(di[uniq], bi[uniq]) or np.allclose(dd, bd)

    def test_allnn_duplicates_pair_up(self, rng):
        pts = rng.uniform(size=(30, 2))
        pts[1] = pts[0]
        bd, bi = all_nearest_neighbors(pts)
        assert bd[0] == 0.0 and bd[1] == 0.0
        assert bi[0] == 1 and bi[1] == 0

    def test_dbscan_labels_identical(self, rng):
        pts = rng.uniform(0, 10, size=(600, 2))
        lr, cr = costed_on("walk", dbscan, pts, 0.7, 8)
        lb, cb = costed_on("frontier", dbscan, pts, 0.7, 8)
        assert np.array_equal(lr, lb)
        assert_same_cost(cr, cb, "dbscan")


class TestBatchBuffers:
    def test_matches_scalar_buffer_sequence(self, rng):
        """Feeding the same candidate blocks produces the same state."""
        k = 4
        scalar = KNNBuffer(k)
        batch = BatchKNNBuffers(1, k)
        row = np.array([0], dtype=np.int64)
        for _ in range(6):
            m = int(rng.integers(1, 11))
            d = rng.uniform(0, 100, size=m)
            g = rng.integers(0, 1000, size=m).astype(np.int64)
            scalar.insert_batch(d, g)
            batch.insert_grouped(row, d, g, np.array([m], dtype=np.int64))
            assert scalar.count == batch.count[0]
            assert scalar.bound == batch.bound[0]
            assert np.array_equal(
                scalar.dists[: scalar.count], batch.dists[0, : batch.count[0]]
            )
            assert np.array_equal(
                scalar.ids[: scalar.count], batch.ids[0, : batch.count[0]]
            )

    def test_extract_matches_scalar_result(self, rng):
        k = 3
        scalar = KNNBuffer(k)
        batch = BatchKNNBuffers(1, k)
        d = rng.uniform(0, 10, size=9)
        g = np.arange(9, dtype=np.int64)
        scalar.insert_batch(d, g)
        batch.insert_grouped(
            np.array([0], dtype=np.int64), d, g, np.array([9], dtype=np.int64)
        )
        ds, is_ = scalar.result()
        db, ib = batch.extract(k, exclude_self=False)
        assert np.array_equal(ds, db[0, : len(ds)])
        assert np.array_equal(is_, ib[0, : len(is_)])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            BatchKNNBuffers(4, 0)


# ----------------------------------------------------------------------
# construction engines (repro.kdtree.build)
# ----------------------------------------------------------------------
_TREE_FIELDS = (
    "used", "is_leaf", "split_dim", "split_val", "left", "right",
    "start", "end", "live", "perm", "box_lo", "box_hi", "gids",
)


def assert_same_tree(tr, tb, label=""):
    for f in _TREE_FIELDS:
        a, b = getattr(tr, f), getattr(tb, f)
        assert np.array_equal(a, b), f"{label} field {f} differs"
    assert tr.levels == tb.levels


class TestBuildEngineSelection:
    def test_default_is_batched(self, rng, monkeypatch):
        # object-median trees always build level at a time
        import repro.kdtree.tree as tree_mod

        calls = []
        real = tree_mod.build_batched
        monkeypatch.setattr(tree_mod, "build_batched",
                            lambda t: calls.append(t) or real(t))
        t = KDTree(rng.uniform(size=(100, 2)))
        assert calls == [t]
        KDTree(rng.uniform(size=(100, 2)), split=SPATIAL_MEDIAN)
        assert calls == [t]

    def test_unknown_engine_rejected(self, rng):
        # no constructor takes a builder choice any more
        with pytest.raises(TypeError):
            KDTree(rng.uniform(size=(16, 2)), engine="nope")
        with pytest.raises(TypeError):
            BDLTree(2, build_engine="recursive")
        with pytest.raises(TypeError):
            ShardedIndex(rng.uniform(size=(16, 2)), 2, build_engine="batched")

    def test_spatial_median_always_valid(self, rng):
        # spatial-median structure is data-dependent, so those trees
        # always build by the recursion
        pts = rng.uniform(0, 10, size=(300, 3))
        tb = KDTree(pts, split=SPATIAL_MEDIAN)
        tr = recursive_tree(pts, split=SPATIAL_MEDIAN)
        assert_same_tree(tr, tb, "spatial")
        tb.check_invariants()


class TestBuildEngineEquivalence:
    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    @pytest.mark.parametrize("leaf_size", [1, 4, 16])
    def test_node_arrays_and_charges_match(self, dim, leaf_size, rng):
        for n in (1, 2, 3, 17, 100, 1000):
            pts = rng.uniform(0, 100, size=(n, dim))
            tr, cr = costed(recursive_tree, pts, leaf_size=leaf_size)
            tb, cb = costed(KDTree, pts, leaf_size=leaf_size)
            label = f"build n={n} d={dim} ls={leaf_size}"
            assert_same_tree(tr, tb, label)
            # the batched engine replays the recursion's accounting in
            # the same order with the same float arithmetic: exact
            assert cr.work == cb.work, label
            assert cr.depth == cb.depth, label
            tb.check_invariants()

    def test_above_parallel_cutoff(self, rng):
        # n > _SEQ_CUTOFF exercises the parallel_do cost composition
        pts = rng.uniform(0, 100, size=(6000, 2))
        tr, cr = costed(recursive_tree, pts)
        tb, cb = costed(KDTree, pts)
        assert_same_tree(tr, tb, "n=6000")
        assert cr.work == cb.work and cr.depth == cb.depth

    def test_duplicate_heavy_coordinates(self, rng):
        # argpartition tie-breaking must match the 1-D per-node call
        pts = rng.integers(0, 4, size=(2000, 2)).astype(np.float64)
        tr = recursive_tree(pts)
        tb = KDTree(pts)
        assert_same_tree(tr, tb, "duplicates")

    def test_custom_gids_preserved(self, rng):
        pts = rng.uniform(size=(200, 3))
        gids = rng.permutation(10_000)[:200].astype(np.int64)
        tr = recursive_tree(pts, gids=gids.copy())
        tb = KDTree(pts, gids=gids.copy())
        assert_same_tree(tr, tb, "gids")

    def test_queries_identical_after_build(self, rng):
        pts = rng.uniform(0, 10, size=(1500, 3))
        qs = rng.uniform(0, 10, size=(200, 3))
        tr = recursive_tree(pts)
        tb = KDTree(pts)
        for run in (walk_knn, frontier_knn):
            d1, i1 = run(tr, qs, 5)
            d2, i2 = run(tb, qs, 5)
            assert np.array_equal(d1, d2) and np.array_equal(i1, i2)

    def test_erase_then_equal(self, rng):
        pts = rng.uniform(0, 10, size=(800, 2))
        tr = recursive_tree(pts.copy())
        tb = KDTree(pts.copy())
        assert tr.erase(pts[::3]) == tb.erase(pts[::3])
        assert np.array_equal(tr.alive, tb.alive)
        assert np.array_equal(tr.live, tb.live)

    def test_bdl_rebuilds_through_engine(self, rng):
        # every unit conversion / under-half reinsert rebuild lands on
        # the same trees whichever builder runs it
        pts = rng.uniform(0, 10, size=(1500, 3))
        trees = {}
        costs = {}
        for eng in ("recursive", "batched"):
            tracker.reset()
            with recursive_builds() if eng == "recursive" else nullcontext():
                b = BDLTree(3, buffer_size=128)
                for i in range(0, 1500, 300):
                    b.insert(pts[i : i + 300])
                b.erase(pts[50:400])
                b.insert(pts[50:200])
            costs[eng] = tracker.reset()
            trees[eng] = b
        br, bb = trees["recursive"], trees["batched"]
        assert br.bitmask == bb.bitmask
        for tr, tb in zip(br.trees, bb.trees):
            assert (tr is None) == (tb is None)
            if tr is not None:
                assert_same_tree(tr, tb, "bdl static tree")
        assert costs["recursive"].work == costs["batched"].work
        assert np.isclose(
            costs["recursive"].depth, costs["batched"].depth, rtol=1e-9
        )
        qs = rng.uniform(0, 10, size=(100, 3))
        d1, g1 = br.knn(qs, 4)
        d2, g2 = bb.knn(qs, 4)
        assert np.array_equal(d1, d2) and np.array_equal(g1, g2)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


def _points(d, min_n, max_n):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_n, max_n), st.just(d)),
        elements=finite,
    )


class TestEngineProperties:
    @given(data=st.data(), dim=st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_knn_and_range_equivalence(self, data, dim):
        pts = data.draw(_points(dim, 8, 80))
        qs = data.draw(_points(dim, 1, 20))
        k = data.draw(st.integers(1, 6))
        delete = data.draw(st.booleans())
        t = KDTree(pts.copy())
        if delete and len(pts) > 10:
            t.erase(pts[:: max(2, len(pts) // 5)])

        (dr, ir), cr = costed(walk_knn, t, qs, k)
        (db, ib), cb = costed(frontier_knn, t, qs, k)
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert_same_cost(cr, cb, "prop knn")

        lo = np.minimum(qs[: len(qs) // 2 + 1], pts.min(axis=0))
        hi = lo + np.abs(data.draw(_points(dim, 1, 1))[0])
        rr, crr = costed(walk_box, t, lo, np.maximum(lo, hi))
        rb, crb = costed(frontier_box, t, lo, np.maximum(lo, hi))
        for a, b in zip(rr, rb):
            assert np.array_equal(a, b)
        assert_same_cost(crr, crb, "prop range")

    @given(data=st.data(), dim=st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_build_engine_equivalence(self, data, dim):
        pts = data.draw(_points(dim, 1, 120))
        leaf_size = data.draw(st.integers(1, 8))
        tr, cr = costed(recursive_tree, pts.copy(), leaf_size=leaf_size)
        tb, cb = costed(KDTree, pts.copy(), leaf_size=leaf_size)
        assert_same_tree(tr, tb, "prop build")
        assert cr.work == cb.work and cr.depth == cb.depth

    @given(data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_bdl_knn_with_bound_equivalence(self, data):
        # integer-grid coordinates force distance ties; erases exercise
        # tombstones and reinserts; bounds are finite or inf per row
        lim = data.draw(st.sampled_from([3, 50]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 300))
        m = data.draw(st.integers(1, 12))
        pts = rng.integers(-lim, lim + 1, size=(n, 2)).astype(np.float64)
        qs = rng.integers(-lim, lim + 1, size=(m, 2)).astype(np.float64)
        k = data.draw(st.integers(1, 5))
        exclude_self = data.draw(st.booleans())
        finite = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
        bound = np.where(finite, rng.uniform(0.0, 2.0 * lim, size=m), np.inf)
        b = BDLTree(2, buffer_size=data.draw(st.sampled_from([4, 16, 64])))
        half = len(pts) // 2
        b.insert(pts[:half])
        b.insert(pts[half:])
        if data.draw(st.booleans()):
            b.erase(pts[:: data.draw(st.integers(2, 5))])

        (dw, iw), cw = costed_on("walk", b.knn, qs, k, exclude_self, bound)
        (df, if_), cf = costed_on("frontier", b.knn, qs, k, exclude_self, bound)
        assert np.array_equal(dw, df)
        assert np.array_equal(iw, if_)
        assert_same_cost(cw, cf, "prop bdl bound")

        # the bound only prunes: every kept distance is below it, and
        # the kept distances are the unbounded answer's ones below it
        du, _ = b.knn(qs, k, exclude_self)
        for row in range(len(qs)):
            kept = dw[row][np.isfinite(dw[row])]
            assert np.all(kept < bound[row])
            want = du[row][du[row] < bound[row]]
            assert np.array_equal(kept, want[: len(kept)])
            if not exclude_self:
                assert len(kept) == len(want)


# ----------------------------------------------------------------------
# the crossover: public entry == walk == frontier on either side of it
# ----------------------------------------------------------------------
KNN_SIZES = sorted({1, KNN_CROSSOVER - 1, KNN_CROSSOVER, KNN_CROSSOVER + 1})
RANGE_SIZES = sorted({1, RANGE_CROSSOVER - 1, RANGE_CROSSOVER, RANGE_CROSSOVER + 1})


def _equal(a, b):
    if isinstance(a, tuple):
        return all(np.array_equal(x, y) for x, y in zip(a, b))
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _three_way(label, public, walk, frontier):
    """Zero-argument calls of one query on its three routes: results
    bitwise-equal, work equal, depth equal up to summation order."""
    rp, cp = costed(public)
    rw, cw = costed(walk)
    rf, cf = costed(frontier)
    assert _equal(rp, rw), f"{label}: public != walk"
    assert _equal(rp, rf), f"{label}: public != frontier"
    assert_same_cost(cp, cw, f"{label} walk")
    assert_same_cost(cp, cf, f"{label} frontier")


def _on(path, fn, *args):
    def run():
        # forced paths run in-process, whatever backend is active
        with use_backend("sequential"), forced(path):
            return fn(*args)
    return run


def _bounds(rng, m):
    return np.where(rng.random(m) < 0.5, np.inf, rng.uniform(0.05, 2.0, m))


#: cube side per dimension, so unit-radius queries keep hitting points
_SIDE = {2: 10.0, 3: 5.0, 5: 2.5}


@pytest.mark.parametrize("backend", BACKENDS)
class TestCrossover:
    # in 3D and up a squared distance summed in another order differs
    # in the last bit, so pruning and ball membership would diverge
    @pytest.mark.parametrize("dim", [3, 5])
    def test_kdtree_and_bdl_in_higher_dims(self, backend, rng, dim):
        self.test_kdtree(backend, rng, dim)
        self.test_bdl(backend, rng, dim)

    def test_kdtree(self, backend, rng, dim=2):
        side = _SIDE[dim]
        pts = rng.uniform(0, side, size=(600, dim))
        t = KDTree(pts)
        with use_backend(backend, 2):
            for m in KNN_SIZES:
                qs = pts[:m]
                for ex in (False, True):
                    _three_way(
                        f"knn m={m} exclude_self={ex}",
                        lambda: t.knn(qs, 4, ex),
                        lambda: walk_knn(t, qs, 4, ex),
                        lambda: frontier_knn(t, qs, 4, ex),
                    )
                    bound = _bounds(rng, m)
                    _three_way(
                        f"knn m={m} exclude_self={ex} bound",
                        lambda: knn_across([t], qs, 4, ex, bound),
                        lambda: walk_knn(t, qs, 4, ex, bound),
                        lambda: frontier_knn(t, qs, 4, ex, bound),
                    )
            for m in RANGE_SIZES:
                c = rng.uniform(0, side, size=(m, dim))
                r = rng.uniform(0.2, 1.5, size=m)
                _three_way(
                    f"box m={m}",
                    lambda: range_query_batch(t, c - 1, c + 1),
                    lambda: walk_box(t, c - 1, c + 1),
                    lambda: frontier_box(t, c - 1, c + 1),
                )
                _three_way(
                    f"ball m={m}",
                    lambda: range_query_ball_batch(t, c, r),
                    lambda: walk_ball(t, c, r),
                    lambda: frontier_ball(t, c, r),
                )

    def test_bdl(self, backend, rng, dim=2):
        side = _SIDE[dim]
        pts = rng.uniform(0, side, size=(900, dim))
        b = BDLTree(dim, buffer_size=64)
        for i in range(0, 900, 300):
            b.insert(pts[i : i + 300])
        b.erase(pts[::7])
        b.insert(rng.uniform(0, side, size=(20, dim)))  # some stay buffered
        assert len(b.buf_pts)
        with use_backend(backend, 2):
            for m in KNN_SIZES:
                qs = pts[1 : m + 1]
                for ex in (False, True):
                    for bound in (None, _bounds(rng, m)):
                        label = f"bdl knn m={m} ex={ex} bound={bound is not None}"
                        _three_way(
                            label,
                            lambda: b.knn(qs, 4, ex, bound),
                            _on("walk", b.knn, qs, 4, ex, bound),
                            _on("frontier", b.knn, qs, 4, ex, bound),
                        )
            for m in RANGE_SIZES:
                c = rng.uniform(0, side, size=(m, dim))
                _three_way(
                    f"bdl box m={m}",
                    lambda: b.range_query_box_batch(c - 1, c + 1),
                    _on("walk", b.range_query_box_batch, c - 1, c + 1),
                    _on("frontier", b.range_query_box_batch, c - 1, c + 1),
                )
                _three_way(
                    f"bdl ball m={m}",
                    lambda: b.range_query_ball_batch(c, 0.8),
                    _on("walk", b.range_query_ball_batch, c, 0.8),
                    _on("frontier", b.range_query_ball_batch, c, 0.8),
                )

    def test_sharded_index(self, backend, rng):
        pts = rng.uniform(0, 10, size=(1200, 2))
        idx = ShardedIndex(pts, 4)
        try:
            with use_backend(backend, 2):
                for m in KNN_SIZES:
                    qs = pts[2 : m + 2]
                    for ex in (False, True):
                        _three_way(
                            f"sharded knn m={m} ex={ex}",
                            lambda: idx.knn(qs, 5, ex),
                            _on("walk", idx.knn, qs, 5, ex),
                            _on("frontier", idx.knn, qs, 5, ex),
                        )
                for m in RANGE_SIZES:
                    c = rng.uniform(0, 10, size=(m, 2))
                    _three_way(
                        f"sharded box m={m}",
                        lambda: idx.range_query_box_batch(c - 1, c + 1),
                        _on("walk", idx.range_query_box_batch, c - 1, c + 1),
                        _on("frontier", idx.range_query_box_batch, c - 1, c + 1),
                    )
                    _three_way(
                        f"sharded ball m={m}",
                        lambda: idx.range_query_ball_batch(c, 0.8),
                        _on("walk", idx.range_query_ball_batch, c, 0.8),
                        _on("frontier", idx.range_query_ball_batch, c, 0.8),
                    )
        finally:
            idx.close()
