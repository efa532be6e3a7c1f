"""Both execution paths of each kd-tree query, callable directly.

The public entry points pick the per-query walk or the batched
frontier engine from the batch size, and kd-trees always build level
at a time.  These helpers run one specific path, so tests can compare
the paths (and the public entry point) bitwise.
"""

import contextlib
import importlib
import math

import numpy as np

from repro.kdtree import batch

# the package re-exports functions under the submodules' names, so
# ``import repro.kdtree.knn`` would give the function, not the module
_knn = importlib.import_module("repro.kdtree.knn")
_range = importlib.import_module("repro.kdtree.range_search")
_tree = importlib.import_module("repro.kdtree.tree")

KNN_CROSSOVER = _knn._KNN_FRONTIER_MIN
RANGE_CROSSOVER = _range._RANGE_FRONTIER_MIN

recursive_tree = _tree._recursive_tree


def _f64(a):
    return np.asarray(a, dtype=np.float64)


def walk_knn(tree, qs, k, exclude_self=False, bound=None):
    return _knn._knn_walk([tree], _f64(qs), k, exclude_self, bound)


def frontier_knn(tree, qs, k, exclude_self=False, bound=None):
    return _knn._knn_frontier([tree], _f64(qs), k, exclude_self, bound)


def walk_box(tree, los, his):
    return _range._box_walk(tree, _f64(los), _f64(his))


def frontier_box(tree, los, his):
    return batch.batched_range_query_batch(tree, los, his)


def walk_ball(tree, centers, radii):
    return _range._ball_walk(tree, _f64(centers), radii)


def frontier_ball(tree, centers, radii):
    return batch.batched_range_query_ball_batch(tree, centers, radii)


@contextlib.contextmanager
def forced(path):
    """Run every public kNN / box / ball entry point on one path
    ("walk" or "frontier"), in this process only."""
    limit = 0 if path == "frontier" else math.inf
    saved = _knn._KNN_FRONTIER_MIN, _range._RANGE_FRONTIER_MIN
    _knn._KNN_FRONTIER_MIN = _range._RANGE_FRONTIER_MIN = limit
    try:
        yield
    finally:
        _knn._KNN_FRONTIER_MIN, _range._RANGE_FRONTIER_MIN = saved


@contextlib.contextmanager
def recursive_builds():
    """Build every object-median KDTree (BDL rebuilds included) by the
    per-node recursion instead of level at a time, in this process."""
    saved = _tree.build_batched
    _tree.build_batched = _tree.KDTree._build
    try:
        yield
    finally:
        _tree.build_batched = saved
