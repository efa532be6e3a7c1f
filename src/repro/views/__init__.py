"""``repro.views`` — batch-dynamic materialized views (DESIGN.md §10).

Subscribable, version-keyed derived answers over a batch-dynamic index
(:class:`~repro.bdl.bdltree.BDLTree` or
:class:`~repro.cluster.index.ShardedIndex`), maintained *incrementally*
under batched inserts and erases instead of recomputed per query:

* :class:`ClosestPairView` — sparse-partition closest pair; repairs
  scan only the grid neighborhoods the batch touched.
* :class:`DBSCANView` — incremental DBSCAN labels; re-clusters only
  points whose eps-neighborhood changed, merging with union-find; the
  answer tuple is built on read.
* :class:`HullView` — 2D hull maintained by a monotone chain over
  hull ∪ batch candidates.

Both grid-based views keep a :class:`Grid` over the live rows, updated
in place with every batch and queried a batch of balls at a time.

Every view obeys the canonical-equality contract (see
:mod:`repro.views.base`): its maintained answer is bitwise-equal to the
from-scratch ``compute`` reference at every version.  The
:class:`ViewManager` is the write path and the subscription hub; the
serving layer exposes registered views as the ``view`` request kind.
"""

from .base import Grid, MaterializedView, Mirror
from .closest_pair import ClosestPairView
from .dbscan import DBSCANView
from .hull2d import HullView
from .manager import ViewManager

__all__ = [
    "ClosestPairView",
    "DBSCANView",
    "Grid",
    "HullView",
    "MaterializedView",
    "Mirror",
    "ViewManager",
]
