"""``repro.cluster`` — sharded spatial index with scatter-gather routing.

Partitions a dataset into shards along the Hilbert curve
(:class:`HilbertPartitioner`), keeps each shard batch-dynamic
(:class:`Shard` wraps a BDL-tree + bounding box), and answers the full
query API by scatter-gather with geometric pruning
(:class:`ShardedIndex`): range queries visit only shards whose boxes
intersect the query region, kNN runs two-phase (home-shard probe, then
a fan-out bounded by the candidate k-th distance).  Per-shard slabs are
charged as parallel children in the work–depth model, so simulated
``T_p`` shows scatter-gather scaling; :func:`compare_cluster` measures
it against a monolithic tree.
"""

from .bench import compare_cluster, compare_procs
from .index import ShardedIndex
from .partitioner import HilbertPartitioner
from .router import merge_knn, plan_ball, plan_box
from .shard import Shard
from .snapshot import SnapshotManager, attach_snapshot, release_all_snapshots

__all__ = [
    "HilbertPartitioner",
    "Shard",
    "ShardedIndex",
    "SnapshotManager",
    "attach_snapshot",
    "compare_cluster",
    "compare_procs",
    "merge_knn",
    "plan_ball",
    "plan_box",
    "release_all_snapshots",
]
