"""Scatter-gather planning and execution over a set of shards.

The router's job is twofold:

* **Plan** — decide, per query, which shards can possibly contribute.
  Box/ball queries visit only shards whose bounding boxes intersect the
  query region; kNN fans out to shards whose box mindist is within the
  candidate k-th distance established by a home-shard probe (see
  :mod:`repro.cluster.index`).  Plans are (m, n_shards) boolean masks
  computed by one vectorized box-arithmetic pass.
* **Execute** — run one slab per planned shard and charge the slabs as
  *parallel children* in the work–depth model
  (:meth:`repro.parlay.scheduler.Scheduler.parallel_do` composes the
  per-shard frames as sum-work / max-depth + log-fanout), so simulated
  ``T_p`` reflects scatter-gather scaling: the critical path is the
  slowest shard plus the merge, not the sum of shards.

Gather ordering is canonical: kNN candidates merge by
``lexsort((gid, d2, qidx))`` — ascending distance, ties broken by
ascending global id — and range hits return sorted ascending by global
id.  On tie-free inputs the kNN rows are identical to a monolithic
tree's (the squared distances are computed by the same kernels either
way, and the top-k distance multiset is partition-invariant).
"""

from __future__ import annotations

import numpy as np

from ..core.distance import box_dist_sq
from ..obs.rtrace import current_trace_ids
from ..obs.span import span
from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import charge

__all__ = [
    "merge_knn",
    "plan_ball",
    "plan_box",
    "scatter",
]


def plan_box(lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray) -> np.ndarray:
    """(m, S) mask: does shard s's box intersect query box i?"""
    miss = np.any(lo[None, :, :] > qhi[:, None, :], axis=2) | np.any(
        hi[None, :, :] < qlo[:, None, :], axis=2
    )
    return ~miss


def plan_ball(lo: np.ndarray, hi: np.ndarray, centers: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """(m, S) mask: does shard s's box intersect ball i (radius² r2)?

    Empty shards carry the ``(+inf, -inf)`` sentinel box, infinitely far
    from every center, so a finite ball never plans them.
    """
    c = centers[:, None, :]
    return box_dist_sq(lo[None, :, :], hi[None, :, :], c, c) <= r2[:, None]


def scatter(
    mask: np.ndarray, run_slab, label: str, remote=None
) -> list[tuple[int, np.ndarray, object]]:
    """Execute one slab per planned shard; shards are parallel children.

    ``mask`` is the (m, S) plan; ``run_slab(shard_idx, qidx)`` executes
    shard ``shard_idx``'s slab over query rows ``qidx`` and returns its
    result.  Returns ``[(shard_idx, qidx, result), ...]`` for the
    shards with non-empty slabs.  The scheduler composes the slab costs
    as sum-work / max-depth, which is exactly the scatter-gather DAG.

    ``remote`` is the declarative form of the same slabs for the
    ``processes`` backend: a callable ``remote(shard_idx, qidx)``
    returning a picklable payload for
    :func:`repro.cluster.procwork.run_slab`.  When the active backend
    is ``processes`` (and ``remote`` is given) slabs are dispatched to
    the worker pool with the shard index as affinity — shard-pinned
    workers read the shard's state from shared memory — with identical
    cost composition, results and gather order; on the other backends
    ``remote`` is ignored and the closures run as usual.
    """
    active = np.flatnonzero(mask.any(axis=0))
    slabs = [np.flatnonzero(mask[:, s]) for s in active]
    sched = get_scheduler()
    # the serve-layer batch executing on this thread, if any: shard and
    # worker spans are tagged with its member trace ids so one exported
    # timeline names the requests each lane computed for
    trace_ids = current_trace_ids()

    if remote is not None and sched.backend == "processes":
        tasks = [(int(s), remote(int(s), q)) for s, q in zip(active, slabs)]
        results = sched.process_map("repro.cluster.procwork:run_slab", tasks)
        return [(int(s), q, r) for s, q, r in zip(active, slabs, results)]

    def make(s: int, qidx: np.ndarray):
        def thunk():
            kw = {"trace_ids": trace_ids} if trace_ids else {}
            with span(f"cluster.{label}.shard", cat="cluster",
                      shard=int(s), batch=len(qidx), **kw):
                return run_slab(int(s), qidx)

        return thunk

    results = sched.parallel_do(
        [make(int(s), q) for s, q in zip(active, slabs)]
    )
    return [(int(s), q, r) for s, q, r in zip(active, slabs, results)]


def merge_knn(
    m: int, kk: int, parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical top-``kk`` merge of per-shard kNN slabs.

    ``parts`` holds ``(qidx, d2, gid)`` triples: slab rows ``d2``/``gid``
    of shape (len(qidx), kk) padded with inf/-1.  Returns (m, kk)
    arrays, each row the kk globally-nearest candidates sorted by
    (distance, gid) — deterministic under any sharding.
    """
    out_d = np.full((m, kk), np.inf)
    out_g = np.full((m, kk), -1, dtype=np.int64)
    if not parts:
        return out_d, out_g
    q = np.concatenate([np.repeat(qidx, d2.shape[1]) for qidx, d2, _ in parts])
    d = np.concatenate([d2.ravel() for _, d2, _ in parts])
    g = np.concatenate([gid.ravel() for _, _, gid in parts])
    valid = g >= 0
    q, d, g = q[valid], d[valid], g[valid]
    if not len(q):
        return out_d, out_g
    charge(len(q))
    order = np.lexsort((g, d, q))
    q, d, g = q[order], d[order], g[order]
    counts = np.bincount(q, minlength=m)
    starts = np.cumsum(counts) - counts
    rank = np.arange(len(q), dtype=np.int64) - starts[q]
    take = rank < kk
    out_d[q[take], rank[take]] = d[take]
    out_g[q[take], rank[take]] = g[take]
    return out_d, out_g
