"""Stream gate: incremental view maintenance vs recompute-from-scratch.

Replays one update-heavy synthetic trace (>= 30% insert/erase batches
interleaved with materialized-view reads) two ways and records both
into ``BENCH_stream.json``:

* **incremental** — a :class:`repro.views.ViewManager` over a BDLTree
  repairs the closest-pair, DBSCAN, and 2D-hull views in place after
  every mutation batch; view reads return the maintained answer;
* **recompute** — the same trace against a fresh BDLTree where every
  view read recomputes its answer from scratch over the gathered live
  points (:func:`repro.serve.run_unbatched` with a ``views=`` mapping).

Unconditional assertions (every scale):

* the trace is genuinely update-heavy: >= 30% of ops are mutations;
* **bitwise equality** — every view read's ``(answer, version)`` from
  the incremental side equals the recompute baseline exactly, at every
  version the trace observes;
* the incremental side actually repaired (each view's repair counter
  moved, and repairs dominate recompute fallbacks).

Wall-clock gate (full scale only, like the other perf gates):
incremental maintenance is at least ``MIN_SPEEDUP`` (5x) faster than
the recompute loop over the identical trace.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.bdl import BDLTree
from repro.bench import bench_scale
from repro.serve import run_unbatched, synthetic_trace
from repro.views import ClosestPairView, DBSCANView, HullView, ViewManager

from conftest import run_once

FULL_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) >= 1.0

STREAM_N = bench_scale(6000)      # seed points in the dynamic index
STREAM_OPS = bench_scale(600)     # trace length (mutations + view reads)
MUTATION_FRAC = 0.4               # drawn rate; realized is asserted >= 0.3
MUTATION_BATCH = 8
N_BLOBS = 30                      # Gaussian blobs: bounded DBSCAN components
EPS, MIN_PTS = 1.0, 6             # = one blob sigma; dense cores inside blobs
MIN_SPEEDUP = 5.0
MIN_MUTATION_FRAC = 0.3           # "update-heavy" per the gate definition

_stream_records: dict = {}


def _points():
    # clustered data, the DBSCAN workload: uniform points at these
    # densities percolate into one giant eps-component, which makes any
    # core deletion a global re-cluster (the worst case for *every*
    # incremental DBSCAN, not a property of this one)
    rng = np.random.default_rng(11)
    centers = rng.uniform(10.0, 90.0, (N_BLOBS, 2))
    return (centers[rng.integers(N_BLOBS, size=STREAM_N)]
            + rng.normal(0.0, 1.0, (STREAM_N, 2)))


def _index(coords):
    tree = BDLTree(dim=coords.shape[1])
    tree.insert(coords)
    return tree


def _views(mgr):
    mgr.closest_pair()
    mgr.dbscan(eps=EPS, min_pts=MIN_PTS)
    mgr.hull2d()


_COMPUTES = {
    "closest_pair": ClosestPairView.compute,
    "dbscan": lambda pts, gids: DBSCANView.compute(
        pts, gids, eps=EPS, min_pts=MIN_PTS),
    "hull2d": HullView.compute,
}


def _run_incremental(coords, trace):
    mgr = ViewManager(_index(coords))
    _views(mgr)
    out = []
    t0 = time.perf_counter()
    for op in trace:
        if op["op"] == "insert":
            mgr.insert(np.asarray(op["pts"], dtype=np.float64))
            out.append(None)
        elif op["op"] == "erase":
            mgr.erase(np.asarray(op["pts"], dtype=np.float64))
            out.append(None)
        else:
            out.append(mgr.get(op["name"]))
    return time.perf_counter() - t0, out, mgr


def test_stream_incremental_vs_recompute(benchmark):
    coords = _points()
    trace = synthetic_trace(
        coords, STREAM_OPS,
        kinds=("view",),
        mutation_frac=MUTATION_FRAC,
        mutation_batch=MUTATION_BATCH,
        view_names=tuple(_COMPUTES),
        seed=3,
    )
    n_mut = sum(1 for op in trace if op["op"] in ("insert", "erase"))
    n_view = len(trace) - n_mut
    assert n_mut / len(trace) >= MIN_MUTATION_FRAC, (
        f"trace is not update-heavy: {n_mut}/{len(trace)} mutations"
    )
    assert n_view > 0

    t_inc, inc, mgr = _run_incremental(coords, trace)

    t0 = time.perf_counter()
    base = run_unbatched(_index(coords), trace, views=_COMPUTES)
    t_base = time.perf_counter() - t0

    # -- bitwise equality at every observed version, unconditionally
    mismatches = [
        i for i, (a, b) in enumerate(zip(inc, base))
        if trace[i]["op"] == "view" and a != b
    ]
    assert not mismatches, (
        f"{len(mismatches)} view answers diverged from recompute "
        f"(first at op {mismatches[0]}: {trace[mismatches[0]]['name']})"
    )

    # -- the incremental side really maintained, not silently rebuilt
    stats = mgr.stats()
    for name, st in stats.items():
        assert st["repairs"] > 0, f"{name}: no incremental repairs ran"
        assert st["repairs"] > st["recomputes"], (
            f"{name}: recompute fallbacks ({st['recomputes']}) dominate "
            f"repairs ({st['repairs']})"
        )

    speedup = t_base / t_inc if t_inc > 0 else float("inf")
    hist = mgr.registry.get("view_repair_seconds")
    repair_s = {}
    for name in stats:
        h = hist.labels(name).value
        repair_s[name] = {"batches": h["count"], "seconds": h["sum"]}
    _stream_records.update({
        "n_ops": len(trace),
        "n_mutations": n_mut,
        "n_view_reads": n_view,
        "realized_mutation_frac": n_mut / len(trace),
        "incremental_s": t_inc,
        "recompute_s": t_base,
        "speedup": speedup,
        "answers_equal": True,
        "view_stats": stats,
        # per-view repair wall time over the trace's mutation batches,
        # from the manager's view_repair_seconds histogram
        "view_repair_s": repair_s,
        "speedup_gate_applied": FULL_SCALE,
    })

    if FULL_SCALE:
        assert speedup >= MIN_SPEEDUP, (
            f"incremental maintenance only {speedup:.2f}x faster than "
            f"recompute-from-scratch (gate {MIN_SPEEDUP}x)"
        )
    run_once(benchmark, lambda: None)


def teardown_module(module):
    if not _stream_records:
        return
    root = Path(__file__).resolve().parent.parent
    out = root / "BENCH_stream.json"
    payload = {
        "benchmark": "materialized views: incremental maintenance vs "
                     "recompute on an update-heavy mixed trace",
        "scale": float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
        "gates": {
            "min_speedup": MIN_SPEEDUP,
            "min_mutation_frac": MIN_MUTATION_FRAC,
            "bitwise_equality": "unconditional",
            "repairs_dominate_fallbacks": "unconditional",
        },
        "config": {
            "points": STREAM_N,
            "ops": STREAM_OPS,
            "mutation_frac": MUTATION_FRAC,
            "mutation_batch": MUTATION_BATCH,
            "views": list(_COMPUTES),
            "eps": EPS,
            "min_pts": MIN_PTS,
        },
        "results": _stream_records,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out}")
