"""stream_views: one writer replaying mutations and reads on live views.

A ``BDLTree`` over 2D Gaussian blobs carries a ``ViewManager`` with three
views (closest pair, DBSCAN, 2D hull).  The writer runs a closed loop:
insert or erase batches of a few points (each repairs every view before
it returns) interleaved with view reads and single-point kNN on the
live tree.  Repair cost that grows with the index size, rather than the
batch, shows here and nowhere else.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import cKDTree

from common import HostSpeed, Outcome, check, mean, peak_rss_mb, pct
from tracing import Tracer, overhead_frac

import repro.kdtree.batch as kd_batch
from repro import BDLTree, ViewManager
from repro.parlay.workdepth import capture
from repro.views import ClosestPairView, DBSCANView, HullView

VIEWS = ("closest_pair", "dbscan", "hull2d")


class Blobs:
    """Gaussian blobs with density independent of the point count.

    The layout comes from the configured ``dataset_seed``; so do the
    initial points (see :func:`run`), while the run seed draws the op
    stream, including every inserted point and every erase pick.
    """

    def __init__(self, n: int, cfg: dict):
        rng = np.random.default_rng(cfg["dataset_seed"])
        side = np.sqrt(n / cfg["density"])
        k = cfg["blobs"]
        self.centers = rng.uniform(0.1 * side, 0.9 * side, size=(k, 2))
        self.sigma = side * rng.uniform(*cfg["blob_sigma"], size=k)

    def sample(self, rng, m: int) -> np.ndarray:
        lab = rng.integers(len(self.centers), size=m)
        return self.centers[lab] + rng.standard_normal((m, 2)) * self.sigma[lab, None]


def _build(pts: np.ndarray, cfg: dict):
    tree = BDLTree(2)
    tree.insert(pts)
    mgr = ViewManager(tree)
    mgr.closest_pair()
    mgr.dbscan(eps=cfg["eps"], min_pts=cfg["min_pts"])
    mgr.hull2d()
    return tree, mgr


def _ops(rng, blobs: Blobs, cfg: dict):
    """Endless op stream; erase batches are drawn from the live set.

    Ops come in shuffled blocks with a fixed mix, so every run of the
    same length does the same share of inserts, erases and reads.
    """
    n = cfg["mix_block"]
    n_mut = round(n * cfg["mutation_frac"])
    n_ins = round(n_mut * cfg["insert_share"])
    n_view = (n - n_mut) // 2
    block = (["insert"] * n_ins + ["erase"] * (n_mut - n_ins)
             + ["read"] * n_view + ["knn"] * (n - n_mut - n_view))
    b = cfg["batch"]
    while True:
        for kind in rng.permutation(block):
            if kind == "insert":
                yield kind, blobs.sample(rng, b)
            elif kind == "erase":
                yield kind, rng.integers(1 << 62, size=b)
            elif kind == "read":
                yield kind, VIEWS[int(rng.integers(len(VIEWS)))]
            else:
                yield kind, blobs.sample(rng, 1)


class _Live:
    """The benchmark's own copy of the live point set (for erase picks)."""

    def __init__(self, pts):
        self.pts = list(pts)

    def add(self, pts):
        self.pts.extend(pts)

    def pick_and_remove(self, keys) -> np.ndarray:
        out = []
        for key in keys:
            i = int(key % len(self.pts))
            out.append(self.pts[i])
            last = self.pts.pop()
            if i < len(self.pts):
                self.pts[i] = last
        return np.array(out, dtype=np.float64)


def _apply(tree, mgr, kind: str, arg, k: int):
    """Run one op through the public API."""
    if kind == "insert":
        return mgr.insert(arg)
    if kind == "erase":
        return mgr.erase(arg)
    if kind == "read":
        return mgr.get(arg)
    return tree.knn(arg, k)


def _view_counts(mgr) -> tuple:
    st = mgr.stats()
    return tuple((n, st[n]["repairs"], st[n]["recomputes"]) for n in VIEWS)


def _install_shims(tracer, tree, mgr) -> None:
    tracer.wrap(mgr, "insert", "views.insert")
    tracer.wrap(mgr, "erase", "views.erase")
    tracer.wrap(mgr, "get", "views.read")
    for name in VIEWS:
        view = mgr.views[name]
        tracer.wrap(view, "apply_insert", f"views.{name}.repair")
        tracer.wrap(view, "apply_erase", f"views.{name}.repair")
    tracer.wrap(tree, "insert", "bdl.insert")
    tracer.wrap(tree, "erase", "bdl.erase")
    tracer.wrap(tree, "knn", "bdl.knn")
    tracer.wrap(kd_batch, "batched_knn_into", "kdtree.knn_call",
                size_of=lambda a, kw: len(a[1]))


def _paired_overhead(pts: np.ndarray, script, cfg) -> float:
    """Traced versus untraced time of the run's first ops, in pairs.

    Two fresh copies of the tree and views replay the same ops block by
    block: one copy with the shims installed (on a spare tracer), the
    other without, in alternating order, so both copies go through the
    same states.
    """
    k, n = cfg["k"], cfg["mix_block"]
    copies = {arm: _build(pts, cfg) for arm in (True, False)}
    traced, untraced = [], []
    for i in range(len(script) // n):
        block = script[i * n:(i + 1) * n]
        for arm in ((True, False) if i % 2 == 0 else (False, True)):
            tree, mgr = copies[arm]
            spare = Tracer() if arm else None
            if spare is not None:
                _install_shims(spare, tree, mgr)
            t0 = time.perf_counter()
            for kind, arg in block:
                _apply(tree, mgr, kind, arg, k)
            (traced if arm else untraced).append(time.perf_counter() - t0)
            if spare is not None:
                spare.restore()
    return overhead_frac(traced, untraced)


def _verify_samples(samples, cfg, k: int) -> None:
    """Views bitwise-equal to from-spare compute; kNN equal to cKDTree."""
    for s in samples:
        pts, gids = s["pts"], s["gids"]
        ref = {
            "closest_pair": ClosestPairView.compute(pts, gids),
            "dbscan": DBSCANView.compute(pts, gids, eps=cfg["eps"],
                                         min_pts=cfg["min_pts"]),
            "hull2d": HullView.compute(pts, gids),
        }
        for name in VIEWS:
            check(s["answers"][name] == ref[name],
                  f"stream_views: view {name} differs from compute() "
                  f"at version {s['version']}")
        tree = cKDTree(pts)
        for q, (d2, gid) in s["knn"]:
            ref_d, ref_i = tree.query(q, k=k)
            check(np.allclose(np.sqrt(d2[0]), ref_d[0], rtol=1e-12, atol=0),
                  f"stream_views: kNN distances differ at version {s['version']}")
            if not np.array_equal(gids[ref_i[0]], gid[0]):
                # differing ids are legal only on distance ties
                rows = np.searchsorted(gids, gid[0])
                check(np.array_equal(gids[rows], gid[0]) and np.allclose(
                    ((pts[rows] - q[0]) ** 2).sum(axis=1), d2[0], rtol=1e-12, atol=0),
                    f"stream_views: kNN ids differ at version {s['version']}")


def run(cfg: dict, seed: int, seconds: float, tracer, speed: HostSpeed) -> Outcome:
    k = cfg["k"]
    sizes = {"points": cfg["points"], "batch": cfg["batch"],
             "mutation_frac": cfg["mutation_frac"], "eps": cfg["eps"],
             "min_pts": cfg["min_pts"], "views": list(VIEWS)}

    setups, setups_raw = [], []
    for rep in range(cfg["setup_repeats"]):
        speed.sample()
        t0 = time.perf_counter()
        blobs = Blobs(cfg["points"], cfg)
        pts = blobs.sample(np.random.default_rng([cfg["dataset_seed"], 1]),
                           cfg["points"])
        tree, mgr = _build(pts, cfg)
        warm = blobs.sample(np.random.default_rng(seed + 10_000 + rep), 4)
        tree.knn(warm, k)
        for name in VIEWS:
            mgr.get(name)
        t1 = time.perf_counter()
        speed.sample()
        setups_raw.append(t1 - t0)
        setups.append(setups_raw[-1] / speed.between(t0, t1))

    rng = np.random.default_rng([seed, 1])
    probe_rng = np.random.default_rng([seed, 2])
    ops = _ops(rng, blobs, cfg)
    live = _Live(pts)
    if tracer is not None:
        _install_shims(tracer, tree, mgr)
    counts0 = _view_counts(mgr)

    lat = {"insert": [], "erase": [], "read": [], "knn": []}
    repair, history, samples, script = [], [], [], []
    timeline = []           # (kind, seconds, start, end) of every op, in order
    pending_knn = None
    n_mut = 0
    speed.sample()
    w0 = time.perf_counter()
    while (time.perf_counter() - w0 < seconds
           or n_mut < cfg["min_mutations"]):
        kind, arg = next(ops)
        if kind == "insert":
            live.add(arg)
        elif kind == "erase":
            arg = live.pick_and_remove(arg)
        if len(script) < cfg["overhead_blocks"] * cfg["mix_block"]:
            script.append((kind, arg))
        t = time.perf_counter()
        with capture(absorb=False) as c:
            res = _apply(tree, mgr, kind, arg, k)
        t1 = time.perf_counter()
        speed.sample()      # also the probe before the next op
        dt = t1 - t
        if kind in ("insert", "erase"):
            n_mut += 1
            pending_knn = None
            repair.append(mgr.last_stats["repair_s"])
            if len(history) < cfg["count_check_mutations"]:
                history.append((kind, arg, c.work, c.depth, _view_counts(mgr)))
        elif kind == "read":
            check(res[1] == tree.version, f"stream_views: stale read of {arg}")
        elif pending_knn is not None:
            pending_knn["knn"].append((arg, res))
            pending_knn = None
        lat[kind].append(dt)
        timeline.append((kind, dt, t, t1))
        if kind in ("insert", "erase") and n_mut % cfg["sample_every"] == 1:
            # snapshot outside the op timings, verified after the run
            p, g = tree.gather_points()
            order = np.argsort(g)
            pending_knn = {"version": tree.version, "pts": p[order],
                           "gids": g[order], "knn": [],
                           "answers": {n: mgr.views[n].answer for n in VIEWS}}
            probe = blobs.sample(probe_rng, 1)
            pending_knn["knn"].append((probe, tree.knn(probe, k)))
            samples.append(pending_knn)
    wall = time.perf_counter() - w0
    rss = peak_rss_mb()
    counts1 = _view_counts(mgr)
    if tracer is not None:
        tracer.restore()

    _verify_samples(samples, cfg, k)
    check(sum(len(s["knn"]) for s in samples) > 0,
          "stream_views: no kNN read was verified")
    # exact counts: replaying the first mutations on a fresh build must
    # charge the same work/depth and make the same repairs/recomputes
    tree2, mgr2 = _build(pts, cfg)
    for kind, arg, work, depth, vc in history:
        with capture(absorb=False) as c:
            if kind == "insert":
                mgr2.insert(arg)
            else:
                mgr2.erase(arg)
        check((c.work, c.depth, _view_counts(mgr2)) == (work, depth, vc),
              "stream_views: nondeterministic work/depth or repair counts")

    muts = lat["insert"] + lat["erase"]
    n_ops = sum(len(v) for v in lat.values())
    p50, p90 = 1e3 * pct(muts, 50), 1e3 * pct(muts, 90)
    # closed-loop throughput: ops per second of library time, the
    # writer's own bookkeeping and the sampled snapshots left out
    ops_s = n_ops / sum(sum(v) for v in lat.values())
    setup_s = float(np.median(setups))
    out = Outcome(attempted=n_ops, failed=0, sizes=sizes)
    # gated figures, at the probe's reference speed: each op's time
    # divided by the factor probed around it, statistics over the run
    norm = [(kind, dt / speed.between(t0, t1)) for kind, dt, t0, t1 in timeline]
    norm_muts = [dt for kind, dt in norm if kind in ("insert", "erase")]
    out.e2e = {"setup_s": setup_s, "rss_mb": rss,
               "typical_ms": 1e3 * pct(norm_muts, 50),
               "tail_ms": 1e3 * pct(norm_muts, 90),
               "throughput_per_s": len(norm) / sum(dt for _, dt in norm)}
    out.aliases = {
        "setup_raw_s": (float(np.median(setups_raw)), "s"), "rss_mb": (rss, "MiB"),
        "error_frac": (0.0, "ratio"),
        "mut_p50_ms": (p50, "ms"), "mut_p90_ms": (p90, "ms"),
        "ops_per_s": (ops_s, "1/s"),
        "mutations": (len(muts), "count"), "ops": (n_ops, "count"),
        "verified_versions": (len(samples), "count"),
        "host_speed_factor": (speed.median_factor(), "ratio"),
    }
    out.extra = {"timed_wall_s": wall, "live_points": tree.size(),
                 "setup_runs_s": setups_raw}
    if tracer is not None:
        out.layers = _layer_metrics(tracer, repair, counts0, counts1)
        out.layers["obs.trace_overhead_frac"] = _paired_overhead(pts, script, cfg)
    return out


def _layer_metrics(tracer, repair, counts0, counts1) -> dict:
    def ms(name: str) -> float:
        return 1e3 * pct(tracer.durations(name), 50)

    m = {
        "bdl.insert_ms.p50": ms("bdl.insert"),
        "bdl.erase_ms.p50": ms("bdl.erase"),
        "bdl.knn_ms.p50": ms("bdl.knn"),
        "views.repair_ms.p50": 1e3 * pct(repair, 50),
        "views.repair_ms.p90": 1e3 * pct(repair, 90),
        "views.read_ms.p50": ms("views.read"),
    }
    for name in VIEWS:
        m[f"views.{name}.repair_ms.p50"] = ms(f"views.{name}.repair")
    rep = sum(c[1] for c in counts1) - sum(c[1] for c in counts0)
    rec = sum(c[2] for c in counts1) - sum(c[2] for c in counts0)
    m["views.recompute_frac"] = rec / (rep + rec) if rep + rec else 0.0
    calls = tracer.by_name("kdtree.knn_call")
    m["kdtree.knn_call_ms.p50"] = 1e3 * pct([s.dur for s in calls], 50)
    m["kdtree.queries_per_call.mean"] = mean([s.attrs["size"] for s in calls])
    selfs = tracer.self_times()
    roots = {"views": ("views.insert", "views.erase"),
             "bdl": ("bdl.insert", "bdl.erase", "bdl.knn"),
             "kdtree": ("kdtree.knn_call",)}
    for lay, names in roots.items():
        vals = [selfs[s.sid] for s in tracer.spans if s.name in names]
        m[f"{lay}.self_ms.p50"] = 1e3 * pct(vals, 50)
    return m
