"""serve_knn: single requests through the whole serving stack.

Path of one request: ``Frontend`` (admission, weighted-fair dispatch)
-> ``GeometryService`` (coalescing, result cache) -> ``ShardedIndex``
(home-shard probe, pruned fan-out, merge) -> per-shard ``BDLTree`` ->
kd-tree engine.  Nearly every engine call carries one query, so the
fixed cost of each call dominates.

Traffic: fresh kNN near the data, kNN repeated from a small hot set, and
small-radius ball queries.  An open-loop phase with evenly spaced
arrivals at a fixed rate gives request latency measured from each
request's due time; a closed-loop phase with one client gives the
requests per second one caller gets.  The run alternates the two phases
in many short cycles, so that a slow stretch of the host falls on both
alike.  The host's speed is probed (``common.HostSpeed``) in the open
loop's idle gaps and after each closed-loop reply.  The generator is one
asyncio loop on the main thread; the front-end adds its single executor
thread.

Two clients in the closed loop, one per core of the 2-core host, fall
into and out of step: in step the service coalesces their requests
into one engine call, out of step it does not, and the rate of 2-second
stretches moved between 114 and 206 req/s.  One client has no such
regimes.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time

import numpy as np
from scipy.spatial import cKDTree

from common import HostSpeed, InvalidRun, Outcome, check, mean, peak_rss_mb, pct
from tracing import Tracer, overhead_frac

import repro.cluster.index as cluster_index
import repro.kdtree.batch as kd_batch
from repro import Frontend, GeometryService, ShardedIndex, visual_var
from repro.parlay.workdepth import capture


#: the front-end's and service's threads finish their bookkeeping for a
#: reply after the caller has it; the probe waits this long for them, so
#: that it times the host rather than a wait for the GIL
QUIET_S = 0.002


class _Stack:
    """One index + service + front-end, as a user would assemble it."""

    def __init__(self, pts: np.ndarray):
        self.index = ShardedIndex(pts)
        self.service = GeometryService()
        self.frontend = Frontend(service=self.service)
        self.frontend.register_tenant("bench", self.index)

    async def close(self) -> None:
        await self.frontend.close()
        self.service.close()
        self.index.close()


def _requests(rng, pts, hot, n, cfg):
    """``n`` requests of the configured mix: (kind, point)."""
    mix = cfg["mix"]
    u = rng.random(n)
    base = pts[rng.integers(len(pts), size=n)]
    jitter = rng.normal(0.0, cfg["jitter"], size=(n, 2))
    hot_pick = hot[rng.integers(len(hot), size=n)]
    out = []
    for i in range(n):
        if u[i] < mix["knn_fresh"]:
            out.append(("knn", base[i] + jitter[i]))
        elif u[i] < mix["knn_fresh"] + mix["knn_hot"]:
            out.append(("knn", hot_pick[i]))
        else:
            out.append(("ball", base[i] + jitter[i]))
    return out


async def _call(fe, req, cfg):
    kind, q = req
    if kind == "knn":
        return await fe.knn("bench", q, cfg["k"], timeout=cfg["timeout_s"])
    return await fe.ball("bench", q, cfg["radius"], timeout=cfg["timeout_s"])


def _install_shims(tracer, stack: _Stack) -> None:
    svc, idx = stack.service, stack.index

    def ctx_id(args, kwargs):
        ctx = kwargs.get("ctx")
        return ctx.trace_id if ctx is not None else None

    tracer.wrap(svc, "submit", "serve.submit", req_of=ctx_id)
    tracer.wrap(svc, "flush", "serve.flush", batch=True)
    tracer.wrap(idx, "knn", "cluster.knn", size_of=lambda a, k: len(a[0]))
    tracer.wrap(idx, "range_query_ball_batch", "cluster.ball",
                size_of=lambda a, k: len(a[0]))
    tracer.wrap(cluster_index, "merge_knn", "cluster.merge")
    for shard in idx.shards:
        tracer.wrap(shard.tree, "knn", "bdl.knn", size_of=lambda a, k: len(a[0]))
        tracer.wrap(shard.tree, "range_query_ball_batch", "bdl.ball",
                    size_of=lambda a, k: len(a[0]))
    tracer.wrap(kd_batch, "batched_knn_into", "kdtree.knn_call",
                size_of=lambda a, k: len(a[1]))


async def _paired_overhead(stack: _Stack, reqs, pairs: int, cfg) -> float:
    """Traced versus untraced time of the same requests, in pairs.

    Each pair sends one slice of requests twice, one after the other,
    once with the shims installed (on a spare tracer) and once
    without, in alternating order.  Each copy moves every query point by
    its own 1e-9 so that neither copy is served from the result cache.
    """
    size = len(reqs) // pairs
    traced, untraced = [], []
    for i in range(pairs):
        chunk = reqs[i * size:(i + 1) * size]
        for arm in ((True, False) if i % 2 == 0 else (False, True)):
            shift = (2 * i + arm + 1) * 1e-9
            spare = Tracer() if arm else None
            if spare is not None:
                _install_shims(spare, stack)
            t0 = time.perf_counter()
            for kind, q in chunk:
                await _call(stack.frontend, (kind, q + shift), cfg)
            (traced if arm else untraced).append(time.perf_counter() - t0)
            if spare is not None:
                spare.restore()
    return overhead_frac(traced, untraced)


class _Log:
    """Per-request outcomes, kept for metrics and verification."""

    def __init__(self):
        self.rows = []      # (phase, req, due, sent, done, reply|None, error)

    def ok(self, phase: str):
        return [r for r in self.rows if r[5] is not None and r[0] == phase]


async def _open_loop(fe, reqs, rate, cfg, log, tracer, speed):
    """Arrivals every ``1/rate`` seconds; the host is probed in idle gaps.

    Evenly spaced, not Poisson: with Poisson arrivals at 20 req/s the
    p90 of 7.5-second stretches moved between 18 and 30 ms, with even
    spacing between 17 and 20 ms (the same process, alternating).  A
    program that slows past the spacing still builds a backlog, which
    the latency from due time shows.
    """
    clock = time.perf_counter
    t0 = clock() + 0.005
    due_at = t0 + np.arange(1, len(reqs) + 1) / rate
    tasks = []
    inflight = 0

    async def send(req, due, sent):
        nonlocal inflight
        reply = err = None
        try:
            reply = await _call(fe, req, cfg)
        except Exception as exc:  # typed refusals/timeouts count as failed
            err = exc
        done = clock()
        inflight -= 1
        log.rows.append(("open", req, due, sent, done, reply, err))
        if tracer is not None and reply is not None:
            rid = reply.trace_id
            root = tracer.add("loadgen.request", due, done, reqs=(rid,))
            tracer.add(f"frontend.{req[0]}", sent, done, reqs=(rid,),
                       parent=root.sid)

    for req, due in zip(reqs, due_at):
        if inflight == 0 and due - clock() > cfg["probe_gap_s"]:
            await asyncio.sleep(QUIET_S)
            if inflight == 0:
                speed.sample()      # nothing of the program runs now
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        inflight += 1
        tasks.append(asyncio.create_task(send(req, float(due), clock())))
    await asyncio.gather(*tasks)
    t1 = clock()
    await asyncio.sleep(QUIET_S)
    speed.sample()
    return t0, t1


async def _closed_loop(fe, it, seconds, cfg, log, speed):
    """One client sends its next request (from ``it``) when the last one
    returns, and probes the host in between."""
    clock = time.perf_counter
    end = clock() + seconds
    while clock() < end:
        req = next(it)
        sent = clock()
        reply = err = None
        try:
            reply = await _call(fe, req, cfg)
        except Exception as exc:
            err = exc
        log.rows.append(("closed", req, sent, sent, clock(), reply, err))
        await asyncio.sleep(QUIET_S)
        speed.sample()


def _verify(pts, log, cfg) -> None:
    """kNN and ball answers against scipy's cKDTree (brute force on ties)."""
    tree = cKDTree(pts)
    k = cfg["k"]
    knn = [(r[1][1], r[5].value) for r in log.rows
           if r[5] is not None and r[1][0] == "knn"]
    check(all(not r[5].approximate for r in log.rows if r[5] is not None),
          "serve_knn: an approximate reply was counted as exact")
    if knn:
        qs = np.array([q for q, _ in knn])
        ref_d, ref_i = tree.query(qs, k=k)
        for j, (q, (d2, gid)) in enumerate(knn):
            if np.array_equal(gid, ref_i[j]):
                check(np.allclose(np.sqrt(d2), ref_d[j], rtol=1e-12, atol=0),
                      f"serve_knn: kNN distances differ at query {j}")
                continue
            # differing ids are legal only on exact distance ties
            true_d2 = ((pts[gid] - q) ** 2).sum(axis=1)
            check(np.array_equal(true_d2, d2), f"serve_knn: kNN ids wrong at query {j}")
            check(np.allclose(np.sqrt(d2), ref_d[j], rtol=1e-12, atol=0),
                  f"serve_knn: kNN answer differs from cKDTree at query {j}")
    for r in log.rows:
        if r[5] is None or r[1][0] != "ball":
            continue
        c = r[1][1]
        got = np.sort(np.asarray(r[5].value))
        ref = np.sort(tree.query_ball_point(c, cfg["radius"]))
        if not np.array_equal(got, ref):
            d2 = ((pts - c) ** 2).sum(axis=1)
            exact = np.flatnonzero(d2 <= cfg["radius"] ** 2)
            check(np.array_equal(got, exact), "serve_knn: ball answer differs")


def _exact_counts(index, qs, k):
    """Charged work/depth and shard visits of one fixed kNN batch."""
    before = index.pruning_stats()
    with capture(absorb=False) as c:
        index.knn(qs, k)
    after = index.pruning_stats()
    return (c.work, c.depth, after["shard_visits"] - before["shard_visits"],
            after["queries"] - before["queries"])


def _layer_metrics(tracer, log, stats0, stats1, prune0, prune1, shards):
    opened = log.ok("open")
    phases = [r[5].phases for r in opened]
    computes = [r[5].phases["compute"] for r in opened if not r[5].cache_hit]
    late = [r[3] - r[2] for r in log.rows if r[0] == "open"]
    m = {
        "frontend.queue_wait_ms.p50": 1e3 * pct([p["queue_wait"] for p in phases], 50),
        "frontend.queue_wait_ms.p99": 1e3 * pct([p["queue_wait"] for p in phases], 99),
        "frontend.dispatch_ms.p50": 1e3 * pct([p["dispatch"] for p in phases], 50),
        "serve.compute_ms.p50": 1e3 * pct(computes, 50),
        "loadgen.late_ms.p99": 1e3 * pct(late, 99),
    }
    batches = stats1["batches"] - stats0["batches"]
    batched = stats1["batched_requests"] - stats0["batched_requests"]
    m["serve.batch_size.mean"] = batched / batches if batches else 0.0
    hits = stats1["cache_hits"] - stats0["cache_hits"]
    looked = hits + stats1["cache_misses"] - stats0["cache_misses"]
    m["serve.cache_hit_ratio"] = hits / looked if looked else 0.0
    q = prune1["queries"] - prune0["queries"]
    v = prune1["shard_visits"] - prune0["shard_visits"]
    m["cluster.touched_frac"] = v / (q * shards) if q else 0.0
    m["cluster.knn_ms.p50"] = 1e3 * pct(tracer.durations("cluster.knn"), 50)
    m["cluster.merge_ms.p50"] = 1e3 * pct(tracer.durations("cluster.merge"), 50)
    m["bdl.knn_ms.p50"] = 1e3 * pct(tracer.durations("bdl.knn"), 50)
    calls = tracer.by_name("kdtree.knn_call")
    m["kdtree.knn_call_ms.p50"] = 1e3 * pct([s.dur for s in calls], 50)
    m["kdtree.queries_per_call.mean"] = mean([s.attrs["size"] for s in calls])

    # self time along each open-loop request's path: the worker-thread
    # spans serving a request are children of its front-end span
    roots = {s.reqs[0]: s for s in tracer.by_name("loadgen.request")}
    fronts = {s.reqs[0]: s for s in tracer.spans if s.name.startswith("frontend.")}
    worker_roots = [s for s in tracer.spans
                    if s.parent is None and s.name.split(".")[0] in ("serve", "cluster")]
    adopt: dict[int, list] = {}
    for s in worker_roots:
        for rid in s.reqs:
            if rid in fronts:
                adopt.setdefault(fronts[rid].sid, []).append(s)
    kids = tracer.children(adopt)
    selfs = tracer.self_times(kids)
    rows = {r[5].trace_id: r for r in opened}
    per_layer = {lay: [] for lay in ("frontend", "serve", "cluster", "bdl", "kdtree")}
    accounted = []
    for rid, root in roots.items():
        sums = dict.fromkeys(per_layer, 0.0)
        stack, seen = [root], set()
        while stack:
            s = stack.pop()
            if s.sid in seen:
                continue
            seen.add(s.sid)
            lay = s.name.split(".")[0]
            if lay in sums:
                sums[lay] += selfs[s.sid]
            stack.extend(kids.get(s.sid, ()))
        for lay, v in sums.items():
            per_layer[lay].append(v)
        # independently measured parts of the latency: the generator's
        # lateness, the front-end's own queue wait (Reply.phases) and the
        # self times of the library layers.  The front-end span's self
        # time is left out: it is the residual, so counting it would make
        # the sum equal the latency by construction.  Hand-off gaps show
        # as a value below 1, time counted twice as one above 1.
        row = rows[rid]
        named = (row[3] - row[2] + row[5].phases["queue_wait"]
                 + sum(sums[lay] for lay in ("serve", "cluster", "bdl", "kdtree")))
        accounted.append(named / root.dur)
    for lay, vals in per_layer.items():
        m[f"{lay}.self_ms.p50"] = 1e3 * pct(vals, 50)
    m["obs.path_accounted_frac"] = pct(accounted, 50)
    return m


def run(cfg: dict, seed: int, seconds: float, tracer, speed: HostSpeed) -> Outcome:
    nproc = os.cpu_count() or 1
    rng = np.random.default_rng(seed)
    sizes = {"points": cfg["points"], "k": cfg["k"], "radius": cfg["radius"],
             "rate_rps": cfg["rate_rps"], "closed_loop_clients": 1}

    async def main():
        setups, setups_raw, stack = [], [], None
        for rep in range(cfg["setup_repeats"]):
            speed.sample()
            t0 = time.perf_counter()
            pts = visual_var(cfg["points"], 2, seed=cfg["dataset_seed"]).coords
            new = _Stack(pts)
            warm = np.random.default_rng(seed + 10_000 + rep)
            for req in _requests(warm, pts, pts[:4], cfg["warmup_requests"], cfg):
                await _call(new.frontend, req, cfg)
            t1 = time.perf_counter()
            speed.sample()
            setups_raw.append(t1 - t0)
            setups.append(setups_raw[-1] / speed.between(t0, t1))
            if stack is not None:
                await stack.close()
            stack = new
        fe, idx = stack.frontend, stack.index
        sizes["shards"] = idx.n_shards

        hot = pts[rng.integers(len(pts), size=cfg["hot_set"])] + rng.normal(
            0.0, cfg["jitter"], size=(cfg["hot_set"], 2))
        open_s = seconds * cfg["open_share"]
        n_open = max(1, int(round(cfg["rate_rps"] * open_s)))
        open_reqs = _requests(rng, pts, hot, n_open, cfg)
        pool = iter(_requests(rng, pts, hot, int(cfg["closed_pool_rps"] * seconds) + 64,
                              cfg))
        cycles = cfg["cycles"]

        if tracer is not None:
            _install_shims(tracer, stack)
        stats0, prune0 = stack.service.snapshot(), idx.pruning_stats()
        log = _Log()
        threads = threading.active_count() - speed.threads
        w0 = time.perf_counter()
        open_window = 0.0
        speed.sample()
        for c in range(cycles):
            part = open_reqs[c * n_open // cycles:(c + 1) * n_open // cycles]
            t_open0, t_open1 = await _open_loop(fe, part, cfg["rate_rps"], cfg, log,
                                                tracer, speed)
            open_window += t_open1 - t_open0
            threads = max(threads, threading.active_count() - speed.threads)
            await _closed_loop(fe, pool, (seconds - open_s) / cycles, cfg, log, speed)
        wall = time.perf_counter() - w0
        rss = peak_rss_mb()
        stats1, prune1 = stack.service.snapshot(), idx.pruning_stats()
        layers = {}
        if tracer is not None:
            tracer.restore()
            layers = _layer_metrics(tracer, log, stats0, stats1, prune0, prune1,
                                    idx.n_shards)
            extra = _requests(np.random.default_rng([seed, 3]), pts, hot,
                              cfg["overhead_pairs"] * cfg["overhead_slice"], cfg)
            layers["obs.trace_overhead_frac"] = await _paired_overhead(
                stack, extra, cfg["overhead_pairs"], cfg)
        # exact counts: one fixed batch, twice, must charge identically
        fixed = np.array([q for kind, q in open_reqs[: cfg["count_check_queries"]]])
        counts = [_exact_counts(idx, fixed, cfg["k"]) for _ in range(2)]
        await stack.close()
        return dict(setups=setups, setups_raw=setups_raw, pts=pts, log=log, wall=wall, rss=rss,
                    layers=layers, counts=counts, threads=threads,
                    open_window=open_window)

    r = asyncio.run(main())
    log = r["log"]
    check(r["counts"][0] == r["counts"][1],
          f"serve_knn: nondeterministic counts {r['counts']}")
    _verify(r["pts"], log, cfg)

    opened = [row for row in log.rows if row[0] == "open"]
    ok_open = [row for row in opened if row[5] is not None]
    lat = [row[4] - row[2] for row in ok_open]
    late = [row[3] - row[2] for row in opened]
    late_p99_ms = 1e3 * pct(late, 99)
    if late_p99_ms > cfg["late_p99_limit_ms"]:
        raise InvalidRun(f"load generator fell behind: late p99 {late_p99_ms:.1f} ms "
                         f"> {cfg['late_p99_limit_ms']} ms")
    if r["threads"] > max(nproc, 2):
        raise InvalidRun(f"{r['threads']} threads on {nproc} cores")
    attempted = len(log.rows)
    failed = sum(1 for row in log.rows if row[5] is None or row[5].approximate)
    closed = [row for row in log.rows if row[0] == "closed" and row[5] is not None]
    closed_rps = len(closed) / sum(row[4] - row[2] for row in closed)
    p50, p90, p99 = (1e3 * pct(lat, q) for q in (50, 90, 99))
    setup_s = float(np.median(r["setups"]))
    out = Outcome(attempted=attempted, failed=failed, sizes=sizes)
    # gated figures, at the probe's reference speed: each request's
    # latency divided by the factor probed around it, percentiles over
    # the run
    norm = [1e3 * (row[4] - row[2]) / speed.between(row[2], row[4]) for row in ok_open]
    out.e2e = {"setup_s": setup_s, "rss_mb": r["rss"],
               "typical_ms": pct(norm, 50), "tail_ms": pct(norm, 90),
               "throughput_per_s": len(closed) / sum(
                   (row[4] - row[2]) / speed.between(row[2], row[4]) for row in closed)}
    out.aliases = {
        "setup_raw_s": (float(np.median(r["setups_raw"])), "s"), "rss_mb": (r["rss"], "MiB"),
        "error_frac": (failed / attempted, "ratio"),
        "req_p50_ms": (p50, "ms"), "req_p90_ms": (p90, "ms"),
        "req_p99_ms": (p99, "ms"),
        "closed_rps": (closed_rps, "1/s"),
        "open_loop_requests": (len(opened), "count"),
        "loadgen_late_p99_ms": (late_p99_ms, "ms"),
        "host_speed_factor": (speed.median_factor(), "ratio"),
    }
    out.layers = r["layers"]
    out.extra = {"timed_wall_s": r["wall"], "threads": r["threads"],
                 "setup_runs_s": r["setups_raw"],
                 "open_loop_window_s": r["open_window"],
                 "closed_loop_completed": len(closed),
                 "exact_counts": [list(c) for c in r["counts"]]}
    return out
