"""static_batch: the paper's batch kernels, each call on fresh inputs.

Rounds of kd-tree build + self-kNN, 2D/3D/pseudo hull, sampling SEB,
EMST, WSPD spanner and Delaunay, each round on newly generated inputs.
Batches are large, so an engine's fixed per-call cost is negligible
here; there is no front-end, serving or view work.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree, shortest_path
from scipy.spatial import ConvexHull, Delaunay, cKDTree, distance_matrix

from common import HostSpeed, Outcome, check, mean, peak_rss_mb, pct
from tracing import Tracer, overhead_frac

import repro.kdtree.batch as kd_batch
from repro import KDTree, convex_hull, delaunay, dragon, emst, uniform, visual_var, wspd_spanner
from repro.hull import at_filter
from repro.hull.hull3d import pseudo_hull3d
from repro.parlay.workdepth import capture
from repro.seb.sampling import sampling_seb
from repro.seb.welzl import welzl_mtf

#: kernel -> (layer span name, group of the end-to-end split)
KERNELS = {
    "kdbuild": ("kdtree.build", "knn_s"),
    "knn": ("kdtree.knn", "knn_s"),
    "hull2d": ("hull.hull2d", "hull_s"),
    "hull3d": ("hull.hull3d", "hull_s"),
    "pseudo3d": ("hull.pseudo3d", "hull_s"),
    "seb": ("seb.seb", "seb_s"),
    "emst": ("emst.emst", "graph_s"),
    "spanner": ("wspd.spanner", "graph_s"),
    "delaunay": ("delaunay.delaunay", "graph_s"),
}
GROUPS = ("knn_s", "hull_s", "seb_s", "graph_s")


def hull2d_pool(cfg: dict) -> np.ndarray:
    """The 2D visual-var points; each round hulls a moved copy of them.

    Generating 1M visual-var points takes seconds, longer than the hull
    itself, so each round permutes, reflects and translates this fixed
    pool (``dataset_seed``) instead.  Equal coordinates stay equal under
    the move, so repeated and collinear points keep their structure.
    """
    return visual_var(cfg["hull2d_points"], 2, seed=cfg["dataset_seed"]).coords


def inputs(cfg: dict, seed: int, r: int, pool: np.ndarray) -> dict:
    """Round ``r``'s fresh inputs."""
    s = int(np.random.SeedSequence([seed, r]).generate_state(1)[0])
    rng = np.random.default_rng(s)
    flip = rng.choice([-1.0, 1.0], size=2)
    shift = rng.uniform(0.0, 1000.0, size=2)
    return {
        "knn": uniform(cfg["knn_points"], 3, seed=s).coords,
        "hull2d": pool[rng.permutation(len(pool))] * flip + shift,
        "hull3d": dragon(cfg["hull3d_points"], seed=s).coords,
        "pseudo3d": rng.exponential(size=(cfg["pseudo3d_points"], 3)) ** 3,
        "seb": uniform(cfg["seb_points"], 5, seed=s).coords,
        "emst": visual_var(cfg["emst_points"], 2, seed=s + 1).coords,
        "spanner": visual_var(cfg["spanner_points"], 2, seed=s + 2).coords,
        "delaunay": distinct(visual_var(cfg["delaunay_points"], 2, seed=s + 3).coords),
    }


def distinct(pts: np.ndarray) -> np.ndarray:
    """First copy of each point, in input order.

    ``repro.delaunay`` returns a wrong triangulation when a point repeats
    (clipping in the visual-var generator repeats corner points), so
    the timed Delaunay input is a point set; :func:`repeated_points_probe`
    checks for the defect on every run and the run record reports it.
    """
    _, first = np.unique(pts, axis=0, return_index=True)
    return pts[np.sort(first)]


def repeated_points_probe(inp: dict) -> bool:
    """True when ``repro.delaunay`` handles a repeated point correctly."""
    pts = inp["delaunay"]
    raw = np.vstack([pts, pts[:8]])
    got = np.unique(np.sort(delaunay(raw).triangles(), axis=1), axis=0)
    ref = np.unique(np.sort(Delaunay(pts).simplices, axis=1), axis=0)
    return np.array_equal(got, ref)


#: probes of the library defects the checks know about, by the name
#: config.json lists them under: each returns True when the library
#: behaves correctly on the round's inputs
KNOWN_DEFECTS = {"delaunay_repeated_points": repeated_points_probe}


def _install_shims(tracer) -> None:
    tracer.wrap(kd_batch, "batched_knn_into", "kdtree.knn_call",
                size_of=lambda a, kw: len(a[1]))


def run_round(inp: dict, cfg: dict, tracer, speed=None) -> tuple[dict, dict, dict, dict]:
    """One call of every kernel: (outputs, seconds, (work, depth), seconds
    at the probe's reference speed).

    With ``speed`` the host is probed before and after each call.
    """
    out, secs, cost, norm = {}, {}, {}, {}
    if speed is not None:
        speed.sample()
    tree = None
    calls = {
        "kdbuild": lambda: KDTree(inp["knn"]),
        "knn": lambda: tree.knn(inp["knn"], cfg["k"], exclude_self=True),
        "hull2d": lambda: convex_hull(inp["hull2d"]),
        "hull3d": lambda: convex_hull(inp["hull3d"]),
        "pseudo3d": lambda: pseudo_hull3d(inp["pseudo3d"]),
        "seb": lambda: sampling_seb(inp["seb"]),
        "emst": lambda: emst(inp["emst"]),
        "spanner": lambda: wspd_spanner(inp["spanner"], cfg["spanner_s"]),
        "delaunay": lambda: delaunay(inp["delaunay"]),
    }
    for name, call in calls.items():
        sp = tracer.open(KERNELS[name][0]) if tracer is not None else None
        t = time.perf_counter()
        with capture(absorb=False) as c:
            res = call()
        t1 = time.perf_counter()
        secs[name] = t1 - t
        if sp is not None:
            tracer.close(sp)
        if speed is not None:
            speed.sample()
            norm[name] = secs[name] / speed.between(t, t1)
        cost[name] = (c.work, c.depth)
        out[name] = res
        if name == "kdbuild":
            tree = res
    return out, secs, cost, norm


def _outward_facets(pts: np.ndarray) -> list:
    """Facets of Qhull's hull of ``pts`` as exact (point, outward normal)."""
    hull = ConvexHull(pts)
    out = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        v = [[Fraction(float(x)) for x in pts[i]] for i in simplex]
        if pts.shape[1] == 2:
            (ax, ay), (bx, by) = v
            n = [by - ay, ax - bx]
        else:
            a, b, c = v
            u = [b[i] - a[i] for i in range(3)]
            w = [c[i] - a[i] for i in range(3)]
            n = [u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2],
                 u[0] * w[1] - u[1] * w[0]]
        if float(sum(float(x) * e for x, e in zip(n, eq[:-1]))) < 0:
            n = [-x for x in n]
        out.append((v[0], n))
    return out


def _exact_gap(q: np.ndarray, facets) -> tuple[Fraction, Fraction]:
    """(signed numerator, squared normal length) of q's largest facet gap.

    The signed distance of ``q`` from a facet is numerator / |normal|; a
    positive value means ``q`` lies outside that facet's plane.
    """
    qq = [Fraction(float(x)) for x in q]
    best = None
    for a, n in facets:
        num = sum(ni * (qi - ai) for ni, qi, ai in zip(n, qq, a))
        nn = sum(ni * ni for ni in n)
        # compare num/sqrt(nn) across facets exactly, via signed squares
        key = (num > 0, num * num / nn if num > 0 else -num * num / nn)
        if best is None or key > best[0]:
            best = (key, num, nn)
    return best[1], best[2]


def hull_diffs(pts: np.ndarray, got, eps: float) -> int:
    """Vertex disagreements with Qhull, each cleared by an exact test.

    Qhull works in floating point, so where it and the library disagree
    the disputed point is placed exactly (rational arithmetic on the
    input coordinates): a point the library dropped must not lie
    outside the library's hull by more than ``eps``, and a point it
    reported must not lie inside Qhull's hull by more than ``eps``.
    ``eps`` is the library's own contract: 0 in 2D, whose orientation
    tests have no slack; in 3D a point counts as outside a facet only
    beyond 1e-12 times the input's largest extent (``repro.hull.facets3d``).
    Raises CheckFailed on a violation; returns how many disagreements
    were cleared (a repeated point may be either copy, so coordinates
    are compared).
    """
    got = np.asarray(got)
    ref = ConvexHull(pts).vertices
    a = {tuple(p) for p in pts[got]}
    b = {tuple(p) for p in pts[ref]}
    e = Fraction(eps)
    if b - a:
        mine = _outward_facets(pts[got])
        for q in b - a:
            num, nn = _exact_gap(np.array(q), mine)
            check(num <= 0 or num * num <= e * e * nn,
                  f"static_batch: hull misses point {tuple(map(float, q))} (exactly outside it)")
    if a - b:
        theirs = _outward_facets(pts[ref])
        for q in a - b:
            num, nn = _exact_gap(np.array(q), theirs)
            check(num >= 0 or num * num <= e * e * nn,
                  f"static_batch: hull vertex {tuple(map(float, q))} lies inside the hull")
    return len(a ^ b)


def hull3d_eps(pts: np.ndarray) -> float:
    """The 3D hulls' visibility threshold for ``pts`` (absolute distance)."""
    return 1e-12 * max(float(np.max(pts.max(axis=0) - pts.min(axis=0))), 1.0)


def verify(inp: dict, out: dict, cfg: dict) -> int:
    """Every kernel's output against an independent reference.

    Returns how many outputs differed from scipy/Qhull and passed an
    exact check instead (the floating-point reference cannot decide
    near-degenerate points).
    """
    x = inp["knn"]
    d2, ids = out["knn"]
    ref_d, ref_i = cKDTree(x).query(x, k=cfg["k"] + 1)
    check(np.allclose(np.sqrt(d2), ref_d[:, 1:], rtol=1e-12, atol=0),
          "static_batch: kNN distances differ from cKDTree")
    rows = np.flatnonzero((ids != ref_i[:, 1:]).any(axis=1))
    for i in rows:  # differing ids are legal only on distance ties
        check(np.allclose(((x[ids[i]] - x[i]) ** 2).sum(axis=1), d2[i],
                          rtol=1e-12, atol=0), "static_batch: kNN ids wrong")

    near = hull_diffs(inp["hull2d"], out["hull2d"], 0.0)
    near += hull_diffs(inp["hull3d"], out["hull3d"], hull3d_eps(inp["hull3d"]))
    near += hull_diffs(inp["pseudo3d"], out["pseudo3d"][0], hull3d_eps(inp["pseudo3d"]))

    # SEB: contains every point, and is the ball welzl_mtf finds for the
    # points on its boundary (so no smaller ball encloses the input)
    ball, _ = out["seb"]
    p = inp["seb"]
    dist = np.sqrt(((p - ball.center) ** 2).sum(axis=1))
    check(dist.max() <= ball.radius * (1 + 1e-9), "static_batch: SEB misses a point")
    shell = p[dist >= ball.radius * (1 - 1e-9)]
    ref = welzl_mtf(shell)
    check(np.isclose(ref.radius, ball.radius, rtol=1e-9, atol=0)
          and np.allclose(ref.center, ball.center, rtol=0, atol=1e-9 * ball.radius),
          "static_batch: SEB differs from welzl_mtf")

    # a repeated point adds a zero-length edge, so the MST weight of the
    # distinct points is the reference (scipy reads dense 0 as no edge)
    g = inp["emst"]
    _, w = out["emst"]
    u = np.unique(g, axis=0)
    ref_w = minimum_spanning_tree(distance_matrix(u, u)).sum()
    check(len(w) == len(g) - 1 and np.isclose(w.sum(), ref_w, rtol=1e-9, atol=0),
          "static_batch: EMST weight differs from scipy's MST")

    # spanner: every pair's graph distance within t = (s+4)/(s-4) of
    # Euclid; a sparse graph keeps zero-length edges as edges
    s = inp["spanner"]
    gr = out["spanner"]
    n = len(s)
    adj = csr_matrix((gr.weights, (gr.edges[:, 0], gr.edges[:, 1])), shape=(n, n))
    sp = shortest_path(adj, directed=False)
    t = (cfg["spanner_s"] + 4) / (cfg["spanner_s"] - 4)
    check(np.all(sp <= t * distance_matrix(s, s) * (1 + 1e-9) + 1e-9),
          "static_batch: spanner stretch exceeds its bound")

    tris = out["delaunay"].triangles()
    ref = np.sort(Delaunay(inp["delaunay"]).simplices, axis=1)
    if not np.array_equal(np.unique(np.sort(tris, axis=1), axis=0),
                          np.unique(ref, axis=0)):
        # Qhull drops near-coincident points and picks among cocircular
        # splits; then check the Delaunay property exactly instead
        exact_delaunay_check(inp["delaunay"], tris)
        near += 1
    return near


def exact_delaunay_check(pts: np.ndarray, tris: np.ndarray) -> None:
    """A triangulation of every point whose edges are all locally Delaunay.

    Orientation and in-circle tests run in exact rational arithmetic; the
    triangle areas must sum to the convex hull's area.
    """
    P = [(Fraction(float(x)), Fraction(float(y))) for x, y in pts]

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def incircle(a, b, c, p):
        ax, ay = a[0] - p[0], a[1] - p[1]
        bx, by = b[0] - p[0], b[1] - p[1]
        cx, cy = c[0] - p[0], c[1] - p[1]
        return ((ax * ax + ay * ay) * (bx * cy - cx * by)
                - (bx * bx + by * by) * (ax * cy - cx * ay)
                + (cx * cx + cy * cy) * (ax * by - bx * ay))

    check(len(np.unique(tris)) == len(pts), "static_batch: Delaunay skips points")
    check(all(orient(P[a], P[b], P[c]) > 0 for a, b, c in tris),
          "static_batch: Delaunay triangle not counter-clockwise")
    area = sum(float(orient(P[a], P[b], P[c])) for a, b, c in tris) / 2
    check(np.isclose(area, ConvexHull(pts).volume, rtol=1e-9, atol=0),
          "static_batch: Delaunay triangles do not tile the hull")
    across: dict[tuple, list] = {}
    for t, (a, b, c) in enumerate(tris):
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            across.setdefault((min(u, v), max(u, v)), []).append((t, w))
    for pair in across.values():
        check(len(pair) <= 2, "static_batch: Delaunay edge in 3+ triangles")
        if len(pair) == 2:
            (t1, _), (_, w2) = pair
            a, b, c = tris[t1]
            check(incircle(P[a], P[b], P[c], P[w2]) <= 0,
                  "static_batch: Delaunay edge is not locally Delaunay")


def run(cfg: dict, seed: int, seconds: float, tracer, speed: HostSpeed) -> Outcome:
    sizes = {k: v for k, v in cfg.items() if k.endswith("_points")}
    sizes.update(k=cfg["k"], spanner_s=cfg["spanner_s"])

    setups, setups_raw = [], []
    for rep in range(cfg["setup_repeats"]):
        speed.sample()
        t0 = time.perf_counter()
        pool = hull2d_pool(cfg)
        inp = inputs(cfg, seed, 0, pool)
        small = {k: v[: cfg["warmup_points"]] for k, v in inp.items()}
        run_round(small, cfg, None)
        t1 = time.perf_counter()
        speed.sample()
        setups_raw.append(t1 - t0)
        setups.append(setups_raw[-1] / speed.between(t0, t1))

    if tracer is not None:
        _install_shims(tracer)
    secs, norm, costs = [], [], []
    extra = {"at_keep_frac": [], "fraction_sampled": []}
    cleared = 0
    w0 = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - w0 < seconds:
        if r:
            inp = inputs(cfg, seed, r, pool)
        out, sec, cost, nsec = run_round(inp, cfg, tracer, speed)
        cleared += verify(inp, out, cfg)
        if r == 0:
            first = (inp, cost)
        secs.append(sec)
        norm.append(nsec)
        costs.append(cost)
        extra["fraction_sampled"].append(out["seb"][1].fraction_sampled)
        if tracer is not None:
            extra["at_keep_frac"].append(float(at_filter(inp["hull2d"]).mean()))
        r += 1
    wall = time.perf_counter() - w0
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.restore()

    # exact counts: round 0 again must charge the same work and depth.
    # The traced run reruns it in pairs, with and without the shims, for
    # the tracing overhead.
    reruns, timed = [], {True: [], False: []}
    arms = [(False,)] if tracer is None else [
        (True, False) if i % 2 == 0 else (False, True)
        for i in range(cfg["overhead_pairs"])]
    for pair in arms:
        for arm in pair:
            spare = Tracer() if arm else None
            if spare is not None:
                _install_shims(spare)
            t0 = time.perf_counter()
            _, _, again, _ = run_round(first[0], cfg, spare)
            timed[arm].append(time.perf_counter() - t0)
            if spare is not None:
                spare.restore()
            reruns.append(again)
    check(all(c == first[1] for c in reruns),
          "static_batch: nondeterministic work/depth charges")
    reproduced = sorted(name for name, probe in KNOWN_DEFECTS.items()
                        if not probe(first[0]))

    rounds = [sum(s.values()) for s in secs]
    group = {g: [sum(v for k, v in s.items() if KERNELS[k][1] == g) for s in secs]
             for g in GROUPS}
    # gated figures, at the probe's reference speed, from medians over
    # the rounds (a heavy-tailed pseudo-hull sample moves one round, not
    # the median): a typical round is the sum of each kernel's median
    # call, the tail the slowest kernel's median call
    med = {k: pct([s[k] for s in norm], 50) for k in KERNELS}
    typical = 1e3 * sum(med.values())
    tail = 1e3 * max(med.values())
    thr = pct([len(KERNELS) / sum(s.values()) for s in norm], 50)
    setup_s = float(np.median(setups))
    out = Outcome(attempted=len(rounds) * len(KERNELS), failed=0, sizes=sizes)
    out.e2e = {"setup_s": setup_s, "rss_mb": rss, "typical_ms": typical,
               "tail_ms": tail, "throughput_per_s": thr}
    out.aliases = {"setup_raw_s": (float(np.median(setups_raw)), "s"),
                   "rss_mb": (rss, "MiB"),
                   "error_frac": (0.0, "ratio"), "rounds": (len(rounds), "count"),
                   "round_p50_ms": (1e3 * pct(rounds, 50), "ms"),
                   "round_max_ms": (1e3 * max(rounds), "ms"),
                   "slowest_kernel_p50_ms": (1e3 * max(pct([s[k] for s in secs], 50)
                                                       for k in KERNELS), "ms"),
                   "calls_per_s": (len(KERNELS) * len(rounds) / sum(rounds), "1/s"),
                   "host_speed_factor": (speed.median_factor(), "ratio"),
                   "exactly_cleared_reference_diffs": (cleared, "count")}
    for g in GROUPS:
        out.aliases[g] = (pct(group[g], 50), "s")
    out.extra = {"timed_wall_s": wall, "rounds": len(rounds), "setup_runs_s": setups_raw,
                 "kernel_ms_p50_at_reference_speed": {k: 1e3 * v for k, v in med.items()}}
    out.known_defects = {"expected": sorted(cfg["known_defects"]),
                         "reproduced": reproduced}
    if tracer is not None:
        out.layers = _layer_metrics(tracer, secs, costs, extra)
        out.layers["obs.trace_overhead_frac"] = overhead_frac(timed[True], timed[False])
    return out


def _layer_metrics(tracer, secs, costs, extra) -> dict:
    med_s = {k: pct([s[k] for s in secs], 50) for k in KERNELS}
    work = {k: pct([c[k][0] for c in costs], 50) for k in KERNELS}
    depth = {k: pct([c[k][1] for c in costs], 50) for k in KERNELS}
    calls = tracer.by_name("kdtree.knn_call")
    m = {
        "kdtree.build_s": med_s["kdbuild"], "kdtree.knn_s": med_s["knn"],
        "kdtree.knn.work": work["knn"], "kdtree.knn.depth": depth["knn"],
        "kdtree.knn_call_ms.p50": 1e3 * pct([s.dur for s in calls], 50),
        "kdtree.queries_per_call.mean": mean([s.attrs["size"] for s in calls]),
        "hull.hull2d_s": med_s["hull2d"], "hull.hull3d_s": med_s["hull3d"],
        "hull.pseudo3d_s": med_s["pseudo3d"],
        "hull.pseudo3d_s.max": max(s["pseudo3d"] for s in secs),
        "hull.at_keep_frac": pct(extra["at_keep_frac"], 50),
        "seb.seb_s": med_s["seb"], "seb.work": work["seb"], "seb.depth": depth["seb"],
        "seb.fraction_sampled": pct(extra["fraction_sampled"], 50),
        "emst.emst_s": med_s["emst"], "emst.work": work["emst"],
        "wspd.spanner_s": med_s["spanner"], "wspd.work": work["spanner"],
        "delaunay.delaunay_s": med_s["delaunay"], "delaunay.work": work["delaunay"],
    }
    for k in ("hull2d", "hull3d", "pseudo3d"):
        m[f"hull.{k}.work"] = work[k]
        m[f"hull.{k}.depth"] = depth[k]
    for k in KERNELS:
        per = [s[k] / (c[k][0] / 1e6) for s, c in zip(secs, costs) if c[k][0] > 0]
        m[f"parlay.{k}.s_per_mwork"] = pct(per, 50)
    return m
