"""Construction regression gate: filter-first / array-at-a-time builds.

Build gate: constructs the headline kd-tree workloads (100k uniform
points in 2D and 7D) and a BDL-tree of the same size with both
builders.  The batched (level-at-a-time) builder must
produce **bitwise-identical** node arrays and **identical** work/depth
charges — that contract is asserted unconditionally, at every scale —
and at full scale (``REPRO_BENCH_SCALE >= 1``) must be at least 3x
faster than the per-node recursion, which is the point of having it.

Hull gate: runs 2D quickhull on 200k uniform (interior-heavy) points
with and without the Akl–Toussaint prefilter.  The filtered hull must
be a **bitwise-identical index sequence** unconditionally; unlike the
builders the filter genuinely removes work (that is its job), so
instead of charge equality the gate requires the charged work to go
*down* and the wall-clock to improve by at least 2x at full scale.

Results land in ``BENCH_build.json`` at the repo root.
"""

import json
import os
import time
from pathlib import Path

from unittest import mock

import numpy as np

import repro.kdtree.tree as kd_tree
from repro.bdl import BDLTree
from repro.bench import bench_scale
from repro.hull import quickhull2d_seq
from repro.hull.hull2d import _quickhull2d
from repro.kdtree import KDTree
from repro.parlay import tracker

from conftest import data, run_once

BUILD_N = bench_scale(100_000)
HULL_N = bench_scale(200_000)
FULL_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) >= 1.0
MIN_BUILD_RATIO = 3.0
MIN_HULL_RATIO = 2.0
REPEATS = 3

_records: dict[str, dict] = {}

_TREE_FIELDS = (
    "used", "is_leaf", "split_dim", "split_val", "left", "right",
    "start", "end", "live", "perm", "box_lo", "box_hi", "gids",
)


def _timed(fn):
    """Best-of-REPEATS wall clock plus the charges of the best run."""
    out, best, cost = None, float("inf"), None
    for _ in range(REPEATS):
        tracker.reset()
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        c = tracker.reset()
        if dt < best:
            best, cost = dt, c
    return out, best, cost


def _assert_same_tree(tr, tb, label):
    for f in _TREE_FIELDS:
        assert np.array_equal(getattr(tr, f), getattr(tb, f)), (
            f"{label}: builders disagree on node field {f!r}"
        )


def _build_gate(benchmark, ds_name: str):
    pts = data(f"{ds_name}-{BUILD_N}")
    tr, t_rec, c_rec = _timed(lambda: kd_tree._recursive_tree(pts))
    tb, t_bat, c_bat = _timed(lambda: KDTree(pts))

    # exactness and charge identity are unconditional: the batched
    # builder is a wall-clock optimization only
    _assert_same_tree(tr, tb, ds_name)
    assert c_rec.work == c_bat.work, (
        f"{ds_name}: work diverged {c_rec.work} != {c_bat.work}"
    )
    assert np.isclose(c_rec.depth, c_bat.depth, rtol=1e-9), (
        f"{ds_name}: depth diverged {c_rec.depth} != {c_bat.depth}"
    )

    ratio = t_rec / t_bat if t_bat > 0 else float("inf")
    _records[f"kdtree_{ds_name}"] = {
        "n": BUILD_N, "dims": pts.shape[1],
        "recursive_s": t_rec, "batched_s": t_bat, "speedup": ratio,
        "work": c_bat.work, "depth": c_bat.depth,
    }
    print(f"\nkd build {ds_name} n={BUILD_N}: recursive {t_rec:.3f}s, "
          f"batched {t_bat:.3f}s -> {ratio:.2f}x")
    if FULL_SCALE:
        assert ratio >= MIN_BUILD_RATIO, (
            f"batched build only {ratio:.2f}x faster on {ds_name} "
            f"(gate requires >= {MIN_BUILD_RATIO}x at full scale)"
        )
    run_once(benchmark, lambda: None)


def test_kdtree_build_2d_ratio(benchmark):
    _build_gate(benchmark, "2D-U")


def test_kdtree_build_7d_ratio(benchmark):
    _build_gate(benchmark, "7D-U")


def test_bdl_build_ratio(benchmark):
    """The log-structure's unit-conversion rebuilds ride the builder."""
    pts = data(f"2D-U-{BUILD_N}")

    def build():
        b = BDLTree(pts.shape[1])
        b.insert(pts)
        return b

    def build_recursive():
        # route every static-tree build through the per-node recursion
        with mock.patch.object(kd_tree, "build_batched", KDTree._build):
            return build()

    br, t_rec, c_rec = _timed(build_recursive)
    bb, t_bat, c_bat = _timed(build)

    assert br.bitmask == bb.bitmask
    for ta, tbt in zip(br.trees, bb.trees):
        assert (ta is None) == (tbt is None)
        if ta is not None:
            _assert_same_tree(ta, tbt, "bdl")
    assert c_rec.work == c_bat.work
    assert np.isclose(c_rec.depth, c_bat.depth, rtol=1e-9)

    ratio = t_rec / t_bat if t_bat > 0 else float("inf")
    _records["bdl_2D-U"] = {
        "n": BUILD_N, "dims": pts.shape[1],
        "recursive_s": t_rec, "batched_s": t_bat, "speedup": ratio,
        "work": c_bat.work, "depth": c_bat.depth,
    }
    print(f"\nbdl build n={BUILD_N}: recursive {t_rec:.3f}s, "
          f"batched {t_bat:.3f}s -> {ratio:.2f}x")
    if FULL_SCALE:
        assert ratio >= MIN_BUILD_RATIO, (
            f"batched BDL build only {ratio:.2f}x faster "
            f"(gate requires >= {MIN_BUILD_RATIO}x at full scale)"
        )
    run_once(benchmark, lambda: None)


def test_hull_filter_ratio(benchmark):
    """Akl–Toussaint filter-first quickhull on interior-heavy input."""
    pts = data(f"2D-U-{HULL_N}")
    hu, t_unf, c_unf = _timed(lambda: _quickhull2d(pts, parallel=False))
    hf, t_fil, c_fil = _timed(lambda: quickhull2d_seq(pts))

    # the filter must be invisible in the answer, at every scale
    assert np.array_equal(hu, hf), "filtered hull diverged from unfiltered"

    ratio = t_unf / t_fil if t_fil > 0 else float("inf")
    _records["hull2d_2D-U"] = {
        "n": HULL_N, "hull_vertices": int(len(hf)),
        "unfiltered_s": t_unf, "filtered_s": t_fil, "speedup": ratio,
        "work_unfiltered": c_unf.work, "work_filtered": c_fil.work,
    }
    print(f"\nhull2d n={HULL_N}: unfiltered {t_unf:.3f}s "
          f"(W={c_unf.work:.0f}), filtered {t_fil:.3f}s "
          f"(W={c_fil.work:.0f}) -> {ratio:.2f}x")
    if FULL_SCALE:
        # on uniform input the octagon rejects the vast majority of
        # points, so the charged work must drop, not just wall-clock
        assert c_fil.work < c_unf.work, (
            f"filter did not reduce work: {c_fil.work} >= {c_unf.work}"
        )
        assert ratio >= MIN_HULL_RATIO, (
            f"filtered hull only {ratio:.2f}x faster "
            f"(gate requires >= {MIN_HULL_RATIO}x at full scale)"
        )
    run_once(benchmark, lambda: None)


def teardown_module(module):
    if not _records:
        return
    root = Path(__file__).resolve().parent.parent
    out = root / "BENCH_build.json"
    payload = {
        "benchmark": "construction: batched vs recursive build, "
                     "Akl-Toussaint filter-first hull",
        "scale": float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
        "gates": {
            "min_build_speedup": MIN_BUILD_RATIO,
            "min_hull_speedup": MIN_HULL_RATIO,
            "identical_outputs": "unconditional",
            "identical_build_charges": "unconditional",
        },
        "runs": _records,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out}")
