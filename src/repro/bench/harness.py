"""Benchmark harness: wall-clock timing plus simulated parallel speedup.

The paper reports T_1 (one thread) and T_36h (36 cores, two-way
hyper-threading).  Here T_1 is measured wall-clock and T_p comes from
the work-depth cost model (DESIGN.md §1): the tracked (W, D) of the run
give the Brent-bound speedup, which is applied to the measured T_1.

``REPRO_BENCH_SCALE`` scales every benchmark's input size (default 1.0;
the defaults are chosen so the whole suite runs in minutes in Python).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import (
    HYPERTHREAD_FACTOR,
    Cost,
    simulated_speedup,
    tracker,
)

__all__ = [
    "EngineComparison",
    "Measurement",
    "measure",
    "measure_engines",
    "Table",
    "bench_scale",
    "PAPER_CORES",
]

#: the paper's machine: 36 cores, 2-way hyper-threading
PAPER_CORES = 36 * HYPERTHREAD_FACTOR


def bench_scale(n: int) -> int:
    """Scale a benchmark size by the REPRO_BENCH_SCALE env var."""
    return max(16, int(n * float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))))


@dataclass
class Measurement:
    """One benchmark run: wall time + modeled parallel behavior.

    ``meta`` carries run metadata (n, dims, k, engine, repeat, backend,
    ...) so serialized records are self-describing; :func:`measure`
    always stamps ``repeat`` and the scheduler ``backend``.
    """

    name: str
    t1: float  # measured single-thread wall-clock seconds
    cost: Cost
    result: object = None
    meta: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)  # best run's spans when traced

    def speedup(self, workers: float = PAPER_CORES) -> float:
        # a parallel implementation can always fall back to its serial
        # schedule, so the modeled speedup is never below 1
        return max(1.0, simulated_speedup(self.cost, workers))

    def tp(self, workers: float = PAPER_CORES) -> float:
        s = self.speedup(workers)
        return self.t1 / s if s > 0 else self.t1

    def to_json(self) -> dict:
        """A self-describing JSON-ready record of this run."""
        return {
            "name": self.name,
            "t1": self.t1,
            "work": self.cost.work,
            "depth": self.cost.depth,
            "meta": dict(self.meta),
        }


def measure(name: str, fn, *args, repeat: int = 1, meta: dict | None = None,
            tracing: bool = False, **kwargs) -> Measurement:
    """Run ``fn`` and capture wall time and work-depth cost.

    ``meta`` is merged into the measurement's metadata, alongside the
    automatically recorded ``repeat`` and scheduler ``backend``.  With
    ``tracing=True`` each repeat runs under a fresh span recorder (see
    :mod:`repro.obs`) rooted at ``name``; the best run's spans are kept
    on the measurement.
    """
    best_t = float("inf")
    cost = Cost()
    result = None
    spans: list = []
    for _ in range(max(repeat, 1)):
        tracker.reset()
        if tracing:
            from ..obs import trace

            t0 = time.perf_counter()
            with trace(name) as rec:
                result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        if dt < best_t:
            best_t = dt
            cost = tracker.total()
            if tracing:
                spans = rec.spans()
    tracker.reset()
    full_meta = {"repeat": max(repeat, 1), "backend": get_scheduler().backend}
    if tracing:
        full_meta["tracing"] = True
    if meta:
        full_meta.update(meta)
    return Measurement(name, best_t, cost, result, full_meta, spans)


@dataclass
class EngineComparison:
    """Wall-clock comparison of one query workload across engines."""

    name: str
    batched: Measurement
    recursive: Measurement

    @property
    def ratio(self) -> float:
        """How many times faster the batched engine ran (wall-clock)."""
        if self.batched.t1 <= 0:
            return float("inf")
        return self.recursive.t1 / self.batched.t1

    def charges_match(self, rtol: float = 1e-9) -> bool:
        cb, cr = self.batched.cost, self.recursive.cost
        return (
            abs(cb.work - cr.work) <= rtol * max(cr.work, 1.0)
            and abs(cb.depth - cr.depth) <= rtol * max(cr.depth, 1.0)
        )

    def summary(self) -> str:
        return (
            f"{self.name}: batched {self.batched.t1:.4g}s vs recursive "
            f"{self.recursive.t1:.4g}s ({self.ratio:.2f}x), "
            f"charges {'match' if self.charges_match() else 'DIFFER'}"
        )

    def to_json(self) -> dict:
        """Self-describing record: both engines' runs + shared metadata.

        Metadata common to both runs (n, dims, k, repeat, backend, ...)
        is lifted into a top-level ``meta`` so a ``BENCH_*.json`` entry
        explains itself without reference to the generating script.
        """
        b, r = self.batched.to_json(), self.recursive.to_json()
        shared = {k: v for k, v in b["meta"].items()
                  if k in r["meta"] and r["meta"][k] == v and k != "engine"}
        for rec in (b, r):
            rec["meta"] = {k: v for k, v in rec["meta"].items() if k not in shared}
        return {
            "name": self.name,
            "meta": shared,
            "ratio": self.ratio,
            "charges_match": self.charges_match(),
            "batched": b,
            "recursive": r,
        }


def measure_engines(name: str, batched, recursive, *args, repeat: int = 1,
                    meta: dict | None = None, **kwargs) -> EngineComparison:
    """Time one query workload on both execution paths and compare.

    ``batched`` and ``recursive`` are the two implementations of the
    same operation (e.g. the frontier and walk paths of
    :func:`repro.kdtree.knn.knn_across`), each called with ``*args`` and
    ``**kwargs``.  Returns the two measurements plus the wall-clock
    ratio; their work/depth charges should agree (``charges_match``)
    since the paths are cost-equivalent by construction.
    """
    return EngineComparison(
        name,
        measure(f"{name}[batched]", batched, *args, repeat=repeat,
                meta={**(meta or {}), "engine": "batched"}, **kwargs),
        measure(f"{name}[recursive]", recursive, *args, repeat=repeat,
                meta={**(meta or {}), "engine": "recursive"}, **kwargs),
    )


class Table:
    """Accumulates measurement rows and prints a paper-style table."""

    def __init__(self, title: str, columns: tuple[str, ...] = ("T1", "T36h", "speedup")):
        self.title = title
        self.columns = columns
        self.rows: list[tuple] = []

    def add(self, m: Measurement, workers: float = PAPER_CORES, extra: str = "") -> None:
        self.rows.append(
            (m.name, m.t1, m.tp(workers), m.speedup(workers), extra)
        )

    def add_raw(self, name: str, *values) -> None:
        self.rows.append((name, *values))

    def render(self) -> str:
        lines = [f"== {self.title} =="]
        head = f"{'benchmark':<42} " + " ".join(f"{c:>12}" for c in self.columns)
        lines.append(head)
        lines.append("-" * len(head))
        for row in self.rows:
            name = row[0]
            cells = []
            for v in row[1:]:
                if isinstance(v, float):
                    cells.append(f"{v:>12.4g}")
                else:
                    cells.append(f"{v!s:>12}")
            lines.append(f"{name:<42} " + " ".join(cells))
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render())
