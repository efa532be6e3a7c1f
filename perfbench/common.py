"""Shared pieces of the benchmark: statistics, provenance, outcomes."""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import queue
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def pct(values, q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``; 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class HostSpeed:
    """How fast the shared host runs right now, from a fixed probe kernel.

    The host's speed swings by tens of percent from one second to the
    next (on the 2-core host this benchmark was tuned on, a probe moved
    between 0.71x and 1.29x of its median within seconds, and fixed
    kernels by up to 1.7x between rounds).  So the workloads probe right
    before and after each timed unit of work (a kernel call, an op, a
    request), when nothing of the program runs, and divide the unit's
    time by the factor :meth:`between` gives for it, probe time over
    ``ref_ms``: the gated times are given at the speed at which the
    probe takes ``ref_ms``.  Measured there, normalizing each call of a
    fixed kd-tree/EMST kernel cut the spread of 30-call medians from 0.12
    to 0.016 (IQR/median).  The probe is the benchmark's own code, so a
    faster or slower program moves the normalized figures as it moves
    the raw ones, which are printed and recorded beside them.

    One probe mixes interpreted Python (dict updates in a loop), small
    numpy calls, a sort that fits in cache and a random gather over an
    array that does not, the kinds of work the library does.  With
    ``hops`` the probe's kernel runs at the end of a chain of that many
    threads, each waking the next, for work that crosses threads as a
    served request does: in slow stretches of the host a hand-off slows
    more than computing does.
    """

    WINDOW_S = 0.25

    def __init__(self, ref_ms: float, hops: int = 0):
        rng = np.random.default_rng(12345)
        self._sort = rng.random(50_000)
        self._big = rng.random(1 << 21)
        self._idx = rng.integers(len(self._big), size=200_000)
        self._small = rng.random((8, 2))
        self.ref_s = ref_ms / 1e3
        self.times: list[float] = []    # when each sample ended
        self.factors: list[float] = []
        # with hops, the probe kernel runs at the end of a chain of
        # threads, each waking the next, as a request crosses threads
        self._queues = [queue.SimpleQueue() for _ in range(hops)]
        self._threads = [threading.Thread(target=self._hop, args=(i,), daemon=True)
                         for i in range(hops)]
        for t in self._threads:
            t.start()
        self.sample()                   # the first call pays for page faults
        self.times.clear()
        self.factors.clear()

    @property
    def threads(self) -> int:
        return len(self._threads)

    def _kernel(self) -> None:
        d: dict = {}
        for i in range(6000):
            d[i & 511] = d.get(i & 511, 0) + i
        for _ in range(300):
            (self._small * self._small).sum(axis=1).argmin()
        np.sort(self._sort)
        self._big[self._idx].sum()

    def _hop(self, i: int) -> None:
        while (done := self._queues[i].get()) is not None:
            if i + 1 < len(self._queues):
                self._queues[i + 1].put(done)
            else:
                self._kernel()
                done.set()

    def sample(self) -> None:
        """Probe now and record the factor (probe time / reference)."""
        t = time.perf_counter()
        if self._queues:
            done = threading.Event()
            self._queues[0].put(done)
            done.wait()
        else:
            self._kernel()
        end = time.perf_counter()
        self.times.append(end)
        self.factors.append((end - t) / self.ref_s)

    def close(self) -> None:
        """Stop the hop threads and wait for them."""
        for q in self._queues:
            q.put(None)
        for t in self._threads:
            t.join()

    def between(self, t0: float, t1: float) -> float:
        """Factor of work done from ``t0`` to ``t1``.

        The median of the samples taken within ``WINDOW_S`` of the work,
        and at least of the last sample before it and the first after
        it: one probe is short, so a single sample can catch a pause of
        the virtual machine that the work around it did not.
        """
        i = bisect.bisect_left(self.times, t0 - self.WINDOW_S)
        j = bisect.bisect_right(self.times, t1 + self.WINDOW_S)
        lo = min(i, max(bisect.bisect_right(self.times, t0) - 1, 0))
        hi = max(j, bisect.bisect_left(self.times, t1) + 1)
        return float(np.median(self.factors[lo:hi]))

    def median_factor(self) -> float:
        return float(np.median(self.factors)) if self.factors else 1.0


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


class CheckFailed(Exception):
    """An output or determinism check failed: the run is not correct."""


class InvalidRun(Exception):
    """The run cannot be scored (e.g. the load generator fell behind)."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Outcome:
    """What one workload run measured.

    ``e2e`` holds the end-to-end metrics under the names BENCHMARK.json
    declares; ``aliases`` holds the same figures under the
    workload-specific names (``req_p50_ms``, ``knn_s``, ...) the report
    prints; ``layers`` the per-layer metrics of a traced run;
    ``known_defects`` the library defects the workload is expected to
    reproduce and those it did.
    """

    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)
    aliases: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    known_defects: dict = field(default_factory=dict)


def source_digest(root: Path) -> str:
    """sha256 over the library sources, naming the code measured."""
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(root: Path, workload: str, seed: int, trace: bool,
               sizes: dict) -> dict:
    import scipy

    from repro.parlay.scheduler import get_scheduler

    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "scheduler_backend": get_scheduler().backend,
        "sizes": sizes,
        "argv": sys.argv[1:],
    }
