"""In-memory span tracing from outside the library.

The benchmark records spans around calls into each layer's public
functions without touching the library: :meth:`Tracer.wrap` replaces a
method on one injected object (or a function on a module) with a timing
shim, and :meth:`Tracer.restore` puts every original back.  A span has
a name, start, end, parent and the ids of the requests it served; spans
of one request share its id.  Spans stay in memory until the run ends.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Children are the spans opened inside
it on the same thread, plus the spans :meth:`Tracer.children` is told
to adopt: root spans another thread recorded for the same request (the
front-end answers on a worker thread).
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field

_MISSING = object()


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    reqs: tuple = ()
    attrs: dict = field(default_factory=dict)
    thread: int = 0

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"sid": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "reqs": list(self.reqs), "thread": self.thread, **self.attrs}


class Tracer:
    """Span recorder plus the shims that feed it."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        #: request ids submitted on a thread since its last batch span;
        #: the next batch-opening span (``batch=True``) takes them
        self._pending = threading.local()

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, reqs=(), **attrs) -> Span:
        st = self._stack()
        sp = Span(next(self._ids), name, self.clock(),
                  parent=st[-1].sid if st else None, reqs=tuple(reqs),
                  attrs=attrs, thread=threading.get_ident())
        if not sp.reqs and st:
            sp.reqs = st[-1].reqs
        st.append(sp)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = self.clock()
        st = self._stack()
        if st and st[-1] is sp:
            st.pop()
        with self._lock:
            self.spans.append(sp)

    def add(self, name: str, start: float, end: float, reqs=(), parent=None,
            **attrs) -> Span:
        """Record an already-finished span (e.g. a request's due-to-done)."""
        sp = Span(next(self._ids), name, start, end, parent, tuple(reqs),
                  attrs, threading.get_ident())
        with self._lock:
            self.spans.append(sp)
        return sp

    def _note_request(self, rid) -> None:
        """Queue ``rid`` for the next batch span opened on this thread."""
        lst = getattr(self._pending, "ids", None)
        if lst is None:
            lst = self._pending.ids = []
        lst.append(rid)

    def _take_pending(self) -> tuple:
        lst = getattr(self._pending, "ids", None) or []
        self._pending.ids = []
        return tuple(lst)

    # -- shims ---------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, batch: bool = False,
             req_of=None, size_of=None) -> None:
        """Replace ``owner.attr`` with a shim recording span ``name``.

        ``req_of(args, kwargs)`` returns the request id a call serves
        (it is also queued for the next ``batch=True`` span on the
        thread); ``size_of(args, kwargs)`` records the call's batch
        size as the span's ``size`` attribute.
        """
        orig = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        self._saved.append((owner, attr, own))
        tracer = self

        def attrs_for(args, kwargs) -> dict:
            return {"size": int(size_of(args, kwargs))} if size_of else {}

        @functools.wraps(orig)
        def shim(*args, **kwargs):
            reqs = ()
            if req_of is not None:
                rid = req_of(args, kwargs)
                if rid is not None:
                    reqs = (rid,)
                    tracer._note_request(rid)
            elif batch:
                reqs = tracer._take_pending()
            sp = tracer.open(name, reqs, **attrs_for(args, kwargs))
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.close(sp)

        setattr(owner, attr, shim)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- analysis ------------------------------------------------------
    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> list[float]:
        return [s.dur for s in self.spans if s.name == name]

    def children(self, adopt: dict[int, list[Span]] | None = None
                 ) -> dict[int, list[Span]]:
        """Child spans of each span id; ``adopt`` adds cross-thread ones."""
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        for sid, extra in (adopt or {}).items():
            kids.setdefault(sid, []).extend(extra)
        return kids

    def self_times(self, kids: dict[int, list[Span]] | None = None) -> dict[int, float]:
        """Self time of every span, given its children (default: same thread)."""
        if kids is None:
            kids = self.children()
        return {s.sid: s.dur - covered(s, kids.get(s.sid, ())) for s in self.spans}

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in sorted(self.spans, key=lambda s: s.start)]


def covered(sp: Span, kids) -> float:
    """Length of the union of ``kids``' intervals clipped to ``sp``."""
    ivs = sorted((max(k.start, sp.start), min(k.end, sp.end)) for k in kids)
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def overhead_frac(traced_s, untraced_s) -> float:
    """Tracing overhead from paired runs of the same work.

    Each pair ran one slice of work with the shims installed and a
    matching slice without (in alternating order); the result is the
    median of traced/untraced minus one.  Timing noise can make it
    negative when the true overhead is below it.
    """
    ratios = [t / u for t, u in zip(traced_s, untraced_s)]
    return float(statistics.median(ratios)) - 1.0
