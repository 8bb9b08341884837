"""Span recorder for the traced benchmark run.

The benchmark measures every layer *from outside*: a span is recorded by
a wrapper that the benchmark installs around a public callable of the
program (``SpanRecorder.wrap``), or it is synthesised from a duration the
program already returns (``SpanRecorder.add``, e.g. a rank's compute
seconds out of ``BackendRun.timings``).  Nothing under ``src/`` knows
about spans.

A span carries name, layer, start, end, parent id and the solve/job id.
Spans stay in memory; ``chrome_trace`` renders them when the run ends.
A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "SpanRecorder", "NullRecorder", "ROOT_LAYER"]

#: layer of the root span the harness opens around one solve/job; its self
#: time is what the trace could not attribute to any layer of the program
ROOT_LAYER = "unattributed"
#: Chrome-trace thread id for spans synthesised from worker-side figures
RANK_TID = 1_000_000


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "job", "tid")

    def __init__(self, id, name, layer, start, end, parent, job, tid):
        self.id = id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job
        self.tid = tid

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullRecorder:
    """Recorder of the untraced run: records nothing, wraps nothing."""

    enabled = False

    @contextmanager
    def span(self, name, layer, job=None, root=False):
        yield None

    def wrap(self, owner, attr, name, layer, job_of=None, after=None):
        pass

    def restore(self):
        pass


class SpanRecorder:
    """In-memory span store with a per-thread stack of open spans.

    A span opened on a thread with no open span (the service dispatcher)
    is parented to the root span of its job: ``span(..., job=key,
    root=True)`` on the client thread registers the root, and the first
    dispatcher-side span that names the job makes it the thread's current
    job.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._job_roots: Dict[Any, int] = {}
        self._patched: List[tuple] = []
        self._root_cache: tuple = (-1, {})  # (span count, span id -> root id)

    # -------------------------------------------------------------- #
    # recording
    # -------------------------------------------------------------- #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, job: Any = None,
             root: bool = False) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
            if job is None:
                job = stack[-1].job
        else:
            if job is None:
                job = getattr(self._local, "job", None)
            else:
                self._local.job = job
            parent = self._job_roots.get(job)
        span = Span(next(self._ids), name, layer, time.perf_counter(), None,
                    parent, job, threading.get_ident())
        if root:
            self._job_roots[job] = span.id
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, layer: str, job: Any = None,
             root: bool = False):
        sp = self.open(name, layer, job, root)
        try:
            yield sp
        finally:
            self.close(sp)

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Span) -> Span:
        """A span synthesised from a duration the program returned."""
        span = Span(next(self._ids), name, layer, start, end, parent.id,
                    parent.job, RANK_TID)
        self.spans.append(span)
        return span

    # -------------------------------------------------------------- #
    # wrapping public callables
    # -------------------------------------------------------------- #
    def wrap(self, owner: Any, attr: str, name: str, layer: str,
             job_of: Optional[Callable[..., Any]] = None,
             after: Optional[Callable[[Span, Any], None]] = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``job_of(*args, **kwargs)`` names the job a call belongs to;
        ``after(span, result)`` runs once the call returned, to synthesise
        child spans from what it returned.  ``restore`` undoes every wrap.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)

        def wrapper(*args, **kwargs):
            job = job_of(*args, **kwargs) if job_of is not None else None
            sp = self.open(name, layer, job)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(sp)
            if after is not None:
                after(sp, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, own))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -------------------------------------------------------------- #
    # analysis
    # -------------------------------------------------------------- #
    def self_times(self) -> Dict[int, float]:
        children: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = {}
        for s in self.spans:
            covered, edge = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s.id] = s.duration - covered
        return out

    def _root_of(self) -> Dict[int, int]:
        if self._root_cache[0] == len(self.spans):
            return self._root_cache[1]
        by_id = {s.id: s for s in self.spans}
        root: Dict[int, int] = {}
        for s in self.spans:
            chain, cur = [], s
            while cur.id not in root and cur.parent in by_id:
                chain.append(cur.id)
                cur = by_id[cur.parent]
            top = root.get(cur.id, cur.id)
            root[cur.id] = top
            for sid in chain:
                root[sid] = top
        self._root_cache = (len(self.spans), root)
        return root

    def roots(self, root_name: str) -> List[Span]:
        return [s for s in self.spans
                if s.parent is None and s.name == root_name]

    def per_root(self, root_name: str, span_name: str,
                 self_time: bool = False) -> List[float]:
        """Per root span, the summed duration of its ``span_name`` spans."""
        root = self._root_of()
        selfs = self.self_times() if self_time else None
        sums = {r.id: 0.0 for r in self.roots(root_name)}
        for s in self.spans:
            if s.name == span_name and root[s.id] in sums:
                sums[root[s.id]] += selfs[s.id] if selfs else s.duration
        return list(sums.values())

    def budget(self, root_name: str) -> Dict[str, Any]:
        """Self time per layer under the ``root_name`` roots.

        ``rows`` maps layer -> ``{"calls", "self_s", "share"}`` with
        ``self_s`` per root and ``share`` of the roots' total duration;
        the :data:`ROOT_LAYER` row is the part no layer accounts for.
        """
        root = self._root_of()
        selfs = self.self_times()
        roots = {r.id for r in self.roots(root_name)}
        total = sum(s.duration for s in self.spans if s.id in roots)
        rows: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            if root[s.id] not in roots:
                continue
            row = rows.setdefault(s.layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[s.id]
        n = max(len(roots), 1)
        for row in rows.values():
            row["share"] = row["self_s"] / total if total else 0.0
            row["self_s"] /= n
        return {"roots": len(roots), "root_s": total / n, "rows": rows}

    def chrome_trace(self) -> Dict[str, Any]:
        if not self.spans:
            return {"traceEvents": []}
        t0 = min(s.start for s in self.spans)
        tids = {}
        events = []
        for s in self.spans:
            tid = tids.setdefault(s.tid, len(tids))
            events.append({
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
                "tid": tid,
                "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6,
                "args": {"id": s.id, "parent": s.parent,
                         "job": None if s.job is None else str(s.job)},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
