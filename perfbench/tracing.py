"""In-memory span tracer that times the program's layers from outside.

The traced run wraps public callables of ``repro`` (functions, methods,
classmethods, coroutines) in timing spans.  Nothing inside ``src/`` is
changed: a wrapper is installed on the owning class or module when the
traced run starts and removed when it ends.

Every span records its name, start and end (``time.perf_counter_ns``,
which is the system-wide monotonic clock on Linux, so spans recorded in
a child process line up with the parent's), its parent span, and a root
id shared by every span of one request or epoch.  Parents are tracked
per thread, so spans from the service's ingest thread and its HTTP
thread do not nest into each other.  Coroutine spans are recorded
detached (no parent, no children): other tasks run on the same thread
while a coroutine waits, so nesting would be wrong.

Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, List, Optional

# Span fields, stored as a list for cheap construction on the hot path.
NAME, START, END, PARENT, ROOT, THREAD, ATTRS = range(7)


class Tracer:
    """Record spans around wrapped callables; undo the wrapping on close."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._roots = itertools.count()
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, attrs: Optional[dict] = None,
              detached: bool = False) -> list:
        stack = None if detached else self._stack()
        parent = stack[-1] if stack else None
        root = parent[ROOT] if parent is not None else next(self._roots)
        span = [name, time.perf_counter_ns(), 0, parent, root,
                threading.get_ident(), attrs]
        self.spans.append(span)
        if stack is not None:
            stack.append(span)
        return span

    def end(self, span: list, detached: bool = False) -> None:
        span[END] = time.perf_counter_ns()
        if not detached:
            stack = self._stack()
            if stack and stack[-1] is span:
                stack.pop()

    def span(self, name: str, **attrs):
        """Context manager for a span opened by the benchmark itself
        (e.g. one epoch), so the program's spans below share its id."""
        return _SpanContext(self, name, attrs or None)

    # -- wrapping --------------------------------------------------------- #

    def wrap(self, owner: Any, attr: str, name: str,
             attrs: Optional[Callable[..., dict]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(*args, **kwargs)``, when given, is evaluated on the call's
        arguments and stored on the span (sizes, counts).
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                span = tracer.begin(
                    name, attrs(*args, **kwargs) if attrs else None,
                    detached=True)
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer.end(span, detached=True)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                span = tracer.begin(
                    name, attrs(*args, **kwargs) if attrs else None)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer.end(span)

        wrapped = kind(wrapper) if kind is not None else wrapper
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw, wrapped))

    @contextmanager
    def paused(self):
        """Run the block with the original callables (e.g. untimed input
        generation), then put the wrappers back."""
        for owner, attr, raw, _ in reversed(self._patches):
            setattr(owner, attr, raw)
        try:
            yield
        finally:
            for owner, attr, _, wrapped in self._patches:
                setattr(owner, attr, wrapped)

    def close(self) -> None:
        """Restore every wrapped callable (reverse order)."""
        while self._patches:
            owner, attr, raw, _ = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output ----------------------------------------------------------- #

    def records(self) -> List[Dict[str, Any]]:
        """Spans as plain dicts with integer ids and parent ids."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        out = []
        for i, span in enumerate(self.spans):
            parent = span[PARENT]
            out.append({"id": i, "name": span[NAME], "start_ns": span[START],
                        "end_ns": span[END],
                        "parent": None if parent is None
                        else index[id(parent)],
                        "root": span[ROOT], "thread": span[THREAD],
                        "attrs": span[ATTRS]})
        return out

    def write(self, path: str) -> None:
        """Write all spans as JSON lines (once, at the end of a run)."""
        with open(path, "w", encoding="utf-8") as out:
            for record in self.records():
                out.write(json.dumps(record) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "attrs", "span")

    def __init__(self, tracer: Tracer, name: str,
                 attrs: Optional[dict]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        self.span = self.tracer.begin(self.name, self.attrs)
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.span)


class NullTracer:
    """The untraced run: no wrappers, no spans, no cost."""

    def span(self, name: str, **attrs):
        return nullcontext()

    def paused(self):
        return nullcontext()

    def close(self) -> None:
        pass


def load_records(path: str) -> List[Dict[str, Any]]:
    """Read spans written by :meth:`Tracer.write` (e.g. by a child)."""
    with open(path, encoding="utf-8") as src:
        return [json.loads(line) for line in src if line.strip()]


class SpanSet:
    """Span records plus the derived per-span self time.

    Self time is a span's duration minus the durations of its direct
    children (children of a synchronous span run inside it, on the same
    thread, one after another).
    """

    def __init__(self, records: List[Dict[str, Any]]) -> None:
        self.records = records
        child_ns = [0] * len(records)
        for rec in records:
            if rec["parent"] is not None:
                child_ns[rec["parent"]] += rec["end_ns"] - rec["start_ns"]
        for rec, inner in zip(records, child_ns):
            rec["dur_ns"] = rec["end_ns"] - rec["start_ns"]
            rec["self_ns"] = rec["dur_ns"] - inner

    def named(self, name: str, under: Optional[str] = None) -> List[dict]:
        """Spans called ``name``; with ``under``, only those that have an
        ancestor called ``under``."""
        found = [r for r in self.records if r["name"] == name]
        if under is None:
            return found
        return [r for r in found if self.has_ancestor(r, under)]

    def has_ancestor(self, rec: Dict[str, Any], name: str) -> bool:
        parent = rec["parent"]
        while parent is not None:
            ancestor = self.records[parent]
            if ancestor["name"] == name:
                return True
            parent = ancestor["parent"]
        return False

    def total_ms(self, name: str, under: Optional[str] = None,
                 self_time: bool = False) -> float:
        key = "self_ns" if self_time else "dur_ns"
        return sum(r[key] for r in self.named(name, under)) / 1e6

    def count(self, name: str, under: Optional[str] = None) -> int:
        return len(self.named(name, under))

    def mean_ms(self, name: str, under: Optional[str] = None,
                self_time: bool = False) -> float:
        n = self.count(name, under)
        return self.total_ms(name, under, self_time) / n if n else 0.0

    def covered_ms(self, names, window_ns: Optional[tuple] = None,
                   thread: Optional[int] = None) -> float:
        """Wall time covered by the union of spans named in ``names``
        (clipped to ``window_ns`` and restricted to ``thread`` when
        given) — the share of a timed region the layers account for."""
        intervals = []
        for rec in self.records:
            if rec["name"] not in names:
                continue
            if thread is not None and rec["thread"] != thread:
                continue
            lo, hi = rec["start_ns"], rec["end_ns"]
            if window_ns is not None:
                lo, hi = max(lo, window_ns[0]), min(hi, window_ns[1])
            if hi > lo:
                intervals.append((lo, hi))
        intervals.sort()
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return covered / 1e6

    def table(self) -> List[Dict[str, Any]]:
        """Per span name: calls, total and self milliseconds."""
        rows: Dict[str, Dict[str, Any]] = {}
        for rec in self.records:
            row = rows.setdefault(rec["name"], {"name": rec["name"],
                                                "calls": 0, "total_ms": 0.0,
                                                "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += rec["dur_ns"] / 1e6
            row["self_ms"] += rec["self_ns"] / 1e6
        return sorted(rows.values(), key=lambda r: -r["self_ms"])
