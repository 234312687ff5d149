"""In-memory span recorder for the traced benchmark run.

A span is one timed call at a layer boundary: name, start, end, the span
that caused it (same thread), a trace id shared by the spans of one
request, and counts recorded at that boundary. Spans stay in memory and
are written out once, at the end of the run.

Layers are timed from outside: :meth:`Tracer.patch` swaps a public
function or method for a wrapper that opens a span around each call and
restores the original afterwards, so the program under test is never
edited.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    trace: int | None
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


def maybe_span(tracer: "Tracer | None", name: str, trace: int | None = None):
    """``tracer.span(name)``, or a no-op context when the run is untraced."""
    return tracer.span(name, trace) if tracer else contextlib.nullcontext()


class Tracer:
    """Collects spans from any thread; parents follow the calling thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, trace: int | None = None):
        """Time the enclosed block as one span; yields it for counts."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None and parent is not None:
            trace = parent.trace
        span = Span(next(self._ids), name, time.perf_counter_ns(), 0,
                    parent.id if parent else None, trace)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def record(self, name: str, start: int, end: int, trace: int | None = None,
               **counts) -> None:
        """Add a span measured elsewhere (e.g. a job's queue-to-done time)."""
        span = Span(next(self._ids), name, start, end, None, trace, counts)
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, function, hook=None):
        """``function`` timed as span ``name``.

        ``hook(span, args, kwargs)``, when given, runs before each call
        and returns ``after(result)``, which runs once the call returns.
        """
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                after = hook(span, args, kwargs) if hook else None
                result = function(*args, **kwargs)
                if after is not None:
                    after(result)
                return result

        return traced

    @contextlib.contextmanager
    def patch(self, owner, attr: str, name: str, hook=None):
        """Trace ``owner.attr`` (module, class or instance) while active."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, hook))
        try:
            yield
        finally:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- queries ---------------------------------------------------------
    def named(self, name: str, parent: str | None = None) -> list[Span]:
        """Spans called ``name``; with ``parent``, only those opened
        directly under a span of that name."""
        spans = [span for span in self.spans if span.name == name]
        if parent is None:
            return spans
        names = {span.id: span.name for span in self.spans}
        return [span for span in spans if names.get(span.parent) == parent]

    def self_ms(self) -> dict[str, float]:
        """Self time per span name: duration minus its children's."""
        child_ns: dict[int, int] = {}
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] = (
                    child_ns.get(span.parent, 0) + span.end - span.start
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span.end - span.start - child_ns.get(span.id, 0)
            totals[span.name] = totals.get(span.name, 0.0) + max(own, 0) / 1e6
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line (times in ns from the first)."""
        origin = min((span.start for span in self.spans), default=0)
        with open(path, "w") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps({
                    "id": span.id,
                    "name": span.name,
                    "start_ns": span.start - origin,
                    "end_ns": span.end - origin,
                    "parent": span.parent,
                    "trace": span.trace,
                    "counts": span.counts,
                }) + "\n")
