"""Nested span tracing on ``perf_counter`` offsets, with trace writers.

A :class:`Tracer` records **spans**: named intervals measured with
:func:`time.perf_counter` against an epoch captured when the tracer was
created.  Design constraints, in order:

* **Determinism-clean.**  No wall-clock reads (``time.time``), no RNG —
  span ids come from a monotonic counter, so repro-lint stays clean and
  a traced run produces a summary bit-identical to an untraced one.
* **Per-thread nesting.**  Service dispatcher threads trace concurrent
  jobs into one tracer; each thread keeps its own span stack, so a span
  nests under the span open on *its* thread.  Jobs a process-mode
  service runs in forked workers get one parent-side ``job`` span and
  no nested spans.
* **Cheap when off.**  :data:`NULL_TRACER` spans still measure their
  own duration (two ``perf_counter`` calls — they are the pipeline's
  single measurement source for ``phase_seconds``) but store nothing.

Writers: :meth:`Tracer.write_jsonl` (one JSON object per span) and
:meth:`Tracer.write_chrome_trace` (Chrome trace-event format, loadable
in ``chrome://tracing`` and Perfetto).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer"]


class Span:
    """One named interval; used as a context manager.

    ``start`` is seconds since the tracer's epoch; ``duration`` is set
    on exit (or by :meth:`close`).  ``attrs`` are JSON-serializable
    annotations; ``lane`` names the logical track (e.g. ``"main"``,
    ``"job-3"``) the span renders on in a trace viewer.
    """

    __slots__ = ("span_id", "parent_id", "name", "lane", "start",
                 "duration", "attrs", "_tracer", "_t0")

    def __init__(self, tracer: "Tracer", span_id: int, parent_id: Optional[int],
                 name: str, lane: str, start: float,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.lane = lane
        self.start = start
        self.duration = 0.0
        self.attrs = attrs
        self._t0 = 0.0

    def annotate(self, **attrs: Any) -> None:
        """Attach extra attributes to the span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Finish the span: fix its duration and pop the nesting stack."""
        self.duration = time.perf_counter() - self._t0
        self._tracer._finish(self)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (the JSON-lines record)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "lane": self.lane,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects nested spans on one ``perf_counter`` timeline.

    Nesting is tracked per thread: a span opened while another is active
    on the same thread records it as its parent.  All mutation happens
    under one lock; span ids are issued from a monotonic counter so
    traces contain no randomness.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._stacks = threading.local()

    #: Distinguishes live tracers from :data:`NULL_TRACER` cheaply.
    enabled = True

    def _stack(self) -> List[int]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def span(self, name: str, lane: str = "main", **attrs: Any) -> Span:
        """Open a span; use as ``with tracer.span("decide") as sp:``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        now = time.perf_counter()
        span = Span(self, span_id, parent, name, lane, now - self.epoch, attrs)
        span._t0 = now
        stack.append(span_id)
        return span

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def sorted_spans(self) -> List[Span]:
        """Spans ordered by id (creation order) — the export order."""
        with self._lock:
            return sorted(self.spans, key=lambda s: s.span_id)

    def write_jsonl(self, path: str) -> None:
        """Write one JSON object per span, in id order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.sorted_spans():
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")

    def chrome_trace_events(self) -> List[Dict[str, Any]]:
        """The Chrome trace-event list (``ph: "X"`` complete events).

        Timestamps and durations are microseconds from the tracer epoch.
        Lanes map to ``tid``s in sorted-name order, with ``M`` metadata
        events naming each thread track; everything shares ``pid`` 0.
        """
        spans = self.sorted_spans()
        lanes = sorted({span.lane for span in spans})
        tids = {lane: i for i, lane in enumerate(lanes)}
        events: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "pid": 0,
                "tid": tids[lane],
                "name": "thread_name",
                "args": {"name": lane},
            }
            for lane in lanes
        ]
        for span in spans:
            args = dict(span.attrs)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            events.append({
                "ph": "X",
                "pid": 0,
                "tid": tids[span.lane],
                "name": span.name,
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "args": args,
            })
        return events

    def write_chrome_trace(self, path: str) -> None:
        """Write the trace in Chrome trace-event JSON format."""
        document = {
            "traceEvents": self.chrome_trace_events(),
            "displayTimeUnit": "ms",
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)


class _NullSpan:
    """Timed-but-unstored span for the disabled path.

    It still measures its own duration — pipeline phases read
    ``span.duration`` as the single timing source whether tracing is on
    or off — but never touches a tracer or allocates attribute dicts.
    """

    __slots__ = ("duration", "_t0")

    span_id = -1
    parent_id = None
    name = ""
    lane = ""
    start = 0.0

    def __init__(self) -> None:
        self.duration = 0.0
        self._t0 = 0.0

    def annotate(self, **attrs: Any) -> None:
        """No-op."""

    def __enter__(self) -> "_NullSpan":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.duration = time.perf_counter() - self._t0


class NullTracer:
    """Disabled-tracing stand-in; spans time themselves, nothing is kept."""

    __slots__ = ()

    enabled = False
    epoch = 0.0

    def span(self, name: str, lane: str = "main", **attrs: Any) -> _NullSpan:
        """A fresh self-timing, unrecorded span."""
        return _NullSpan()

    def sorted_spans(self) -> List[Span]:
        """Always empty."""
        return []


#: Process-wide disabled tracer (stateless, safe to share).
NULL_TRACER = NullTracer()
