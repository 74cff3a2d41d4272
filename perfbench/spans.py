"""Outside-in span tracing for the benchmark's traced runs.

The program under test carries no tracing of its own here.  Instead,
:class:`SpanRecorder` replaces public functions of each layer *at the
module attribute where their caller looks them up* (for example
``repro.core.merging.best_partner``, which ``process_candidate_set``
resolves through its module globals) with a wrapper that records one span
per call.  Spans are kept in memory as ``[name, start, end, parent]``
records and written out when the run ends.  Each thread keeps its own
stack, so spans opened on a service dispatcher thread nest correctly.

A layer's self time is its span time minus the part of that interval its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Probe", "SpanRecorder", "covered_length", "self_times"]


class Probe:
    """One function to wrap: ``owner.attr`` recorded under ``name``.

    ``count_only`` probes bump a counter instead of opening a span (for
    functions called so often that a span per call would distort the
    run).  ``name`` may be a callable of the call's arguments, which lets
    one wrapper split its spans by argument (e.g. query kind).
    ``after(recorder, args, kwargs, result)`` runs once the call returned.
    """

    def __init__(self, owner, attr: str, name, *, count_only: bool = False,
                 after: Optional[Callable] = None) -> None:
        self.owner = owner
        self.attr = attr
        self.name = name
        self.count_only = count_only
        self.after = after


class SpanRecorder:
    """In-memory span and counter store with install/uninstall of probes."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        record = [name, time.perf_counter(), None, stack[-1] if stack else None]
        self.spans.append(record)
        span_id = len(self.spans) - 1
        stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id][2] = time.perf_counter()
        self._stack().pop()

    def _wrapper(self, probe: Probe, original: Callable) -> Callable:
        recorder = self

        if probe.count_only:
            def counted(*args, **kwargs):
                recorder.counters[probe.name] += 1
                return original(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            name = probe.name(*args, **kwargs) if callable(probe.name) else probe.name
            span_id = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span_id)
            if probe.after is not None:
                probe.after(recorder, args, kwargs, result)
            return result
        return spanned

    @contextmanager
    def installed(self, probes: Sequence[Probe]):
        """Wrap every probe's function for the duration of the block."""
        saved: List[Tuple[object, str, Callable]] = []
        try:
            for probe in probes:
                original = getattr(probe.owner, probe.attr)
                saved.append((probe.owner, probe.attr, original))
                setattr(probe.owner, probe.attr, self._wrapper(probe, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, handle, unit: int) -> None:
        """Append this recorder's spans as JSON lines tagged with ``unit``."""
        for span_id, (name, start, end, parent) in enumerate(self.spans):
            handle.write(json.dumps({"unit": unit, "id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def covered_length(intervals: Iterable[Tuple[float, float]], lower: float,
                   upper: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lower, upper]``."""
    clipped = sorted((max(start, lower), min(end, upper)) for start, end in intervals)
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Total self time per span name: duration minus child-covered time."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None and end is not None:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for span_id, (name, start, end, _parent) in enumerate(spans):
        if end is None:
            continue
        own = (end - start) - covered_length(children.get(span_id, ()), start, end)
        totals[name] = totals.get(name, 0.0) + own
    return totals
