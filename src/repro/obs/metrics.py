"""A thread-safe, mergeable metrics registry: counters, gauges, histograms.

This is the aggregation substrate of the telemetry layer.  A
:class:`MetricsRegistry` holds labeled **counters** (monotone sums),
**gauges** (last-set values), and fixed-bucket **histograms**
(cumulative ``le`` bucket counts plus sum/count), exactly mirroring the
Prometheus data model so :mod:`repro.obs.export` can render any
snapshot without translation.

Two properties matter more than feature count:

* **Snapshots are plain data.**  :meth:`MetricsRegistry.snapshot`
  returns nested dicts/lists of JSON-serializable scalars — safe to
  write to disk, diff in tests, or export.
* **Merge is order-independent.**  :meth:`MetricsRegistry.merge` folds
  a snapshot into the registry by *summation* (counters and histogram
  buckets add; gauges add under the documented per-source convention),
  so :meth:`SummaryService.telemetry
  <repro.service.SummaryService.telemetry>` can federate several
  sources into one snapshot with the same totals in any order.

The disabled path is a null object: :data:`NULL_METRICS` hands out one
shared instrument whose ``inc``/``set``/``observe`` are no-ops, so hot
loops pay a single attribute lookup and an empty call when telemetry is
off.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import TelemetryError

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
    "ingest_stats",
]

#: Default histogram bucket upper bounds (seconds): sub-millisecond to
#: minutes, roughly geometric.  A value ``v`` lands in every bucket with
#: ``v <= le`` (cumulative, Prometheus semantics).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing sum for one label set."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise TelemetryError("counters only go up; use a gauge for deltas")
        with self._lock:
            self.value += amount


class Gauge:
    """A settable value for one label set.

    Under :meth:`MetricsRegistry.merge` gauges **add**: the convention
    is that each source (a registry, a stats dict) reports its own
    share (queue depth, resident entries), so the merged value is the
    total.
    """

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)


class Histogram:
    """Fixed-bucket cumulative histogram for one label set.

    ``bounds`` are upper edges; an observation ``v`` increments every
    bucket with ``v <= bound`` plus the implicit ``+Inf`` bucket (the
    total ``count``).  Stored counts are per-bucket (non-cumulative);
    the exporter cumulates at render time.
    """

    __slots__ = ("_lock", "bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float], lock: threading.Lock) -> None:
        self._lock = lock
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise TelemetryError(
                f"histogram buckets must be strictly increasing: {bounds!r}"
            )
        # One slot per finite bound plus the +Inf overflow slot.
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1

    def cumulative_counts(self) -> List[int]:
        """Per-``le`` cumulative counts (Prometheus ``_bucket`` values)."""
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class MetricsRegistry:
    """A named collection of labeled counters, gauges, and histograms.

    One lock guards the whole registry; individual instrument updates
    take it briefly.  Instruments are created on first access and cached
    by ``(name, sorted labels)``, so hot paths should hold the returned
    instrument rather than re-resolving it per event.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> {"type": ..., "help": ..., "buckets": ..., "series": {labelkey: instrument}}
        self._families: Dict[str, Dict[str, Any]] = {}

    #: Distinguishes live registries from :data:`NULL_METRICS` without
    #: isinstance checks in hot paths.
    enabled = True

    def _family(self, name: str, kind: str, help: str,
                buckets: Optional[Sequence[float]] = None) -> Dict[str, Any]:
        family = self._families.get(name)
        if family is None:
            family = {
                "type": kind,
                "help": help,
                "series": {},
            }
            if kind == "histogram":
                family["buckets"] = tuple(float(b) for b in
                                          (buckets if buckets is not None
                                           else DEFAULT_BUCKETS))
            self._families[name] = family
        elif family["type"] != kind:
            raise TelemetryError(
                f"metric {name!r} is a {family['type']}, requested as {kind}"
            )
        elif kind == "histogram" and buckets is not None and \
                tuple(float(b) for b in buckets) != family["buckets"]:
            raise TelemetryError(
                f"histogram {name!r} re-declared with different buckets"
            )
        return family

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """The counter ``name`` for ``labels`` (created on first use)."""
        key = _label_key(labels)
        with self._lock:
            family = self._family(name, "counter", help)
            series = family["series"]
            instrument = series.get(key)
            if instrument is None:
                instrument = series[key] = Counter(self._lock)
            return instrument

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """The gauge ``name`` for ``labels`` (created on first use)."""
        key = _label_key(labels)
        with self._lock:
            family = self._family(name, "gauge", help)
            series = family["series"]
            instrument = series.get(key)
            if instrument is None:
                instrument = series[key] = Gauge(self._lock)
            return instrument

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  **labels: str) -> Histogram:
        """The histogram ``name`` for ``labels`` (created on first use)."""
        key = _label_key(labels)
        with self._lock:
            family = self._family(name, "histogram", help, buckets)
            series = family["series"]
            instrument = series.get(key)
            if instrument is None:
                instrument = series[key] = Histogram(family["buckets"], self._lock)
            return instrument

    def snapshot(self) -> Dict[str, Any]:
        """A plain-data, JSON-serializable copy of every series.

        Shape::

            {name: {"type": "counter"|"gauge"|"histogram",
                    "help": str,
                    "buckets": [..],            # histograms only
                    "series": [{"labels": {..}, "value": float}          # counter/gauge
                               {"labels": {..}, "counts": [..],          # histogram
                                "sum": float, "count": int}, ...]}}

        Family names and series label sets are emitted in sorted order,
        so equal registries produce equal snapshots byte for byte.
        """
        with self._lock:
            out: Dict[str, Any] = {}
            for name in sorted(self._families):
                family = self._families[name]
                entry: Dict[str, Any] = {
                    "type": family["type"],
                    "help": family["help"],
                    "series": [],
                }
                if family["type"] == "histogram":
                    entry["buckets"] = list(family["buckets"])
                for key in sorted(family["series"]):
                    instrument = family["series"][key]
                    record: Dict[str, Any] = {"labels": dict(key)}
                    if family["type"] == "histogram":
                        record["counts"] = list(instrument.counts)
                        record["sum"] = instrument.sum
                        record["count"] = instrument.count
                    else:
                        record["value"] = instrument.value
                    entry["series"].append(record)
                out[name] = entry
            return out

    def merge(self, snapshot: Dict[str, Any]) -> "MetricsRegistry":
        """Fold a :meth:`snapshot` into this registry by summation.

        Counters and histogram bucket counts/sums add; gauges add (the
        per-source-share convention, see :class:`Gauge`).  Merging the
        same set of snapshots in any order yields identical registries.
        Returns ``self`` for chaining.
        """
        for name in sorted(snapshot):
            entry = snapshot[name]
            kind = entry["type"]
            for record in entry["series"]:
                labels = record["labels"]
                if kind == "counter":
                    self.counter(name, entry.get("help", ""), **labels).inc(
                        record["value"])
                elif kind == "gauge":
                    self.gauge(name, entry.get("help", ""), **labels).inc(
                        record["value"])
                elif kind == "histogram":
                    hist = self.histogram(name, entry.get("help", ""),
                                          buckets=entry["buckets"], **labels)
                    if len(record["counts"]) != len(hist.counts):
                        raise TelemetryError(
                            f"histogram {name!r} merge with mismatched buckets"
                        )
                    with self._lock:
                        for i, c in enumerate(record["counts"]):
                            hist.counts[i] += c
                        hist.sum += record["sum"]
                        hist.count += record["count"]
                else:
                    raise TelemetryError(
                        f"unknown metric type {kind!r} for {name!r}"
                    )
        return self


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind."""

    __slots__ = ()

    value = 0.0
    sum = 0.0
    count = 0
    bounds: Tuple[float, ...] = ()
    counts: Tuple[int, ...] = ()

    def inc(self, amount: float = 1.0) -> None:
        """No-op."""

    def dec(self, amount: float = 1.0) -> None:
        """No-op."""

    def set(self, value: float) -> None:
        """No-op."""

    def observe(self, value: float) -> None:
        """No-op."""


class NullMetrics:
    """Disabled-telemetry registry: every instrument is a shared no-op.

    ``snapshot()`` is empty and ``merge()`` discards its input, so code
    can thread one ``metrics`` object unconditionally and never branch
    on whether telemetry is on.
    """

    __slots__ = ()

    enabled = False
    _instrument = _NullInstrument()

    def counter(self, name: str, help: str = "", **labels: str) -> _NullInstrument:
        """The shared no-op instrument."""
        return self._instrument

    def gauge(self, name: str, help: str = "", **labels: str) -> _NullInstrument:
        """The shared no-op instrument."""
        return self._instrument

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  **labels: str) -> _NullInstrument:
        """The shared no-op instrument."""
        return self._instrument

    def snapshot(self) -> Dict[str, Any]:
        """Always empty."""
        return {}

    def merge(self, snapshot: Dict[str, Any]) -> "NullMetrics":
        """Discard ``snapshot``; returns ``self``."""
        return self


#: Process-wide disabled-telemetry registry (stateless, safe to share).
NULL_METRICS = NullMetrics()


def ingest_stats(registry: MetricsRegistry, stats: Dict[str, Any],
                 prefix: str) -> None:
    """Flatten a nested ``stats()`` dict into gauges on ``registry``.

    Numeric leaves become gauges named ``<prefix>_<path>`` (path
    components joined with ``_``); booleans count as 0/1; string leaves
    become a ``<prefix>_<path>_info`` gauge of value 1 carrying the
    string as a ``value`` label (the Prometheus info-metric idiom);
    other leaf types are skipped.  This is how the legacy
    ``SummaryService`` / ``GraphStore`` / ``SummaryCache`` ``stats()``
    dicts federate into one exportable snapshot.
    """
    items: Iterable[Tuple[str, Any]] = sorted(stats.items())
    for key, value in items:
        name = f"{prefix}_{key}"
        if isinstance(value, dict):
            ingest_stats(registry, value, name)
        elif isinstance(value, bool):
            registry.gauge(name).set(1.0 if value else 0.0)
        elif isinstance(value, (int, float)):
            registry.gauge(name).set(float(value))
        elif isinstance(value, str):
            registry.gauge(f"{name}_info", value=value).set(1.0)
