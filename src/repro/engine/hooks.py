"""Cooperative run hooks: progress events, cancel tokens, shared substrates.

The serving layer (:mod:`repro.service`) needs three things from a
running summarizer that the one-shot API never exposed:

* **progress** — per-iteration events a job can forward to callbacks;
* **cancellation** — a token checked between iterations, so a queued or
  running job can be abandoned without killing the process;
* **shared substrates** — prebuilt :class:`~repro.graphs.dense.DenseAdjacency`
  / CSR views reused across runs on the same graph instead of being
  rebuilt per call.

:class:`RunControl` carries the first two, :class:`GraphResources` the
third.  Both are plain, dependency-free objects so the core drivers
(``core/slugger.py``, ``baselines/sweg.py``) can accept them without
importing the service layer; passing ``None`` (the default everywhere)
keeps the historical one-shot behavior bit-for-bit.

Determinism: neither hook can change a summary.  Progress events are
observations; cancellation aborts a run (raising
:class:`~repro.exceptions.JobCancelled`) rather than truncating it; and
a :class:`GraphResources` substrate is byte-equivalent to the one the
run would have built itself.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.exceptions import JobCancelled

__all__ = ["GraphResources", "RunControl"]


class RunControl:
    """Progress/cancel hook threaded through a single summarizer run.

    Parameters
    ----------
    on_progress:
        Callback invoked with one ``dict`` per event (at least a
        ``"stage"`` key; iterative methods add ``iteration`` /
        ``iterations`` and per-iteration counters).  Callbacks run on
        the thread executing the summarizer and must be cheap.
    cancel:
        Object with an ``is_set() -> bool`` method (e.g. a
        ``threading.Event``).  :meth:`checkpoint` raises
        :class:`~repro.exceptions.JobCancelled` once it is set; drivers
        call it between iterations, so cancellation is cooperative and
        never yields a partial summary.
    checkpoint_sink:
        Callback invoked with one payload ``dict`` (``iteration``,
        ``summary``, ``rng_state``, ``history``) after every completed
        iteration — the persistence layer freezes it into a checkpoint
        snapshot, which is encoded later, off the summarizer thread.
        Runs synchronously on the summarizer thread, so the snapshot is
        consistent; ``None`` disables checkpointing (the historical
        behavior).
    resume_payload:
        A previously checkpointed payload ``dict`` to restart from.
        Drivers that support resumption restore the summary and RNG
        stream position and skip the completed iterations; the result
        stays bit-identical to an uninterrupted fixed-seed run.
    metrics:
        A :class:`repro.obs.MetricsRegistry` the run records counters /
        gauges / histograms into, or ``None`` for the shared no-op
        registry.  Telemetry is observational: enabling it cannot
        change a summary.
    tracer:
        A :class:`repro.obs.Tracer` the run records phase spans
        into, or ``None`` for the shared no-op tracer (whose spans
        still self-time, so drivers read one measurement source either
        way).
    """

    __slots__ = ("_on_progress", "_cancel", "checkpoint_sink", "resume_payload",
                 "metrics", "tracer", "_seq")

    def __init__(
        self,
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
        cancel: Optional[Any] = None,
        checkpoint_sink: Optional[Callable[[Dict[str, Any]], None]] = None,
        resume_payload: Optional[Dict[str, Any]] = None,
        metrics: Optional[Any] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        # Imported here (stdlib-only module) to keep hooks importable
        # without dragging the telemetry package into every consumer.
        from repro.obs import NULL_METRICS, NULL_TRACER

        self._on_progress = on_progress
        self._cancel = cancel
        self.checkpoint_sink = checkpoint_sink
        self.resume_payload = resume_payload
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._seq = 0

    def cancelled(self) -> bool:
        """Whether the cancel token has been set."""
        return self._cancel is not None and self._cancel.is_set()

    def checkpoint(self) -> None:
        """Raise :class:`~repro.exceptions.JobCancelled` if cancelled."""
        if self.cancelled():
            raise JobCancelled("run cancelled between iterations")

    def emit(self, stage: str, **values: Any) -> None:
        """Report one progress event to the callback (if any).

        Every event carries a monotonic ``seq`` (0, 1, 2, ...) assigned
        at emit time, so consumers can detect reordering or loss on any
        transport without trusting arrival order.
        """
        if self._on_progress is not None:
            event: Dict[str, Any] = {"stage": stage, "seq": self._seq}
            self._seq += 1
            event.update(values)
            self._on_progress(event)

    def save_checkpoint(self, payload: Dict[str, Any]) -> None:
        """Hand an iteration-boundary snapshot to the checkpoint sink."""
        if self.checkpoint_sink is not None:
            self.checkpoint_sink(payload)


class GraphResources:
    """Prebuilt, shareable per-graph substrate views.

    Subclasses (the service layer's ``GraphHandle``) memoize the dense
    integer-id substrate so repeated runs against the same graph reuse
    one ``NodeIndex`` / ``DenseAdjacency`` / CSR build.  Every accessor
    may return ``None``, which means "build your own" — the base class
    always does, so it doubles as the no-op default.

    The returned objects are treated as **read-only** by every consumer
    (summarizer runs never mutate the input adjacency), which is what
    makes sharing them across concurrent runs safe.
    """

    def dense(self):
        """A prebuilt :class:`~repro.graphs.dense.DenseAdjacency`, or ``None``."""
        return None

    def csr(self):
        """A prebuilt frozen :class:`~repro.graphs.dense.CSRAdjacency`, or ``None``."""
        return None

