"""The long-lived serving facade: queued jobs over warm, shared state.

:class:`SummaryService` turns the one-shot ``engine.run`` API into a
service: requests (:class:`~repro.service.request.SummaryRequest`) are
validated once, enqueued on a bounded FIFO queue, executed by a fixed
number of in-flight workers, and observed through future-like
:class:`~repro.service.jobs.SummaryJob` handles with per-iteration
progress events and cooperative cancellation.  Across requests the
service shares what one-shot calls rebuild every time:

* an interning :class:`~repro.service.store.GraphStore` — one
  ``NodeIndex`` / ``DenseAdjacency`` / CSR build per graph;
* in ``mode="process"``, a persistent fork-context
  ``ProcessPoolExecutor`` that runs one whole job per submit, for
  isolation: each job ships its request record and its graph, and the
  worker builds the graph's substrate itself.  A job that kills its
  worker fails alone: the broken pool is retired and the next job forks
  a fresh one.

Entry points::

    with SummaryService(max_inflight=2) as service:
        job = service.submit(method="slugger", graph=graph, seed=0,
                             options={"iterations": 10})
        result = job.result()                       # sync
        result = await service.summarize(           # asyncio
            method="sweg", graph=graph, seed=1)

Determinism guarantee
---------------------
For a fixed seed a request's summary is **bit-identical** whether it
runs through ``engine.run``, a warm service, a process-mode worker, or
under concurrent mixed traffic: jobs share only read-only state (the
interned substrate, whose construction is itself deterministic in the
graph), and every job draws from its own seeded RNG stream.  The service
test suite pins fingerprints across all three paths.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import queue
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.base import EngineResult
from repro.engine.execution import available_cpus, process_execution_available
from repro.engine.hooks import GraphResources, RunControl
from repro.engine.registry import available_methods, create
from repro.exceptions import (
    ConfigurationError,
    ServiceClosedError,
    ServiceSaturatedError,
)
from repro.graphs.graph import Graph
from repro.model.summary import HierarchicalSummary
from repro.obs import NULL_TRACER, MetricsRegistry, ingest_stats
from repro.service.jobs import SummaryJob
from repro.service.request import SummaryRequest
from repro.service.store import GraphHandle, GraphStore
from repro.storage.format import container_digest
from repro.storage.summary_store import (
    CheckpointSnapshot,
    SummaryCache,
    SummaryMeta,
    config_fingerprint,
    encode_summary_container,
    summary_key,
)
from repro.utils.rng import SeedLike

__all__ = ["SummaryService", "default_service", "shutdown_default_service"]

_STOP = object()


def _summarize_request(
    request: SummaryRequest,
    graph: Graph,
    control: Optional[RunControl],
    resources: Optional[GraphResources],
) -> EngineResult:
    """Run ``request`` on ``graph``: the job body of both service modes."""
    summarizer = (
        request.summarizer
        if request.summarizer is not None
        else create(request.method, **request.options)
    )
    return summarizer.summarize(
        graph, seed=request.seed, control=control, resources=resources
    )


def _process_job_worker(payload: Tuple[Dict[str, Any], Graph]) -> EngineResult:
    """Run one whole job inside a forked worker.

    ``payload`` is ``(record, graph)``: the request's
    :meth:`~repro.service.request.SummaryRequest.to_dict` record and its
    graph, both pickled by the pool.  The worker reads nothing else: the
    run builds the graph's substrate itself, which cannot change the
    summary.  Jobs run serially inside the worker — process mode
    parallelizes *across* requests, not within one.

    Lock discipline: the fork can happen while a parent thread holds a
    lock, and the child would inherit it held forever.  The one shared
    lock on this path is the method registry's, which the parent loads
    before the first fork, so :func:`create` stays on its lock-free
    fast path here.
    """
    record, graph = payload
    request = SummaryRequest.from_dict(record, graph=graph)
    return _summarize_request(request, graph, None, None)


class SummaryService:
    """A long-lived summarization service with a bounded job queue.

    Parameters
    ----------
    mode:
        ``"thread"`` (default) runs jobs on ``max_inflight`` dispatcher
        threads in this process — full progress streams and mid-run
        cancellation.  ``"process"`` additionally ships each
        serializable job, request record and graph, to a persistent
        fork-based worker pool; progress is then job-level only,
        cancellation applies to queued jobs, and a graph that cannot be
        pickled fails its job.  Falls back to ``"thread"`` where
        ``fork`` is unavailable.
    max_inflight:
        Number of jobs executed concurrently (dispatcher threads), which
        is also the width of the process-mode job pool.  Defaults to 1
        (strict FIFO) in thread mode and to the number of available CPUs
        in process mode.
    max_pending:
        Bound of the FIFO queue; a full queue raises
        :class:`~repro.exceptions.ServiceSaturatedError` (or blocks with
        ``submit(..., block=True)``).
    graph_store:
        Optional shared :class:`~repro.service.store.GraphStore`; by
        default the service owns a private one and closes it on shutdown.
        The store keeps graphs in memory only: a graph's substrate is
        built on its first request (or seeded at registration), and the
        summary cache below is the one thing the service persists.
    summary_cache_dir:
        Directory for the content-addressed **summary** cache
        (:class:`~repro.storage.summary_store.SummaryCache`).  With a
        cache configured the service consults it before running a job —
        a previously computed ``(graph, method, seed, config)`` is
        answered from its mmap-backed container with zero summarizer
        iterations, bit-identical to the original run — persists every
        seeded result on completion, and checkpoints thread-mode jobs
        after each iteration so a killed run resumes at iteration ``k``
        with the identical fixed-seed result.  Checkpoint files are
        written off the job thread; the newest snapshot is on disk once
        its job is cancelled or fails and once ``shutdown`` returns, and
        a hard kill may leave an older one.  Unseeded requests bypass
        the cache (without a seed the result is not a reproducible
        content address).
    summary_cache_budget:
        Optional size budget in bytes for the summary cache
        (LRU-by-mtime eviction, see :meth:`SummaryCache.gc`).
    metrics:
        Optional shared :class:`~repro.obs.MetricsRegistry` the service
        records job-lifecycle metrics into (queue-depth gauge, queue /
        run latency histograms, outcome counters).  The service owns a
        private registry by default — service-level events are per-job,
        not per-merge, so an always-on registry costs nothing
        measurable; read it via :meth:`telemetry`.
    tracer:
        Optional :class:`~repro.obs.Tracer` receiving one span per
        executed job (lane ``job-<id>``) and, for thread-mode jobs, the
        nested engine phase spans.  Defaults to the no-op tracer.
    """

    def __init__(
        self,
        *,
        mode: str = "thread",
        max_inflight: Optional[int] = None,
        max_pending: int = 256,
        graph_store: Optional[GraphStore] = None,
        summary_cache_dir=None,
        summary_cache_budget: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        if mode not in ("thread", "process"):
            raise ConfigurationError(f"mode must be 'thread' or 'process', got {mode!r}")
        if max_pending < 1:
            raise ConfigurationError(f"max_pending must be >= 1, got {max_pending}")
        if mode == "process" and not process_execution_available():
            mode = "thread"
        self.mode = mode
        if max_inflight is None:
            max_inflight = available_cpus() if mode == "process" else 1
        if max_inflight < 1:
            raise ConfigurationError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self.store = graph_store if graph_store is not None else GraphStore()
        self._owns_store = graph_store is None
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=max_pending)
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._closed = False
        self._job_ids = 0
        self._stopped_dispatchers = 0
        self._teardown_error: Optional[BaseException] = None
        self._job_pool: Optional[ProcessPoolExecutor] = None
        self.summary_cache: Optional[SummaryCache] = (
            SummaryCache(summary_cache_dir, budget_bytes=summary_cache_budget)
            if summary_cache_dir is not None
            else None
        )
        self._stats = {"submitted": 0, "completed": 0, "failed": 0,
                       "cancelled": 0, "inline_runs": 0, "pool_jobs": 0,
                       "summary_cache_hits": 0, "summary_cache_stores": 0,
                       "summary_resumes": 0, "summary_cache_errors": 0}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Engine-level telemetry (phase spans, engine counters) is
        # opt-in: it flows only when the caller supplied a sink.  The
        # always-on private registry carries job-lifecycle metrics only.
        self._engine_telemetry = metrics is not None or tracer is not None

    # ------------------------------------------------------------------
    # Graph registration
    # ------------------------------------------------------------------
    def register_graph(
        self,
        key: str,
        graph: Graph,
        *,
        dense=None,
        csr=None,
    ) -> GraphHandle:
        """Register ``graph`` under a stable name for ``graph_key`` requests.

        The dense/CSR substrate is built on the first request that needs
        it; ``dense`` / ``csr`` seed the handle with prebuilt views
        instead, e.g. from a :class:`~repro.storage.mapped.StoredGraph`
        mmap load.
        """
        return self.store.register(key, graph, dense=dense, csr=csr)

    # ------------------------------------------------------------------
    # Query serving
    # ------------------------------------------------------------------
    def query(
        self,
        graph,
        kind: str,
        *,
        source=None,
        top: Optional[int] = None,
        damping: float = 0.85,
        iterations: int = 20,
    ):
        """Serve a graph query off the store's interned substrate.

        ``graph`` is a registered graph key (``str``) or a
        :class:`~repro.graphs.graph.Graph` (interned on first use, so
        repeated queries share one frozen CSR with the summarize jobs).
        The query runs id-native on the substrate via
        :func:`repro.algorithms.query.run_query` — the label-keyed graph
        is never consulted.  Returns a
        :class:`~repro.algorithms.query.QueryResult`.
        """
        from repro.algorithms.query import run_query

        handle = self.store.get(graph) if isinstance(graph, str) else self.store.intern(graph)
        with self.tracer.span("query", kind=kind) as span:
            result = run_query(
                handle.csr(), kind, source=source, top=top,
                damping=damping, iterations=iterations,
            )
        self.metrics.counter("service_queries_total", "Queries served",
                             kind=kind).inc()
        self.metrics.histogram("service_query_seconds", "Query latency",
                               kind=kind).observe(span.duration)
        return result

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def _make_request(
        self,
        request: Optional[SummaryRequest],
        method: Optional[str],
        graph: Optional[Graph],
        graph_key: Optional[str],
        seed: SeedLike,
        options: Optional[Mapping[str, Any]],
        tag: Optional[str],
    ) -> SummaryRequest:
        if request is not None:
            if any(value is not None for value in
                   (method, graph, graph_key, seed, options, tag)):
                raise ConfigurationError(
                    "pass either a SummaryRequest or request fields "
                    "(method/graph/graph_key/seed/options/tag), "
                    "not both — field overrides on a prepared request are "
                    "not applied"
                )
            return request
        return SummaryRequest(
            method=method or "",
            graph=graph,
            graph_key=graph_key,
            seed=seed,
            options=options or {},
            tag=tag,
        )

    def submit(
        self,
        request: Optional[SummaryRequest] = None,
        *,
        method: Optional[str] = None,
        graph: Optional[Graph] = None,
        graph_key: Optional[str] = None,
        seed: SeedLike = None,
        options: Optional[Mapping[str, Any]] = None,
        tag: Optional[str] = None,
        block: bool = False,
    ) -> SummaryJob:
        """Enqueue one request; returns its :class:`SummaryJob` immediately.

        Raises :class:`~repro.exceptions.ServiceClosedError` after
        shutdown and :class:`~repro.exceptions.ServiceSaturatedError`
        when the bounded queue is full (unless ``block=True``).
        """
        request = self._make_request(
            request, method, graph, graph_key, seed, options, tag
        )
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shut down; no new requests")
            self._job_ids += 1
            job = SummaryJob(self._job_ids, request)
            self._stats["submitted"] += 1
            self._ensure_dispatchers()
        job._enqueued_perf = time.perf_counter()
        try:
            self._queue.put(job, block=block)
        except queue.Full:
            with self._lock:
                self._stats["submitted"] -= 1
            raise ServiceSaturatedError(
                f"request queue is full ({self._queue.maxsize} pending); "
                "retry, submit with block=True, or raise max_pending"
            ) from None
        self.metrics.counter("service_jobs_submitted_total",
                             "Jobs accepted onto the queue").inc()
        self.metrics.gauge("service_queue_depth",
                           "Jobs currently pending").set(self._queue.qsize())
        if self._closed:
            # A concurrent shutdown may have drained the queue and
            # stopped the dispatchers between our closed-check and the
            # put; make sure this job settles instead of queueing
            # forever.  Strictly queued-only: a job a dispatcher already
            # started is left to finish.
            job._cancel_if_queued()
        return job

    def batch(self, requests: Sequence[SummaryRequest], block: bool = True) -> List[SummaryJob]:
        """Submit several requests in order; returns their jobs."""
        return [self.submit(request, block=block) for request in requests]

    def result(self, job: SummaryJob, timeout: Optional[float] = None) -> EngineResult:
        """Convenience passthrough: ``job.result(timeout)``."""
        return job.result(timeout)

    # ------------------------------------------------------------------
    # Inline execution (the engine.run shim path)
    # ------------------------------------------------------------------
    def run(
        self,
        request: SummaryRequest,
        control: Optional[RunControl] = None,
        resources: Optional[GraphResources] = None,
    ) -> EngineResult:
        """Execute ``request`` synchronously on the calling thread.

        This is the warm path behind ``engine.run``: no queue hop, and
        the graph store's interned substrate is shared with queued
        traffic.  Bit-identical to a queued job with the same request.

        ``resources`` optionally overrides the store's substrate views
        with caller-supplied ones — e.g. a
        :class:`~repro.storage.mapped.StoredGraph` whose mmap-backed CSR
        the run should consume zero-copy; an inline-graph request then
        bypasses store interning entirely.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shut down; no new requests")
            self._stats["inline_runs"] += 1
        address = (
            self._summary_address(request)
            if resources is None and control is None
            else None
        )
        if address is not None:
            cached = self._cached_result(address, request)
            if cached is not None:
                with self._lock:
                    self._stats["summary_cache_hits"] += 1
                return cached
        result = self._run_request(request, control, resources=resources)
        if address is not None:
            self._persist_result(address, request, result)
        return result

    # ------------------------------------------------------------------
    # Async entry point
    # ------------------------------------------------------------------
    async def summarize(
        self,
        method: Optional[str] = None,
        graph: Optional[Graph] = None,
        *,
        request: Optional[SummaryRequest] = None,
        graph_key: Optional[str] = None,
        seed: SeedLike = None,
        options: Optional[Mapping[str, Any]] = None,
        tag: Optional[str] = None,
    ) -> EngineResult:
        """``await``-able submit-and-wait: returns the EngineResult.

        Cancelling the awaiting task cancels the underlying job (which
        settles at its next between-iteration checkpoint).
        """
        job = self.submit(
            request=request, method=method, graph=graph, graph_key=graph_key,
            seed=seed, options=options, tag=tag, block=False,
        )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[EngineResult]" = loop.create_future()

        def _settle(settled: SummaryJob) -> None:
            try:
                outcome = settled.result(timeout=0)
            except BaseException as error:  # noqa: BLE001 - forwarded to awaiter
                loop.call_soon_threadsafe(_set_exception, error)
            else:
                loop.call_soon_threadsafe(_set_result, outcome)

        def _set_result(outcome: EngineResult) -> None:
            if not future.done():
                future.set_result(outcome)

        def _set_exception(error: BaseException) -> None:
            if not future.done():
                future.set_exception(error)

        job.add_done_callback(_settle)
        try:
            return await future
        except asyncio.CancelledError:
            job.cancel()
            raise

    # ------------------------------------------------------------------
    # Execution machinery
    # ------------------------------------------------------------------
    def _ensure_dispatchers(self) -> None:
        """Start the dispatcher threads lazily (holding the lock)."""
        while len(self._threads) < self.max_inflight:
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"summary-service-{id(self):x}-{len(self._threads)}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    break
                try:
                    self._execute_job(item)
                except Exception:
                    # _execute_job settles the job before anything that
                    # can raise here (stray listener/bookkeeping errors);
                    # a dispatcher lane must never die and strand the
                    # queue behind it.
                    pass
            finally:
                self._queue.task_done()
        # Sentinels are queued only by shutdown, behind every accepted
        # job: the last lane out has drained the queue and tears down.
        with self._lock:
            self._stopped_dispatchers += 1
            last = self._stopped_dispatchers == len(self._threads)
        if last:
            self._teardown()

    def _execute_job(self, job: SummaryJob) -> None:
        started_perf = time.perf_counter()
        queued_perf = getattr(job, "_enqueued_perf", None)
        if queued_perf is not None:
            self.metrics.histogram(
                "service_queue_seconds", "Queued-to-running latency"
            ).observe(started_perf - queued_perf)
        self.metrics.gauge("service_queue_depth",
                           "Jobs currently pending").set(self._queue.qsize())
        method = job.request.method or "custom"
        if not job._try_start():
            with self._lock:
                self._stats["cancelled"] += 1
            self._job_settled(job, method, started_perf, "cancelled")
            return
        try:
            address = self._summary_address(job.request)
            cached = None if address is None else self._cached_result(address, job.request)
        except BaseException as error:  # noqa: BLE001 - settled on the job
            self._job_settled(job, method, started_perf, self._fail_job(job, error))
            return
        if cached is not None:
            job._record("cache", summary_cache="hit", summary_key=address["key"])
            job._finish(cached)
            with self._lock:
                self._stats["completed"] += 1
                self._stats["summary_cache_hits"] += 1
            self._job_settled(job, method, started_perf, "cache_hit")
            return
        span = self.tracer.span("job", lane=f"job-{job.id}", method=method,
                                job_id=job.id)
        outcome = "completed"
        try:
            with span:
                if self.mode == "process" and job.request.serializable:
                    # The job body runs in a forked worker, so mid-run
                    # checkpoint hooks cannot reach this process; caching is
                    # parent-side only (consult above, persist below).
                    result = self._run_in_pool(job.request)
                else:
                    resume = (
                        self._resume_payload(address) if address is not None else None
                    )
                    control = RunControl(
                        on_progress=job._on_run_progress,
                        cancel=job.cancel_event,
                        checkpoint_sink=(
                            self._checkpoint_sink(address, job.request, job)
                            if address is not None else None
                        ),
                        resume_payload=resume,
                        metrics=self.metrics if self._engine_telemetry else None,
                        tracer=self.tracer if self._engine_telemetry else None,
                    )
                    if resume is not None:
                        job._record("resume", iteration=resume["iteration"])
                        with self._lock:
                            self._stats["summary_resumes"] += 1
                    result = self._run_request(job.request, control)
        except BaseException as error:  # noqa: BLE001 - settled on the job
            if address is not None:
                # A resubmission resumes from what is on disk: land the
                # newest snapshot before the job settles.
                self.summary_cache.flush_checkpoint(address["key"])
            outcome = self._fail_job(job, error)
        else:
            if address is not None:
                self._persist_result(address, job.request, result)
            job._finish(result)
            with self._lock:
                self._stats["completed"] += 1
        span.annotate(outcome=outcome)
        self._job_settled(job, method, started_perf, outcome)

    def _fail_job(self, job: SummaryJob, error: BaseException) -> str:
        """Settle ``job`` with ``error``; returns its outcome label."""
        job._fail(error)
        with self._lock:
            outcome = "cancelled" if job.cancelled() else "failed"
            self._stats[outcome] += 1
        return outcome

    def _job_settled(self, job: SummaryJob, method: str, started_perf: float,
                     outcome: str) -> None:
        """Record one settled job's lifecycle metrics."""
        self.metrics.counter("service_jobs_total", "Settled jobs by outcome",
                             outcome=outcome, method=method).inc()
        self.metrics.histogram("service_job_seconds",
                               "Running-to-settled duration",
                               method=method).observe(
            time.perf_counter() - started_perf)

    # ------------------------------------------------------------------
    # Summary cache (warm-start + resumable checkpoints)
    # ------------------------------------------------------------------
    def _graph_digest(self, handle: GraphHandle) -> str:
        """The handle's graph content address (memoized on the handle)."""
        if handle.content_digest is None:
            handle.content_digest = container_digest(handle.csr())
        return handle.content_digest

    def _summary_address(self, request: SummaryRequest) -> Optional[Dict[str, Any]]:
        """Resolve a request to its summary-cache address, or ``None``.

        Uncacheable requests — no cache configured, no ``int`` seed (a
        ``None`` or :class:`random.Random` seed is not a reproducible
        content address), or an opaque pre-configured summarizer —
        return ``None`` and follow the historical path untouched.
        """
        if self.summary_cache is None or not isinstance(request.seed, int):
            return None
        if request.summarizer is not None:
            return None
        graph, handle = self._resolve(request)
        graph_digest = self._graph_digest(handle)
        config_digest, config_json = config_fingerprint(
            request.method, dict(request.options)
        )
        return {
            "key": summary_key(graph_digest, request.method, request.seed, config_digest),
            "graph_digest": graph_digest,
            "config_digest": config_digest,
            "config_json": config_json,
            "handle": handle,
        }

    def _cached_result(self, address: Dict[str, Any],
                       request: SummaryRequest) -> Optional[EngineResult]:
        """The warm-start path: decode the entry against the handle's labels.

        Nothing is mapped; an entry for another graph digest is a miss.
        """
        assert self.summary_cache is not None
        started = time.perf_counter()
        stored = self.summary_cache.load_summary(
            address["key"],
            labels=address["handle"].csr().index.labels(),
            graph_digest=address["graph_digest"],
        )
        if stored is None:
            return None
        return EngineResult(
            method=request.method,
            summary=stored.summary,
            runtime_seconds=time.perf_counter() - started,
            history=list(stored.meta.extra.get("history", [])),
            details={
                "summary_cache": "hit",
                "summary_key": address["key"],
                "container": stored.path,
            },
        )

    def _meta_for(self, address: Dict[str, Any], method: str, seed,
                  kind: str, extra: Optional[Dict[str, Any]] = None) -> SummaryMeta:
        return SummaryMeta(
            kind=kind,
            method=method,
            seed=seed,
            graph_digest=address["graph_digest"],
            config_digest=address["config_digest"],
            config_json=address["config_json"],
            extra=extra or {},
        )

    def _resume_payload(self, address: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """A checkpointed snapshot for this address, or ``None``.

        Leaves are rebuilt against the live graph's node order; the
        checkpoint's graph digest must match the address, so a stale or
        foreign checkpoint can never leak into a run.
        """
        assert self.summary_cache is not None
        handle: GraphHandle = address["handle"]
        checkpoint = self.summary_cache.load_checkpoint(
            address["key"],
            list(handle.graph.nodes()),
            graph_digest=address["graph_digest"],
        )
        if checkpoint is None:
            return None
        return {
            "iteration": checkpoint.iteration,
            "summary": checkpoint.summary,
            "rng_state": checkpoint.rng_state,
            "history": checkpoint.history,
        }

    def _checkpoint_sink(self, address: Dict[str, Any],
                         request: SummaryRequest, job: Optional[SummaryJob]):
        """A RunControl checkpoint sink persisting iteration snapshots.

        The sink freezes the summary into a :class:`CheckpointSnapshot`
        here, on the run thread, so the snapshot is consistent; the
        cache's writer thread encodes and writes it while the run goes
        on, or never if a newer snapshot replaces it first.  The job's
        ``checkpoint`` event marks the snapshot, not the file.
        """
        meta = self._meta_for(address, request.method, request.seed, kind="hierarchical")

        def sink(payload: Dict[str, Any]) -> None:
            summary = payload.get("summary")
            if not isinstance(summary, HierarchicalSummary):
                return
            try:
                snapshot = CheckpointSnapshot.capture(
                    summary, meta, payload["iteration"],
                    payload["rng_state"], payload["history"],
                )
                assert self.summary_cache is not None
                self.summary_cache.post_checkpoint(address["key"], snapshot)
            except Exception:  # noqa: BLE001 - checkpointing must not fail a run
                with self._lock:
                    self._stats["summary_cache_errors"] += 1
                return
            if job is not None:
                job._record("checkpoint", iteration=int(payload["iteration"]))

        return sink

    def _persist_result(self, address: Dict[str, Any], request: SummaryRequest,
                        result: EngineResult) -> None:
        """Persist a finished result under its content address.

        Persistence failures (unserializable history, disk errors) are
        counted but never surfaced — the job already has its result.
        """
        assert self.summary_cache is not None
        handle: GraphHandle = address["handle"]
        try:
            meta = self._meta_for(
                address,
                result.method,
                request.seed,
                kind=(
                    "hierarchical"
                    if isinstance(result.summary, HierarchicalSummary)
                    else "flat"
                ),
                extra={"history": result.history},
            )
            image = encode_summary_container(handle.csr(), result.summary, meta)
            self.summary_cache.store_summary(address["key"], image)
            with self._lock:
                self._stats["summary_cache_stores"] += 1
        except Exception:  # noqa: BLE001 - persistence must not fail the job
            with self._lock:
                self._stats["summary_cache_errors"] += 1

    def _resolve(self, request: SummaryRequest) -> Tuple[Graph, GraphHandle]:
        if request.graph_key is not None:
            handle = self.store.get(request.graph_key)
            return handle.graph, handle
        assert request.graph is not None
        return request.graph, self.store.intern(request.graph)

    def _run_request(
        self,
        request: SummaryRequest,
        control: Optional[RunControl],
        resources: Optional[GraphResources] = None,
    ) -> EngineResult:
        if resources is not None and request.graph is not None:
            # Caller-supplied substrate over an inline graph: nothing to
            # intern — the run consumes the provided views directly.
            graph = request.graph
        else:
            graph, handle = self._resolve(request)
            if resources is None:
                resources = handle
        return _summarize_request(request, graph, control, resources)

    def _run_in_pool(self, request: SummaryRequest) -> EngineResult:
        graph, _handle = self._resolve(request)
        with self._lock:
            pool = self._job_pool_locked()
            self._stats["pool_jobs"] += 1
        # Submitting outside the lock is safe: only a broken pool is
        # retired before teardown, and a broken pool's submit raises
        # BrokenProcessPool, handled below like a failed job.  Teardown
        # runs after the last dispatcher has left.
        try:
            return pool.submit(_process_job_worker, (request.to_dict(), graph)).result()
        except BrokenProcessPool:
            # A worker died (e.g. os._exit in a job): the stdlib pool is
            # unusable from now on, so retire it and let the next job
            # fork a fresh one.
            self._retire_job_pool(pool)
            raise

    def _job_pool_locked(self) -> ProcessPoolExecutor:
        """The live job pool, created on first use (holding the lock).

        Creating the pool forks nothing; its workers fork at the first
        submit.
        """
        if self._job_pool is None:
            # Load the adapter registry in the parent before any fork:
            # workers then hit create()'s lock-free fast path instead of
            # importing under a lock another parent thread might hold at
            # fork time.
            available_methods()
            self._job_pool = ProcessPoolExecutor(
                max_workers=self.max_inflight,
                mp_context=multiprocessing.get_context("fork"),
            )
        return self._job_pool

    def _retire_job_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop the broken ``pool`` if it is still the live one, then shut
        it down; the next job forks a fresh pool."""
        with self._lock:
            if self._job_pool is pool:
                self._job_pool = None
        pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Service counters plus the graph store's interning stats."""
        with self._lock:
            record = dict(self._stats)
        record["mode"] = self.mode
        record["max_inflight"] = self.max_inflight
        record["pending"] = self._queue.qsize()
        record["store"] = self.store.stats()
        if self.summary_cache is not None:
            record["summary_cache"] = self.summary_cache.stats()
        return record

    def telemetry(self) -> Dict[str, Any]:
        """One federated metrics snapshot across every layer.

        Merges the live lifecycle registry (queue depth, latency
        histograms, outcome counters — plus engine metrics when the
        service was built with telemetry sinks) with the three legacy
        ``stats()`` dicts — the service's own counters
        (``repro_service_*``), the graph store's interning stats
        (``repro_graph_store_*``), and the summary cache's
        (``repro_summary_cache_*``).  The result is
        a plain :meth:`~repro.obs.MetricsRegistry.snapshot` dict, ready
        for :func:`repro.obs.render_prometheus` /
        :func:`repro.obs.render_json` — the payload a ``/metrics``
        endpoint serves.
        """
        registry = MetricsRegistry()
        registry.merge(self.metrics.snapshot())
        stats = self.stats()
        store_stats = stats.pop("store", {})
        summary_stats = stats.pop("summary_cache", None)
        ingest_stats(registry, stats, "repro_service")
        ingest_stats(registry, store_stats, "repro_graph_store")
        if summary_stats is not None:
            ingest_stats(registry, summary_stats, "repro_summary_cache")
        return registry.snapshot()

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop accepting requests, drain, and tear everything down.

        Queued jobs still run unless ``cancel_pending=True``; the last
        dispatcher to drain the queue shuts the job pool down and closes
        an owned store.  ``wait=True`` blocks until it has and re-raises
        a teardown error, except from a dispatcher thread (a job's
        done-callback), which cannot wait for its own lane.  Idempotent;
        also invoked by ``__exit__``.
        """
        with self._lock:
            first = not self._closed
            self._closed = True
            threads = list(self._threads)
        if cancel_pending:
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                try:
                    if item is _STOP:
                        # Another shutdown's dispatcher sentinel: not
                        # ours to consume.  Sentinels sit behind every
                        # job (FIFO), so the drain is complete.
                        self._queue.put(_STOP)
                        break
                    if item._cancel_if_queued():
                        with self._lock:
                            self._stats["cancelled"] += 1
                finally:
                    self._queue.task_done()
        if first:
            for _ in threads:
                self._queue.put(_STOP)
            if not threads:
                self._teardown()
        if wait:
            for thread in threads:
                if thread is not threading.current_thread():
                    thread.join()
            error, self._teardown_error = self._teardown_error, None
            if error is not None:
                raise error

    def _teardown(self) -> None:
        """Shut the job pool down, write every pending checkpoint and
        close an owned store (runs once).

        An error is kept for ``shutdown(wait=True)`` to raise: this
        usually runs on the last dispatcher out, not the caller's thread.
        """
        with self._lock:
            pool, self._job_pool = self._job_pool, None
        try:
            if pool is not None:
                pool.shutdown(wait=True)
            if self.summary_cache is not None:
                self.summary_cache.close()
            if self._owns_store:
                self.store.close()
        except Exception as exc:
            self._teardown_error = exc

    close = shutdown

    def __enter__(self) -> "SummaryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (f"SummaryService(mode={self.mode!r}, "
                f"max_inflight={self.max_inflight}, "
                f"pending={self._queue.qsize()})")


# ----------------------------------------------------------------------
# The default service behind the one-shot shims
# ----------------------------------------------------------------------
_DEFAULT: Optional[SummaryService] = None
_DEFAULT_LOCK = threading.Lock()


def default_service() -> SummaryService:
    """The process-wide service behind ``engine.run`` and friends.

    Thread-mode, strict-FIFO, with a weakly-interning graph store — the
    shims gain substrate reuse across repeated calls on the same graph
    without changing any one-shot semantics.  Created lazily; reset with
    :func:`shutdown_default_service`.
    """
    global _DEFAULT
    if _DEFAULT is None or _DEFAULT._closed:
        with _DEFAULT_LOCK:
            if _DEFAULT is None or _DEFAULT._closed:
                _DEFAULT = SummaryService(mode="thread", max_inflight=1)
    return _DEFAULT


def shutdown_default_service() -> None:
    """Tear down the default service (a fresh one is created on demand)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        service, _DEFAULT = _DEFAULT, None
    if service is not None:
        service.shutdown(cancel_pending=True)
