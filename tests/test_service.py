"""Tests for the service layer: sessions, jobs, the job pool, determinism.

The load-bearing guarantee: for a fixed seed a request's summary is
**bit-identical** whether it runs via one-shot ``engine.run``, a single
warm-service job, a process-mode worker, or eight concurrent mixed-method
submissions.  On top of that the suite covers the job lifecycle (FIFO
ordering, cancellation before and mid-run, progress-event monotonicity),
graph-store interning, request validation/serialization, the bounded
queue, and the process-mode job pool's recovery and teardown.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro import engine, storage
from repro.baselines.greedy import greedy_summarize
from repro.engine.execution import process_execution_available
from repro.engine.hooks import RunControl
from repro.exceptions import (
    ConfigurationError,
    JobCancelled,
    ServiceClosedError,
    ServiceError,
    ServiceSaturatedError,
)
from repro.graphs import Graph, caveman_graph, erdos_renyi_graph
from repro.service import (
    GraphStore,
    JobState,
    SummaryRequest,
    SummaryService,
    default_service,
)

# Captured from serial engine.run (iterations=5, seed=0) — the same pins
# test_execution.py holds; every serving path must reproduce them.
CAVEMAN_SLUGGER_PIN = (332, 133, 7, 192)
CAVEMAN_SWEG_COST = 327

SLUGGER_OPTIONS = {"iterations": 5}


def caveman_fixture() -> Graph:
    return caveman_graph(20, 10, 0.05, seed=1)


def fingerprint(summary):
    record = [summary.cost()]
    for attribute in ("num_p_edges", "num_n_edges", "num_h_edges"):
        record.append(getattr(summary, attribute, None))
    edges = getattr(summary, "p_edges", None)
    if callable(edges):
        record.append(tuple(sorted(map(tuple, summary.p_edges()))))
        record.append(tuple(sorted(map(tuple, summary.n_edges()))))
    else:
        record.append(tuple(sorted(map(tuple, summary.superedges))))
        record.append(tuple(sorted(map(tuple, summary.corrections_plus))))
        record.append(tuple(sorted(map(tuple, summary.corrections_minus))))
    return tuple(record)


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


@engine.register
class _GatedSummarizer(engine.Summarizer):
    """Test summarizer that blocks on a per-seed gate (for queue tests)."""

    name = "svc-test-gated"

    #: seed → threading.Event released by the test.
    gates = {}
    #: Seeds in the order their runs started.
    started = []

    def _run(self, graph, seed, control, resources):
        type(self).started.append(seed)
        gate = type(self).gates.get(seed)
        if gate is not None:
            assert gate.wait(30), f"gate for seed {seed} never released"
        return greedy_summarize(graph, max_merges=0), [], {}


_TEST_PID = os.getpid()


@engine.register
class _CrashingSummarizer(engine.Summarizer):
    """Test summarizer that kills its process when run in a forked worker.

    Run in the test process itself (e.g. by the every-method sweeps) it
    returns the trivial summary instead.
    """

    name = "svc-test-crash"

    def _run(self, graph, seed, control, resources):
        if os.getpid() != _TEST_PID:
            os._exit(3)
        return greedy_summarize(graph, max_merges=0), [], {}


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
class TestSummaryRequest:
    def test_validation(self):
        graph = caveman_fixture()
        with pytest.raises(ConfigurationError):
            SummaryRequest(method="", graph=graph)
        with pytest.raises(ConfigurationError):
            SummaryRequest(method="slugger")  # no graph at all
        with pytest.raises(ConfigurationError):
            SummaryRequest(method="slugger", graph=graph, graph_key="x")
        with pytest.raises(ConfigurationError):
            SummaryRequest(method="slugger", graph="not a graph")
        with pytest.raises(ConfigurationError):
            SummaryRequest(method="slugger", graph=graph, options=[1, 2])

    def test_options_are_frozen_copies(self):
        options = {"iterations": 5}
        request = SummaryRequest(method="slugger", graph=caveman_fixture(),
                                 options=options)
        options["iterations"] = 99
        assert request.options["iterations"] == 5

    def test_serialization_round_trip(self):
        request = SummaryRequest(
            method="sweg", graph_key="cave", seed=3,
            options={"iterations": 7}, tag="t",
        )
        record = request.to_dict()
        rebuilt = SummaryRequest.from_dict(record)
        assert rebuilt.method == "sweg"
        assert rebuilt.graph_key == "cave"
        assert rebuilt.seed == 3
        assert rebuilt.options == {"iterations": 7}
        assert rebuilt.tag == "t"

    def test_summarizer_requests_are_not_serializable(self):
        request = SummaryRequest(
            summarizer=engine.create("slugger"), graph=caveman_fixture()
        )
        assert request.method == "slugger"
        assert not request.serializable
        with pytest.raises(ConfigurationError):
            request.to_dict()

    def test_from_dict_rejects_unknown_execution_fields(self):
        # ``execution`` is no longer a request field at all.
        with pytest.raises(ConfigurationError,
                           match=r"unknown request fields: \['execution'\]"):
            SummaryRequest.from_dict(
                {"method": "slugger", "graph_key": "g",
                 "execution": {"workers": 2, "bogus": 1}}
            )

    @pytest.mark.parametrize("seed", ["x", 1.5, True])
    def test_malformed_seed_is_rejected_when_the_request_is_built(self, seed):
        graph = caveman_fixture()
        with pytest.raises(ConfigurationError, match="seed must be"):
            SummaryRequest(method="slugger", graph=graph, seed=seed)
        with SummaryService() as service:
            with pytest.raises(ConfigurationError, match="seed must be"):
                service.submit(method="slugger", graph=graph, seed=seed)
            assert service.stats()["submitted"] == 0
        with pytest.raises(ConfigurationError, match="seed must be"):
            engine.run("slugger", graph, seed=seed, iterations=1)

    def test_from_dict_rejects_unknown_record_fields(self):
        # A top-level 'iterations' (belongs under 'options') must fail
        # loudly instead of silently running with defaults.
        with pytest.raises(ConfigurationError, match="iterations"):
            SummaryRequest.from_dict(
                {"method": "slugger", "graph_key": "g", "iterations": 10}
            )


# ----------------------------------------------------------------------
# Graph store
# ----------------------------------------------------------------------
class TestGraphStore:
    def test_interning_hits_and_identity(self):
        store = GraphStore()
        graph = caveman_fixture()
        first = store.intern(graph)
        second = store.intern(graph)
        assert first is second
        assert first.dense() is second.dense()
        assert first.csr() is second.csr()
        stats = store.stats()
        assert stats == {"hits": 1, "misses": 1, "graphs": 1, "named": 0}
        store.close()

    def test_distinct_graphs_get_distinct_handles(self):
        store = GraphStore()
        graph_a, graph_b = caveman_fixture(), caveman_fixture()
        assert store.intern(graph_a) is not store.intern(graph_b)
        assert store.stats()["misses"] == 2
        store.close()

    def test_mutated_graph_rebuilds_the_handle(self):
        store = GraphStore()
        graph = caveman_fixture()
        stale = store.intern(graph)
        stale.dense()
        graph.add_edge("x", "y")
        fresh = store.intern(graph)
        assert fresh is not stale
        assert fresh.dense().num_edges == graph.num_edges
        store.close()

    def test_superseded_handles_are_collectable(self):
        import gc
        import weakref as weakref_module

        store = GraphStore()
        graph = caveman_fixture()
        old = store.intern(graph)
        old.dense()
        old_ref = weakref_module.ref(old)
        graph.add_edge("x", "y")
        store.intern(graph)  # stale: replaces the old handle
        del old
        gc.collect()
        # Nothing may pin the superseded handle (and its whole
        # substrate) for the graph's lifetime.
        assert old_ref() is None
        store.close()

    def test_count_preserving_mutation_is_detected(self):
        # remove-one/add-one keeps num_edges constant; the mutation
        # counter must still mark the handle stale.
        store = GraphStore()
        graph = caveman_fixture()
        stale = store.intern(graph)
        u, v = next(graph.edges())
        graph.remove_edge(u, v)
        graph.add_edge("p", "q")
        assert stale.stale
        fresh = store.intern(graph)
        assert fresh is not stale
        store.close()

    def test_anonymous_graphs_are_evictable(self):
        import gc

        store = GraphStore()
        graph = caveman_fixture()
        handle = store.intern(graph)
        handle.dense()
        assert store.stats()["graphs"] == 1
        del graph
        gc.collect()
        # The weak table dropped the entry; the handle reports the loss
        # instead of silently serving a dead graph.
        assert store.stats()["graphs"] == 0
        with pytest.raises(ServiceError):
            handle.graph
        store.close()

    def test_named_graphs_are_pinned(self):
        import gc

        store = GraphStore()
        store.register("cave", caveman_fixture())  # no caller-side reference
        gc.collect()
        assert store.get("cave").graph.num_nodes == 200
        store.close()

    def test_named_registration(self):
        store = GraphStore()
        graph = caveman_fixture()
        handle = store.register("cave", graph)
        assert store.get("cave") is handle
        assert store.keys() == ["cave"]
        with pytest.raises(ServiceError):
            store.get("unknown")
        store.close()


# ----------------------------------------------------------------------
# Lifecycle: ordering, cancellation, progress
# ----------------------------------------------------------------------
class TestJobLifecycle:
    def test_fifo_queue_ordering(self):
        _GatedSummarizer.started = []
        _GatedSummarizer.gates = {seed: threading.Event() for seed in (1, 2, 3)}
        graph = caveman_fixture()
        with SummaryService(max_inflight=1) as service:
            jobs = [service.submit(method="svc-test-gated", graph=graph, seed=seed)
                    for seed in (1, 2, 3)]
            assert [job.id for job in jobs] == [1, 2, 3]
            # Release out of order; a single in-flight lane must still
            # run (and settle) in submission order.
            for seed in (3, 2, 1):
                _GatedSummarizer.gates[seed].set()
            for job in jobs:
                job.result(timeout=30)
        assert _GatedSummarizer.started == [1, 2, 3]
        assert [job.state for job in jobs] == [JobState.DONE] * 3

    def test_cancel_before_run(self):
        _GatedSummarizer.started = []
        _GatedSummarizer.gates = {10: threading.Event()}
        graph = caveman_fixture()
        with SummaryService(max_inflight=1) as service:
            blocker = service.submit(method="svc-test-gated", graph=graph, seed=10)
            wait_until(lambda: blocker.state is JobState.RUNNING)
            queued = service.submit(method="slugger", graph=graph, seed=0,
                                    options=SLUGGER_OPTIONS)
            assert queued.cancel()
            _GatedSummarizer.gates[10].set()
            blocker.result(timeout=30)
            with pytest.raises(JobCancelled):
                queued.result(timeout=30)
        assert queued.state is JobState.CANCELLED
        assert 0 not in _GatedSummarizer.started  # the cancelled job never ran
        assert queued.events()[-1].stage == "cancelled"

    def test_cancel_mid_run_stops_between_iterations(self):
        graph = caveman_fixture()
        with SummaryService(max_inflight=1) as service:
            job = service.submit(method="slugger", graph=graph, seed=0,
                                 options={"iterations": 50})

            def cancel_after_two(event):
                if event.stage == "iteration" and event.payload["iteration"] == 2:
                    job.cancel()

            job.add_progress_listener(cancel_after_two)
            with pytest.raises(JobCancelled):
                job.result(timeout=60)
        assert job.state is JobState.CANCELLED
        iterations = [event.payload["iteration"] for event in job.events()
                      if event.stage == "iteration"]
        assert iterations and max(iterations) == 2  # nothing ran after the cancel

    def test_progress_events_are_monotonic_and_complete(self):
        graph = caveman_fixture()
        streamed = []
        with SummaryService(max_inflight=1) as service:
            job = service.submit(method="slugger", graph=graph, seed=0,
                                 options=SLUGGER_OPTIONS)
            job.result(timeout=60)
            job.add_progress_listener(streamed.append)  # late subscriber
        events = job.events()
        assert [event.seq for event in events] == list(range(len(events)))
        assert events[0].stage == "queued"
        assert events[1].stage == "started"
        assert events[-1].stage == "done"
        iterations = [event.payload["iteration"] for event in events
                      if event.stage == "iteration"]
        assert iterations == sorted(iterations) == list(range(1, 6))
        assert all(event.method == "slugger" for event in events)
        # The late subscriber got the full backlog, in order.
        assert [event.seq for event in streamed] == [event.seq for event in events]

    def test_raising_listener_does_not_kill_the_dispatcher(self):
        graph = caveman_fixture()
        with SummaryService(max_inflight=1) as service:
            first = service.submit(method="slugger", graph=graph, seed=0,
                                   options=SLUGGER_OPTIONS)
            first.add_progress_listener(
                lambda event: (_ for _ in ()).throw(RuntimeError("bad listener"))
            )
            first.result(timeout=120)
            # The lane survived the listener; later jobs still execute.
            second = service.submit(method="slugger", graph=graph, seed=1,
                                    options=SLUGGER_OPTIONS)
            second.result(timeout=120)
        assert first.state is JobState.DONE
        assert second.state is JobState.DONE

    def test_mutated_named_graph_is_reinterned_on_get(self):
        graph = caveman_fixture()
        with SummaryService(max_inflight=1) as service:
            service.register_graph("cave", graph)
            service.submit(method="slugger", graph_key="cave", seed=0,
                           options=SLUGGER_OPTIONS).result(timeout=120)
            graph.add_edge("extra-a", "extra-b")
            refreshed = service.submit(method="slugger", graph_key="cave", seed=0,
                                       options=SLUGGER_OPTIONS).result(timeout=120)
            refreshed.summary.validate(graph)  # built against the mutated graph
            assert service.stats()["store"]["misses"] == 2  # stale handle rebuilt

    def test_failed_job_reraises(self):
        with SummaryService(max_inflight=1) as service:
            job = service.submit(method="no-such-method", graph=caveman_fixture())
            with pytest.raises(ConfigurationError):
                job.result(timeout=30)
        assert job.state is JobState.FAILED
        assert job.events()[-1].stage == "failed"

    def test_result_timeout(self):
        _GatedSummarizer.gates = {77: threading.Event()}
        with SummaryService(max_inflight=1) as service:
            job = service.submit(method="svc-test-gated", graph=caveman_fixture(),
                                 seed=77)
            with pytest.raises(TimeoutError):
                job.result(timeout=0.05)
            _GatedSummarizer.gates[77].set()
            job.result(timeout=30)


# ----------------------------------------------------------------------
# Backpressure and shutdown
# ----------------------------------------------------------------------
class TestServiceLifecycle:
    def test_bounded_queue_saturates(self):
        _GatedSummarizer.gates = {50: threading.Event()}
        graph = caveman_fixture()
        service = SummaryService(max_inflight=1, max_pending=1)
        try:
            running = service.submit(method="svc-test-gated", graph=graph, seed=50)
            wait_until(lambda: running.state is JobState.RUNNING)
            service.submit(method="slugger", graph=graph, seed=0,
                           options=SLUGGER_OPTIONS)
            with pytest.raises(ServiceSaturatedError):
                service.submit(method="slugger", graph=graph, seed=1,
                               options=SLUGGER_OPTIONS)
        finally:
            _GatedSummarizer.gates[50].set()
            service.shutdown()

    def test_closed_service_rejects_submissions(self):
        graph = caveman_fixture()
        with SummaryService() as service:
            service.submit(method="slugger", graph=graph, seed=0,
                           options=SLUGGER_OPTIONS).result(timeout=60)
        with pytest.raises(ServiceClosedError):
            service.submit(method="slugger", graph=graph, seed=0)
        with pytest.raises(ServiceClosedError):
            service.run(SummaryRequest(method="slugger", graph=graph, seed=0))

    def test_shutdown_cancels_pending(self):
        _GatedSummarizer.gates = {60: threading.Event()}
        graph = caveman_fixture()
        service = SummaryService(max_inflight=1)
        running = service.submit(method="svc-test-gated", graph=graph, seed=60)
        wait_until(lambda: running.state is JobState.RUNNING)
        queued = service.submit(method="slugger", graph=graph, seed=0,
                                options=SLUGGER_OPTIONS)
        service.shutdown(wait=False, cancel_pending=True)
        assert queued.state is JobState.CANCELLED
        _GatedSummarizer.gates[60].set()
        running.result(timeout=30)
        service.shutdown()  # idempotent; joins the dispatcher

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_non_blocking_shutdown_drains_queued_jobs(self, mode):
        # Teardown waits for the last dispatcher: queued jobs still
        # resolve their graph key from the owned store, and a pool made
        # during the drain is shut down with the service.
        if mode == "process" and not process_execution_available():
            pytest.skip("no fork on this platform")
        service = SummaryService(mode=mode, max_inflight=1)
        service.register_graph("c", caveman_fixture())
        jobs = [service.submit(method="slugger", graph_key="c", seed=seed,
                               options=SLUGGER_OPTIONS) for seed in range(3)]
        service.shutdown(wait=False)
        for job in jobs:
            job.result(timeout=120)
        for thread in service._threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert [job.state for job in jobs] == [JobState.DONE] * 3
        assert service._job_pool is None
        service.shutdown()  # idempotent

    @pytest.mark.parametrize("started", [False, True], ids=["idle", "dispatched"])
    def test_teardown_error_reaches_the_waiting_caller(self, started):
        # Teardown usually runs on the last dispatcher; its error must
        # still surface from shutdown(wait=True), not die with the thread.
        service = SummaryService()
        if started:
            service.submit(method="slugger", graph=caveman_fixture(), seed=0,
                           options=SLUGGER_OPTIONS).result(timeout=120)

        def broken_close():
            raise OSError("close failed")

        service.store.close = broken_close
        with pytest.raises(OSError, match="close failed"):
            service.shutdown()
        service.shutdown()  # reported once; a repeat call is quiet

    def test_submit_rejects_overrides_on_a_prepared_request(self):
        graph = caveman_fixture()
        request = SummaryRequest(method="slugger", graph=graph, seed=0,
                                 options=SLUGGER_OPTIONS)
        with SummaryService() as service:
            with pytest.raises(ConfigurationError):
                service.submit(request, seed=3)  # silently ignored before
            with pytest.raises(ConfigurationError):
                service.submit(request, options={"iterations": 20})
            service.submit(request).result(timeout=120)  # plain request is fine

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    def test_unknown_graph_key_fails_the_job(self, tmp_path, cached):
        cache_dir = tmp_path / "summ" if cached else None
        with SummaryService(summary_cache_dir=cache_dir) as service:
            job = service.submit(method="slugger", graph_key="nope", seed=0)
            with pytest.raises(ServiceError, match="nope"):
                job.result(timeout=5)
            assert job.state is JobState.FAILED
            assert service.stats()["failed"] == 1

    def test_random_seed_skips_the_summary_cache(self, tmp_path):
        import random

        graph = caveman_fixture()
        with SummaryService(summary_cache_dir=tmp_path / "summ") as service:
            job = service.submit(method="slugger", graph=graph,
                                 seed=random.Random(0), options=SLUGGER_OPTIONS)
            summary = job.result(timeout=60).summary
            stats = service.stats()
        # ``Random(0)`` is the stream ``seed=0`` draws from.
        assert fingerprint(summary)[:4] == CAVEMAN_SLUGGER_PIN
        assert stats["completed"] == 1
        assert stats["summary_cache_stores"] == 0
        assert stats["summary_cache_hits"] == 0

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            SummaryService(mode="fiber")
        with pytest.raises(ConfigurationError):
            SummaryService(max_pending=0)
        with pytest.raises(ConfigurationError):
            SummaryService(max_inflight=0)


# ----------------------------------------------------------------------
# Determinism: the acceptance-criteria pins
# ----------------------------------------------------------------------
class TestServingDeterminism:
    def test_engine_run_matches_the_pin(self):
        result = engine.run("slugger", caveman_fixture(), seed=0, iterations=5)
        summary = result.summary
        assert (summary.cost(), summary.num_p_edges, summary.num_n_edges,
                summary.num_h_edges) == CAVEMAN_SLUGGER_PIN

    def test_engine_run_is_warm_across_repeats(self):
        graph = caveman_fixture()
        first = engine.run("slugger", graph, seed=0, iterations=5)
        store_stats = default_service().stats()["store"]
        second = engine.run("slugger", graph, seed=0, iterations=5)
        assert fingerprint(first.summary) == fingerprint(second.summary)
        after = default_service().stats()["store"]
        assert after["hits"] > store_stats["hits"]

    def test_single_warm_job_matches_engine_run(self):
        graph = caveman_fixture()
        reference = engine.run("slugger", graph, seed=0, iterations=5)
        with SummaryService(max_inflight=1) as service:
            warm = service.submit(method="slugger", graph=graph, seed=0,
                                  options=SLUGGER_OPTIONS).result(timeout=120)
        assert fingerprint(warm.summary) == fingerprint(reference.summary)
        assert (warm.summary.cost(), warm.summary.num_p_edges,
                warm.summary.num_n_edges, warm.summary.num_h_edges) == \
            CAVEMAN_SLUGGER_PIN

    def test_eight_concurrent_mixed_submissions_are_bit_identical(self):
        graph = caveman_fixture()
        specs = [
            ("slugger", 0, SLUGGER_OPTIONS),
            ("sweg", 0, {"iterations": 5}),
            ("randomized", 1, {}),
            ("sags", 2, {}),
            ("slugger", 0, SLUGGER_OPTIONS),
            ("sweg", 0, {"iterations": 5}),
            ("randomized", 1, {}),
            ("sags", 2, {}),
        ]
        # Direct, service-free reference runs (one per distinct request).
        references = {}
        for method, seed, options in specs:
            if (method, seed) not in references:
                references[(method, seed)] = engine.create(
                    method, **options
                ).summarize(graph, seed=seed)
        with SummaryService(max_inflight=8) as service:
            jobs = [service.submit(method=method, graph=graph, seed=seed,
                                   options=options)
                    for method, seed, options in specs]
            results = [job.result(timeout=300) for job in jobs]
        for (method, seed, _options), result in zip(specs, results):
            assert fingerprint(result.summary) == \
                fingerprint(references[(method, seed)].summary), \
                f"{method} diverged under concurrent mixed traffic"
            result.summary.validate(graph)
        slugger_summary = results[0].summary
        assert (slugger_summary.cost(), slugger_summary.num_p_edges,
                slugger_summary.num_n_edges, slugger_summary.num_h_edges) == \
            CAVEMAN_SLUGGER_PIN
        assert results[1].summary.cost_eq11() == CAVEMAN_SWEG_COST

    @pytest.mark.skipif(not process_execution_available(),
                        reason="no fork on this platform")
    def test_process_mode_matches_the_pin(self):
        graph = caveman_fixture()
        reference = engine.run("slugger", graph, seed=0, iterations=5)
        with SummaryService(mode="process", max_inflight=2) as service:
            service.register_graph("cave", graph)
            jobs = [service.submit(method="slugger", graph_key="cave", seed=0,
                                   options=SLUGGER_OPTIONS) for _ in range(2)]
            jobs.append(service.submit(method="sweg", graph_key="cave", seed=0,
                                       options={"iterations": 5}))
            results = [job.result(timeout=300) for job in jobs]
        assert service.stats()["pool_jobs"] == 3
        for result in results[:2]:
            assert fingerprint(result.summary) == fingerprint(reference.summary)
        assert results[2].summary.cost_eq11() == CAVEMAN_SWEG_COST

    @pytest.mark.skipif(not process_execution_available(),
                        reason="no fork on this platform")
    def test_process_mode_inline_graph_requests(self):
        # An anonymous graph has no key, so the worker can only run on
        # the graph its payload carries (regression: this once failed
        # with KeyError('graph_key')).
        graph = caveman_fixture()
        reference = engine.run("slugger", graph, seed=0, iterations=5)
        with SummaryService(mode="process", max_inflight=1) as service:
            result = service.submit(method="slugger", graph=graph, seed=0,
                                    options=SLUGGER_OPTIONS).result(timeout=300)
        assert fingerprint(result.summary) == fingerprint(reference.summary)

    @pytest.mark.skipif(not process_execution_available(),
                        reason="no fork on this platform")
    def test_process_mode_graph_registered_after_fork(self):
        # A graph registered after the pool forked exists only in the
        # parent; it travels with the payload and still matches.
        early, late = caveman_fixture(), erdos_renyi_graph(150, 0.05, seed=9)
        with SummaryService(mode="process", max_inflight=1) as service:
            service.register_graph("early", early)
            first = service.submit(method="slugger", graph_key="early", seed=0,
                                   options=SLUGGER_OPTIONS).result(timeout=300)
            service.register_graph("late", late)
            second = service.submit(method="slugger", graph_key="late", seed=3,
                                    options=SLUGGER_OPTIONS).result(timeout=300)
        assert fingerprint(first.summary) == fingerprint(
            engine.run("slugger", early, seed=0, iterations=5).summary
        )
        assert fingerprint(second.summary) == fingerprint(
            engine.run("slugger", late, seed=3, iterations=5).summary
        )

    @pytest.mark.skipif(not process_execution_available(),
                        reason="no fork on this platform")
    def test_process_mode_rekeyed_graph_after_fork(self):
        # Registering an already-interned graph under a NEW key after the
        # pool forked: the workers never knew either key, so the job
        # runs on the graph its payload carries (regression: this once
        # failed with KeyError in the worker).
        graph = caveman_fixture()
        with SummaryService(mode="process", max_inflight=1) as service:
            service.register_graph("first", graph)
            first = service.submit(method="slugger", graph_key="first", seed=0,
                                   options=SLUGGER_OPTIONS).result(timeout=300)
            service.register_graph("second", graph)  # same graph, new key
            second = service.submit(method="slugger", graph_key="second", seed=0,
                                    options=SLUGGER_OPTIONS).result(timeout=300)
        assert fingerprint(first.summary) == fingerprint(second.summary)

    @pytest.mark.skipif(not process_execution_available(),
                        reason="no fork on this platform")
    @pytest.mark.parametrize("make_graph", [
        lambda: caveman_graph(8, 6, 0.1, seed=1),
        lambda: erdos_renyi_graph(150, 0.05, seed=9),
    ], ids=["caveman", "er"])
    def test_process_mode_sees_a_graph_mutated_after_fork(self, make_graph):
        # Mutate a registered graph after the pool forked, keeping its
        # edge count: the next job must summarize the mutated graph, not
        # the one the workers inherited at fork time.
        graph = make_graph()
        with SummaryService(mode="process", max_inflight=1) as service:
            service.register_graph("g", graph)
            service.submit(method="slugger", graph_key="g", seed=0,
                           options=SLUGGER_OPTIONS).result(timeout=300)
            assert service._job_pool is not None
            edges = graph.num_edges
            u, v = sorted(graph.edges())[0]
            absent = next((a, b) for a in sorted(graph.nodes())
                          for b in sorted(graph.nodes())
                          if a < b and not graph.has_edge(a, b))
            graph.remove_edge(u, v)
            graph.add_edge(*absent)
            assert graph.num_edges == edges
            mutated = service.submit(method="slugger", graph_key="g", seed=0,
                                     options=SLUGGER_OPTIONS).result(timeout=300)
        mutated.summary.validate(graph)
        assert fingerprint(mutated.summary) == fingerprint(
            engine.run("slugger", graph, seed=0, iterations=5).summary
        )

    def test_thread_mode_never_creates_a_job_pool(self):
        graph = caveman_fixture()
        with SummaryService(mode="thread") as service:
            service.register_graph("cave", graph)
            result = service.submit(method="slugger", graph_key="cave", seed=0,
                                    options=SLUGGER_OPTIONS).result(timeout=300)
            assert service._job_pool is None
            assert service.stats()["pool_jobs"] == 0
        assert fingerprint(result.summary) == fingerprint(
            engine.run("slugger", graph, seed=0, iterations=5).summary
        )

    def test_graph_key_and_inline_requests_agree(self):
        graph = caveman_fixture()
        with SummaryService() as service:
            service.register_graph("cave", graph)
            by_key = service.submit(method="slugger", graph_key="cave", seed=0,
                                    options=SLUGGER_OPTIONS).result(timeout=120)
            inline = service.submit(method="slugger", graph=graph, seed=0,
                                    options=SLUGGER_OPTIONS).result(timeout=120)
        assert fingerprint(by_key.summary) == fingerprint(inline.summary)

    def test_service_interning_is_shared_across_jobs(self):
        graph = caveman_fixture()
        with SummaryService(max_inflight=2) as service:
            jobs = [service.submit(method="slugger", graph=graph, seed=seed,
                                   options=SLUGGER_OPTIONS) for seed in range(4)]
            for job in jobs:
                job.result(timeout=300)
            stats = service.stats()["store"]
        assert stats["misses"] == 1
        assert stats["hits"] >= 3


# ----------------------------------------------------------------------
# Async entry point
# ----------------------------------------------------------------------
class TestAsyncEntryPoint:
    def test_await_summarize(self):
        graph = caveman_fixture()
        reference = engine.run("slugger", graph, seed=0, iterations=5)

        async def main():
            with SummaryService(max_inflight=2) as service:
                return await asyncio.gather(*[
                    service.summarize("slugger", graph, seed=0,
                                      options=SLUGGER_OPTIONS)
                    for _ in range(3)
                ])

        results = asyncio.run(main())
        assert all(fingerprint(result.summary) == fingerprint(reference.summary)
                   for result in results)

    def test_await_failure_propagates(self):
        async def main():
            with SummaryService() as service:
                await service.summarize("no-such-method", caveman_fixture())

        with pytest.raises(ConfigurationError):
            asyncio.run(main())


# ----------------------------------------------------------------------
# RunControl and executor teardown (satellites)
# ----------------------------------------------------------------------
class TestRunControl:
    def test_emit_and_cancel(self):
        events = []
        token = threading.Event()
        control = RunControl(on_progress=events.append, cancel=token)
        control.emit("iteration", iteration=1)
        control.emit("iteration", iteration=2)
        assert events == [
            {"stage": "iteration", "seq": 0, "iteration": 1},
            {"stage": "iteration", "seq": 1, "iteration": 2},
        ]
        assert not control.cancelled()
        control.checkpoint()
        token.set()
        assert control.cancelled()
        with pytest.raises(JobCancelled):
            control.checkpoint()

    def test_default_control_is_inert(self):
        control = RunControl()
        control.emit("iteration", iteration=1)  # no callback, no error
        control.checkpoint()


def _worker_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (a zombie counts as dead)."""
    stat = Path(f"/proc/{pid}/stat")
    if stat.parent.parent.is_dir():
        try:
            state = stat.read_text().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            return False
        return state != "Z"
    try:  # pragma: no cover - hosts without procfs
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not process_execution_available(),
                    reason="no fork on this platform")
class TestProcessJobPool:
    def test_a_crashed_worker_fails_only_its_own_job(self):
        graph = caveman_fixture()
        with SummaryService(mode="process", max_inflight=1) as service:
            service.register_graph("cave", graph)
            crashed = service.submit(method="svc-test-crash", graph_key="cave",
                                     seed=0)
            with pytest.raises(BrokenProcessPool):
                crashed.result(timeout=300)
            healthy = service.submit(method="slugger", graph_key="cave", seed=0,
                                     options=SLUGGER_OPTIONS).result(timeout=300)
            stats = service.stats()
        assert fingerprint(healthy.summary) == fingerprint(
            engine.run("slugger", graph, seed=0, iterations=5).summary
        )
        assert (stats["failed"], stats["completed"], stats["pool_jobs"]) == (1, 1, 2)

    def test_two_services_resolve_their_own_graphs(self):
        # Both services register a graph under the same key; each forked
        # pool must resolve the key against its own service's store.
        graphs = (caveman_fixture(), erdos_renyi_graph(150, 0.05, seed=9))
        with SummaryService(mode="process", max_inflight=1) as first, \
                SummaryService(mode="process", max_inflight=1) as second:
            services = (first, second)
            for service, graph in zip(services, graphs):
                service.register_graph("g", graph)
            rounds = [
                [service.submit(method="slugger", graph_key="g", seed=0,
                                options=SLUGGER_OPTIONS).result(timeout=300)
                 for service in services]
                for _ in range(2)
            ]
        for results in rounds:
            for graph, result in zip(graphs, results):
                assert fingerprint(result.summary) == fingerprint(
                    engine.run("slugger", graph, seed=0, iterations=5).summary
                )

    def test_an_unpicklable_graph_fails_only_its_own_job(self, tmp_path):
        # Every process-mode job ships its graph, so a view over a
        # memory-mapped container fails even when registered before the
        # pool forks; the pool keeps serving.
        graph = caveman_graph(8, 6, 0.1, seed=1)
        storage.pack(graph, tmp_path / "g.slg")
        with storage.load(tmp_path / "g.slg") as stored, \
                SummaryService(mode="process", max_inflight=1) as service:
            service.register_graph("view", stored.view(), csr=stored.csr())
            with pytest.raises(TypeError):
                service.submit(method="slugger", graph_key="view", seed=0,
                               options=SLUGGER_OPTIONS).result(timeout=120)
            healthy = service.submit(method="slugger", graph=graph, seed=0,
                                     options=SLUGGER_OPTIONS).result(timeout=120)
            stats = service.stats()
        assert fingerprint(healthy.summary) == fingerprint(
            engine.run("slugger", graph, seed=0, iterations=5).summary
        )
        assert (stats["failed"], stats["completed"]) == (1, 1)

    def test_concurrent_submissions_lose_no_job(self):
        # Three dispatchers submit to the shared pool outside the
        # service lock; every job must complete and match.
        graph = caveman_graph(6, 5, 0.05, seed=3)
        reference = engine.run("slugger", graph, seed=0, iterations=2)
        with SummaryService(mode="process", max_inflight=3) as service:
            service.register_graph("cave", graph)
            jobs = [service.submit(method="slugger", graph_key="cave", seed=0,
                                   options={"iterations": 2})
                    for _ in range(12)]
            results = [job.result(timeout=120) for job in jobs]
            assert service.stats()["pool_jobs"] == len(jobs)
        for result in results:
            assert fingerprint(result.summary) == fingerprint(reference.summary)

    def test_unshut_service_exits_promptly_without_live_workers(self):
        script = textwrap.dedent("""
            from repro import SummaryService
            from repro.graphs import caveman_graph

            service = SummaryService(mode="process", max_inflight=2)
            service.register_graph("cave", caveman_graph(6, 5, 0.05, seed=3))
            service.submit(method="slugger", graph_key="cave", seed=0,
                           options={"iterations": 2}).result(timeout=120)
            print(*sorted(service._job_pool._processes))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        completed = subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True, timeout=60)
        assert completed.returncode == 0, completed.stderr
        pids = [int(pid) for pid in completed.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            wait_until(lambda pid=pid: not _worker_alive(pid), timeout=10)
