"""Tests for the telemetry layer (repro.obs) and its engine wiring.

Three families of guarantees:

* **Registry semantics** — labeled counters/gauges/histograms behave per
  the Prometheus data model, snapshots are plain sorted data, and
  :meth:`~repro.obs.MetricsRegistry.merge` is order-independent.
* **Exporter fidelity** — the Prometheus text rendering round-trips
  through :func:`~repro.obs.parse_prometheus_text` and the Chrome trace
  export is structurally loadable.
* **Non-perturbation** — a traced/metered SLUGGER run produces a summary
  bit-identical to an untraced one at every worker count, with equal
  engine counters.  ``REPRO_TEST_WORKERS`` (comma-separated counts)
  restricts the worker sweep for the CI matrix legs.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro import ExecutionConfig, Slugger, SluggerConfig
from repro.engine.hooks import RunControl
from repro.exceptions import TelemetryError
from repro.graphs import caveman_graph, erdos_renyi_graph
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_METRICS,
    NULL_TRACER,
    Stopwatch,
    Tracer,
    ingest_stats,
    parse_prometheus_text,
    render_json,
    render_prometheus,
)


def worker_counts():
    env = os.environ.get("REPRO_TEST_WORKERS")
    if env:
        return tuple(int(part) for part in env.split(","))
    return (1, 2, 4)


def fingerprint(summary):
    return (
        summary.cost(),
        summary.num_p_edges,
        summary.num_n_edges,
        summary.num_h_edges,
        tuple(sorted(map(tuple, summary.p_edges()))),
        tuple(sorted(map(tuple, summary.n_edges()))),
    )


class TestMetricsRegistry:
    def test_counter_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", outcome="ok").inc()
        registry.counter("jobs_total", outcome="ok").inc()
        registry.counter("jobs_total", outcome="failed").inc(3)
        series = registry.snapshot()["jobs_total"]["series"]
        assert [(s["labels"], s["value"]) for s in series] == [
            ({"outcome": "failed"}, 3.0),
            ({"outcome": "ok"}, 2.0),
        ]

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("c", a="1", b="2").inc()
        registry.counter("c", b="2", a="1").inc()
        (series,) = registry.snapshot()["c"]["series"]
        assert series["value"] == 2.0

    def test_counter_rejects_negative_increments(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.counter("c").inc(-1)

    def test_type_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        with pytest.raises(TelemetryError):
            registry.gauge("x")
        registry.histogram("h").observe(1.0)
        with pytest.raises(TelemetryError):
            registry.histogram("h", buckets=(1.0, 2.0))

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        (series,) = registry.snapshot()["depth"]["series"]
        assert series["value"] == 6.0

    def test_histogram_bucket_edges_are_inclusive(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t", buckets=(0.1, 1.0, 10.0))
        for value in (0.1, 0.05, 1.0, 5.0, 100.0):
            hist.observe(value)
        # v <= bound: 0.05 and 0.1 land in le=0.1; 1.0 in le=1; 5.0 in
        # le=10; 100.0 overflows to +Inf.
        assert hist.counts == [2, 1, 1, 1]
        assert hist.cumulative_counts() == [2, 3, 4, 5]
        assert hist.count == 5
        assert hist.sum == pytest.approx(106.15)

    def test_histogram_rejects_unsorted_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.histogram("bad", buckets=(1.0, 1.0, 2.0))

    def test_default_buckets_are_used(self):
        registry = MetricsRegistry()
        registry.histogram("t").observe(0.2)
        assert registry.snapshot()["t"]["buckets"] == list(DEFAULT_BUCKETS)

    def test_merge_is_order_independent(self):
        def shard(seed):
            registry = MetricsRegistry()
            registry.counter("done_total", shard=str(seed)).inc(seed)
            registry.counter("done_total", shard="all").inc(seed)
            registry.gauge("resident").inc(seed)
            hist = registry.histogram("seconds", buckets=(0.5, 1.0))
            # Binary-exact observations so summation commutes exactly.
            hist.observe(seed / 4.0)
            return registry.snapshot()

        snapshots = [shard(seed) for seed in (1, 2, 3, 4)]
        forward = MetricsRegistry()
        for snap in snapshots:
            forward.merge(snap)
        backward = MetricsRegistry()
        for snap in reversed(snapshots):
            backward.merge(snap)
        assert forward.snapshot() == backward.snapshot()
        assert render_prometheus(forward.snapshot()) == \
            render_prometheus(backward.snapshot())

    def test_merge_rejects_bucket_mismatch(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", buckets=(1.0, 2.0, 3.0)).observe(0.5)
        with pytest.raises(TelemetryError):
            a.merge(b.snapshot())

    def test_snapshot_is_json_serializable_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc()
        registry.counter("a_total").inc()
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        json.loads(render_json(snapshot))

    def test_ingest_stats_flattens_nested_dicts(self):
        registry = MetricsRegistry()
        ingest_stats(registry, {
            "hits": 4,
            "mode": "thread",
            "closed": False,
            "store": {"misses": 2},
            "skipped": [1, 2],
        }, "svc")
        snapshot = registry.snapshot()
        assert snapshot["svc_hits"]["series"][0]["value"] == 4.0
        assert snapshot["svc_closed"]["series"][0]["value"] == 0.0
        assert snapshot["svc_store_misses"]["series"][0]["value"] == 2.0
        info = snapshot["svc_mode_info"]["series"][0]
        assert info["labels"] == {"value": "thread"} and info["value"] == 1.0
        assert "svc_skipped" not in snapshot


class TestNullObjects:
    def test_null_metrics_is_inert(self):
        NULL_METRICS.counter("c", outcome="x").inc(5)
        NULL_METRICS.gauge("g").set(3)
        NULL_METRICS.histogram("h").observe(1.0)
        assert NULL_METRICS.snapshot() == {}
        assert NULL_METRICS.merge({"c": {}}) is NULL_METRICS
        assert NULL_METRICS.enabled is False

    def test_null_tracer_spans_still_self_time(self):
        with NULL_TRACER.span("work", lane="x", detail=1) as span:
            span.annotate(more=2)
        assert span.duration >= 0.0
        assert NULL_TRACER.sorted_spans() == []
        assert NULL_TRACER.enabled is False

    def test_stopwatch_reexport(self):
        watch = Stopwatch()
        assert watch.elapsed >= 0.0


class TestTracer:
    def test_nesting_and_ids_are_deterministic(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        spans = tracer.sorted_spans()
        # Id order is creation order: outer opened first.
        assert [s.name for s in spans] == ["outer", "inner"]
        assert [s.span_id for s in spans] == [0, 1]
        inner = next(s for s in spans if s.name == "inner")
        assert inner.parent_id == outer.span_id

    def test_add_converts_raw_perf_counter_readings(self):
        import time

        tracer = Tracer()
        raw = time.perf_counter()
        span = tracer.add("shard", perf_start=raw, duration=0.25, lane="shard-1",
                          groups=7)
        assert span.start == pytest.approx(raw - tracer.epoch)
        assert span.duration == 0.25
        assert span.attrs["groups"] == 7

    def test_jsonl_writer_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", lane="main", k=1):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["name"] == "a"
        assert records[0]["attrs"] == {"k": 1}

    def test_chrome_trace_structure(self, tmp_path):
        tracer = Tracer()
        with tracer.span("phase", lane="main"):
            pass
        tracer.add("shard", perf_start=tracer.epoch, duration=0.1, lane="shard-0")
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert sorted(e["args"]["name"] for e in metadata) == ["main", "shard-0"]
        assert {e["name"] for e in complete} == {"phase", "shard"}
        shard = next(e for e in complete if e["name"] == "shard")
        assert shard["dur"] == pytest.approx(0.1 * 1e6)
        # Lanes map to distinct tids; every event carries a span id.
        assert len({e["tid"] for e in metadata}) == len(metadata)
        assert all("span_id" in e["args"] for e in complete)


class TestExporters:
    def golden_registry(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", help="served requests",
                         method="slugger").inc(3)
        registry.gauge("depth").set(2)
        hist = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(7.0)
        return registry

    def test_prometheus_golden(self):
        text = render_prometheus(self.golden_registry().snapshot())
        assert text == (
            "# TYPE depth gauge\n"
            "depth 2\n"
            "# TYPE latency_seconds histogram\n"
            'latency_seconds_bucket{le="0.1"} 1\n'
            'latency_seconds_bucket{le="1"} 2\n'
            'latency_seconds_bucket{le="+Inf"} 3\n'
            "latency_seconds_sum 7.55\n"
            "latency_seconds_count 3\n"
            "# HELP requests_total served requests\n"
            "# TYPE requests_total counter\n"
            'requests_total{method="slugger"} 3\n'
        )

    def test_prometheus_round_trip(self):
        snapshot = self.golden_registry().snapshot()
        samples = parse_prometheus_text(render_prometheus(snapshot))
        values = {(name, tuple(sorted(labels.items()))): value
                  for name, labels, value in samples}
        assert values[("requests_total", (("method", "slugger"),))] == 3.0
        assert values[("latency_seconds_bucket", (("le", "+Inf"),))] == 3.0
        assert values[("latency_seconds_count", ())] == 3.0

    def test_parser_handles_inf_and_escapes(self):
        samples = parse_prometheus_text(
            'x_info{value="a\\"b,c"} 1\nedge_bucket{le="+Inf"} 4\n'
        )
        assert samples[0][1] == {"value": 'a"b,c'}
        assert samples[1][2] == 4.0
        assert math.isfinite(samples[0][2])

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(TelemetryError):
            parse_prometheus_text("this is not exposition format")
        with pytest.raises(TelemetryError):
            parse_prometheus_text("metric{=} 1")
        with pytest.raises(TelemetryError):
            parse_prometheus_text("metric not-a-number")


class TestRunControlSeq:
    def test_seq_is_monotonic_per_control(self):
        events = []
        control = RunControl(on_progress=events.append)
        control.emit("a", x=1)
        control.emit("b")
        control.emit("a", x=2)
        assert [event["seq"] for event in events] == [0, 1, 2]
        assert events[0] == {"stage": "a", "seq": 0, "x": 1}


class TestEngineTelemetry:
    GRAPH = staticmethod(lambda: erdos_renyi_graph(200, 0.05, seed=7))
    CONFIG = dict(iterations=4, seed=0)

    def run(self, workers, metrics=None, tracer=None):
        control = None
        if metrics is not None or tracer is not None:
            control = RunControl(metrics=metrics, tracer=tracer)
        execution = ExecutionConfig(workers=workers) if workers > 1 else None
        return Slugger(SluggerConfig(**self.CONFIG), execution=execution).summarize(
            self.GRAPH(), control=control
        )

    def test_summary_identical_with_telemetry_on_or_off(self):
        baseline = fingerprint(self.run(workers=1).summary)
        for workers in worker_counts():
            metrics = MetricsRegistry()
            tracer = Tracer()
            result = self.run(workers=workers, metrics=metrics, tracer=tracer)
            assert fingerprint(result.summary) == baseline, (
                f"telemetry perturbed the summary at workers={workers}"
            )

    def test_engine_counters_agree_across_worker_counts(self):
        per_worker = {}
        for workers in worker_counts():
            metrics = MetricsRegistry()
            self.run(workers=workers, metrics=metrics)
            snapshot = metrics.snapshot()
            per_worker[workers] = {
                name: snapshot[name]["series"][0]["value"]
                for name in ("slugger_iterations_total", "slugger_merges_total",
                             "slugger_final_cost")
            }
        values = list(per_worker.values())
        assert all(value == values[0] for value in values), per_worker

    def test_run_records_phase_spans_and_counters(self):
        metrics = MetricsRegistry()
        tracer = Tracer()
        self.run(workers=1, metrics=metrics, tracer=tracer)
        snapshot = metrics.snapshot()
        assert snapshot["slugger_groups_total"]["series"][0]["value"] > 0
        names = {span.name for span in tracer.sorted_spans()}
        assert {"state", "iteration", "group", "merge", "recost", "prune"} <= names
        events = tracer.chrome_trace_events()
        json.dumps(events)
        assert any(e["ph"] == "X" and e["name"] == "merge" for e in events)

    def test_phase_seconds_cover_exactly_the_pipeline(self):
        from repro.core.slugger import PHASE_NAMES

        result = self.run(workers=1)
        assert set(result.phase_seconds) == set(PHASE_NAMES) | {"state", "prune"}
        assert all(value >= 0.0 for value in result.phase_seconds.values())

    def test_iteration_spans_pin_the_driver_contract(self):
        """Each ``iteration`` span parents exactly ``group``, ``merge``
        and ``recost``, in order; ``phase_seconds`` sums those spans; and
        every ``iteration`` event carries its history entry."""
        from repro.core.slugger import PHASE_NAMES

        events = []
        tracer = Tracer()
        control = RunControl(on_progress=events.append, tracer=tracer)
        result = Slugger(SluggerConfig(**self.CONFIG)).summarize(
            self.GRAPH(), control=control
        )
        spans = tracer.sorted_spans()
        iterations = [span for span in spans if span.name == "iteration"]
        assert len(iterations) == self.CONFIG["iterations"]
        for iteration in iterations:
            children = [span.name for span in spans
                        if span.parent_id == iteration.span_id]
            assert children == list(PHASE_NAMES)
        for name in (*PHASE_NAMES, "state", "prune"):
            assert result.phase_seconds[name] == sum(
                span.duration for span in spans if span.name == name
            )
        iteration_events = [event for event in events
                            if event["stage"] == "iteration"]
        assert len(iteration_events) == len(result.history)
        for event, entry in zip(iteration_events, result.history):
            assert {key: float(event[key]) for key in entry} == entry

    def test_worker_count_does_not_change_the_span_tree(self):
        names = {}
        for workers in worker_counts():
            tracer = Tracer()
            self.run(workers=workers, tracer=tracer)
            names[workers] = sorted(span.name for span in tracer.sorted_spans())
        values = list(names.values())
        assert all(value == values[0] for value in values), names

    def test_phase_events_carry_span_timings(self):
        events = []
        metrics = MetricsRegistry()
        control = RunControl(on_progress=events.append, metrics=metrics)
        Slugger(SluggerConfig(**self.CONFIG)).summarize(
            self.GRAPH(), control=control
        )
        phase_events = [event for event in events if event["stage"] == "phases"]
        assert phase_events, "no per-phase progress events emitted"
        for event in phase_events:
            assert set(event["seconds"]) == {"group", "merge", "recost"}
            assert all(value >= 0.0 for value in event["seconds"].values())
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs)


class TestServiceTelemetry:
    def test_telemetry_federates_service_store_and_caches(self, tmp_path):
        from repro.service import SummaryRequest, SummaryService

        graph = caveman_graph(4, 6, 0.05, seed=3)
        metrics = MetricsRegistry()
        with SummaryService(metrics=metrics,
                            summary_cache_dir=str(tmp_path / "summ")) as service:
            job = service.submit(SummaryRequest(
                method="slugger", graph=graph, seed=0,
                options={"iterations": 2},
            ))
            job.wait()
            assert job.state.value == "done"
            snapshot = service.telemetry()
        assert snapshot["service_jobs_total"]["series"][0]["labels"] == {
            "method": "slugger", "outcome": "completed",
        }
        assert snapshot["service_jobs_submitted_total"]["series"][0]["value"] == 1.0
        assert snapshot["service_job_seconds"]["series"][0]["count"] == 1
        # Engine telemetry rode the caller-supplied registry.
        assert snapshot["slugger_iterations_total"]["series"][0]["value"] == 2.0
        # stats() federation: service, store, and summary-cache families.
        assert snapshot["repro_service_completed"]["series"][0]["value"] == 1.0
        assert "repro_graph_store_misses" in snapshot
        assert "repro_summary_cache_stores" in snapshot
        # The whole federated snapshot renders and parses.
        samples = parse_prometheus_text(render_prometheus(snapshot))
        assert len(samples) > 20

    def test_graph_cache_counters_federate(self, tmp_path):
        from repro.storage import GraphCache

        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        cache = GraphCache(tmp_path / "cache")
        cache.fetch_edge_list(edges)
        cache.fetch_edge_list(edges)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        registry = MetricsRegistry()
        ingest_stats(registry, stats, "repro_graph_cache")
        snapshot = registry.snapshot()
        assert snapshot["repro_graph_cache_hits"]["series"][0]["value"] == 1.0
