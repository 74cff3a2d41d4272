"""Tests for serial determinism and the process-shard executor layer.

The central guarantee exercised here: SLUGGER accepts and ignores an
``execution`` argument, never creates a process pool, and so gives
**bit-identical summaries at any worker count** for a fixed seed; no
other method forks either, and every other run entry point rejects
``execution`` with a ``TypeError``.  On
top of that, the suite pins hard-coded SLUGGER and SWeG fingerprints (so
drift against the serial reference of earlier changes is caught), and
unit-tests the executor primitives.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro import ExecutionConfig, Slugger, SluggerConfig, SummaryService, engine
from repro.analysis.comparison import compare_methods
from repro.engine import execution
from repro.engine.execution import ProcessShardExecutor
from repro.exceptions import ConfigurationError, InvalidStateError
from repro.graphs import Graph, caveman_graph, erdos_renyi_graph

WORKER_COUNTS = (1, 2, 4)

#: Hash randomization changes ``hash(str)`` and therefore the shingle
#: values of string-labelled graphs; the literal string-label pins below
#: were captured under PYTHONHASHSEED=0.
HASHSEED_PINNED = sys.flags.hash_randomization == 0


def int_fixture() -> Graph:
    return caveman_graph(20, 10, 0.05, seed=1)


def er_fixture() -> Graph:
    return erdos_renyi_graph(300, 0.02, seed=5)


def string_fixture() -> Graph:
    return Graph(edges=[(f"v{u}", f"v{v}") for u, v in int_fixture().edges()])


# Captured from serial runs (iterations=5, seed=0; PYTHONHASHSEED=0 for
# the string-labelled fixture).  Any drift means a change was not
# output-preserving.
SLUGGER_PINS = {
    "caveman-int": (332, 133, 7, 192),
    "er-int": (827, 788, 0, 39),
    "caveman-str": (340, 144, 5, 191),
}
SWEG_PINS = {"caveman-int": 327, "er-int": 959, "caveman-str": 325}


def slugger_fingerprint(summary):
    return (
        summary.cost(),
        summary.num_p_edges,
        summary.num_n_edges,
        summary.num_h_edges,
        tuple(sorted(map(tuple, summary.p_edges()))),
        tuple(sorted(map(tuple, summary.n_edges()))),
    )


# ----------------------------------------------------------------------
# Executor primitives
# ----------------------------------------------------------------------
class TestExecutionConfig:
    def test_defaults_are_serial(self):
        config = ExecutionConfig()
        assert config.workers == 1
        assert not config.parallel

    @pytest.mark.parametrize("bad", [
        dict(workers=0), dict(workers="2"), dict(workers=2.5), dict(workers=True),
        dict(workers=None),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ExecutionConfig(**bad)

    def test_workers_is_the_only_field(self):
        assert [field.name for field in dataclasses.fields(ExecutionConfig)] == ["workers"]

    def test_platforms_without_fork_fall_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(execution, "process_execution_available", lambda: False)
        config = ExecutionConfig(workers=4)
        assert not config.parallel
        # A full run with an unusable parallel config still matches serial.
        graph = caveman_graph(6, 5, 0.05, seed=3)
        serial = Slugger(SluggerConfig(iterations=3, seed=0)).summarize(graph)
        fallback = Slugger(SluggerConfig(iterations=3, seed=0),
                           execution=config).summarize(graph)
        assert slugger_fingerprint(serial.summary) == slugger_fingerprint(fallback.summary)


class TestExecutors:
    def test_process_executor_matches_serial(self):
        if not execution.process_execution_available():  # pragma: no cover
            pytest.skip("no fork on this platform")
        with ProcessShardExecutor(2, context=100) as executor:
            results = list(executor.map_shards(_add_context, list(range(8))))
        assert results == [100 + i for i in range(8)]

    def test_worker_context_outside_a_shard_raises(self):
        with pytest.raises(InvalidStateError, match="no worker context"):
            execution.worker_context()

    def test_process_executor_requires_fork(self, monkeypatch):
        monkeypatch.setattr(execution, "process_execution_available", lambda: False)
        with pytest.raises(ConfigurationError, match="fork"):
            ProcessShardExecutor(2, context=1)


def _add_context(payload):
    return execution.worker_context() + payload


# ----------------------------------------------------------------------
# Worker-count determinism
# ----------------------------------------------------------------------
def _refuse_to_fork(*args, **kwargs):
    raise AssertionError("a summarizer must not create a process pool")


class TestSluggerNeverForks:
    @pytest.mark.parametrize("fixture", [er_fixture, int_fixture, string_fixture])
    def test_workers_two_runs_the_serial_path(self, fixture, monkeypatch):
        graph = fixture()
        config = SluggerConfig(iterations=5, seed=0)
        serial = Slugger(config).summarize(graph)
        monkeypatch.setattr(ProcessShardExecutor, "__init__", _refuse_to_fork)
        result = Slugger(config, execution=ExecutionConfig(workers=2)).summarize(graph)
        assert slugger_fingerprint(result.summary) == slugger_fingerprint(serial.summary)
        assert set(result.execution_stats) == {"groups", "replayed", "fallbacks"}
        assert result.execution_stats == serial.execution_stats


class TestNoMethodForks:
    @pytest.mark.parametrize("method", sorted(engine.available_methods()))
    def test_every_method_runs_in_process(self, method, monkeypatch):
        graph = caveman_graph(6, 5, 0.05, seed=3)
        summarizer = engine.create(method)
        monkeypatch.setattr(ProcessShardExecutor, "__init__", _refuse_to_fork)
        result = summarizer.summarize(graph, seed=0)
        result.summary.validate(graph)
        assert result.cost() == engine.run(method, graph, seed=0).cost()
        assert "execution" not in result.details


class TestExecutionIsNotARunParameter:
    """Only ``Slugger(config, execution=)`` still accepts (and ignores)
    an execution config; every other run entry point rejects it."""

    GRAPH = staticmethod(lambda: caveman_graph(4, 5, 0.05, seed=3))
    CALLS = {
        "summarizer-summarize": lambda graph, config: engine.create("sweg").summarize(
            graph, seed=0, execution=config),
        "engine-run": lambda graph, config: engine.run(
            "slugger", graph, seed=0, execution=config),
        "compare-methods": lambda graph, config: compare_methods(
            graph, methods=["slugger"], seed=0, execution=config),
        "service-workers": lambda graph, config: SummaryService(workers=2),
        "service-execution": lambda graph, config: SummaryService(execution=config),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_execution_keyword_is_a_type_error(self, call):
        with pytest.raises(TypeError, match="execution|workers"):
            self.CALLS[call](self.GRAPH(), ExecutionConfig(workers=2))

    def test_submit_rejects_execution_before_queueing(self):
        with SummaryService() as service:
            with pytest.raises(TypeError, match="execution"):
                service.submit(method="slugger", graph=self.GRAPH(), seed=0,
                               execution=ExecutionConfig(workers=2))
            assert service.stats()["submitted"] == 0


class TestWorkerCountDeterminism:
    @pytest.mark.parametrize("fixture,key", [
        (int_fixture, "caveman-int"),
        (er_fixture, "er-int"),
        (string_fixture, "caveman-str"),
    ])
    def test_slugger_is_bit_identical_across_worker_counts(self, fixture, key):
        graph = fixture()
        config = SluggerConfig(iterations=5, seed=0)
        fingerprints = {}
        for workers in WORKER_COUNTS:
            executor = None if workers == 1 else ExecutionConfig(workers=workers)
            result = Slugger(config, execution=executor).summarize(graph)
            fingerprints[workers] = slugger_fingerprint(result.summary)
        assert len(set(fingerprints.values())) == 1
        if key != "caveman-str" or HASHSEED_PINNED:
            assert fingerprints[1][:4] == SLUGGER_PINS[key]

    def test_slugger_parallel_matches_with_invariant_checks(self):
        graph = int_fixture()
        config = SluggerConfig(iterations=4, seed=3, check_invariants=True,
                               validate_output=True)
        serial = Slugger(config).summarize(graph)
        parallel = Slugger(config, execution=ExecutionConfig(workers=3)).summarize(graph)
        assert slugger_fingerprint(serial.summary) == slugger_fingerprint(parallel.summary)
        assert serial.history == parallel.history

    @pytest.mark.parametrize("fixture,key", [
        (int_fixture, "caveman-int"),
        (er_fixture, "er-int"),
        (string_fixture, "caveman-str"),
    ])
    def test_sweg_matches_serial_pins(self, fixture, key):
        graph = fixture()
        sweg = engine.create("sweg", iterations=5)
        fingerprints = []
        for summary in (sweg.summarize(graph, seed=0).summary,
                        engine.run("sweg", graph, seed=0, iterations=5).summary):
            summary.validate(graph)
            fingerprints.append((
                summary.cost_eq11(),
                tuple(sorted(summary.superedges)),
                tuple(sorted(summary.corrections_plus)),
                tuple(sorted(summary.corrections_minus)),
            ))
        assert fingerprints[0] == fingerprints[1]
        if key != "caveman-str" or HASHSEED_PINNED:
            assert fingerprints[0][0] == SWEG_PINS[key]
