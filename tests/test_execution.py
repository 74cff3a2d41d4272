"""Tests for the staged phase pipeline and the process-shard executor layer.

The central guarantee exercised here: for a fixed seed, SLUGGER and SWeG
summaries are **bit-identical across worker counts** — SLUGGER runs
serially at any worker count (it never forks), and SWeG's sharded divide
step reproduces its serial shingle sweeps exactly.  On top of that, the
suite pins hard-coded fingerprints (so drift against the serial
reference of earlier changes is caught), and unit-tests the executor
primitives and the read-only state snapshot.
"""

from __future__ import annotations

import sys

import pytest

from repro import ExecutionConfig, Slugger, SluggerConfig, engine
from repro.analysis.comparison import compare_methods
from repro.baselines.sweg import sweg_summarize
from repro.core.shingles import (
    csr_shingles_range,
    dense_hash_values,
    dense_subnode_shingles,
    make_hash_function,
)
from repro.core.state import SluggerState, StateSnapshot
from repro.engine import execution
from repro.engine.execution import ProcessShardExecutor, shard_bounds
from repro.exceptions import ConfigurationError, InvalidStateError
from repro.graphs import DenseAdjacency, Graph, caveman_graph, erdos_renyi_graph

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


def parallel_config(workers: int) -> ExecutionConfig:
    """An execution config that engages the pool even on small fixtures."""
    return ExecutionConfig(workers=workers, shingle_parallel_min_nodes=0)


# ----------------------------------------------------------------------
# Executor primitives
# ----------------------------------------------------------------------
class TestExecutionConfig:
    def test_defaults_are_serial(self):
        config = ExecutionConfig()
        assert config.workers == 1
        assert config.shingle_parallel_min_nodes == 25000
        assert not config.parallel

    @pytest.mark.parametrize("bad", [
        dict(workers=0), dict(workers="2"), dict(workers=2.5), dict(workers=True),
        dict(shingle_parallel_min_nodes=-1), dict(shingle_parallel_min_nodes=1.5),
        dict(shingle_parallel_min_nodes=False), dict(workers=None),
        dict(shingle_parallel_min_nodes="0"),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ExecutionConfig(**bad)

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


class TestShardBounds:
    @pytest.mark.parametrize("total,shards", [(10, 3), (7, 7), (5, 16), (1, 4), (16, 4)])
    def test_bounds_partition_the_range(self, total, shards):
        bounds = shard_bounds(total, shards)
        covered = [i for start, stop in bounds for i in range(start, stop)]
        assert covered == list(range(total))
        assert all(stop > start for start, stop in bounds)
        assert len(bounds) <= max(1, min(shards, total))

    def test_empty_total(self):
        assert shard_bounds(0, 4) == []


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
# State snapshot
# ----------------------------------------------------------------------
class TestStateSnapshot:
    def test_snapshot_is_immutable(self):
        state = SluggerState(caveman_graph(4, 5, seed=2))
        snapshot = state.snapshot()
        assert isinstance(snapshot, StateSnapshot)
        with pytest.raises(TypeError):
            snapshot.root_adj[0] = {}
        with pytest.raises(TypeError):
            snapshot.pn_count[0] = {}
        with pytest.raises(TypeError):
            snapshot.pn_total[0] = 5
        with pytest.raises(TypeError):
            del snapshot.tree_h[0]
        with pytest.raises(AttributeError):
            snapshot.roots = frozenset()
        with pytest.raises(AttributeError):
            snapshot.root_adj = {}

    def test_snapshot_reflects_state_without_copying(self):
        state = SluggerState(caveman_graph(4, 5, seed=2))
        snapshot = state.snapshot()
        assert snapshot.roots == frozenset(state.roots)
        some_root = next(iter(state.roots))
        assert snapshot.root_adj[some_root] == state.root_adj[some_root]

    def test_group_footprint_covers_members_and_neighbors(self):
        state = SluggerState(caveman_graph(4, 5, seed=2))
        members = sorted(state.roots)[:5]
        footprint = state.snapshot().group_footprint(members)
        for member in members:
            assert member in footprint
            assert set(state.root_adj[member]) <= footprint
            assert set(state.pn_count[member]) <= footprint


# ----------------------------------------------------------------------
# Batch shingles on the CSR view
# ----------------------------------------------------------------------
class TestCsrShingles:
    def test_range_shingles_match_the_dense_sweep(self):
        graph = caveman_graph(8, 6, 0.1, seed=9)
        dense = DenseAdjacency.from_graph(graph)
        csr = dense.freeze()
        hash_function = make_hash_function(42)
        expected = dense_subnode_shingles(dense, hash_function)
        values = dense_hash_values(dense, hash_function)
        n = dense.num_nodes
        for shards in (1, 3, 5):
            combined = []
            for start, stop in shard_bounds(n, shards):
                combined.extend(csr_shingles_range(csr, values, start, stop))
            assert combined == expected


# ----------------------------------------------------------------------
# Worker-count determinism
# ----------------------------------------------------------------------
def _refuse_to_fork(*args, **kwargs):
    raise AssertionError("SLUGGER must not create a process pool")


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

    @pytest.mark.skipif(not execution.process_execution_available(),
                        reason="process execution needs the fork start method")
    def test_workers_still_drive_the_sweg_divide_step(self, monkeypatch):
        # The same refusal that SLUGGER never trips is hit by SWeG, whose
        # divide step still shards its shingle sweeps over worker processes.
        monkeypatch.setattr(ProcessShardExecutor, "__init__", _refuse_to_fork)
        with pytest.raises(AssertionError, match="process pool"):
            sweg_summarize(int_fixture(), iterations=2, seed=0,
                           execution=parallel_config(2))


@pytest.mark.skipif(not execution.process_execution_available(),
                    reason="process execution needs the fork start method")
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
            executor = None if workers == 1 else parallel_config(workers)
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
        parallel = Slugger(config, execution=parallel_config(3)).summarize(graph)
        assert slugger_fingerprint(serial.summary) == slugger_fingerprint(parallel.summary)
        assert serial.history == parallel.history

    def test_default_heuristics_also_preserve_output(self):
        # Default ExecutionConfig (size floor active): still bit-identical.
        graph = int_fixture()
        config = SluggerConfig(iterations=3, seed=0)
        serial = Slugger(config).summarize(graph)
        parallel = Slugger(config, execution=ExecutionConfig(workers=2)).summarize(graph)
        assert slugger_fingerprint(serial.summary) == slugger_fingerprint(parallel.summary)

    @pytest.mark.parametrize("fixture,key", [
        (int_fixture, "caveman-int"),
        (er_fixture, "er-int"),
        (string_fixture, "caveman-str"),
    ])
    def test_sweg_is_bit_identical_across_worker_counts(self, fixture, key):
        graph = fixture()
        fingerprints = {}
        for workers in WORKER_COUNTS:
            executor = None if workers == 1 else parallel_config(workers)
            summary = sweg_summarize(graph, iterations=5, seed=0, execution=executor)
            summary.validate(graph)
            fingerprints[workers] = (
                summary.cost_eq11(),
                tuple(sorted(summary.superedges)),
                tuple(sorted(summary.corrections_plus)),
                tuple(sorted(summary.corrections_minus)),
            )
        assert len(set(fingerprints.values())) == 1
        if key != "caveman-str" or HASHSEED_PINNED:
            assert fingerprints[1][0] == SWEG_PINS[key]

    def test_engine_threads_execution_through_the_registry(self):
        graph = int_fixture()
        executor = parallel_config(2)
        serial = engine.run("slugger", graph, seed=0, iterations=4)
        parallel = engine.run("slugger", graph, seed=0, iterations=4, execution=executor)
        assert parallel.cost() == serial.cost()
        assert parallel.details["execution"] == {"workers": 2, "parallel_capable": False}
        assert parallel.details["execution_stats"]["replayed"] == 0
        assert parallel.details["execution_stats"]["fallbacks"] == 0
        # Methods without the capability ignore the executor but report it.
        flat = engine.run("randomized", graph, seed=0, execution=executor)
        assert flat.details["execution"]["parallel_capable"] is False
        assert flat.cost() == engine.run("randomized", graph, seed=0).cost()

    def test_supports_parallel_capability_flags(self):
        capabilities = {
            name: type(engine.create(name)).supports_parallel
            for name in engine.available_methods()
        }
        assert capabilities["slugger"] is False
        assert capabilities["sweg"] is True
        assert capabilities["mosso"] is False
        assert capabilities["greedy"] is False

    def test_compare_methods_accepts_an_execution_config(self):
        graph = caveman_graph(8, 6, 0.05, seed=2)
        serial = compare_methods(graph, methods=["slugger", "sweg"], seed=0)
        parallel = compare_methods(graph, methods=["slugger", "sweg"], seed=0,
                                   execution=parallel_config(2))
        assert {r.method: r.report["cost"] for r in serial} == \
            {r.method: r.report["cost"] for r in parallel}
