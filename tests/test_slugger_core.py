"""Tests for the SLUGGER driver, configuration, candidates, and merging step."""

from __future__ import annotations

import pytest

from repro.core import Slugger, SluggerConfig, summarize
from repro.core.candidates import generate_candidate_sets
from repro.core.config import SluggerConfig as Config
from repro.core.merging import merge_and_update, process_candidate_set
from repro.core.shingles import (
    LazyShingles,
    dense_shingles,
    make_hash_function,
)
from repro.core.state import SluggerState
from repro.exceptions import ConfigurationError
from repro.graphs import (
    DenseAdjacency,
    Graph,
    caveman_graph,
    complete_bipartite_graph,
    complete_graph,
    erdos_renyi_graph,
    nested_partition_graph,
    star_graph,
)


class TestConfig:
    def test_defaults_are_valid(self):
        config = SluggerConfig()
        assert config.iterations == 20
        assert config.prune is True

    def test_threshold_schedule_paper(self):
        config = SluggerConfig(iterations=5)
        assert config.threshold(1) == pytest.approx(0.5)
        assert config.threshold(4) == pytest.approx(0.2)
        assert config.threshold(5) == 0.0

    def test_threshold_schedule_zero_and_constant(self):
        assert SluggerConfig(iterations=3, threshold_schedule="zero").threshold(1) == 0.0
        constant = SluggerConfig(iterations=3, threshold_schedule="constant:0.25")
        assert constant.threshold(1) == 0.25
        assert constant.threshold(3) == 0.25

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            SluggerConfig(iterations=0)
        with pytest.raises(ConfigurationError):
            SluggerConfig(max_candidate_size=1)
        with pytest.raises(ConfigurationError):
            SluggerConfig(height_bound=0)
        with pytest.raises(ConfigurationError):
            SluggerConfig(threshold_schedule="bogus")
        with pytest.raises(ConfigurationError):
            SluggerConfig(threshold_schedule="constant:2.0")
        with pytest.raises(ConfigurationError):
            SluggerConfig(prune_rounds=-1)
        # Integer fields reject non-int values (and bool) up front instead
        # of crashing later in range().
        for bad in (
            dict(iterations=2.5), dict(iterations="3"), dict(iterations=True),
            dict(max_candidate_size=120.0), dict(shingle_rounds="10"),
            dict(prune_rounds=1.5), dict(height_bound="2"), dict(height_bound=2.0),
            dict(height_bound=True),
        ):
            with pytest.raises(ConfigurationError, match="must be an int"):
                SluggerConfig(**bad)
        assert SluggerConfig(height_bound=None).height_bound is None

    def test_threshold_out_of_range(self):
        config = SluggerConfig(iterations=3)
        with pytest.raises(ConfigurationError):
            config.threshold(0)
        with pytest.raises(ConfigurationError):
            config.threshold(4)


def oracle_shingle(graph, hash_function, node):
    """Min hash over the closed neighbourhood of ``node``, straight off the graph."""
    return min(hash_function(x) for x in [node, *graph.neighbor_set(node)])


class TestShingles:
    def test_hash_function_deterministic(self):
        first = make_hash_function(3)
        second = make_hash_function(3)
        assert [first(x) for x in range(10)] == [second(x) for x in range(10)]

    def test_subnode_shingles_reflect_neighborhoods(self):
        graph = complete_bipartite_graph(2, 4)
        hash_function = make_hash_function(1)
        shingles = dense_shingles(DenseAdjacency.from_graph(graph), hash_function)
        # Labels are 0..5 in insertion order, so dense id == label.
        assert shingles == [oracle_shingle(graph, hash_function, node) for node in range(6)]

    def test_root_shingles_take_minimum(self):
        graph = complete_graph(4)
        state = SluggerState(graph)
        hierarchy = state.summary.hierarchy
        node_shingles = dense_shingles(state.dense, make_hash_function(2))
        merged = state.merge_roots(hierarchy.leaf_of(0), hierarchy.leaf_of(1))
        # Candidate generation's root shingle: the minimum over the leaf ids.
        value = min(node_shingles[leaf] for leaf in hierarchy.leaf_id_view(merged))
        assert value == min(node_shingles[0], node_shingles[1])

    def test_hash_function_distinguishes_ids_near_mask_boundary(self):
        # Regression: the old 61-bit pre-mask collided x with x + 2**61 and
        # conflated distinct negative hash() values with large positives.
        hash_function = make_hash_function(5)
        boundary_ids = [2**61 - 2, 2**61 - 1, 2**61, 2**61 + 1, 2**62 + 3]
        values = [hash_function(x) for x in boundary_ids]
        assert len(set(values)) == len(values)
        for x in (7, 123456):
            assert hash_function(x) != hash_function(x + 2**61)
        assert hash_function(-1) != hash_function(2**61 - 1)

    def test_shingle_cache_matches_eager_computation(self):
        graph = erdos_renyi_graph(50, 0.15, seed=9)
        dense = DenseAdjacency.from_graph(graph)
        labels = dense.index.labels()
        hash_function = make_hash_function(13)
        eager = dense_shingles(dense, hash_function)
        assert eager == [oracle_shingle(graph, hash_function, label) for label in labels]
        lazy = LazyShingles(dense, 13)
        assert [lazy.shingle(node) for node in range(dense.num_nodes)] == eager
        bulk = LazyShingles(dense, 13)
        assert bulk.ensure_shingles() == eager

    def test_shingle_cache_is_lazy(self):
        graph = erdos_renyi_graph(50, 0.1, seed=9)
        dense = DenseAdjacency.from_graph(graph)
        cache = LazyShingles(dense, 13)
        cache.shingle(0)
        # Only the requested closed neighborhood was hashed.
        hashed = sum(value is not None for value in cache._values)
        assert hashed <= dense.degree(0) + 1

    def test_shingle_cache_agrees_with_root_shingles_on_merged_roots(self):
        graph = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")])
        state = SluggerState(graph)
        hierarchy = state.summary.hierarchy
        merged = state.merge_roots(hierarchy.leaf_of("c"), hierarchy.leaf_of("d"))
        cache = LazyShingles(state.dense, 2)
        lazy = min(cache.shingle(leaf) for leaf in hierarchy.leaf_id_view(merged))
        hash_function = make_hash_function(2)
        eager = min(oracle_shingle(graph, hash_function, label)
                    for label in hierarchy.leaf_subnodes(merged))
        assert lazy == eager


class TestCandidates:
    def test_all_roots_covered_at_most_once(self):
        graph = erdos_renyi_graph(60, 0.1, seed=5)
        state = SluggerState(graph)
        config = SluggerConfig(max_candidate_size=10, seed=0)
        candidate_sets = generate_candidate_sets(
            state.dense, state.summary.hierarchy, sorted(state.roots), config, seed=1
        )
        seen = [root for candidate_set in candidate_sets for root in candidate_set]
        assert len(seen) == len(set(seen))
        assert set(seen) <= state.roots
        for candidate_set in candidate_sets:
            assert 2 <= len(candidate_set) <= config.max_candidate_size

    def test_small_graphs_make_one_group(self):
        graph = complete_graph(5)
        state = SluggerState(graph)
        config = SluggerConfig(max_candidate_size=10, seed=0)
        candidate_sets = generate_candidate_sets(
            state.dense, state.summary.hierarchy, sorted(state.roots), config, seed=2
        )
        assert len(candidate_sets) == 1
        assert len(candidate_sets[0]) == 5

    def test_deterministic_for_fixed_seed(self):
        graph = erdos_renyi_graph(50, 0.1, seed=3)
        state = SluggerState(graph)
        config = SluggerConfig(max_candidate_size=8, seed=0)
        first = generate_candidate_sets(state.dense, state.summary.hierarchy, sorted(state.roots), config, seed=7)
        second = generate_candidate_sets(state.dense, state.summary.hierarchy, sorted(state.roots), config, seed=7)
        assert first == second


class TestMergingStep:
    def test_merge_and_update_keeps_losslessness(self):
        graph = complete_bipartite_graph(3, 4)
        state = SluggerState(graph)
        hierarchy = state.summary.hierarchy
        config = SluggerConfig(seed=0)
        merged = merge_and_update(state, hierarchy.leaf_of(0), hierarchy.leaf_of(1), config)
        assert merged in state.roots
        state.summary.validate(graph)
        state.check_consistency()

    def test_merge_and_update_compresses_twins(self):
        graph = complete_bipartite_graph(2, 6)
        state = SluggerState(graph)
        hierarchy = state.summary.hierarchy
        before = state.summary.cost()
        config = SluggerConfig(seed=0)
        merge_and_update(state, hierarchy.leaf_of(0), hierarchy.leaf_of(1), config)
        assert state.summary.cost() < before
        state.summary.validate(graph)

    def test_process_candidate_set_merges_clique(self):
        graph = complete_graph(6)
        state = SluggerState(graph)
        config = SluggerConfig(seed=0)
        merges = process_candidate_set(state, sorted(state.roots), 0.0, config, seed=3)
        assert merges >= 1
        state.summary.validate(graph)
        assert state.summary.cost() < graph.num_edges

    def test_threshold_one_blocks_all_merges(self):
        graph = complete_graph(5)
        state = SluggerState(graph)
        config = SluggerConfig(seed=0)
        merges = process_candidate_set(state, sorted(state.roots), 1.1, config, seed=3)
        assert merges == 0
        assert state.summary.cost() == graph.num_edges

    def test_process_candidate_set_handles_multiple_merges(self):
        # Several merges inside one candidate set: each merged root must
        # replace its partner in the queue (position-map bookkeeping), and
        # merged roots must stay mergeable with one another.
        graph = caveman_graph(3, 4, seed=0)
        for seed in range(5):
            state = SluggerState(graph)
            config = SluggerConfig(seed=0)
            merges = process_candidate_set(state, sorted(state.roots), 0.0, config, seed=seed)
            assert merges >= 2
            state.check_consistency()
            state.summary.validate(graph)
            # Every merge removed one root from play.
            assert len(state.roots) == graph.num_nodes - merges

    def test_process_candidate_set_tolerates_duplicate_roots(self):
        graph = complete_graph(6)
        for seed in range(4):
            state = SluggerState(graph)
            config = SluggerConfig(seed=0)
            roots = sorted(state.roots)
            merges = process_candidate_set(state, roots + roots[:3], 0.0, config, seed=seed)
            assert merges >= 1
            state.check_consistency()
            state.summary.validate(graph)

    def test_process_candidate_set_skips_non_root_candidates(self):
        graph = complete_graph(6)
        state = SluggerState(graph)
        hierarchy = state.summary.hierarchy
        config = SluggerConfig(seed=0)
        merged = state.merge_roots(hierarchy.leaf_of(0), hierarchy.leaf_of(1))
        stale = [hierarchy.leaf_of(0), hierarchy.leaf_of(1)]  # no longer roots
        candidate_set = stale + sorted(state.roots)
        merges = process_candidate_set(state, candidate_set, 0.0, config, seed=1)
        assert merges >= 1
        assert merged not in stale
        state.check_consistency()
        state.summary.validate(graph)


class TestDriver:
    def test_summarize_is_lossless(self, any_small_graph):
        result = summarize(any_small_graph, iterations=4, seed=0)
        result.summary.validate(any_small_graph)

    def test_summarize_compresses_structured_graphs(self, small_caveman, small_clique,
                                                    small_bipartite, small_hierarchical):
        for graph in (small_caveman, small_clique, small_bipartite, small_hierarchical):
            result = summarize(graph, iterations=6, seed=0)
            assert result.cost() < graph.num_edges

    def test_result_history_and_stats(self, small_caveman):
        result = summarize(small_caveman, iterations=3, seed=0)
        assert len(result.history) == 3
        assert result.history[0]["iteration"] == 1.0
        assert result.runtime_seconds > 0
        assert set(result.prune_stats) == {"substep1", "substep2", "substep3"}

    def test_deterministic_given_seed(self, small_hierarchical):
        first = summarize(small_hierarchical, iterations=4, seed=11)
        second = summarize(small_hierarchical, iterations=4, seed=11)
        assert first.cost() == second.cost()

    def test_validate_output_flag(self, small_random):
        result = summarize(small_random, iterations=2, seed=0, validate_output=True)
        assert result.cost() <= small_random.num_edges

    def test_height_bound_respected(self, small_caveman):
        for bound in (1, 2, 3):
            result = summarize(small_caveman, iterations=5, seed=0, height_bound=bound)
            result.summary.validate(small_caveman)
            assert result.summary.hierarchy.max_height() <= bound

    def test_height_bound_trades_compression(self, small_hierarchical):
        bounded = summarize(small_hierarchical, iterations=5, seed=0, height_bound=1)
        unbounded = summarize(small_hierarchical, iterations=5, seed=0)
        assert bounded.cost() >= unbounded.cost()

    def test_no_prune_keeps_more_supernodes(self, small_caveman):
        pruned = summarize(small_caveman, iterations=5, seed=0)
        unpruned = summarize(small_caveman, iterations=5, seed=0, prune=False)
        assert unpruned.summary.hierarchy.num_supernodes >= pruned.summary.hierarchy.num_supernodes
        unpruned.summary.validate(small_caveman)

    def test_edgeless_graph(self):
        graph = Graph(nodes=[0, 1, 2])
        result = summarize(graph, iterations=2, seed=0)
        assert result.cost() == 0
        assert result.history == []

    def test_star_graph_not_inflated(self):
        graph = star_graph(10)
        result = summarize(graph, iterations=4, seed=0)
        result.summary.validate(graph)
        assert result.cost() <= graph.num_edges

    def test_slugger_rejects_config_plus_overrides(self):
        with pytest.raises(TypeError):
            Slugger(SluggerConfig(), iterations=3)

    def test_slugger_rejects_non_graph(self):
        with pytest.raises(TypeError):
            Slugger(SluggerConfig(iterations=1)).summarize("not a graph")

    def test_memoization_ablation_equivalent_cost(self, small_caveman):
        with_memo = summarize(small_caveman, iterations=4, seed=0, use_memoized_encoder=True)
        without_memo = summarize(small_caveman, iterations=4, seed=0, use_memoized_encoder=False)
        assert with_memo.cost() == without_memo.cost()
