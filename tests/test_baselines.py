"""Tests for the baseline summarizers (Randomized, Greedy, SWeG, SAGS, MoSSo)."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.baselines import (
    FlatGroupingState,
    MoSSo,
    MossoConfig,
    SagsConfig,
    SwegConfig,
    drop_corrections,
    greedy_summarize,
    mosso_summarize,
    randomized_summarize,
    sags_summarize,
    sweg_summarize,
)
from repro.baselines.common import pair_encoding_cost
from repro.exceptions import ConfigurationError, SummaryInvariantError
from repro.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    erdos_renyi_graph,
    load_dataset,
)
from repro.storage.summary_store import summary_fingerprint


class TestFlatGroupingState:
    def test_initial_state_costs(self):
        graph = complete_graph(4)
        state = FlatGroupingState(graph)
        assert len(state.groups()) == 4
        assert state.total_cost() == graph.num_edges
        assert state.to_summary().cost() == graph.num_edges

    def test_pair_encoding_cost(self):
        assert pair_encoding_cost(0, 10) == 0
        assert pair_encoding_cost(4, 10) == 4
        assert pair_encoding_cost(9, 10) == 2

    def test_merge_updates_counters(self):
        graph = complete_bipartite_graph(2, 3)
        state = FlatGroupingState(graph)
        left = [state.group_of[0], state.group_of[1]]
        merged = state.merge(left[0], left[1])
        assert state.size(merged) == 2
        assert state.group_adj[merged][state.group_of[2]] == 2
        summary = state.to_summary()
        summary.validate(graph)

    def test_merge_errors(self):
        state = FlatGroupingState(complete_graph(3))
        group = state.group_of[0]
        with pytest.raises(SummaryInvariantError):
            state.merge(group, group)
        with pytest.raises(SummaryInvariantError):
            state.merge(group, 999)

    def test_saving_positive_for_twins(self):
        graph = complete_bipartite_graph(2, 5)
        state = FlatGroupingState(graph)
        assert state.saving(state.group_of[0], state.group_of[1]) > 0

    def test_move_between_groups(self):
        graph = complete_graph(4)
        state = FlatGroupingState(graph)
        target = state.group_of[1]
        state.move(0, target)
        assert state.group_of[0] == target
        assert state.size(target) == 2
        state.to_summary().validate(graph)

    def test_move_to_fresh_singleton(self):
        graph = complete_graph(4)
        state = FlatGroupingState(graph)
        state.merge(state.group_of[0], state.group_of[1])
        fresh = state.move(0, None)
        assert state.size(fresh) == 1
        state.to_summary().validate(graph)

    def test_two_hop_groups(self):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 3)])
        state = FlatGroupingState(graph)
        hops = state.two_hop_groups(state.group_of[0])
        assert state.group_of[2] in hops
        assert state.group_of[3] not in hops


class TestOfflineBaselines:
    @pytest.mark.parametrize("method", [randomized_summarize, greedy_summarize])
    def test_navlakha_methods_lossless(self, method, any_small_graph):
        summary = method(any_small_graph) if method is greedy_summarize else method(any_small_graph, seed=0)
        summary.validate(any_small_graph)

    def test_randomized_compresses_cliques(self, small_caveman):
        summary = randomized_summarize(small_caveman, seed=0)
        assert summary.cost_eq11() < small_caveman.num_edges

    def test_greedy_compresses_at_least_as_well_as_singletons(self, small_clique):
        summary = greedy_summarize(small_clique)
        assert summary.cost() <= small_clique.num_edges
        assert summary.num_non_singleton_groups() >= 1

    @pytest.mark.parametrize("seed", [1, 2])
    def test_randomized_ignores_set_layout(self, seed):
        # A pickled graph has the same content but other set layouts
        # (process-mode jobs ship their graph this way); partner ties
        # must not follow set order.
        graph = load_dataset("CA", seed=0)
        clone = pickle.loads(pickle.dumps(graph))
        signatures = [
            tuple(sorted(map(tuple, edges)) for edges in (
                summary.superedges, summary.corrections_plus,
                summary.corrections_minus))
            for summary in (randomized_summarize(g, seed=seed)
                            for g in (graph, clone))
        ]
        assert signatures[0] == signatures[1]

    def test_randomized_max_rounds(self, small_random):
        summary = randomized_summarize(small_random, seed=0, max_rounds=3)
        summary.validate(small_random)

    def test_greedy_max_merges(self, small_clique):
        summary = greedy_summarize(small_clique, max_merges=1)
        summary.validate(small_clique)
        assert summary.num_non_singleton_groups() <= 1


class TestSweg:
    def test_lossless_on_all_graphs(self, any_small_graph):
        summary = sweg_summarize(any_small_graph, iterations=5, seed=0)
        summary.validate(any_small_graph)

    def test_compresses_structured_graphs(self, small_caveman, small_bipartite):
        for graph in (small_caveman, small_bipartite):
            summary = sweg_summarize(graph, iterations=8, seed=0)
            assert summary.cost_eq11() < graph.num_edges

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SwegConfig(iterations=0)
        with pytest.raises(ConfigurationError):
            SwegConfig(max_group_size=1)
        with pytest.raises(ConfigurationError):
            SwegConfig(epsilon=-0.1)
        with pytest.raises(TypeError):
            sweg_summarize(complete_graph(3), SwegConfig(), iterations=3)

    def test_threshold_schedule(self):
        config = SwegConfig(iterations=4)
        assert config.threshold(1) == pytest.approx(0.5)
        assert config.threshold(4) == 0.0

    def test_deterministic_with_seed(self, small_hierarchical):
        first = sweg_summarize(small_hierarchical, iterations=5, seed=3)
        second = sweg_summarize(small_hierarchical, iterations=5, seed=3)
        assert first.cost_eq11() == second.cost_eq11()

    def test_lossy_mode_respects_budget(self, small_caveman):
        lossless = sweg_summarize(small_caveman, iterations=5, seed=0)
        lossy = sweg_summarize(small_caveman, iterations=5, seed=0, epsilon=0.5)
        assert lossy.cost_eq11() <= lossless.cost_eq11()
        rebuilt = lossy.decompress()
        for node in small_caveman.nodes():
            original = set(small_caveman.neighbor_set(node))
            reconstructed = set(rebuilt.neighbor_set(node)) if rebuilt.has_node(node) else set()
            errors = len(original ^ reconstructed)
            assert errors <= max(1, int(0.5 * small_caveman.degree(node))) + 1

    def test_drop_corrections_zero_epsilon_is_noop(self, small_caveman):
        summary = sweg_summarize(small_caveman, iterations=5, seed=0)
        assert drop_corrections(summary, small_caveman, 0.0) == 0


class TestSags:
    def test_lossless(self, any_small_graph):
        summary = sags_summarize(any_small_graph, seed=0)
        summary.validate(any_small_graph)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SagsConfig(signature_length=0)
        with pytest.raises(ConfigurationError):
            SagsConfig(bands=40, signature_length=30)
        with pytest.raises(ConfigurationError):
            SagsConfig(acceptance_probability=0.0)

    def test_merges_duplicate_neighborhood_nodes(self):
        graph = complete_bipartite_graph(6, 3)
        summary = sags_summarize(graph, seed=1, acceptance_probability=1.0)
        assert summary.num_non_singleton_groups() >= 1
        summary.validate(graph)


class TestMosso:
    def test_streaming_matches_graph(self, small_caveman):
        summarizer = MoSSo(seed=0)
        for u, v in small_caveman.edges():
            summarizer.add_edge(u, v)
        summary = summarizer.summary()
        summary.validate(small_caveman)

    def test_edge_deletion(self):
        graph = complete_graph(5)
        summarizer = MoSSo(seed=0)
        for u, v in graph.edges():
            summarizer.add_edge(u, v)
        summarizer.remove_edge(0, 1)
        graph.remove_edge(0, 1)
        summarizer.summary().validate(graph)

    def test_duplicate_insertions_ignored(self):
        summarizer = MoSSo(seed=0)
        summarizer.add_edge(0, 1)
        summarizer.add_edge(0, 1)
        summarizer.add_edge(1, 0)
        assert summarizer.graph.num_edges == 1

    def test_self_loop_ignored(self):
        summarizer = MoSSo(seed=0)
        summarizer.add_edge(2, 2)
        assert summarizer.graph.num_edges == 0

    def test_remove_before_any_insert_is_noop(self):
        summarizer = MoSSo(seed=0)
        summarizer.remove_edge(0, 1)
        assert summarizer.graph.num_edges == 0

    def test_offline_wrapper_lossless(self, small_caveman, small_random):
        for graph in (small_caveman, small_random):
            summary = mosso_summarize(graph, seed=0)
            summary.validate(graph)

    def test_ignores_set_layout(self):
        # A process-mode job receives its graph pickled: same content,
        # other set layouts.  Neighbor samples must not follow set order.
        graph = load_dataset("CA", seed=0)
        clone = pickle.loads(pickle.dumps(graph))
        fingerprints = [summary_fingerprint(mosso_summarize(g, seed=0),
                                            labels=list(graph.nodes()))
                        for g in (graph, clone)]
        assert fingerprints[0] == fingerprints[1]

    def test_pickled_summarizer_continues_identically(self):
        # Deletions leave neighbor sets whose iteration order a pickle
        # round trip does not keep; the continued runs must not notice.
        graph = load_dataset("CA", seed=0)
        edges = sorted(graph.edges(), key=repr)
        random.Random(5).shuffle(edges)
        half = len(edges) // 2
        live = MoSSo(seed=0)
        for u, v in edges[:half]:
            live.add_edge(u, v)
        for u, v in edges[: half // 2]:
            live.remove_edge(u, v)
        clone = pickle.loads(pickle.dumps(live))
        for summarizer in (live, clone):
            for u, v in edges[half:]:
                summarizer.add_edge(u, v)
        labels = list(live.graph.nodes())
        assert list(clone.graph.nodes()) == labels
        assert summary_fingerprint(clone.summary(), labels=labels) == \
            summary_fingerprint(live.summary(), labels=labels)

    def test_compresses_cliques(self, small_caveman):
        summary = mosso_summarize(small_caveman, seed=0)
        assert summary.cost_eq11() < small_caveman.num_edges

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MossoConfig(escape_probability=1.5)
        with pytest.raises(ConfigurationError):
            MossoConfig(sample_size=0)
        with pytest.raises(ConfigurationError):
            MossoConfig(moves_per_update=0)
        with pytest.raises(TypeError):
            MoSSo(MossoConfig(), seed=1)

    def test_isolated_nodes_covered(self):
        graph = erdos_renyi_graph(10, 0.3, seed=2)
        graph.add_node("isolated")
        summary = mosso_summarize(graph, seed=0)
        summary.validate(graph)
        assert "isolated" in summary.group_of
