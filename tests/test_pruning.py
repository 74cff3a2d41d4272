"""Tests for the three pruning substeps (Sect. III-B4).

Besides the per-substep unit tests, the last section checks that
pruning is deterministic, that it fills its profile, and that a run
handed ``ExecutionConfig(workers=2)`` (which SLUGGER ignores) prunes to
the same summary as the default run.
"""

from __future__ import annotations

import pytest

from repro.core import Slugger, SluggerConfig
from repro.core.pruning import (
    prune,
    prune_edgeless_supernodes,
    prune_single_edge_roots,
    reencode_root_pairs_flat,
)
from repro.engine.execution import ExecutionConfig
from repro.exceptions import SummaryInvariantError
from repro.graphs import Graph, caveman_graph, complete_graph, nested_partition_graph
from repro.graphs.dense import DenseAdjacency
from repro.model import Hierarchy, HierarchicalSummary


def _unpruned_summary(graph, iterations=6, seed=0):
    config = SluggerConfig(iterations=iterations, seed=seed, prune=False)
    return Slugger(config).summarize(graph).summary


class TestSubstep1:
    def test_removes_edgeless_internal_nodes(self):
        graph = complete_graph(4)
        hierarchy = Hierarchy()
        leaves = [hierarchy.add_leaf(node) for node in graph.nodes()]
        inner = hierarchy.create_parent(leaves[:2])
        root = hierarchy.create_parent([inner, leaves[2], leaves[3]])
        summary = HierarchicalSummary(hierarchy)
        summary.add_p_edge(root, root)
        summary.validate(graph)
        removed = prune_edgeless_supernodes(summary)
        assert removed == 1
        assert not hierarchy.contains(inner)
        summary.validate(graph)
        assert summary.num_h_edges == 4

    def test_keeps_supernodes_with_edges(self):
        graph = complete_graph(4)
        hierarchy = Hierarchy()
        leaves = [hierarchy.add_leaf(node) for node in graph.nodes()]
        inner = hierarchy.create_parent(leaves[:2])
        root = hierarchy.create_parent([inner, leaves[2], leaves[3]])
        summary = HierarchicalSummary(hierarchy)
        summary.add_p_edge(root, root)
        summary.add_n_edge(inner, leaves[2])
        graph.remove_edge(0, 2)
        graph.remove_edge(1, 2)
        summary.validate(graph)
        assert prune_edgeless_supernodes(summary) == 0
        assert hierarchy.contains(inner)

    def test_never_removes_leaves(self):
        graph = Graph(nodes=[0, 1])
        summary = HierarchicalSummary.from_graph(graph)
        assert prune_edgeless_supernodes(summary) == 0
        assert summary.hierarchy.num_supernodes == 2


class TestSubstep2:
    def test_pushes_single_edge_down(self):
        # Root {0,1} has its only edge towards leaf 2; removing the root
        # must add edges from its children to 2 instead.
        graph = Graph(edges=[(0, 2), (1, 2)])
        hierarchy = Hierarchy()
        leaves = {node: hierarchy.add_leaf(node) for node in (0, 1, 2)}
        root = hierarchy.create_parent([leaves[0], leaves[1]])
        summary = HierarchicalSummary(hierarchy)
        summary.add_p_edge(root, leaves[2])
        summary.validate(graph)
        cost_before = summary.cost()
        removed = prune_single_edge_roots(summary)
        assert removed == 1
        assert not hierarchy.contains(root)
        summary.validate(graph)
        assert summary.cost() < cost_before

    def test_opposite_sign_edges_cancel(self):
        # Root {0,1} has a positive blanket to 2, child {1} has a negative
        # correction: after pruning only the (0,2) edge should remain.
        graph = Graph(edges=[(0, 2)])
        graph.add_node(1)
        hierarchy = Hierarchy()
        leaves = {node: hierarchy.add_leaf(node) for node in (0, 1, 2)}
        root = hierarchy.create_parent([leaves[0], leaves[1]])
        summary = HierarchicalSummary(hierarchy)
        summary.add_p_edge(root, leaves[2])
        summary.add_n_edge(leaves[1], leaves[2])
        summary.validate(graph)
        removed = prune_single_edge_roots(summary)
        assert removed == 1
        summary.validate(graph)
        assert summary.has_p_edge(leaves[0], leaves[2])
        assert not summary.has_n_edge(leaves[1], leaves[2])
        assert summary.cost() == 1

    def test_roots_with_multiple_edges_untouched(self):
        graph = Graph(edges=[(0, 2), (1, 2), (0, 3), (1, 3)])
        hierarchy = Hierarchy()
        leaves = {node: hierarchy.add_leaf(node) for node in (0, 1, 2, 3)}
        root = hierarchy.create_parent([leaves[0], leaves[1]])
        summary = HierarchicalSummary(hierarchy)
        summary.add_p_edge(root, leaves[2])
        summary.add_p_edge(root, leaves[3])
        summary.validate(graph)
        assert prune_single_edge_roots(summary) == 0
        assert hierarchy.contains(root)


class TestSubstep3:
    def test_clique_reencoded_with_self_superedge(self):
        # A clique left encoded with leaf-level edges should collapse to a
        # single self-loop on the root after the flat re-encoding.
        graph = complete_graph(5)
        hierarchy = Hierarchy()
        leaves = [hierarchy.add_leaf(node) for node in graph.nodes()]
        root = hierarchy.create_parent(leaves)
        summary = HierarchicalSummary(hierarchy)
        for u, v in graph.edges():
            summary.add_p_edge(hierarchy.leaf_of(u), hierarchy.leaf_of(v))
        assert reencode_root_pairs_flat(DenseAdjacency.from_graph(graph), summary) == 1
        summary.validate(graph)
        assert summary.has_p_edge(root, root)
        assert summary.num_p_edges == 1

    def test_near_clique_reencoded_with_blanket_and_correction(self):
        # K5 minus one edge, left leaf-encoded under one root: the blanket
        # self-loop plus one n-edge for the missing pair costs 2, not 9.
        graph = complete_graph(5)
        graph.remove_edge(0, 1)
        hierarchy = Hierarchy()
        leaves = [hierarchy.add_leaf(node) for node in graph.nodes()]
        root = hierarchy.create_parent(leaves)
        summary = HierarchicalSummary(hierarchy)
        for u, v in graph.edges():
            summary.add_p_edge(hierarchy.leaf_of(u), hierarchy.leaf_of(v))
        assert reencode_root_pairs_flat(DenseAdjacency.from_graph(graph), summary) == 1
        summary.validate(graph)
        assert sorted(summary.p_edges()) == [(root, root)]
        assert sorted(summary.n_edges()) == [(hierarchy.leaf_of(0), hierarchy.leaf_of(1))]
        assert summary.num_p_edges + summary.num_n_edges == 2

    def test_sparse_pairs_left_alone(self):
        graph = Graph(edges=[(0, 1)])
        summary = HierarchicalSummary.from_graph(graph)
        assert reencode_root_pairs_flat(DenseAdjacency.from_graph(graph), summary) == 0
        summary.validate(graph)

    @pytest.mark.parametrize("layout", ["interleaved", "relabelled", "missing leaf"])
    def test_leaves_not_matching_the_substrate_are_rejected(self, layout):
        # Substep 3 maps subedges to trees by id: a summary whose leaf i
        # does not wrap dense node i would be re-encoded with the wrong
        # leaves, so both entry points refuse it and change nothing.
        graph = complete_graph(4)
        hierarchy = Hierarchy()
        if layout == "interleaved":
            hierarchy.create_parent([hierarchy.add_leaf(0), hierarchy.add_leaf(1)])
            nodes = [2, 3]
        else:
            nodes = {"relabelled": [1, 0, 2, 3], "missing leaf": [0, 1, 2]}[layout]
        for node in nodes:
            hierarchy.add_leaf(node)
        summary = HierarchicalSummary(hierarchy)
        for u, v in graph.edges():
            if u in hierarchy.subnodes() and v in hierarchy.subnodes():
                summary.add_p_edge(hierarchy.leaf_of(u), hierarchy.leaf_of(v))
        before = _summary_fingerprint(summary)
        dense = DenseAdjacency.from_graph(graph)
        with pytest.raises(SummaryInvariantError, match="leaf i to wrap dense node i"):
            reencode_root_pairs_flat(dense, summary)
        with pytest.raises(SummaryInvariantError, match="leaf i to wrap dense node i"):
            prune(dense, summary)
        assert _summary_fingerprint(summary) == before


class TestFullPruning:
    def test_prune_never_breaks_losslessness(self, any_small_graph):
        summary = _unpruned_summary(any_small_graph)
        stats = prune(DenseAdjacency.from_graph(any_small_graph), summary, rounds=3)
        summary.validate(any_small_graph)
        assert set(stats) == {"substep1", "substep2", "substep3"}

    def test_prune_never_increases_cost(self, small_caveman, small_hierarchical, small_random):
        for graph in (small_caveman, small_hierarchical, small_random):
            summary = _unpruned_summary(graph)
            cost_before = summary.cost()
            prune(DenseAdjacency.from_graph(graph), summary)
            assert summary.cost() <= cost_before

    def test_prune_reduces_height_statistics(self):
        graph = nested_partition_graph((3, 3, 4), (0.02, 0.3, 0.95), seed=5)
        summary = _unpruned_summary(graph, iterations=8)
        height_before = summary.hierarchy.max_height()
        depth_before = summary.hierarchy.average_leaf_depth()
        prune(DenseAdjacency.from_graph(graph), summary)
        assert summary.hierarchy.max_height() <= height_before
        assert summary.hierarchy.average_leaf_depth() <= depth_before + 1e-9

    def test_zero_rounds_is_noop(self, small_caveman):
        summary = _unpruned_summary(small_caveman)
        cost_before = summary.cost()
        stats = prune(DenseAdjacency.from_graph(small_caveman), summary, rounds=0)
        assert summary.cost() == cost_before
        assert stats == {"substep1": 0, "substep2": 0, "substep3": 0}


# ----------------------------------------------------------------------
# Determinism and profile
# ----------------------------------------------------------------------
def _summary_fingerprint(summary):
    hierarchy = summary.hierarchy
    return (
        tuple(sorted(map(tuple, summary.p_edges()))),
        tuple(sorted(map(tuple, summary.n_edges()))),
        tuple(sorted(
            (child, hierarchy.parent(child))
            for child in hierarchy.supernodes()
            if hierarchy.parent(child) is not None
        )),
        tuple(sorted(hierarchy.roots())),
    )


def _leaf_encoded_cliques(communities=12, size=5):
    """Disjoint cliques left leaf-encoded: every pair re-encodes flat.

    Every leaf is added before the community parents, so leaf ``i``
    wraps dense node ``i`` as pruning requires.
    """
    graph = Graph()
    hierarchy = Hierarchy()
    members = []
    for community in range(communities):
        nodes = [community * size + offset for offset in range(size)]
        for node in nodes:
            graph.add_node(node)
        for i in range(size):
            for j in range(i + 1, size):
                graph.add_edge(nodes[i], nodes[j])
        members.append([hierarchy.add_leaf(node) for node in nodes])
    for leaves in members:
        hierarchy.create_parent(leaves)
    summary = HierarchicalSummary(hierarchy)
    for u, v in graph.edges():
        summary.add_p_edge(hierarchy.leaf_of(u), hierarchy.leaf_of(v))
    return graph, summary


class TestPruneDeterminism:
    @pytest.mark.parametrize("fixture,seed", [
        (lambda: caveman_graph(30, 12, 0.05, seed=3), 11),
        (lambda: nested_partition_graph((3, 3, 4), (0.02, 0.3, 0.95), seed=5), 0),
    ])
    def test_prune_is_deterministic(self, fixture, seed):
        graph = fixture()
        base = _unpruned_summary(graph, iterations=8, seed=seed)
        runs = []
        for _ in range(2):
            summary = base.copy()
            stats = prune(DenseAdjacency.from_graph(graph), summary, rounds=2)
            summary.validate(graph)
            runs.append((stats, _summary_fingerprint(summary)))
        assert runs[0] == runs[1]

    def test_reencode_plans_applied_in_canonical_order(self):
        graph, summary = _leaf_encoded_cliques()
        hierarchy = summary.hierarchy
        profile = {}
        dense = DenseAdjacency.from_graph(graph)
        assert reencode_root_pairs_flat(dense, summary, profile=profile) == 12
        summary.validate(graph)
        assert profile["pairs_scanned"] == 12
        assert profile["pairs_reencoded"] == 12
        # Every 5-clique collapses to one self-loop p-edge on its root.
        roots = sorted(hierarchy.roots())
        assert sorted(map(tuple, summary.p_edges())) == [(root, root) for root in roots]
        assert not list(summary.n_edges())

    def test_profile_reports_substep_timings(self, small_caveman):
        summary = _unpruned_summary(small_caveman)
        profile = {}
        prune(DenseAdjacency.from_graph(small_caveman), summary, rounds=2, profile=profile)
        assert profile["rounds"] >= 1
        assert set(profile) == {
            "rounds", "pairs_scanned", "pairs_reencoded",
            "edgeless_seconds", "single_edge_seconds", "reencode_seconds",
        }
        for key in ("edgeless_seconds", "single_edge_seconds", "reencode_seconds"):
            assert profile[key] >= 0.0
        assert profile["pairs_scanned"] > 0

    def test_slugger_run_threads_execution_into_prune(self):
        graph = caveman_graph(20, 10, 0.05, seed=1)
        config = SluggerConfig(iterations=4, seed=0)
        serial = Slugger(config).summarize(graph)
        parallel = Slugger(config, execution=ExecutionConfig(workers=2)).summarize(graph)
        assert _summary_fingerprint(parallel.summary) == _summary_fingerprint(serial.summary)
        assert parallel.prune_stats == serial.prune_stats
        assert parallel.prune_profile["rounds"] >= 1
