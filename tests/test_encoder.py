"""Unit tests for the memoized local encoder used by SLUGGER's merging step.

Panels are built the way the merging step builds them — leaves or binary
roots — and every plan goes through the one exact table and
materialized through :func:`plan_superedges`; a panel pair wider than the exact table raises.
"""

from __future__ import annotations

import time

import pytest

from repro.core.encoder import (
    Panel,
    _count_between,
    _count_within,
    _edge_pairs_between,
    _edge_pairs_within,
    _nonedge_pairs_between,
    _nonedge_pairs_within,
    memo_table_sizes,
    plan_cross_encoding,
    plan_intra_encoding,
    plan_superedges,
)
from repro.exceptions import SummaryInvariantError
from repro.graphs import DenseAdjacency, Graph, complete_bipartite_graph, complete_graph
from repro.model import Hierarchy, HierarchicalSummary


def _string_labelled(graph):
    """A copy of ``graph`` whose node ``x`` is relabelled ``"n<x>"``."""
    return Graph(nodes=[f"n{node}" for node in graph.nodes()],
                 edges=[(f"n{u}", f"n{v}") for u, v in graph.edges()])


def _named_pairs(hierarchy, pairs):
    """Leaf-id pairs mapped back to their subnode labels."""
    return {(hierarchy.subnode_of_leaf(u), hierarchy.subnode_of_leaf(v)) for u, v in pairs}


def _binary_tree(hierarchy, leaves):
    """A binary tree over ``leaves`` (split in halves), as merging builds them."""
    if len(leaves) == 1:
        return leaves[0]
    middle = len(leaves) // 2
    return hierarchy.create_parent(
        [_binary_tree(hierarchy, leaves[:middle]), _binary_tree(hierarchy, leaves[middle:])]
    )


def _two_group_hierarchy(graph, left, right):
    """Build a hierarchy with two binary root trees over the given node sets.

    Leaves are added in graph order, so leaf ids are the dense ids of
    ``DenseAdjacency.from_graph(graph)``.
    """
    hierarchy = Hierarchy()
    leaves = {node: hierarchy.add_leaf(node) for node in graph.nodes()}
    root_left = _binary_tree(hierarchy, [leaves[node] for node in left])
    root_right = _binary_tree(hierarchy, [leaves[node] for node in right])
    return hierarchy, root_left, root_right


class TestBlockCounting:
    """Dense block statistics against brute-force ``graph.has_edge`` oracles."""

    def test_count_edges_between(self):
        base = complete_bipartite_graph(3, 4)
        base.remove_edge(0, 4)
        base.add_edge(3, 5)  # An edge inside one side must not be counted.
        graph = _string_labelled(base)
        left, right = ["n0", "n1", "n2"], ["n3", "n4", "n5", "n6"]
        hierarchy, root_left, root_right = _two_group_hierarchy(graph, left, right)
        dense = DenseAdjacency.from_graph(graph)
        present = {(u, v) for u in left for v in right if graph.has_edge(u, v)}
        missing = {(u, v) for u in left for v in right if not graph.has_edge(u, v)}
        assert _count_between(dense, hierarchy, root_left, root_right) == len(present) == 11
        assert _count_between(dense, hierarchy, root_right, root_left) == len(present)
        pairs = _edge_pairs_between(dense, hierarchy, root_left, root_right)
        assert len(pairs) == len(present)
        assert _named_pairs(hierarchy, pairs) == present
        pairs = _nonedge_pairs_between(dense, hierarchy, root_left, root_right)
        assert len(pairs) == len(missing)
        assert _named_pairs(hierarchy, pairs) == missing

    def test_count_edges_within(self):
        base = complete_graph(5)
        base.remove_edge(0, 1)
        base.remove_edge(2, 4)
        graph = _string_labelled(base)
        hierarchy = Hierarchy()
        leaves = [hierarchy.add_leaf(node) for node in graph.nodes()]
        root = hierarchy.create_parent(leaves[:4])
        dense = DenseAdjacency.from_graph(graph)
        members = ["n0", "n1", "n2", "n3"]
        pairs = [(u, v) for i, u in enumerate(members) for v in members[i + 1:]]
        present = {frozenset(pair) for pair in pairs if graph.has_edge(*pair)}
        missing = {frozenset(pair) for pair in pairs if not graph.has_edge(*pair)}
        assert _count_within(dense, hierarchy, root) == len(present) == 5
        found = _edge_pairs_within(dense, hierarchy, root)
        assert len(found) == len(present)
        assert {frozenset(pair) for pair in _named_pairs(hierarchy, found)} == present
        found = _nonedge_pairs_within(dense, hierarchy, root)
        assert {frozenset(pair) for pair in _named_pairs(hierarchy, found)} == missing
        assert missing == {frozenset({"n0", "n1"})}


class TestCrossPlans:
    def test_complete_bipartite_uses_single_blanket(self):
        graph = complete_bipartite_graph(3, 4)
        hierarchy, left, right = _two_group_hierarchy(graph, [0, 1, 2], [3, 4, 5, 6])
        panel_a, panel_b = Panel(hierarchy, left), Panel(hierarchy, right)
        assert panel_a.shape == panel_b.shape == (2, True)
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_cross_encoding(dense, hierarchy, panel_a, panel_b)
        assert plan.cost == 1
        assert plan.superedges == [(left, right, 1)]
        assert plan.positive_blocks == plan.negative_blocks == []

    def test_empty_cross_costs_nothing(self):
        graph = Graph(nodes=[0, 1, 2, 3])
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        hierarchy, left, right = _two_group_hierarchy(graph, [0, 1], [2, 3])
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_cross_encoding(dense, hierarchy, Panel(hierarchy, left), Panel(hierarchy, right))
        assert plan.cost == 0
        assert plan.superedges == []

    def test_sparse_cross_uses_leaf_edges(self):
        graph = Graph(nodes=[0, 1, 2, 3])
        graph.add_edge(0, 2)
        hierarchy, left, right = _two_group_hierarchy(graph, [0, 1], [2, 3])
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_cross_encoding(dense, hierarchy, Panel(hierarchy, left), Panel(hierarchy, right))
        assert plan.cost == 1
        assert plan.superedges == []
        assert plan.positive_blocks  # The present pair is listed at leaf level.

    def test_plan_application_is_lossless(self):
        graph = complete_bipartite_graph(3, 3)
        graph.remove_edge(0, 5)
        hierarchy, left, right = _two_group_hierarchy(graph, [0, 1, 2], [3, 4, 5])
        panel_a, panel_b = Panel(hierarchy, left), Panel(hierarchy, right)
        assert panel_a.shape == panel_b.shape == (2, True)
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_cross_encoding(dense, hierarchy, panel_a, panel_b)
        assert plan.cost == 2  # The top-to-top blanket plus one leaf n-edge.
        summary = HierarchicalSummary(hierarchy)
        for x, y, sign in plan_superedges(plan, dense, hierarchy):
            summary.add_edge(x, y, sign)
        summary.validate(graph)
        assert summary.num_p_edges + summary.num_n_edges == plan.cost

    def test_memo_disabled_gives_same_cost(self):
        graph = complete_bipartite_graph(3, 4)
        graph.remove_edge(0, 4)
        hierarchy, left, right = _two_group_hierarchy(graph, [0, 1, 2], [3, 4, 5, 6])
        panel_a, panel_b = Panel(hierarchy, left), Panel(hierarchy, right)
        assert panel_a.shape == panel_b.shape == (2, True)
        dense = DenseAdjacency.from_graph(graph)
        with_memo = plan_cross_encoding(dense, hierarchy, panel_a, panel_b, use_memo=True)
        without_memo = plan_cross_encoding(dense, hierarchy, panel_a, panel_b, use_memo=False)
        assert with_memo == without_memo

    def test_memo_statistics_exposed(self):
        graph = complete_bipartite_graph(2, 2)
        hierarchy, left, right = _two_group_hierarchy(graph, [0, 1], [2, 3])
        dense = DenseAdjacency.from_graph(graph)
        plan_cross_encoding(dense, hierarchy, Panel(hierarchy, left), Panel(hierarchy, right))
        before = memo_table_sizes()
        plan_cross_encoding(dense, hierarchy, Panel(hierarchy, left), Panel(hierarchy, right))
        after = memo_table_sizes()
        assert after["tables"] == before["tables"] >= 1
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]


class TestIntraPlans:
    def _merged_panel(self, graph, left, right):
        hierarchy = Hierarchy()
        leaves = {node: hierarchy.add_leaf(node) for node in graph.nodes()}
        root_left = hierarchy.create_parent([leaves[node] for node in left])
        root_right = hierarchy.create_parent([leaves[node] for node in right])
        merged = hierarchy.create_parent([root_left, root_right])
        return hierarchy, merged

    def test_clique_becomes_self_loop(self):
        graph = complete_graph(6)
        hierarchy, merged = self._merged_panel(graph, [0, 1, 2], [3, 4, 5])
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_intra_encoding(dense, hierarchy, merged, Panel(hierarchy, merged))
        assert plan.cost == 1
        assert plan.superedges == [(merged, merged, 1)]

    def test_near_clique_prefers_corrections(self):
        graph = complete_graph(6)
        graph.remove_edge(0, 3)
        hierarchy, merged = self._merged_panel(graph, [0, 1, 2], [3, 4, 5])
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_intra_encoding(dense, hierarchy, merged, Panel(hierarchy, merged))
        assert plan.cost == 2  # Self-loop plus one negative leaf correction.

    def test_intra_plan_application_is_lossless(self):
        graph = complete_graph(6)
        graph.remove_edge(1, 4)
        graph.remove_edge(2, 5)
        hierarchy, merged = self._merged_panel(graph, [0, 1, 2], [3, 4, 5])
        panel = Panel(hierarchy, merged)
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_intra_encoding(dense, hierarchy, merged, panel)
        summary = HierarchicalSummary(hierarchy)
        for x, y, sign in plan_superedges(plan, dense, hierarchy):
            summary.add_edge(x, y, sign)
        summary.validate(graph)
        assert summary.num_p_edges + summary.num_n_edges == plan.cost

    def test_bipartite_inside_merged_node(self):
        # Two halves with all edges across and none within: the best intra
        # encoding is a single blanket between the two child parts.
        graph = complete_bipartite_graph(3, 3)
        hierarchy, merged = self._merged_panel(graph, [0, 1, 2], [3, 4, 5])
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_intra_encoding(dense, hierarchy, merged, Panel(hierarchy, merged))
        assert plan.cost == 1
        assert len(plan.superedges) == 1
        x, y, sign = plan.superedges[0]
        assert sign == 1
        assert x != y

    def test_memo_disabled_matches(self):
        graph = complete_graph(6)
        graph.remove_edge(0, 3)
        hierarchy, merged = self._merged_panel(graph, [0, 1, 2], [3, 4, 5])
        panel = Panel(hierarchy, merged)
        dense = DenseAdjacency.from_graph(graph)
        assert (
            plan_intra_encoding(dense, hierarchy, merged, panel, use_memo=True).cost
            == plan_intra_encoding(dense, hierarchy, merged, panel, use_memo=False).cost
        )


class TestOversizedPanels:
    """Panel pairs beyond the exact table raise instead of being searched."""

    def test_oversized_cross_panel_raises(self):
        graph = complete_bipartite_graph(4, 3)
        hierarchy = Hierarchy()
        leaves = [hierarchy.add_leaf(node) for node in graph.nodes()]
        left, right = hierarchy.create_parent(leaves[:4]), hierarchy.create_parent(leaves[4:])
        dense = DenseAdjacency.from_graph(graph)
        started = time.perf_counter()
        with pytest.raises(SummaryInvariantError, match="20 blanket slots"):
            plan_cross_encoding(dense, hierarchy, Panel(hierarchy, left), Panel(hierarchy, right))
        assert time.perf_counter() - started < 1.0

    def test_oversized_intra_panel_raises(self):
        graph = complete_graph(5)
        hierarchy = Hierarchy()
        leaves = [hierarchy.add_leaf(node) for node in graph.nodes()]
        merged = hierarchy.create_parent(leaves)
        dense = DenseAdjacency.from_graph(graph)
        started = time.perf_counter()
        with pytest.raises(SummaryInvariantError, match="16 blanket slots"):
            plan_intra_encoding(dense, hierarchy, merged, Panel(hierarchy, merged))
        assert time.perf_counter() - started < 1.0


class TestPanel:
    def test_leaf_panel_shape(self):
        hierarchy = Hierarchy()
        leaf = hierarchy.add_leaf("x")
        panel = Panel(hierarchy, leaf)
        assert panel.parts == [leaf]
        assert panel.has_distinct_top is False
        assert panel.endpoints() == [leaf]
        assert panel.endpoint_coverage() == [(0,)]

    def test_internal_panel_shape(self):
        hierarchy = Hierarchy()
        a, b = hierarchy.add_leaf("a"), hierarchy.add_leaf("b")
        top = hierarchy.create_parent([a, b])
        panel = Panel(hierarchy, top)
        assert panel.shape == (2, True)
        assert panel.endpoints()[0] == top
        assert panel.endpoint_coverage()[0] == (0, 1)
