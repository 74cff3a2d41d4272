"""Tests for the encoder's structured fallback on panels larger than SLUGGER produces.

The exhaustive pattern search of :mod:`repro.core.encoder` is only used
while the number of blanket slots stays small; wider panels (roots with
three or more direct children, which library users can build directly)
go through the structured candidate family.  These tests pin down that
the fallback stays exact (plans always reproduce the adjacency), picks
the obvious encodings on extreme inputs, and runs fast.
"""

from __future__ import annotations

import time

import pytest

from repro.core.encoder import (
    Panel,
    apply_cross_plan,
    apply_intra_plan,
    plan_cross_encoding,
    plan_intra_encoding,
)
from repro.graphs import (
    DenseAdjacency,
    Graph,
    complete_bipartite_graph,
    complete_graph,
    erdos_renyi_graph,
)
from repro.model import Hierarchy, HierarchicalSummary


def _wide_two_panel_hierarchy(graph, left_groups, right_groups):
    """A hierarchy with two roots whose children are the given node groups."""
    hierarchy = Hierarchy()
    leaves = {node: hierarchy.add_leaf(node) for node in graph.nodes()}

    def build(groups):
        children = []
        for group in groups:
            if len(group) == 1:
                children.append(leaves[group[0]])
            else:
                children.append(hierarchy.create_parent([leaves[node] for node in group]))
        return hierarchy.create_parent(children)

    return hierarchy, build(left_groups), build(right_groups)


def _wide_merged_hierarchy(graph, groups):
    """A hierarchy with one root whose children are the given node groups."""
    hierarchy = Hierarchy()
    leaves = {node: hierarchy.add_leaf(node) for node in graph.nodes()}
    children = [
        hierarchy.create_parent([leaves[node] for node in group]) if len(group) > 1 else leaves[group[0]]
        for group in groups
    ]
    return hierarchy, hierarchy.create_parent(children)


class TestCrossFallback:
    def test_dense_cross_uses_single_blanket(self):
        # 9 x 8 complete bipartite between two roots with 3 and 4 children:
        # 20 blanket slots, far past the exact-search threshold.
        graph = complete_bipartite_graph(9, 8)
        left_groups = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        right_groups = [[9, 10], [11, 12], [13, 14], [15, 16]]
        hierarchy, left, right = _wide_two_panel_hierarchy(graph, left_groups, right_groups)
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_cross_encoding(dense, hierarchy, Panel(hierarchy, left), Panel(hierarchy, right))
        assert plan.cost == 1
        assert len(plan.superedges) == 1

    def test_empty_cross_costs_nothing(self):
        graph = Graph(nodes=range(17))
        for u, v in ((0, 1), (9, 10)):
            graph.add_edge(u, v)
        left_groups = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        right_groups = [[9, 10], [11, 12], [13, 14], [15, 16]]
        hierarchy, left, right = _wide_two_panel_hierarchy(graph, left_groups, right_groups)
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_cross_encoding(dense, hierarchy, Panel(hierarchy, left), Panel(hierarchy, right))
        assert plan.cost == 0
        assert plan.superedges == []

    def test_fallback_plan_is_lossless_on_random_bipartite_adjacency(self):
        base = erdos_renyi_graph(17, 0.4, seed=3)
        left_groups = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        right_groups = [[9, 10], [11, 12], [13, 14], [15, 16]]
        left_nodes = {node for group in left_groups for node in group}
        right_nodes = {node for group in right_groups for node in group}
        # Keep only the edges between the two sides: that is the adjacency a
        # cross plan is responsible for reproducing.
        graph = Graph(nodes=range(17))
        for u, v in base.edges():
            if (u in left_nodes) != (v in left_nodes):
                graph.add_edge(u, v)
        hierarchy, left, right = _wide_two_panel_hierarchy(graph, left_groups, right_groups)
        panel_a, panel_b = Panel(hierarchy, left), Panel(hierarchy, right)
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_cross_encoding(dense, hierarchy, panel_a, panel_b)
        summary = HierarchicalSummary(hierarchy)
        apply_cross_plan(plan, dense, hierarchy, panel_a, panel_b, summary.add_edge)
        summary.validate(graph)

    def test_fallback_never_worse_than_listing_all_edges(self):
        graph = complete_bipartite_graph(9, 8)
        graph.remove_edge(0, 9)
        graph.remove_edge(3, 11)
        left_groups = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        right_groups = [[9, 10], [11, 12], [13, 14], [15, 16]]
        hierarchy, left, right = _wide_two_panel_hierarchy(graph, left_groups, right_groups)
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_cross_encoding(dense, hierarchy, Panel(hierarchy, left), Panel(hierarchy, right))
        assert plan.cost <= graph.num_edges
        assert plan.cost <= 1 + 2  # blanket plus the two negative corrections

    def test_fallback_is_fast(self):
        graph = complete_bipartite_graph(12, 12)
        left_groups = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
        right_groups = [[12, 13, 14], [15, 16, 17], [18, 19, 20], [21, 22, 23]]
        hierarchy, left, right = _wide_two_panel_hierarchy(graph, left_groups, right_groups)
        started = time.perf_counter()
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_cross_encoding(dense, hierarchy, Panel(hierarchy, left), Panel(hierarchy, right))
        assert time.perf_counter() - started < 2.0
        assert plan.cost == 1


class TestIntraFallback:
    def test_wide_clique_becomes_self_loop(self):
        graph = complete_graph(15)
        groups = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], [12, 13, 14]]
        hierarchy, merged = _wide_merged_hierarchy(graph, groups)
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_intra_encoding(dense, hierarchy, merged, Panel(hierarchy, merged))
        assert plan.cost == 1
        assert plan.superedges == [(merged, merged, 1)]

    def test_wide_near_clique_stays_lossless(self):
        graph = complete_graph(15)
        graph.remove_edge(0, 7)
        graph.remove_edge(3, 12)
        groups = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], [12, 13, 14]]
        hierarchy, merged = _wide_merged_hierarchy(graph, groups)
        panel = Panel(hierarchy, merged)
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_intra_encoding(dense, hierarchy, merged, panel)
        summary = HierarchicalSummary(hierarchy)
        apply_intra_plan(plan, dense, hierarchy, panel, summary.add_edge)
        summary.validate(graph)
        assert plan.cost <= 3  # self-loop plus the two negative corrections

    def test_wide_sparse_supernode_lists_edges(self):
        graph = Graph(nodes=range(15))
        graph.add_edge(0, 3)
        graph.add_edge(6, 9)
        groups = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], [12, 13, 14]]
        hierarchy, merged = _wide_merged_hierarchy(graph, groups)
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_intra_encoding(dense, hierarchy, merged, Panel(hierarchy, merged))
        assert plan.cost == 2
        assert plan.superedges == [] or all(sign == 1 for _, _, sign in plan.superedges)
