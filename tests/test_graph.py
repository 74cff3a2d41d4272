"""Unit tests for the core Graph data structure."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidGraphError
from repro.graphs import Graph
from repro.graphs.graph import canonical_edge


class TestGraphConstruction:
    def test_empty_graph(self):
        graph = Graph()
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert list(graph.edges()) == []

    def test_nodes_only(self):
        graph = Graph(nodes=[1, 2, 3])
        assert graph.num_nodes == 3
        assert graph.num_edges == 0

    def test_edges_create_nodes(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        assert graph.num_nodes == 3
        assert graph.num_edges == 2

    def test_duplicate_edges_collapse(self):
        graph = Graph(edges=[(0, 1), (1, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidGraphError):
            Graph(edges=[(3, 3)])

    def test_from_edges_skips_self_loops(self):
        graph = Graph.from_edges([(0, 1), (2, 2), (1, 2)])
        assert graph.num_edges == 2
        assert graph.has_node(2)

    def test_string_nodes(self):
        graph = Graph(edges=[("a", "b"), ("b", "c")])
        assert graph.has_edge("a", "b")
        assert graph.degree("b") == 2


class TestGraphMutation:
    def test_add_edge_returns_newness(self):
        graph = Graph()
        assert graph.add_edge(0, 1) is True
        assert graph.add_edge(0, 1) is False

    def test_remove_edge(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        assert graph.remove_edge(0, 1) is True
        assert graph.remove_edge(0, 1) is False
        assert graph.num_edges == 1
        assert not graph.has_edge(0, 1)

    def test_remove_node_removes_incident_edges(self):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 0)])
        graph.remove_node(1)
        assert graph.num_nodes == 2
        assert graph.num_edges == 1
        assert graph.has_edge(0, 2)

    def test_remove_missing_node_is_noop(self):
        graph = Graph(edges=[(0, 1)])
        graph.remove_node(99)
        assert graph.num_nodes == 2


class TestGraphQueries:
    def test_neighbors(self):
        graph = Graph(edges=[(0, 1), (0, 2), (0, 3)])
        assert graph.neighbors(0) == frozenset({1, 2, 3})
        assert graph.neighbors(1) == frozenset({0})

    def test_neighbors_of_missing_node_raises(self):
        graph = Graph()
        with pytest.raises(KeyError):
            graph.neighbors(0)

    def test_degree_of_missing_node_raises(self):
        graph = Graph()
        with pytest.raises(KeyError):
            graph.degree(5)

    def test_edges_iterated_once(self):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 0)])
        edges = list(graph.edges())
        assert len(edges) == 3
        assert len(set(edges)) == 3

    def test_edges_with_partially_ordered_labels(self):
        # frozenset.__le__ is a subset test: incomparable in both
        # directions without raising; edges() must still yield each edge
        # exactly once via the repr fallback.
        a, b, c = frozenset({1}), frozenset({2}), frozenset({1, 2})
        graph = Graph(edges=[(a, b), (a, c), (b, c)])
        edges = list(graph.edges())
        assert len(edges) == 3
        assert {frozenset(edge) for edge in edges} == {
            frozenset((a, b)), frozenset((a, c)), frozenset((b, c))
        }

    def test_edges_with_mixed_incomparable_labels(self):
        graph = Graph(edges=[(1, "x"), ("x", (2, 3))])
        edges = list(graph.edges())
        assert len(edges) == 2
        assert graph.edge_set() == set(edges)

    def test_edge_set_canonical(self):
        graph = Graph(edges=[(2, 1)])
        assert graph.edge_set() == {(1, 2)}

    def test_contains_and_iter(self):
        graph = Graph(edges=[(0, 1)])
        assert 0 in graph
        assert 5 not in graph
        assert sorted(graph) == [0, 1]
        assert len(graph) == 2

    def test_equality(self):
        first = Graph(edges=[(0, 1), (1, 2)])
        second = Graph(edges=[(1, 2), (0, 1)])
        assert first == second
        second.add_edge(0, 2)
        assert first != second

    def test_copy_is_independent(self):
        graph = Graph(edges=[(0, 1)])
        clone = graph.copy()
        clone.add_edge(1, 2)
        assert graph.num_edges == 1
        assert clone.num_edges == 2

    def test_relabeled_preserves_structure(self):
        graph = Graph(edges=[("x", "y"), ("y", "z")])
        relabeled, mapping = graph.relabeled()
        assert relabeled.num_nodes == 3
        assert relabeled.num_edges == 2
        assert set(mapping.values()) == {0, 1, 2}
        assert relabeled.has_edge(mapping["x"], mapping["y"])

    def test_relabeled_sorts_integer_ids_numerically(self):
        # Regression: sorting by repr put 10 before 2, scrambling the
        # contiguous relabeling of integer node sets.
        graph = Graph(edges=[(10, 2), (2, 1), (10, 30)])
        _, mapping = graph.relabeled()
        assert mapping == {1: 0, 2: 1, 10: 2, 30: 3}

    def test_relabeled_mixed_types_fall_back_to_repr(self):
        graph = Graph(edges=[("a", 1), (1, "b")])
        relabeled, mapping = graph.relabeled()
        assert set(mapping.values()) == {0, 1, 2}
        assert relabeled.has_edge(mapping["a"], mapping[1])
        assert relabeled.has_edge(mapping[1], mapping["b"])

    def test_repr_mentions_sizes(self):
        graph = Graph(edges=[(0, 1)])
        assert "num_nodes=2" in repr(graph)
        assert "num_edges=1" in repr(graph)


class TestCanonicalEdge:
    def test_orders_integers(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)

    def test_orders_strings(self):
        assert canonical_edge("b", "a") == ("a", "b")

    def test_mixed_types_fall_back_to_repr(self):
        edge = canonical_edge("a", 1)
        assert set(edge) == {"a", 1}
        assert canonical_edge(1, "a") == edge

    def test_partially_ordered_labels_fall_back_to_repr(self):
        # Disjoint frozensets: neither ``u <= v`` nor ``v <= u`` holds, so
        # both argument orders must take the repr fallback and agree with
        # the form Graph.edges() yields.
        a, b = frozenset({3}), frozenset({1})
        assert canonical_edge(a, b) == canonical_edge(b, a) == (b, a)
        graph = Graph(edges=[(a, b)])
        assert list(graph.edges()) == [canonical_edge(a, b)]
        nested = frozenset({1, 3})
        assert canonical_edge(nested, b) == (b, nested)  # subset order still wins

    @pytest.mark.parametrize("swap", [False, True])
    def test_flat_summary_over_partially_ordered_labels(self, swap):
        from repro.model.flat import FlatSummary

        f = lambda i: frozenset({i})  # noqa: E731
        graph = Graph(edges=[(f(1), f(3)), (f(1), f(4)), (f(2), f(3))])
        groups = [[f(3), f(4)], [f(1), f(2)]]
        if swap:
            groups.reverse()
        summary = FlatSummary.from_grouping(graph, groups)
        summary.validate(graph)
        assert summary.decompress().num_edges == 3
