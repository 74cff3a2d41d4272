"""Tests for the dense integer-graph substrate (NodeIndex / DenseAdjacency / CSR)."""

from __future__ import annotations

import pytest

from repro.core.shingles import (
    LazyShingles,
    dense_shingles,
    make_hash_function,
)
from repro.core.state import SluggerState
from repro.exceptions import InvalidGraphError
from repro.graphs import CSRAdjacency, DenseAdjacency, Graph, NodeIndex, caveman_graph
from repro.graphs.dense import graph_adjacency_bytes


class TestNodeIndex:
    def test_interning_assigns_contiguous_ids(self):
        index = NodeIndex()
        assert index.intern("a") == 0
        assert index.intern("b") == 1
        assert index.intern("a") == 0  # idempotent
        assert len(index) == 2
        assert index.label_of(1) == "b"
        assert index.id_of("b") == 1
        assert "a" in index and "c" not in index
        assert list(index) == ["a", "b"]

    def test_from_graph_follows_insertion_order(self):
        graph = Graph(edges=[(5, 3), (3, 9)])
        index = NodeIndex.from_graph(graph)
        assert [index.label_of(i) for i in range(3)] == [5, 3, 9]

    def test_get_returns_default_for_unknown(self):
        index = NodeIndex(["x"])
        assert index.get("x") == 0
        assert index.get("y") is None
        assert index.get("y", -1) == -1

    def test_id_of_unknown_raises(self):
        with pytest.raises(KeyError):
            NodeIndex().id_of("missing")


class TestDenseAdjacency:
    def test_mirrors_graph(self):
        graph = caveman_graph(4, 5, 0.05, seed=3)
        dense = DenseAdjacency.from_graph(graph)
        labels = dense.index.labels()
        assert dense.num_nodes == graph.num_nodes
        assert dense.num_edges == graph.num_edges
        for node_id, label in enumerate(labels):
            mapped = {labels[other] for other in dense.neighbors[node_id]}
            assert mapped == set(graph.neighbor_set(label))
            assert dense.degrees[node_id] == graph.degree(label)

    def test_float_labels_equal_to_their_index_are_still_translated(self):
        # 0.0 == 0 but the identity fast path must not leak float labels
        # into the int-id neighbor sets.
        graph = Graph(edges=[(0.0, 1.0), (1.0, 2.0)])
        dense = DenseAdjacency.from_graph(graph)
        for neighbors in dense.neighbors:
            assert all(type(v) is int for v in neighbors)
        shingles = dense_shingles(dense, make_hash_function(3))
        assert len(shingles) == 3

    def test_mirrors_graph_with_arbitrary_labels(self):
        graph = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        dense = DenseAdjacency.from_graph(graph)
        labels = dense.index.labels()
        assert sorted(labels) == ["a", "b", "c"]
        a = dense.index.id_of("a")
        assert {labels[v] for v in dense.neighbors[a]} == {"b", "c"}

    def test_mutation_maintains_degrees_and_counts(self):
        dense = DenseAdjacency(NodeIndex(range(4)))
        assert dense.add_edge(0, 1)
        assert not dense.add_edge(1, 0)  # duplicate
        assert dense.add_edge(1, 2)
        assert dense.num_edges == 2
        assert list(dense.degrees) == [1, 2, 1, 0]
        assert dense.remove_edge(0, 1)
        assert not dense.remove_edge(0, 1)
        assert dense.num_edges == 1
        assert list(dense.degrees) == [0, 1, 1, 0]

    def test_self_loop_rejected(self):
        dense = DenseAdjacency(NodeIndex(range(2)))
        with pytest.raises(InvalidGraphError):
            dense.add_edge(1, 1)

    def test_add_node_grows_arrays(self):
        dense = DenseAdjacency()
        u = dense.add_node("u")
        v = dense.add_node("v")
        dense.add_edge(u, v)
        assert dense.num_nodes == 2
        assert dense.degrees[u] == 1

    def test_edge_ids_yields_each_edge_once(self):
        graph = caveman_graph(3, 4, seed=1)
        dense = DenseAdjacency.from_graph(graph)
        edges = list(dense.edge_ids())
        assert len(edges) == graph.num_edges
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_to_graph_roundtrip(self):
        graph = caveman_graph(3, 5, 0.1, seed=2)
        rebuilt = DenseAdjacency.from_graph(graph).to_graph()
        assert rebuilt == graph


class TestCSRAdjacency:
    def test_freeze_matches_dense(self):
        graph = caveman_graph(4, 4, 0.1, seed=5)
        dense = DenseAdjacency.from_graph(graph)
        csr = dense.freeze()
        assert isinstance(csr, CSRAdjacency)
        assert csr.num_nodes == dense.num_nodes
        assert csr.num_edges == dense.num_edges
        for node_id in range(dense.num_nodes):
            run = list(csr.neighbors_of(node_id))
            assert run == sorted(dense.neighbors[node_id])
            assert csr.degree(node_id) == dense.degrees[node_id]
        assert list(csr.edge_ids()) == sorted(dense.edge_ids())

    def test_has_edge_binary_search(self):
        dense = DenseAdjacency(NodeIndex(range(5)))
        dense.add_edge(0, 3)
        dense.add_edge(0, 1)
        csr = dense.freeze()
        assert csr.has_edge(0, 1) and csr.has_edge(3, 0)
        assert not csr.has_edge(0, 2) and not csr.has_edge(1, 3)

    def test_csr_is_smaller_than_dict_of_sets(self):
        graph = caveman_graph(20, 10, 0.05, seed=1)
        dense = DenseAdjacency.from_graph(graph)
        csr = dense.freeze()
        assert csr.approx_bytes() < 0.7 * graph_adjacency_bytes(graph)


def label_shingle(graph, hash_function, label):
    """Brute-force oracle: min hash over the closed neighbourhood of ``label``."""
    return min(hash_function(x) for x in [label, *graph.neighbor_set(label)])


class TestDenseShingles:
    def test_dense_shingles_match_label_shingles(self):
        # String labels: dense shingles must hash the labels, not the ids.
        base = caveman_graph(5, 6, 0.1, seed=9)
        graph = Graph(nodes=[f"n{node}" for node in base.nodes()],
                      edges=[(f"n{u}", f"n{v}") for u, v in base.edges()])
        dense = DenseAdjacency.from_graph(graph)
        labels = dense.index.labels()
        hash_function = make_hash_function(123)
        by_id = dense_shingles(dense, hash_function)
        assert by_id == [label_shingle(graph, hash_function, label) for label in labels]

    def test_dense_cache_lazy_matches_bulk(self):
        graph = caveman_graph(4, 5, 0.1, seed=2)
        dense = DenseAdjacency.from_graph(graph)
        lazy = LazyShingles(dense, seed=7)
        bulk = LazyShingles(dense, seed=7)
        full = bulk.ensure_shingles()
        assert [lazy.shingle(i) for i in range(dense.num_nodes)] == list(full)

    def test_dense_cache_matches_label_cache(self):
        graph = Graph(edges=[("x", "y"), ("y", "z"), ("x", "w")])
        dense = DenseAdjacency.from_graph(graph)
        labels = dense.index.labels()
        hash_function = make_hash_function(11)
        dense_cache = LazyShingles(dense, seed=11)
        for node_id, label in enumerate(labels):
            assert dense_cache.shingle(node_id) == label_shingle(graph, hash_function, label)


class TestStateSubstrate:
    def test_state_ids_match_leaf_ids(self):
        graph = caveman_graph(3, 6, 0.05, seed=4)
        state = SluggerState(graph)
        assert state.dense is not None
        state.check_consistency()  # includes the dense id == leaf id check
