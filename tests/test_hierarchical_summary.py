"""Unit tests for the hierarchical graph summarization model."""

from __future__ import annotations

import random

import pytest

from repro.core import summarize
from repro.exceptions import SummaryInvariantError
from repro.graphs import Graph, complete_graph, erdos_renyi_graph
from repro.graphs.dense import DenseAdjacency
from repro.graphs.view import CSRGraphView
from repro.model import Hierarchy, HierarchicalSummary


@pytest.fixture
def fig2_like():
    """A small instance mimicking the paper's running example (Fig. 2).

    Nodes 0-3 form a group where 0,1 are connected to node 5 but 2,3 are
    not; encoded with a positive blanket from the group to 5 plus a
    negative edge from the subgroup {2,3}.
    """
    graph = Graph(edges=[(0, 5), (1, 5), (0, 1), (2, 3)])
    hierarchy = Hierarchy()
    leaves = {node: hierarchy.add_leaf(node) for node in (0, 1, 2, 3, 5)}
    inner = hierarchy.create_parent([leaves[2], leaves[3]])
    outer = hierarchy.create_parent([leaves[0], leaves[1], inner])
    summary = HierarchicalSummary(hierarchy)
    summary.add_p_edge(outer, leaves[5])     # blanket: everyone in {0,1,2,3} ~ 5
    summary.add_n_edge(inner, leaves[5])     # exception: {2,3} are not adjacent to 5
    summary.add_p_edge(leaves[0], leaves[1])
    summary.add_p_edge(inner, inner)         # self-loop encodes the edge (2,3)
    return graph, summary


class TestTrivialSummary:
    def test_from_graph_matches_input(self, any_small_graph):
        summary = HierarchicalSummary.from_graph(any_small_graph)
        summary.validate(any_small_graph)
        assert summary.cost() == any_small_graph.num_edges
        assert summary.num_h_edges == 0

    def test_relative_size_of_trivial_summary_is_one(self, small_random):
        summary = HierarchicalSummary.from_graph(small_random)
        assert summary.relative_size(small_random) == pytest.approx(1.0)

    def test_relative_size_requires_edges(self):
        graph = Graph(nodes=[0, 1])
        summary = HierarchicalSummary.from_graph(graph)
        with pytest.raises(SummaryInvariantError):
            summary.relative_size(graph)


class TestFromParts:
    def test_rebuilds_fig2_like_exactly(self, fig2_like):
        graph, summary = fig2_like
        hierarchy = summary.hierarchy
        internal = [(node, hierarchy.children(node)) for node in sorted(hierarchy.supernodes())
                    if not hierarchy.is_leaf(node)]
        rebuilt = HierarchicalSummary.from_parts(
            Hierarchy.from_parts(hierarchy.subnodes(), internal),
            list(summary.p_edges()), list(summary.n_edges()))
        rebuilt.validate(graph)
        assert rebuilt.cost() == summary.cost()
        for node in hierarchy.supernodes():
            assert sorted(rebuilt.incident_edges(node)) == sorted(summary.incident_edges(node))

    def test_matches_adding_the_pairs_one_by_one(self):
        # Same pairs in the same order: same canonical sets, iterated alike.
        p_edges = [(2, 0), (5, 1), (1, 1)] + [(leaf, 5) for leaf in range(6, 40)]
        n_edges = [(4, 1), (0, 5)]
        summary = HierarchicalSummary.from_parts(
            Hierarchy.from_parts(range(40), [(40, [3, 4])]), p_edges, n_edges)
        reference = HierarchicalSummary(Hierarchy.from_parts(range(40), [(40, [3, 4])]))
        for a, b in p_edges:
            reference.add_p_edge(a, b)
        for a, b in n_edges:
            reference.add_n_edge(a, b)
        assert (0, 2) in set(summary.p_edges()) and summary.has_n_edge(1, 4)
        assert list(summary.p_edges()) == list(reference.p_edges())
        assert list(summary.n_edges()) == list(reference.n_edges())
        assert list(summary._incident.items()) == list(reference._incident.items())

    def test_matches_from_dense(self, small_random):
        dense = DenseAdjacency.from_graph(small_random)
        built = HierarchicalSummary.from_parts(
            Hierarchy.from_parts(dense.index.labels(), ()), dense.edge_ids(), ())
        trivial = HierarchicalSummary.from_dense(dense)
        assert list(built.p_edges()) == list(trivial.p_edges())
        assert list(built._incident.items()) == list(trivial._incident.items())

    @pytest.mark.parametrize("p_edges, n_edges, reason", [
        ([(0, 7)], [], "unknown endpoint"),
        ([(0, 1), (1, 0)], [], "repeated"),
        ([], [(2, 2), (2, 2)], "repeated"),
        ([(0, 1)], [(1, 0)], "both P"),
    ], ids=["unknown-endpoint", "repeated-p", "repeated-n", "p-n-conflict"])
    def test_rejects_malformed_parts(self, p_edges, n_edges, reason):
        hierarchy = Hierarchy.from_parts(range(3), ())
        with pytest.raises(SummaryInvariantError, match=reason):
            HierarchicalSummary.from_parts(hierarchy, p_edges, n_edges)

    def test_hierarchy_rejects_a_repeated_subnode(self):
        with pytest.raises(SummaryInvariantError, match="repeats a subnode"):
            Hierarchy.from_parts(["a", "b", "a"], ())


class TestSuperedgeMutation:
    def test_add_and_remove(self):
        graph = Graph(edges=[(0, 1)])
        summary = HierarchicalSummary.from_graph(graph)
        a = summary.hierarchy.leaf_of(0)
        b = summary.hierarchy.leaf_of(1)
        assert summary.has_p_edge(a, b)
        assert not summary.add_p_edge(a, b)  # Already present.
        assert summary.remove_p_edge(a, b)
        assert not summary.remove_p_edge(a, b)
        assert summary.cost() == 0

    def test_sign_conflicts_rejected(self):
        graph = Graph(edges=[(0, 1)])
        summary = HierarchicalSummary.from_graph(graph)
        a = summary.hierarchy.leaf_of(0)
        b = summary.hierarchy.leaf_of(1)
        with pytest.raises(SummaryInvariantError):
            summary.add_n_edge(a, b)

    def test_add_edge_sign_dispatch(self):
        graph = Graph(nodes=[0, 1])
        summary = HierarchicalSummary.from_graph(graph)
        a = summary.hierarchy.leaf_of(0)
        b = summary.hierarchy.leaf_of(1)
        summary.add_edge(a, b, 1)
        assert summary.has_p_edge(a, b)
        summary.remove_edge(a, b, 1)
        summary.add_edge(a, b, -1)
        assert summary.has_n_edge(a, b)
        with pytest.raises(ValueError):
            summary.add_edge(a, b, 0)

    def test_unknown_supernode_rejected(self):
        summary = HierarchicalSummary.from_graph(Graph(nodes=[0]))
        with pytest.raises(KeyError):
            summary.add_p_edge(0, 999)

    def test_incident_edges_and_degree(self, fig2_like):
        _graph, summary = fig2_like
        five = summary.hierarchy.leaf_of(5)
        assert summary.degree(five) == 2
        signs = {sign for _, sign in summary.incident_edges(five)}
        assert signs == {1, -1}


class TestInterpretation:
    def test_fig2_like_decompression(self, fig2_like):
        graph, summary = fig2_like
        summary.validate(graph)
        assert summary.decompress() == graph

    def test_fig2_like_costs(self, fig2_like):
        _graph, summary = fig2_like
        assert summary.num_p_edges == 3
        assert summary.num_n_edges == 1
        assert summary.num_h_edges == 5
        assert summary.cost() == 9
        assert summary.composition() == {"p_edges": 3, "n_edges": 1, "h_edges": 5}

    def test_pair_weight(self, fig2_like):
        _graph, summary = fig2_like
        assert summary.pair_weight(0, 5) == 1
        assert summary.pair_weight(2, 5) == 0
        assert summary.pair_weight(2, 3) == 1
        assert summary.pair_weight(0, 3) == 0
        with pytest.raises(ValueError):
            summary.pair_weight(0, 0)

    def test_neighbors_by_partial_decompression(self, fig2_like):
        graph, summary = fig2_like
        for node in graph.nodes():
            assert summary.neighbors(node) == set(graph.neighbor_set(node))

    def test_self_loop_covers_clique(self):
        graph = complete_graph(4)
        hierarchy = Hierarchy()
        leaves = [hierarchy.add_leaf(node) for node in graph.nodes()]
        root = hierarchy.create_parent(leaves)
        summary = HierarchicalSummary(hierarchy)
        summary.add_p_edge(root, root)
        summary.validate(graph)
        assert summary.cost() == 1 + 4


class TestValidation:
    def test_missing_edge_detected(self, fig2_like):
        graph, summary = fig2_like
        summary.remove_p_edge(
            summary.hierarchy.leaf_of(0), summary.hierarchy.leaf_of(1)
        )
        with pytest.raises(SummaryInvariantError):
            summary.validate(graph)

    def test_error_names_lost_and_spurious_edges(self, fig2_like):
        graph, summary = fig2_like
        leaf_of = summary.hierarchy.leaf_of
        summary.remove_p_edge(leaf_of(0), leaf_of(1))
        inner = summary.hierarchy.parent(leaf_of(2))
        summary.remove_n_edge(inner, leaf_of(5))
        with pytest.raises(SummaryInvariantError) as raised:
            summary.validate(graph)
        assert str(raised.value) == (
            "summary is not lossless: 1 edges lost (e.g. ['(0, 1)']), "
            "2 spurious (e.g. ['(2, 5)', '(3, 5)'])"
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_errors_match_the_decompression_oracle(self, seed):
        # Break a SLUGGER summary at random and compare validate's message
        # with the one built from the fully decompressed edge set.
        rng = random.Random(seed)
        graph = erdos_renyi_graph(30, 0.2, seed=seed)
        summary = summarize(graph, iterations=4, seed=seed).summary
        supernodes = summary.hierarchy.supernodes()
        for _ in range(3):
            p_edges = sorted(summary.p_edges())
            summary.remove_p_edge(*p_edges[rng.randrange(len(p_edges))])
            a, b = rng.choice(supernodes), rng.choice(supernodes)
            if not summary.has_n_edge(a, b):
                summary.add_p_edge(a, b)
        rebuilt, original = summary.decompress().edge_set(), graph.edge_set()
        lost, spurious = original - rebuilt, rebuilt - original
        assert lost or spurious
        with pytest.raises(SummaryInvariantError) as raised:
            summary.validate(graph)
        assert str(raised.value) == (
            f"summary is not lossless: {len(lost)} edges lost "
            f"(e.g. {sorted(map(repr, lost))[:3]}), {len(spurious)} spurious "
            f"(e.g. {sorted(map(repr, spurious))[:3]})"
        )

    def test_each_wrong_edge_counted_once_for_unordered_labels(self):
        # frozenset labels are only partially ordered: neither endpoint of
        # an edge sorts first, so the count must not depend on the order.
        a, b, c = frozenset({1}), frozenset({2}), frozenset({3})
        graph = Graph(edges=[(a, b), (b, c)])
        summary = HierarchicalSummary.from_graph(graph)
        leaf_of = summary.hierarchy.leaf_of
        summary.remove_p_edge(leaf_of(a), leaf_of(b))
        summary.add_p_edge(leaf_of(a), leaf_of(c))
        with pytest.raises(SummaryInvariantError, match="1 edges lost .* 1 spurious"):
            summary.validate(graph)

    @pytest.mark.parametrize("order", ["same", "reversed"])
    def test_view_is_read_off_its_substrate(self, order):
        # The summary's subnode ids agree with the view's index, or the
        # view lists its nodes in reverse and validate maps ids across.
        graph = erdos_renyi_graph(40, 0.15, seed=3)
        summary = summarize(graph, iterations=4, seed=0).summary
        nodes = list(graph.nodes())
        relabelled = Graph(nodes=nodes if order == "same" else nodes[::-1],
                           edges=graph.edges())
        view = CSRGraphView(DenseAdjacency.from_graph(relabelled).freeze())
        assert (view.index.labels() == summary.hierarchy.subnode_index().labels()) == (
            order == "same")
        summary.validate(view)
        leaf_of = summary.hierarchy.leaf_of
        u, v = next(iter(graph.edges()))
        summary.remove_p_edge(*next(iter(summary.p_edges())))
        summary.add_p_edge(leaf_of(u), leaf_of(v))
        with pytest.raises(SummaryInvariantError) as expected:
            summary.validate(graph)
        with pytest.raises(SummaryInvariantError) as raised:
            summary.validate(view)
        assert str(raised.value) == str(expected.value)
        assert view.thawed_rows == 0

    def test_node_mismatch_detected(self, fig2_like):
        graph, summary = fig2_like
        graph.add_node(99)
        with pytest.raises(SummaryInvariantError):
            summary.validate(graph)

    def test_copy_is_independent(self, fig2_like):
        graph, summary = fig2_like
        clone = summary.copy()
        negative_edge = next(iter(clone.n_edges()))
        clone.remove_n_edge(*negative_edge)
        summary.validate(graph)  # Original unaffected.
        with pytest.raises(SummaryInvariantError):
            clone.validate(graph)

    def test_repr(self, fig2_like):
        _graph, summary = fig2_like
        assert "cost=9" in repr(summary)
