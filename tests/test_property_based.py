"""Property-based tests (hypothesis) for the core losslessness invariants.

The single most important contract of the library is exactness: whatever
graph goes in, every summarizer's output must decompress to exactly that
graph, and partial decompression must agree with full decompression.
These properties are exercised on randomly generated graphs.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import mosso_summarize, randomized_summarize, sags_summarize, sweg_summarize
from repro.core import Slugger, SluggerConfig
from repro.core.pruning import prune, reencode_root_pairs_flat
from repro.graphs import Graph
from repro.graphs.dense import DenseAdjacency
from repro.model import FlatSummary, Hierarchy, HierarchicalSummary, flat_to_hierarchical


# ----------------------------------------------------------------------
# Graph strategies
# ----------------------------------------------------------------------
@st.composite
def random_graphs(draw, max_nodes: int = 16, min_nodes: int = 2):
    """A random simple graph with up to ``max_nodes`` nodes."""
    num_nodes = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    graph = Graph(nodes=range(num_nodes))
    possible_edges = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    chosen = draw(st.lists(st.sampled_from(possible_edges), unique=True, max_size=len(possible_edges))
                  ) if possible_edges else []
    for u, v in chosen:
        graph.add_edge(u, v)
    return graph


@st.composite
def random_groupings(draw, graph: Graph):
    """A random partition of the graph's nodes."""
    nodes = sorted(graph.nodes())
    num_groups = draw(st.integers(min_value=1, max_value=max(1, len(nodes))))
    assignment = {node: draw(st.integers(min_value=0, max_value=num_groups - 1)) for node in nodes}
    groups = {}
    for node, group in assignment.items():
        groups.setdefault(group, []).append(node)
    return list(groups.values())


@st.composite
def leaf_encoded_communities(draw):
    """Near-cliques and dense bipartite blocks, left leaf-encoded.

    A near-clique is one root tree over a clique missing a few edges; a
    bipartite block is two root trees joined by a complete bipartite
    graph missing a few edges.  Fewer than half the possible pairs (less
    one) are dropped, so the flat blanket form is cheaper than the leaf
    p-edges for every community.  All leaves are added before any
    parent, so leaf ``i`` wraps dense node ``i``.
    """
    shapes = draw(st.lists(
        st.tuples(st.booleans(), st.integers(2, 4), st.integers(2, 4)),
        min_size=1, max_size=4,
    ))
    sides, edges, start = [], [], 0
    for bipartite, left, right in shapes:
        nodes = list(range(start, start + left + right))
        start += left + right
        if bipartite:
            groups = [nodes[:left], nodes[left:]]
            pairs = [(u, v) for u in groups[0] for v in groups[1]]
        else:
            groups = [nodes]
            pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
        dropped = draw(st.sets(st.sampled_from(pairs), max_size=(len(pairs) - 2) // 2))
        sides.extend(groups)
        edges.extend(pair for pair in pairs if pair not in dropped)
    graph = Graph(nodes=range(start), edges=edges)
    hierarchy = Hierarchy()
    leaves = {node: hierarchy.add_leaf(node) for node in graph.nodes()}
    for side in sides:
        hierarchy.create_parent([leaves[node] for node in side])
    summary = HierarchicalSummary(hierarchy)
    for u, v in graph.edges():
        summary.add_p_edge(leaves[u], leaves[v])
    return graph, summary


_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# Model-level properties
# ----------------------------------------------------------------------
@_SETTINGS
@given(data=st.data(), graph=random_graphs())
def test_flat_summary_is_lossless_for_any_grouping(data, graph):
    grouping = data.draw(random_groupings(graph))
    summary = FlatSummary.from_grouping(graph, grouping)
    summary.validate(graph)
    # Neighbor queries agree with the graph for every node.
    for node in graph.nodes():
        assert summary.neighbors(node) == set(graph.neighbor_set(node))


@_SETTINGS
@given(data=st.data(), graph=random_graphs())
def test_flat_to_hierarchical_preserves_cost_and_graph(data, graph):
    grouping = data.draw(random_groupings(graph))
    flat = FlatSummary.from_grouping(graph, grouping)
    hierarchical = flat_to_hierarchical(flat)
    hierarchical.validate(graph)
    assert hierarchical.cost() == flat.cost_eq11()


@_SETTINGS
@given(graph=random_graphs())
def test_trivial_hierarchical_summary_roundtrip(graph):
    summary = HierarchicalSummary.from_graph(graph)
    assert summary.decompress() == graph
    for node in graph.nodes():
        assert summary.neighbors(node) == set(graph.neighbor_set(node))


# ----------------------------------------------------------------------
# SLUGGER properties
# ----------------------------------------------------------------------
@_SETTINGS
@given(graph=random_graphs(max_nodes=14), seed=st.integers(min_value=0, max_value=10))
def test_slugger_is_lossless_on_random_graphs(graph, seed):
    config = SluggerConfig(iterations=3, seed=seed)
    result = Slugger(config).summarize(graph)
    result.summary.validate(graph)
    # Partial decompression agrees with the input graph as well.
    for node in graph.nodes():
        assert result.summary.neighbors(node) == set(graph.neighbor_set(node))


@_SETTINGS
@given(graph=random_graphs(max_nodes=14), seed=st.integers(min_value=0, max_value=5))
def test_slugger_cost_never_exceeds_trivial_encoding(graph, seed):
    result = Slugger(SluggerConfig(iterations=3, seed=seed)).summarize(graph)
    assert result.cost() <= graph.num_edges


@_SETTINGS
@given(graph=random_graphs(max_nodes=14), seed=st.integers(min_value=0, max_value=5))
def test_pruning_preserves_representation_and_cost(graph, seed):
    result = Slugger(SluggerConfig(iterations=3, seed=seed, prune=False)).summarize(graph)
    summary = result.summary
    cost_before = summary.cost()
    prune(DenseAdjacency.from_graph(graph), summary, rounds=2)
    summary.validate(graph)
    assert summary.cost() <= cost_before


@_SETTINGS
@given(case=leaf_encoded_communities())
def test_flat_reencode_collapses_leaf_encoded_communities(case):
    graph, summary = case
    cost_before = summary.cost()
    profile = {}
    reencode_root_pairs_flat(DenseAdjacency.from_graph(graph), summary, profile=profile)
    summary.validate(graph)
    assert summary.cost() <= cost_before
    assert profile["pairs_reencoded"] > 0


@_SETTINGS
@given(graph=random_graphs(max_nodes=12), bound=st.integers(min_value=1, max_value=3))
def test_height_bound_is_respected(graph, bound):
    result = Slugger(SluggerConfig(iterations=3, seed=0, height_bound=bound)).summarize(graph)
    result.summary.validate(graph)
    assert result.summary.hierarchy.max_height() <= bound


# ----------------------------------------------------------------------
# Baseline properties
# ----------------------------------------------------------------------
@_SETTINGS
@given(graph=random_graphs(max_nodes=12), seed=st.integers(min_value=0, max_value=5))
def test_baselines_are_lossless_on_random_graphs(graph, seed):
    for method in (
        lambda: sweg_summarize(graph, iterations=2, seed=seed),
        lambda: randomized_summarize(graph, seed=seed),
        lambda: sags_summarize(graph, seed=seed),
        lambda: mosso_summarize(graph, seed=seed),
    ):
        summary = method()
        summary.validate(graph)
