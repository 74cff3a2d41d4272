"""The ``copy()`` contract of both summary models.

A summary cache hit may be served as a copy of a decoded summary, so a
copy must be indistinguishable from its original — same fingerprint,
cost and query answers — and fully independent of it: mutating the copy
leaves the original's fingerprint and losslessness untouched.  Checked
on generated caveman and Erdős–Rényi graphs with int and str labels.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.query import QUERY_KINDS, run_query
from repro.baselines import sweg_summarize
from repro.core import Slugger, SluggerConfig
from repro.graphs import Graph, caveman_graph, erdos_renyi_graph
from repro.storage.summary_store import summary_fingerprint


@st.composite
def generated_graphs(draw) -> Graph:
    seed = draw(st.integers(0, 1000))
    if draw(st.booleans()):
        graph = caveman_graph(draw(st.integers(2, 5)), draw(st.integers(3, 6)),
                              draw(st.sampled_from([0.0, 0.05, 0.2])), seed=seed)
    else:
        graph = erdos_renyi_graph(draw(st.integers(4, 30)),
                                  draw(st.sampled_from([0.1, 0.2, 0.4])), seed=seed)
    if draw(st.booleans()):
        graph = Graph(nodes=[f"v{u}" for u in graph.nodes()],
                      edges=[(f"v{u}", f"v{v}") for u, v in graph.edges()])
    return graph


def query_answers(provider, graph: Graph):
    source = next(iter(graph.nodes()))
    return {kind: run_query(provider, kind, source=source if kind == "bfs" else None)
            for kind in QUERY_KINDS}


def mutate(summary, mutation: str) -> None:
    hierarchy = summary.hierarchy
    if mutation == "remove_superedge":
        edges = sorted(summary.p_edges())
        if edges:
            assert summary.remove_p_edge(*edges[0])
    elif mutation == "create_parent":
        roots = hierarchy.roots()
        if len(roots) >= 2:
            hierarchy.create_parent(roots[:2])
    else:
        internal = [node for node in hierarchy.supernodes() if not hierarchy.is_leaf(node)]
        # A nested supernode first: splicing it edits its parent's children.
        internal.sort(key=lambda node: hierarchy.parent(node) is None)
        if internal:
            hierarchy.splice_out(internal[0])


@settings(max_examples=25, deadline=None)
@given(graph=generated_graphs(), seed=st.integers(0, 5))
def test_hierarchical_copy_is_equal_and_independent(graph, seed):
    original = Slugger(SluggerConfig(iterations=3, seed=seed)).summarize(graph).summary
    fingerprint = summary_fingerprint(original)
    answers = None
    for mutation in ("remove_superedge", "create_parent", "splice_out"):
        clone = original.copy()
        assert clone is not original
        assert summary_fingerprint(clone) == fingerprint
        assert clone.cost() == original.cost()
        clone.validate(graph)
        answers = answers or query_answers(clone, graph)
        assert query_answers(clone, graph) == answers
        mutate(clone, mutation)
    # The original is read only after its copies changed: its row table
    # is memoized, so an earlier read would hide shared state.
    assert summary_fingerprint(original) == fingerprint
    original.validate(graph)
    assert query_answers(original, graph) == answers


@settings(max_examples=25, deadline=None)
@given(graph=generated_graphs(), seed=st.integers(0, 5))
def test_flat_copy_is_equal_and_independent(graph, seed):
    labels = list(graph.nodes())
    original = sweg_summarize(graph, iterations=3, seed=seed)
    fingerprint = summary_fingerprint(original, labels)
    clone = original.copy()
    assert clone is not original
    assert summary_fingerprint(clone, labels) == fingerprint
    assert clone.cost() == original.cost()
    clone.validate(graph)
    answers = query_answers(clone, graph)

    corrections = sorted(clone.corrections_plus, key=repr) or sorted(
        clone.corrections_minus, key=repr)
    if corrections:
        clone.corrections_plus.discard(corrections[0])
        clone.corrections_minus.discard(corrections[0])
    else:
        clone.superedges.discard(next(iter(sorted(clone.superedges)), None))
    assert summary_fingerprint(original, labels) == fingerprint
    original.validate(graph)
    assert query_answers(original, graph) == answers
