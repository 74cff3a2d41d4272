"""Queries on the summary: partial decompression and the one-pass bfs.

Three contracts are pinned here:

* :meth:`HierarchicalSummary.neighbor_ids` (and its label wrapper
  :meth:`HierarchicalSummary.neighbors`) agrees with the adjacency of
  :meth:`HierarchicalSummary.decompress` for every leaf — on SLUGGER
  outputs over generated graphs, and on hand-built summaries exercising
  n-edges, self-loops, superedges between a supernode and its own
  ancestor, and pairs whose p/n coverage nets to zero or below;
* ``run_query(provider, "bfs")`` — one traversal — returns exactly the
  payload the two-pass ``bfs_order`` + ``max(bfs_distances)``
  composition returns, over every provider shape;
* :meth:`HierarchicalSummary.row_table` — the memoized CSR table every
  summary query reads — equals the decompressed adjacency on dense and
  gapped leaf ids, and every superedge or hierarchy mutation (and a
  reassigned ``hierarchy``) makes the next query rebuild it.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import storage
from repro.algorithms import (
    bfs_distances,
    bfs_order,
    connected_components,
    core_numbers,
    resolve_id_adjacency,
)
from repro.algorithms.kernels import bfs_distances_ids, bfs_order_ids, bfs_sweep_ids
from repro.algorithms.providers import repr_rank
from repro.algorithms.query import QUERY_KINDS, run_query
from repro.cli import main
from repro.compression.pipeline import compress_hierarchical_summary
from repro.core import Slugger, SluggerConfig
from repro.core.pruning import prune
from repro.graphs import Graph, caveman_graph, erdos_renyi_graph
from repro.graphs.dense import DenseAdjacency
from repro.graphs.staleness import mutation_stamp
from repro.model.decompress import partial_neighbors
from repro.model.flat import FlatSummary
from repro.model.hierarchy import Hierarchy
from repro.model.summary import HierarchicalSummary

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _string_labelled(graph: Graph) -> Graph:
    """The same graph with every node ``i`` renamed ``"v<i>"``."""
    renamed = Graph(nodes=[f"v{node}" for node in graph.nodes()])
    for u, v in graph.edges():
        renamed.add_edge(f"v{u}", f"v{v}")
    return renamed


def assert_partial_matches_full(summary: HierarchicalSummary) -> None:
    """Every leaf's ``neighbor_ids``/``neighbors`` equal the decompressed adjacency."""
    hierarchy = summary.hierarchy
    label_of = hierarchy.leaf_subnode_map()
    decompressed = summary.decompress()
    for leaf, label in label_of.items():
        expected = decompressed.neighbor_set(label)
        ids = summary.neighbor_ids(leaf)
        assert ids == sorted(set(ids)), leaf
        assert {label_of[other] for other in ids} == expected, label
        assert summary.neighbors(label) == expected, label
        assert partial_neighbors(summary, label) == expected, label


# ----------------------------------------------------------------------
# neighbor_ids against full decompression
# ----------------------------------------------------------------------
@st.composite
def generated_graphs(draw):
    """A small ER or caveman graph, with integer or string labels."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        graph = erdos_renyi_graph(draw(st.integers(min_value=2, max_value=30)),
                                  draw(st.sampled_from([0.05, 0.15, 0.3])), seed=seed)
    else:
        graph = caveman_graph(draw(st.integers(min_value=1, max_value=5)),
                              draw(st.integers(min_value=2, max_value=6)),
                              draw(st.sampled_from([0.0, 0.1, 0.3])), seed=seed)
    return _string_labelled(graph) if draw(st.booleans()) else graph


@_SETTINGS
@given(graph=generated_graphs(), seed=st.integers(min_value=0, max_value=50))
def test_neighbor_ids_match_decompression_on_slugger_outputs(graph, seed):
    summary = Slugger(SluggerConfig(iterations=4, seed=seed)).summarize(graph).summary
    summary.validate(graph)
    assert_partial_matches_full(summary)


@st.composite
def hand_built_summaries(draw):
    """A random forest with random signed superedges, self-loops and all.

    Superedges are drawn over every supernode pair, including a
    supernode with itself and with its own ancestors, so coverage can
    stack (net > 1) or cancel (net <= 0) on a subnode pair.
    """
    num_leaves = draw(st.integers(min_value=1, max_value=9))
    strings = draw(st.booleans())
    summary = HierarchicalSummary()
    hierarchy = summary.hierarchy
    for i in range(num_leaves):
        hierarchy.add_leaf(f"s{i}" if strings else i)
    for _ in range(draw(st.integers(min_value=0, max_value=num_leaves))):
        roots = hierarchy.roots()
        if len(roots) < 2:
            break
        hierarchy.create_parent(draw(st.lists(st.sampled_from(roots), min_size=2,
                                              max_size=3, unique=True)))
    supernodes = hierarchy.supernodes()
    leaves = [hierarchy.leaf_of(label) for label in hierarchy.subnodes()]
    pairs = draw(st.lists(st.tuples(st.sampled_from(supernodes),
                                    st.sampled_from(supernodes)), max_size=15))
    for leaf in draw(st.lists(st.sampled_from(leaves), max_size=4)):
        # A superedge between a supernode on the leaf's chain and one of
        # its own ancestors (possibly itself: a self-loop), plus a leaf
        # pair inside it that an opposite sign may cancel.
        chain = hierarchy.ancestors(leaf)
        lower = draw(st.integers(min_value=0, max_value=len(chain) - 1))
        upper = draw(st.integers(min_value=lower, max_value=len(chain) - 1))
        pairs.append((chain[lower], chain[upper]))
        pairs.append((leaf, draw(st.sampled_from(hierarchy.leaf_ids(chain[upper])))))
    for a, b in pairs:
        if draw(st.booleans()):
            if not summary.has_n_edge(a, b):
                summary.add_p_edge(a, b)
        elif not summary.has_p_edge(a, b):
            summary.add_n_edge(a, b)
    return summary


@_SETTINGS
@given(summary=hand_built_summaries())
def test_neighbor_ids_match_decompression_on_hand_built_summaries(summary):
    assert_partial_matches_full(summary)


def test_pinned_hand_built_summary_covers_every_edge_shape():
    summary = HierarchicalSummary()
    hierarchy = summary.hierarchy
    a, b, c, d, e, f, g = (hierarchy.add_leaf(label) for label in "abcdefg")
    ab = hierarchy.create_parent([a, b])
    abc = hierarchy.create_parent([ab, c])
    ef = hierarchy.create_parent([e, f])
    efg = hierarchy.create_parent([ef, g])
    summary.add_p_edge(abc, abc)    # self-loop: the clique {a, b, c}
    summary.add_n_edge(ab, abc)     # supernode <-> its own ancestor
    summary.add_p_edge(a, a)        # leaf self-loop covers nothing
    summary.add_p_edge(abc, d)
    summary.add_n_edge(c, d)        # nets {c, d} to 0
    summary.add_n_edge(b, d)
    summary.add_n_edge(ab, e)       # nets {a, e} and {b, e} below 0
    summary.add_p_edge(a, e)        # ... then {a, e} back to 0
    summary.add_p_edge(ef, efg)     # positive supernode <-> ancestor ...
    summary.add_n_edge(e, f)        # ... cancelled on {e, f}: counted once
    assert summary.pair_weight("a", "b") == 0
    assert summary.pair_weight("a", "c") == 0
    assert summary.pair_weight("c", "d") == 0
    assert summary.pair_weight("b", "e") == -1
    assert summary.pair_weight("a", "d") == 1
    assert summary.pair_weight("e", "f") == 0
    assert summary.pair_weight("e", "g") == 1
    assert_partial_matches_full(summary)
    assert summary.neighbors("a") == {"d"}
    assert summary.neighbors("d") == {"a"}
    assert summary.neighbors("e") == {"g"}
    assert summary.neighbors("g") == {"e", "f"}
    assert summary.neighbor_ids(c) == []


def test_neighbor_ids_rejects_internal_and_unknown_ids():
    summary = HierarchicalSummary.from_graph(Graph(edges=[(0, 1), (1, 2)]))
    parent = summary.hierarchy.create_parent([0, 1])
    for bad in (parent, 99):
        with pytest.raises(KeyError):
            summary.neighbor_ids(bad)
    with pytest.raises(KeyError):
        summary.neighbors("missing")


# ----------------------------------------------------------------------
# One-pass bfs against the two-pass composition
# ----------------------------------------------------------------------
def _disconnected_graph(strings: bool) -> Graph:
    """Two caves, a path, and an isolated node (eccentricity 0)."""
    graph = caveman_graph(2, 5, 0.1, seed=4)
    graph.add_edge(4, 5)
    for u, v in ((10, 11), (11, 12), (12, 13)):
        graph.add_edge(u, v)
    graph.add_node(14)
    return _string_labelled(graph) if strings else graph


def _providers(graph: Graph, tmp_path):
    container = tmp_path / "graph.slg"
    storage.pack(graph, container)
    nodes = graph.nodes()
    return {
        "graph": graph,
        "csr": DenseAdjacency.from_graph(graph).freeze(),
        "mapped": storage.load(container).csr(),
        "hierarchical": Slugger(SluggerConfig(iterations=4, seed=0)).summarize(graph).summary,
        "flat": FlatSummary.from_grouping(
            graph, [nodes[i:i + 3] for i in range(0, len(nodes), 3)]
        ),
    }


def two_pass_bfs_payload(provider, source, top=None):
    """The bfs payload as ``run_query`` assembled it from two traversals."""
    order = bfs_order(provider, source)
    distances = bfs_distances(provider, source)
    return {
        "source": source,
        "reached": len(order),
        "eccentricity": max(distances.values()) if distances else 0,
        "order": order if top is None else order[:top],
    }


@pytest.mark.parametrize("strings", [False, True], ids=["int", "str"])
def test_bfs_query_equals_two_pass_composition(strings, tmp_path):
    graph = _disconnected_graph(strings)
    isolated = graph.nodes()[-1]
    for name, provider in _providers(graph, tmp_path).items():
        for source in graph.nodes():
            for top in (None, 3):
                answer = run_query(provider, "bfs", source=source, top=top)
                assert answer.kind == "bfs"
                assert answer.value == two_pass_bfs_payload(provider, source, top), (
                    name, source, top)
        isolated_answer = run_query(provider, "bfs", source=isolated).value
        assert isolated_answer["eccentricity"] == 0, name
        assert isolated_answer["order"] == [isolated], name


def test_bfs_sweep_kernel_matches_order_and_distance_kernels(tmp_path):
    graph = _disconnected_graph(strings=False)
    for name, provider in _providers(graph, tmp_path).items():
        adjacency = resolve_id_adjacency(provider)
        rank = repr_rank(adjacency.index)
        for u in range(adjacency.num_nodes):
            order, eccentricity = bfs_sweep_ids(adjacency, u, rank)
            assert order == bfs_order_ids(adjacency, u, rank), (name, u)
            assert eccentricity == max(bfs_distances_ids(adjacency, u)), (name, u)
            assert bfs_sweep_ids(adjacency, u)[0] == bfs_order_ids(adjacency, u), (name, u)


@pytest.mark.parametrize("bad_source", ["no-such-node", 999])
def test_bfs_query_unknown_source_error_unchanged(bad_source, tmp_path):
    for name, provider in _providers(_disconnected_graph(False), tmp_path).items():
        with pytest.raises(Exception) as expected:
            two_pass_bfs_payload(provider, bad_source)
        with pytest.raises(expected.type) as raised:
            run_query(provider, "bfs", source=bad_source)
        assert str(raised.value) == str(expected.value), name


def test_summary_index_is_memoized_and_rebuilt_after_add_leaf():
    graph = Graph(edges=[(0, 1), (1, 2), (2, 3)])
    summary = HierarchicalSummary.from_graph(graph)
    hierarchy = summary.hierarchy
    index = hierarchy.subnode_index()
    assert hierarchy.subnode_index() is index
    assert resolve_id_adjacency(summary).index is index
    assert run_query(summary, "bfs", source=0).value["order"] == [0, 1, 2, 3]
    # Merging (and splicing out) internal supernodes keeps every leaf.
    parent = hierarchy.create_parent([hierarchy.leaf_of(2), hierarchy.leaf_of(3)])
    hierarchy.splice_out(parent)
    assert hierarchy.subnode_index() is index
    leaf = hierarchy.add_leaf(4)
    summary.add_p_edge(leaf, hierarchy.leaf_of(3))
    rebuilt = hierarchy.subnode_index()
    assert rebuilt is not index
    assert rebuilt.labels() == [0, 1, 2, 3, 4]
    assert resolve_id_adjacency(summary).index is rebuilt
    assert run_query(summary, "bfs", source=0).value == {
        "source": 0, "reached": 5, "eccentricity": 4, "order": [0, 1, 2, 3, 4],
    }
    assert hierarchy.copy().subnode_index().labels() == rebuilt.labels()


def test_queries_on_a_summary_with_gapped_leaf_ids():
    # The compression codec rebuilds the forest depth-first, so internal
    # supernodes take ids between leaves: leaf id != subnode index id.
    graph = _disconnected_graph(strings=False)
    summary = Slugger(SluggerConfig(iterations=4, seed=0)).summarize(graph).summary
    rebuilt = compress_hierarchical_summary(summary).decompress()
    rebuilt.validate(graph)
    assert not rebuilt.hierarchy.leaf_ids_are_dense()
    assert summary.hierarchy.leaf_ids_are_dense()
    assert_partial_matches_full(rebuilt)
    for source in graph.nodes():
        assert run_query(rebuilt, "bfs", source=source) == run_query(graph, "bfs", source=source)
    assert connected_components(rebuilt) == connected_components(graph)
    assert core_numbers(rebuilt) == core_numbers(graph)


# ----------------------------------------------------------------------
# The memoized row table
# ----------------------------------------------------------------------
def assert_table_matches_decompression(summary: HierarchicalSummary) -> None:
    """Every table row is the sorted id row of the decompressed graph."""
    indptr, indices = summary.row_table()
    index = summary.hierarchy.subnode_index()
    ids = index.ids()
    decompressed = summary.decompress()
    assert len(indptr) == len(index) + 1
    for u, label in enumerate(index.labels()):
        expected = sorted(ids[other] for other in decompressed.neighbor_set(label))
        assert list(indices[indptr[u]:indptr[u + 1]]) == expected, label


@_SETTINGS
@given(graph=generated_graphs(), seed=st.integers(min_value=0, max_value=50))
def test_row_table_matches_decompression_on_dense_and_gapped_leaves(graph, seed):
    summary = Slugger(SluggerConfig(iterations=4, seed=seed)).summarize(graph).summary
    rebuilt = compress_hierarchical_summary(summary).decompress()
    assert summary.hierarchy.leaf_ids_are_dense()
    for candidate in (summary, rebuilt):
        assert_table_matches_decompression(candidate)
        candidate.validate(graph)


@_SETTINGS
@given(summary=hand_built_summaries())
def test_row_table_matches_decompression_on_hand_built_summaries(summary):
    assert_table_matches_decompression(summary)


def _table_fixture():
    """A small summary with an internal supernode on each side of a path.

    ``top`` = {0, 1} carries a p-edge to 2 that an n-edge cancels on
    (0, 2); ``mid`` = {3, 4} carries no superedge, so it can be spliced
    out (and pruning removes it).
    """
    summary = HierarchicalSummary()
    hierarchy = summary.hierarchy
    for label in range(6):
        hierarchy.add_leaf(label)
    top = hierarchy.create_parent([0, 1])
    mid = hierarchy.create_parent([3, 4])
    for a, b in ((top, 2), (0, 1), (2, 3), (3, 4), (4, 5)):
        summary.add_p_edge(a, b)
    summary.add_n_edge(0, 2)
    return summary, top, mid


def _all_payloads(provider):
    return [run_query(provider, kind, source=0).value for kind in QUERY_KINDS]


def _prune(summary, top, mid):
    stats = prune(DenseAdjacency.from_graph(summary.decompress()), summary)
    assert stats["substep1"] >= 1


def _reassign(summary, top, mid):
    # A different forest with the same mutation count: only its identity
    # tells the memo that it changed.
    replacement = Hierarchy()
    for label in range(6):
        replacement.add_leaf(label)
    assert replacement.create_parent([0, 1]) == top
    replacement.add_leaf(6)
    assert mutation_stamp(replacement) == mutation_stamp(summary.hierarchy)
    summary.hierarchy = replacement


MUTATORS = {
    "add_p_edge": lambda summary, top, mid: summary.add_p_edge(0, 5),
    "add_n_edge": lambda summary, top, mid: summary.add_n_edge(1, 2),
    "remove_p_edge": lambda summary, top, mid: summary.remove_p_edge(3, 4),
    "remove_n_edge": lambda summary, top, mid: summary.remove_n_edge(0, 2),
    "add_leaf": lambda summary, top, mid: summary.hierarchy.add_leaf(6),
    "create_parent": lambda summary, top, mid: summary.hierarchy.create_parent([top, 2]),
    "splice_out": lambda summary, top, mid: summary.hierarchy.splice_out(mid),
    "prune": _prune,
    "reassign_hierarchy": _reassign,
}


@pytest.mark.parametrize("mutator", list(MUTATORS))
def test_every_mutation_invalidates_the_row_table(mutator):
    summary, top, mid = _table_fixture()
    before = _all_payloads(summary)
    assert before == _all_payloads(summary.decompress())
    table = summary.row_table()
    assert summary.row_table() is table
    MUTATORS[mutator](summary, top, mid)
    assert summary.row_table() is not table
    after = _all_payloads(summary)
    assert after == _all_payloads(summary.decompress())
    assert_table_matches_decompression(summary)


def test_failed_or_noop_mutations_keep_the_row_table():
    summary, top, mid = _table_fixture()
    table = summary.row_table()
    assert not summary.add_p_edge(top, 2)
    assert not summary.remove_n_edge(3, 4)
    assert summary.hierarchy.add_leaf(0) == 0
    assert summary.row_table() is table


def test_copy_does_not_share_the_row_table():
    summary, top, mid = _table_fixture()
    table = summary.row_table()
    clone = summary.copy()
    clone_table = clone.row_table()
    assert clone_table is not table
    assert [list(column) for column in clone_table] == [list(column) for column in table]
    clone.add_p_edge(0, 5)
    assert summary.row_table() is table
    indptr, indices = clone.row_table()
    assert 5 in indices[indptr[0]:indptr[1]]
    assert 5 not in table[1][table[0][0]:table[0][1]]


def test_pickled_summary_leaves_the_row_table_behind():
    summary, top, mid = _table_fixture()
    table = summary.row_table()
    clone = pickle.loads(pickle.dumps(summary))
    assert clone._rows is None
    assert summary.row_table() is table
    assert [list(column) for column in clone.row_table()] == [list(column) for column in table]


def test_cli_serves_every_kind_on_a_summary_container_off_its_csr(tmp_path, capsys):
    graph = caveman_graph(3, 5, 0.2, seed=1)
    edge_list = tmp_path / "graph.txt"
    edge_list.write_text("".join(f"{u} {v}\n" for u, v in graph.edges()))
    plain, bearing = tmp_path / "plain.slg", tmp_path / "summary.slg"
    assert main(["pack", "--input", str(edge_list), "--output", str(plain)]) == 0
    assert main(["pack", "--input", str(edge_list), "--output", str(bearing),
                 "--with-summary", "--iterations", "2", "--seed", "0"]) == 0
    for kind in QUERY_KINDS:
        capsys.readouterr()
        assert main(["query", kind, "--container", str(plain), "--source", "0", "--json"]) == 0
        expected = capsys.readouterr().out.splitlines()
        assert main(["query", kind, "--container", str(bearing), "--source", "0", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "summary: kind=hierarchical method=slugger seed=0"
        assert "zero-copy=yes" in lines[2]
        assert lines[2:] == expected[1:], kind


def test_racing_threads_build_equal_tables():
    # More threads than cores and a short switch interval, so threads
    # interleave inside the first table build on one fresh summary.
    graph = caveman_graph(4, 6, 0.2, seed=3)
    summary = Slugger(SluggerConfig(iterations=4, seed=0)).summarize(graph).summary
    expected = (run_query(graph, "bfs", source=0).value, run_query(graph, "pagerank").value)
    barrier = threading.Barrier(4, timeout=30)
    answers = [None] * 4

    def worker(slot: int) -> None:
        barrier.wait()
        answers[slot] = (run_query(summary, "bfs", source=0).value,
                         run_query(summary, "pagerank").value,
                         [list(column) for column in summary.row_table()])

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(answer[:2] == expected for answer in answers)
    assert all(answer[2] == answers[0][2] for answer in answers)
