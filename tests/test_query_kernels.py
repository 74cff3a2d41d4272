"""Equivalence matrix and zero-materialization tests for query serving.

Two guarantees are pinned here:

* every algorithm returns identical results over every provider shape —
  label-keyed :class:`Graph`, in-memory CSR, memory-mapped container,
  read-only :class:`CSRGraphView`, hierarchical summary (partial
  decompression), and flat summary — including string-labelled graphs;
* serving queries off a packed container materializes zero label-keyed
  graph nodes and thaws zero dense rows.

The frozen ``legacy_*`` implementations below are verbatim copies of the
pre-kernel label-keyed algorithms; the bit-identity tests compare the
rewritten shims against them directly.
"""

from __future__ import annotations

import json
import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import storage
from repro.algorithms import (
    as_neighbor_function,
    average_clustering,
    bfs_distances,
    bfs_order,
    connected_components,
    core_numbers,
    count_triangles,
    dfs_order,
    dijkstra_distances,
    label_propagation_communities,
    local_clustering_coefficients,
    local_triangle_counts,
    modularity,
    node_universe,
    pagerank,
    resolve_id_adjacency,
    shortest_path,
)
from repro.algorithms.query import QUERY_KINDS, run_query
from repro.baselines.common import FlatGroupingState
from repro.cli import main
from repro.core import Slugger, SluggerConfig
from repro.core.state import SluggerState
from repro.exceptions import ConfigurationError
from repro.graphs import CSRGraphView, Graph, caveman_graph, erdos_renyi_graph
from repro.graphs.dense import DenseAdjacency
from repro.graphs.io import write_edge_list
from repro.model.flat import FlatSummary
from repro.service import SummaryService
from repro.storage import GraphCache
from repro.utils.rng import ensure_rng


# ----------------------------------------------------------------------
# Fixture graphs
# ----------------------------------------------------------------------
def _bridged_caveman() -> Graph:
    graph = caveman_graph(3, 5)
    graph.add_edge(4, 5)
    graph.add_edge(9, 10)
    return graph


def _string_graph() -> Graph:
    """A deterministic string-labelled graph (exercises repr ordering)."""
    rnd = random.Random(3)
    names = [f"node-{i}" for i in range(40)]
    graph = Graph(nodes=names)
    while graph.num_edges < 120:
        u, v = rnd.choice(names), rnd.choice(names)
        if u != v:
            graph.add_edge(u, v)
    return graph


@pytest.fixture(params=["caveman", "er", "strings"])
def pinned_graph(request) -> Graph:
    if request.param == "caveman":
        return _bridged_caveman()
    if request.param == "er":
        return erdos_renyi_graph(48, 0.1, seed=7)
    return _string_graph()


def _provider_matrix(graph, tmp_path):
    """Every provider shape the algorithms must agree on."""
    csr = DenseAdjacency.from_graph(graph).freeze()
    container = tmp_path / "graph.slg"
    storage.pack(graph, container)
    stored = storage.load(container)
    hierarchical = Slugger(SluggerConfig(iterations=4, seed=0)).summarize(graph).summary
    nodes = graph.nodes()
    flat = FlatSummary.from_grouping(
        graph, [nodes[i:i + 2] for i in range(0, len(nodes), 2)]
    )
    return {
        "csr": csr,
        "view": CSRGraphView(csr),
        "mapped": stored.csr(),
        "stored": stored,
        "hierarchical": hierarchical,
        "flat": flat,
    }


# ----------------------------------------------------------------------
# Frozen legacy implementations (verbatim pre-kernel code)
# ----------------------------------------------------------------------
def legacy_pagerank(provider_graph, damping=0.85, iterations=20):
    nodes = provider_graph.nodes()
    if not nodes:
        return {}
    neighbors = lambda node: set(provider_graph.neighbor_set(node))  # noqa: E731
    num_nodes = len(nodes)
    scores = {node: 1.0 / num_nodes for node in nodes}
    for _ in range(iterations):
        incoming = {node: 0.0 for node in nodes}
        for node in nodes:
            adjacent = neighbors(node)
            if not adjacent:
                continue
            share = scores[node] / len(adjacent)
            for neighbor in adjacent:
                incoming[neighbor] += share
        total_flow = 0.0
        for node in nodes:
            incoming[node] *= damping
            total_flow += incoming[node]
        leak = (1.0 - total_flow) / num_nodes
        scores = {node: incoming[node] + leak for node in nodes}
    return scores


def legacy_bfs_order(graph, source):
    neighbors = graph.neighbor_set
    order, seen, queue = [], {source}, deque([source])
    while queue:
        node = queue.popleft()
        order.append(node)
        for neighbor in sorted(neighbors(node), key=repr):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return order


def legacy_dfs_order(graph, source):
    neighbors = graph.neighbor_set
    order, seen, stack = [], set(), [source]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        order.append(node)
        for neighbor in sorted(neighbors(node), key=repr, reverse=True):
            if neighbor not in seen:
                stack.append(neighbor)
    return order


def legacy_count_triangles(graph):
    cache = {}

    def cached(node):
        stored = cache.get(node)
        if stored is None:
            stored = set(graph.neighbor_set(node))
            cache[node] = stored
        return stored

    corner_count = 0
    for node in graph.nodes():
        adjacent = cached(node)
        for neighbor in adjacent:
            corner_count += len(adjacent & cached(neighbor))
    return corner_count // 6


def legacy_local_triangle_counts(graph):
    cache = {}

    def cached(node):
        stored = cache.get(node)
        if stored is None:
            stored = set(graph.neighbor_set(node))
            cache[node] = stored
        return stored

    counts = {}
    for node in graph.nodes():
        adjacent = cached(node)
        total = 0
        for neighbor in adjacent:
            total += len(adjacent & cached(neighbor))
        counts[node] = total // 2
    return counts


def legacy_core_numbers(graph):
    import heapq

    adjacency = {node: set(graph.neighbor_set(node)) for node in graph.nodes()}
    degrees = {node: len(nbrs) for node, nbrs in adjacency.items()}
    heap = [(degree, repr(node), node) for node, degree in degrees.items()]
    heapq.heapify(heap)
    removed, cores, current = set(), {}, 0
    while heap:
        degree, _, node = heapq.heappop(heap)
        if node in removed or degree != degrees[node]:
            continue
        current = max(current, degree)
        cores[node] = current
        removed.add(node)
        for neighbor in adjacency[node]:
            if neighbor in removed:
                continue
            degrees[neighbor] -= 1
            heapq.heappush(heap, (degrees[neighbor], repr(neighbor), neighbor))
    return cores


def legacy_local_clustering(graph, node):
    nbrs = list(graph.neighbor_set(node))
    degree = len(nbrs)
    if degree < 2:
        return 0.0
    nbr_set = set(nbrs)
    links = 0
    for index, u in enumerate(nbrs):
        u_neighbors = graph.neighbor_set(u)
        for v in nbrs[index + 1:]:
            if v in u_neighbors and v in nbr_set:
                links += 1
    return 2.0 * links / (degree * (degree - 1))


def legacy_label_propagation(graph, max_rounds=20, seed=0):
    neighbors = graph.neighbor_set
    rng = ensure_rng(seed)
    nodes = sorted(graph.nodes(), key=repr)
    labels = {node: index for index, node in enumerate(nodes)}
    for _ in range(max_rounds):
        changed = False
        order = list(nodes)
        rng.shuffle(order)
        for node in order:
            neighbor_labels = Counter(labels[nbr] for nbr in neighbors(node))
            if not neighbor_labels:
                continue
            best_count = max(neighbor_labels.values())
            best_labels = sorted(
                label for label, count in neighbor_labels.items() if count == best_count
            )
            new_label = best_labels[rng.randrange(len(best_labels))]
            if new_label != labels[node]:
                labels[node] = new_label
                changed = True
        if not changed:
            break
    groups = {}
    for node, label in labels.items():
        groups.setdefault(label, set()).add(node)
    return sorted(groups.values(), key=len, reverse=True)


def legacy_modularity(graph, communities):
    neighbors = graph.neighbor_set
    nodes = graph.nodes()
    degree = {node: len(neighbors(node)) for node in nodes}
    two_m = sum(degree.values())
    if two_m == 0:
        return 0.0
    community_of = {}
    for index, community in enumerate(communities):
        for node in community:
            community_of[node] = index
    intra = 0
    for node in nodes:
        for neighbor in neighbors(node):
            if community_of.get(node) == community_of.get(neighbor):
                intra += 1
    quality = intra / two_m
    for community in communities:
        community_degree = sum(degree.get(node, 0) for node in community)
        quality -= (community_degree / two_m) ** 2
    return quality


def legacy_dijkstra_distances(graph, source, weight=None):
    import heapq

    weight_of = weight or (lambda _u, _v: 1.0)
    neighbors = graph.neighbor_set
    distances = {source: 0.0}
    settled = set()
    heap = [(0.0, 0, source)]
    counter = 0
    while heap:
        distance, _tie, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for neighbor in neighbors(node):
            candidate = distance + weight_of(node, neighbor)
            if candidate < distances.get(neighbor, float("inf")):
                distances[neighbor] = candidate
                counter += 1
                heapq.heappush(heap, (candidate, counter, neighbor))
    return distances


# ----------------------------------------------------------------------
# Bit-identity pins against the frozen legacy implementations
# ----------------------------------------------------------------------
class TestLegacyBitIdentity:
    def test_pagerank_identical_including_key_order(self, pinned_graph):
        ours, legacy = pagerank(pinned_graph), legacy_pagerank(pinned_graph)
        assert list(ours) == list(legacy)
        assert all(ours[node] == legacy[node] for node in legacy)

    def test_traversals_identical(self, pinned_graph):
        source = pinned_graph.nodes()[0]
        assert bfs_order(pinned_graph, source) == legacy_bfs_order(pinned_graph, source)
        assert dfs_order(pinned_graph, source) == legacy_dfs_order(pinned_graph, source)

    def test_triangles_identical(self, pinned_graph):
        assert count_triangles(pinned_graph) == legacy_count_triangles(pinned_graph)
        assert local_triangle_counts(pinned_graph) == legacy_local_triangle_counts(pinned_graph)

    def test_core_numbers_identical(self, pinned_graph):
        assert core_numbers(pinned_graph) == legacy_core_numbers(pinned_graph)

    def test_clustering_identical(self, pinned_graph):
        ours = local_clustering_coefficients(pinned_graph)
        legacy = {
            node: legacy_local_clustering(pinned_graph, node)
            for node in pinned_graph.nodes()
        }
        assert ours == legacy

    def test_label_propagation_rng_stream_identical(self, pinned_graph):
        ours = label_propagation_communities(pinned_graph, seed=5)
        legacy = legacy_label_propagation(pinned_graph, seed=5)
        assert ours == legacy

    def test_modularity_identical(self, pinned_graph):
        communities = legacy_label_propagation(pinned_graph, seed=5)
        assert modularity(pinned_graph, communities) == legacy_modularity(
            pinned_graph, communities
        )

    def test_dijkstra_identical(self, pinned_graph):
        source = pinned_graph.nodes()[0]
        assert dijkstra_distances(pinned_graph, source) == legacy_dijkstra_distances(
            pinned_graph, source
        )

    def test_components_content_equal(self, pinned_graph):
        ours = sorted(
            (sorted(component, key=repr) for component in connected_components(pinned_graph)),
            key=repr,
        )
        # Legacy discovery order was hash-seed dependent; contents were not.
        remaining = set(pinned_graph.nodes())
        legacy = []
        while remaining:
            start = remaining.pop()
            component, queue = {start}, deque([start])
            while queue:
                node = queue.popleft()
                for neighbor in pinned_graph.neighbor_set(node):
                    if neighbor in remaining:
                        remaining.discard(neighbor)
                        component.add(neighbor)
                        queue.append(neighbor)
            legacy.append(component)
        assert ours == sorted((sorted(c, key=repr) for c in legacy), key=repr)


# ----------------------------------------------------------------------
# Provider equivalence matrix
# ----------------------------------------------------------------------
class TestProviderMatrix:
    def test_every_provider_agrees_with_the_graph(self, pinned_graph, tmp_path):
        graph = pinned_graph
        source = graph.nodes()[0]
        communities = label_propagation_communities(graph, seed=5)
        baseline = {
            "pagerank": pagerank(graph),
            "bfs_order": bfs_order(graph, source),
            "bfs_distances": bfs_distances(graph, source),
            "dfs_order": dfs_order(graph, source),
            "components": connected_components(graph),
            "triangles": count_triangles(graph),
            "local_triangles": local_triangle_counts(graph),
            "cores": core_numbers(graph),
            "clustering": local_clustering_coefficients(graph),
            "average_clustering": average_clustering(graph),
            "communities": communities,
            "modularity": modularity(graph, communities),
            "dijkstra": dijkstra_distances(graph, source),
        }
        for name, provider in _provider_matrix(graph, tmp_path).items():
            note = f"provider {name}"
            # The flat summary's node universe is ``list(group_of)`` — a
            # permutation of graph insertion order for string labels — so
            # order-sensitive float accumulations agree only up to ULPs
            # there (exactly as the legacy label-keyed path did).  Every
            # other provider preserves the universe and is bit-identical.
            if name == "flat" and isinstance(graph.nodes()[0], str):
                assert pagerank(provider) == pytest.approx(baseline["pagerank"]), note
                assert average_clustering(provider) == pytest.approx(
                    baseline["average_clustering"]
                ), note
                assert modularity(provider, communities) == pytest.approx(
                    baseline["modularity"]
                ), note
                assert sorted(map(frozenset, connected_components(provider))) == sorted(
                    map(frozenset, baseline["components"])
                ), note
            else:
                assert pagerank(provider) == baseline["pagerank"], note
                assert average_clustering(provider) == baseline["average_clustering"], note
                assert modularity(provider, communities) == baseline["modularity"], note
                assert connected_components(provider) == baseline["components"], note
            assert bfs_order(provider, source) == baseline["bfs_order"], note
            assert bfs_distances(provider, source) == baseline["bfs_distances"], note
            assert dfs_order(provider, source) == baseline["dfs_order"], note
            assert count_triangles(provider) == baseline["triangles"], note
            assert local_triangle_counts(provider) == baseline["local_triangles"], note
            assert core_numbers(provider) == baseline["cores"], note
            assert local_clustering_coefficients(provider) == baseline["clustering"], note
            assert label_propagation_communities(provider, seed=5) == baseline["communities"], note
            assert dijkstra_distances(provider, source) == baseline["dijkstra"], note
            path = shortest_path(provider, source, graph.nodes()[-1])
            expected = shortest_path(graph, source, graph.nodes()[-1])
            if expected is None:
                assert path is None, note
            else:
                assert path is not None and len(path) == len(expected), note

    def test_node_universe_and_neighbor_function_cover_substrates(self, tmp_path):
        graph = _bridged_caveman()
        for provider in _provider_matrix(graph, tmp_path).values():
            assert sorted(node_universe(provider)) == sorted(graph.nodes())
            neighbors = as_neighbor_function(provider)
            for node in graph.nodes():
                assert set(neighbors(node)) == graph.neighbor_set(node)

    def test_live_neighbor_set_for_graphs(self):
        graph = _bridged_caveman()
        neighbors = as_neighbor_function(graph)
        # The Graph branch hands out the live internal set: no copy per query.
        assert neighbors(0) is graph.neighbor_set(0)

    def test_resolver_rejects_junk(self):
        with pytest.raises(TypeError):
            resolve_id_adjacency(42)
        with pytest.raises(TypeError):
            as_neighbor_function({"not": "a graph"})


# ----------------------------------------------------------------------
# Zero-materialization serving guarantees
# ----------------------------------------------------------------------
class TestZeroMaterialization:
    def test_query_over_container_materializes_nothing(self, tmp_path):
        graph = erdos_renyi_graph(48, 0.1, seed=7)
        container = tmp_path / "graph.slg"
        storage.pack(graph, container)
        stored = storage.load(container)
        for kind in QUERY_KINDS:
            result = run_query(stored, kind, source=0, top=5)
            assert result.kind == kind
        assert stored.materializations == 0
        # The dense overlay is never even constructed by the query path.
        assert stored._dense is None

    def test_view_queries_thaw_zero_rows(self):
        graph = erdos_renyi_graph(48, 0.1, seed=7)
        view = CSRGraphView(DenseAdjacency.from_graph(graph).freeze())
        for kind in QUERY_KINDS:
            run_query(view, kind, source=0, top=5)
        assert view.thawed_rows == 0

    def test_cache_hit_serves_view_without_materializing(self, tmp_path):
        graph = _bridged_caveman()
        edge_list = tmp_path / "graph.txt"
        write_edge_list(graph, edge_list)
        cache = GraphCache(tmp_path / "cache")
        miss = cache.fetch_edge_list(edge_list, materialize=False)
        assert not miss.hit
        hit = cache.fetch_edge_list(edge_list, materialize=False)
        assert hit.hit
        assert isinstance(hit.graph, CSRGraphView)
        # The hit view must be bit-identical to the parsed graph it was
        # packed from (the text round-trip can permute node insertion
        # order relative to the in-memory original, so compare to the
        # miss's parse, not to ``graph``).
        assert pagerank(hit.graph) == pagerank(miss.graph)
        assert hit.stored.materializations == 0
        # Default keeps the historical materializing contract.
        materialized = cache.fetch_edge_list(edge_list)
        assert isinstance(materialized.graph, Graph)
        assert not isinstance(materialized.graph, CSRGraphView)

    def test_view_is_read_only(self):
        from repro.exceptions import InvalidStateError

        view = CSRGraphView(DenseAdjacency.from_graph(_bridged_caveman()).freeze())
        with pytest.raises(InvalidStateError):
            view.add_edge(0, 99)
        with pytest.raises(InvalidStateError):
            view.remove_node(0)


# ----------------------------------------------------------------------
# Initialization over a stored substrate
# ----------------------------------------------------------------------
class TestFromSubstrate:
    def test_summary_neighbor_ids_partial_decompression(self, pinned_graph):
        summary = Slugger(SluggerConfig(iterations=4, seed=0)).summarize(pinned_graph).summary
        index = resolve_id_adjacency(pinned_graph).index
        labels = index.labels()
        ids = index.ids()
        for node in pinned_graph.nodes():
            expected = sorted(ids[x] for x in summary.neighbors(node))
            assert summary.neighbor_ids(ids[node]) == expected, node
        assert [labels[i] for i in range(len(labels))] == summary.hierarchy.subnodes()

    def test_slugger_state_from_substrate_is_consistent_and_cold(self, tmp_path):
        graph = _bridged_caveman()
        container = tmp_path / "graph.slg"
        storage.pack(graph, container)
        stored = storage.load(container)
        # The constructor call a run over a stored graph makes.
        state = SluggerState(stored.view(), dense=stored.dense(), csr=stored.csr())
        state.check_consistency()
        assert type(state.dense) is DenseAdjacency
        assert state.dense.neighbors == DenseAdjacency.from_graph(graph).neighbors
        assert state.graph.thawed_rows == 0
        assert stored.materializations == 0
        reference = SluggerState(graph)
        assert state.total_cost() == reference.total_cost()
        assert state.roots == reference.roots

    def test_flat_state_from_substrate_matches_graph_built(self, tmp_path):
        graph = _bridged_caveman()
        container = tmp_path / "graph.slg"
        storage.pack(graph, container)
        stored = storage.load(container)
        # The constructor call a flat baseline run over a stored graph makes.
        state = FlatGroupingState(stored.view(), dense=stored.dense())
        reference = FlatGroupingState(graph)
        assert state.total_cost() == reference.total_cost()
        assert state.group_of == reference.group_of
        assert type(state.dense) is DenseAdjacency
        assert state.dense.neighbors == reference.dense.neighbors
        assert stored.materializations == 0

    def test_summarize_over_view_is_bit_identical(self, tmp_path):
        graph = erdos_renyi_graph(48, 0.1, seed=7)
        container = tmp_path / "graph.slg"
        storage.pack(graph, container)
        stored = storage.load(container)
        config = SluggerConfig(iterations=4, seed=0)
        over_view = Slugger(config).summarize(stored.view(), resources=stored)
        over_graph = Slugger(config).summarize(graph)
        assert over_view.summary.cost() == over_graph.summary.cost()
        assert set(over_view.summary.p_edges()) == set(over_graph.summary.p_edges())
        assert set(over_view.summary.n_edges()) == set(over_graph.summary.n_edges())
        assert stored.materializations == 0


# ----------------------------------------------------------------------
# Query dispatch, CLI, and service serving paths
# ----------------------------------------------------------------------
class TestQueryServing:
    @settings(max_examples=40, deadline=None)
    @given(num_nodes=st.integers(1, 30), density=st.floats(0.05, 0.9),
           seed=st.integers(0, 2**16))
    def test_triangles_query_total_equals_count_triangles(self, num_nodes, density, seed):
        graph = erdos_renyi_graph(num_nodes, density, seed=seed)
        expected = count_triangles(graph)
        summary = Slugger(SluggerConfig(iterations=2, seed=0)).summarize(graph).summary
        for provider in (graph, DenseAdjacency.from_graph(graph).freeze(), summary):
            assert run_query(provider, "triangles").value["triangles"] == expected

    def test_run_query_validates(self):
        graph = _bridged_caveman()
        with pytest.raises(ConfigurationError, match="unknown query kind"):
            run_query(graph, "nonsense")
        with pytest.raises(ConfigurationError, match="requires a source"):
            run_query(graph, "bfs")

    @pytest.mark.parametrize("kind", ["pagerank", "bfs", "cores"])
    def test_run_query_rejects_negative_top(self, kind):
        with pytest.raises(ConfigurationError, match="top must be non-negative"):
            run_query(_bridged_caveman(), kind, source=0, top=-3)

    def test_run_query_rejects_iterations_below_one(self):
        with pytest.raises(ConfigurationError, match="iterations must be >= 1"):
            run_query(_bridged_caveman(), "pagerank", iterations=0)

    @pytest.mark.parametrize("damping", [-0.1, 1.5, float("nan")])
    def test_run_query_rejects_damping_outside_unit_interval(self, damping):
        with pytest.raises(ConfigurationError, match="damping must be in"):
            run_query(_bridged_caveman(), "pagerank", damping=damping)

    def test_cli_query_container(self, tmp_path, capsys):
        graph = _bridged_caveman()
        edge_list = tmp_path / "graph.txt"
        container = tmp_path / "graph.slg"
        write_edge_list(graph, edge_list)
        assert main(["pack", "--input", str(edge_list), "--output", str(container)]) == 0
        capsys.readouterr()
        assert main(["query", "pagerank", "--container", str(container),
                     "--top", "5", "--json"]) == 0
        output = capsys.readouterr().out
        payload = json.loads(output.splitlines()[-1])
        assert payload["num_nodes"] == graph.num_nodes
        assert len(payload["ranking"]) == 5
        ranked = {int(node): score for node, score in payload["ranking"]}
        # The container was packed from the parsed edge list, whose node
        # insertion order need not match the in-memory original; compare
        # against the parse for bit-identity.
        from repro.graphs.io import read_edge_list

        expected = pagerank(read_edge_list(edge_list))
        assert all(expected[node] == score for node, score in ranked.items())
        assert "materialized_graphs=0" in output

    def test_cli_query_through_cache(self, tmp_path, capsys):
        graph = _bridged_caveman()
        edge_list = tmp_path / "graph.txt"
        write_edge_list(graph, edge_list)
        cache_dir = str(tmp_path / "cache")
        for expected_origin in ("miss", "hit"):
            assert main(["query", "bfs", "--input", str(edge_list),
                         "--cache-dir", cache_dir, "--source", "0"]) == 0
            output = capsys.readouterr().out
            assert expected_origin in output
            assert f"reached={len(bfs_order(graph, 0))}" in output
        assert main(["query", "bfs", "--input", str(edge_list),
                     "--cache-dir", cache_dir, "--source", "no-such-node"]) == 1

    def test_service_query_reuses_interned_substrate(self):
        graph = _bridged_caveman()
        with SummaryService() as service:
            service.register_graph("g", graph)
            by_key = service.query("g", "pagerank", top=3)
            by_graph = service.query(graph, "pagerank", top=3)
            assert by_key == by_graph
            expected = sorted(
                pagerank(graph).items(), key=lambda pair: (-pair[1], repr(pair[0]))
            )[:3]
            assert by_key.value["ranking"] == [[node, score] for node, score in expected]
            stats = service.stats()["store"]
            assert stats["misses"] == 1  # one substrate build, shared by both queries
