"""Tests for the summarize-then-compress pipeline codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.query import QUERY_KINDS, run_query
from repro.baselines import randomized_summarize, sweg_summarize
from repro.compression.pipeline import (
    compress_flat_summary,
    compress_graph,
    compress_hierarchical_summary,
    compress_summary,
    compression_report,
    decompress_flat_summary,
    decompress_hierarchical_summary,
)
from repro.core import SluggerConfig, summarize
from repro.exceptions import CompressionError
from repro.graphs import Graph, caveman_graph, complete_graph, erdos_renyi_graph, star_graph
from repro.model.flat import FlatSummary
from repro.model.summary import HierarchicalSummary


def _slugger_summary(graph, seed=0):
    return summarize(graph, SluggerConfig(iterations=5, seed=seed)).summary


class TestCompressGraph:
    def test_round_trip(self):
        graph = caveman_graph(4, 5, 0.1, seed=1)
        compressed = compress_graph(graph, code="delta", ordering="degree")
        assert compressed.decompress() == graph

    def test_bits_per_edge(self):
        graph = complete_graph(6)
        compressed = compress_graph(graph)
        assert compressed.bits_per_edge() == pytest.approx(
            compressed.size_bits() / graph.num_edges
        )


class TestCompressHierarchicalSummary:
    def test_round_trip_represents_same_graph(self):
        graph = caveman_graph(5, 5, 0.1, seed=2)
        summary = _slugger_summary(graph)
        compressed = compress_hierarchical_summary(summary, code="gamma")
        restored = decompress_hierarchical_summary(compressed)
        assert isinstance(restored, HierarchicalSummary)
        assert restored.decompress() == graph
        restored.validate(graph)

    def test_round_trip_preserves_edge_counts(self):
        graph = erdos_renyi_graph(30, 0.15, seed=3)
        summary = _slugger_summary(graph)
        restored = compress_hierarchical_summary(summary).decompress()
        assert restored.num_p_edges == summary.num_p_edges
        assert restored.num_n_edges == summary.num_n_edges
        assert restored.num_h_edges == summary.num_h_edges
        assert restored.cost() == summary.cost()

    def test_trivial_summary_round_trip(self):
        graph = star_graph(6)
        summary = HierarchicalSummary.from_graph(graph)
        restored = compress_hierarchical_summary(summary).decompress()
        assert restored.decompress() == graph

    def test_payload_smaller_than_naive_text(self):
        graph = caveman_graph(6, 6, 0.05, seed=4)
        summary = _slugger_summary(graph)
        compressed = compress_hierarchical_summary(summary)
        # Each superedge/h-edge in a naive listing needs two integers of
        # at least a byte each; the bit encoding should beat that easily.
        naive_bits = 16 * summary.cost()
        assert compressed.size_bits() < naive_bits

    def test_size_bits_matches_metadata(self):
        graph = complete_graph(5)
        summary = _slugger_summary(graph)
        compressed = compress_hierarchical_summary(summary)
        assert compressed.size_bits() == compressed.bit_length
        assert compressed.num_supernodes == len(compressed.supernode_order)

    def test_decoder_detects_truncation(self):
        graph = caveman_graph(3, 4, 0.0, seed=0)
        summary = _slugger_summary(graph)
        compressed = compress_hierarchical_summary(summary)
        compressed.bit_length = max(1, compressed.bit_length // 2)
        with pytest.raises(CompressionError):
            decompress_hierarchical_summary(compressed)

    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=15, deadline=None)
    def test_round_trip_property(self, edges, seed):
        graph = Graph.from_edges(edges)
        summary = _slugger_summary(graph, seed=seed)
        restored = compress_hierarchical_summary(summary).decompress()
        assert restored.decompress() == graph


    @pytest.mark.parametrize("graph", [
        caveman_graph(30, 10, 0.05, seed=1),
        erdos_renyi_graph(400, 0.02, seed=1),
    ], ids=["caveman", "er"])
    def test_rebuilt_summary_answers_every_query_exactly(self, graph):
        # Leaves come back as ids 0..n-1 in graph order, so even
        # pagerank's floating-point sums run in the graph's row order.
        summary = _slugger_summary(graph)
        restored = compress_hierarchical_summary(summary).decompress()
        assert restored.hierarchy.leaf_ids_are_dense()
        for kind in QUERY_KINDS:
            assert run_query(restored, kind, source=0) == \
                run_query(graph, kind, source=0), kind


class TestCompressFlatSummary:
    def test_round_trip_sweg(self):
        graph = caveman_graph(4, 6, 0.1, seed=5)
        summary = sweg_summarize(graph, iterations=5, seed=0)
        restored = compress_flat_summary(summary).decompress()
        assert isinstance(restored, FlatSummary)
        assert restored.decompress() == graph
        restored.validate(graph)

    def test_round_trip_preserves_costs(self):
        graph = erdos_renyi_graph(25, 0.2, seed=6)
        summary = randomized_summarize(graph, seed=1)
        restored = compress_flat_summary(summary, code="delta").decompress()
        assert restored.cost() == summary.cost()
        assert restored.cost_eq11() == summary.cost_eq11()

    def test_singleton_summary_round_trip(self):
        graph = star_graph(5)
        summary = FlatSummary.singletons(graph)
        restored = compress_flat_summary(summary).decompress()
        assert restored.decompress() == graph

    def test_compress_summary_dispatches_by_type(self):
        graph = caveman_graph(3, 4, 0.0, seed=7)
        hierarchical = _slugger_summary(graph)
        flat = sweg_summarize(graph, iterations=3, seed=0)
        assert compress_summary(hierarchical).decompress().decompress() == graph
        assert compress_summary(flat).decompress().decompress() == graph

    def test_compress_summary_rejects_other_types(self):
        with pytest.raises(TypeError):
            compress_summary("not a summary")


class TestCompressionReport:
    def test_report_fields_and_consistency(self):
        graph = caveman_graph(5, 6, 0.05, seed=8)
        summary = _slugger_summary(graph)
        report = compression_report(graph, summary)
        assert report["num_edges"] == graph.num_edges
        assert report["raw_bits"] > 0
        assert report["summary_bits"] > 0
        assert report["pipeline_ratio"] == pytest.approx(
            report["summary_bits"] / report["raw_bits"]
        )

    def test_pipeline_beats_raw_on_highly_compressible_graph(self):
        # A union of cliques is the best case for summarization: one
        # self-looped supernode per clique replaces O(k^2) edges.
        graph = caveman_graph(8, 8, 0.0, seed=9)
        summary = _slugger_summary(graph)
        report = compression_report(graph, summary)
        assert report["pipeline_ratio"] < 1.0

    def test_report_rejects_edgeless_graph(self):
        graph = Graph(nodes=[1, 2])
        summary = HierarchicalSummary.from_graph(graph)
        with pytest.raises(CompressionError):
            compression_report(graph, summary)
