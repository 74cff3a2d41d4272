"""Tests for the summarize-then-compress pipeline codecs."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.query import QUERY_KINDS, run_query
from repro.baselines import randomized_summarize, sweg_summarize
from repro.compression.bits import BitWriter
from repro.compression.codes import encode_gamma
from repro.compression.pipeline import (
    CompressedFlatSummary,
    CompressedHierarchicalSummary,
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


class TestFlatRoundTripIsExact:
    def test_corrections_keep_their_canonical_orientation(self):
        # Int labels sort numerically, not by repr: (7, 18) must not come
        # back as (18, 7).
        graph = caveman_graph(4, 6, 0.3, seed=1)
        summary = sweg_summarize(graph, iterations=5, seed=0)
        restored = compress_flat_summary(summary).decompress()
        assert restored.corrections_plus == summary.corrections_plus
        assert restored.corrections_minus == summary.corrections_minus
        assert restored.superedges == summary.superedges



def _gamma_payload(values):
    writer = BitWriter()
    for value in values:
        encode_gamma(writer, value)
    return writer.to_bytes(), writer.bit_length


class TestForgedPayloads:
    """Payloads the encoder never writes fail with CompressionError only."""

    def _one_leaf(self, stream):
        payload, bits = _gamma_payload(stream)
        return CompressedHierarchicalSummary(payload, bits, "gamma", [0], {0: "a"})

    def test_superedge_to_unknown_supernode(self):
        # One root leaf; P = {(0, 5)}; N empty.
        with pytest.raises(CompressionError, match="superedge"):
            self._one_leaf([1, 0, 1, 0, 5, 0]).decompress()

    def test_repeated_pair(self):
        with pytest.raises(CompressionError, match="repeated"):
            self._one_leaf([1, 0, 2, 0, 0, 0, 0, 0]).decompress()

    def test_forged_count_fails_at_the_end_of_the_payload(self):
        with pytest.raises(CompressionError):
            self._one_leaf([1, 0, 2**40, 0, 0]).decompress()

    def test_correction_to_unknown_subnode(self):
        # Two subnodes in one group; C+ = {(0, 2)}.
        payload, bits = _gamma_payload([2, 1, 0, 0, 0, 1, 0, 2, 0])
        with pytest.raises(CompressionError, match="unknown subnode"):
            CompressedFlatSummary(payload, bits, "gamma", ["a", "b"]).decompress()


#: sha256 of the pipeline payloads on small fixtures.  The pair lists go
#: through the shared ``codes.encode_pair_gaps`` stream, and each payload
#: writes its supernode (or subnode) count once, ahead of the parent
#: pointers (or memberships); any change to the payload layout moves
#: these digests.
PAYLOAD_PINS = {
    ("caveman", "hierarchical", "gamma"):
        "d52244a33c8841ab436cce37ca6bed03475ee10cec949058b82d76900b4483cd",
    ("caveman", "flat", "gamma"):
        "b7828b410cc16c47f1768112a97a575d6f689265ef59fb2efcdf3f01df1797d9",
    ("caveman", "hierarchical", "delta"):
        "bf1de87cb046c68d8f3c2fe6ada8dbf4c4db9062698a8650b149619e2ccbdcc9",
    ("caveman", "flat", "delta"):
        "6d5745b25eb6e392be11093d90fdafc91023623135cbc7e80d8d4188f592c992",
    ("caveman", "hierarchical", "rice2"):
        "56cf5c4abfb61020ff5df60701b0c835a6413e568b541c1db1add8f5e02c1717",
    ("caveman", "flat", "rice2"):
        "7b1a7e904d2527d4b14d6967f110397766beb30bf48bdb1a110c0aa1637a4013",
    ("er", "hierarchical", "gamma"):
        "6fdd948d57ca26af41432462e58c7d263c751c8eeeb3245307b9e6079cb58413",
    ("er", "flat", "gamma"):
        "f003ca2fd9e4f11144a4c22ef92a3dee35a2ed4bb97813faa12e9eb79c6fe6b2",
}

PIN_GRAPHS = {
    "caveman": lambda: caveman_graph(4, 6, 0.3, seed=1),
    "er": lambda: erdos_renyi_graph(40, 0.15, seed=3),
}


@pytest.mark.parametrize("graph_name, kind, code", sorted(PAYLOAD_PINS))
def test_payload_pins(graph_name, kind, code):
    graph = PIN_GRAPHS[graph_name]()
    if kind == "hierarchical":
        compressed = compress_hierarchical_summary(_slugger_summary(graph), code=code)
    else:
        compressed = compress_flat_summary(sweg_summarize(graph, iterations=5, seed=0), code=code)
    digest = hashlib.sha256(compressed.payload).hexdigest()
    assert digest == PAYLOAD_PINS[(graph_name, kind, code)]
    assert compressed.decompress().decompress() == graph


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
