"""Bit-level graph compression: the downstream stage of the summarization pipeline.

The paper (Sect. I) positions lossless summarization as a pre-process
whose outputs "can be further compressed using any graph-compression
techniques".  This subpackage provides that downstream compressor —
WebGraph-style gap-coded adjacency lists with pluggable universal codes
and node orderings — plus codecs for compressing the summaries
themselves, so the benchmark suite can measure end-to-end bits-per-edge
of raw versus summarize-then-compress representations.
"""

from repro.compression.bits import BitReader, BitWriter, bits_to_list
from repro.compression.codes import (
    GapCode,
    available_codes,
    decode_delta,
    decode_gamma,
    decode_rice,
    decode_unary,
    encode_delta,
    encode_gamma,
    encode_rice,
    encode_unary,
    get_code,
    zigzag_decode,
    zigzag_encode,
)
from repro.compression.ordering import (
    available_orderings,
    bfs_ordering,
    compute_ordering,
    degree_ordering,
    invert_ordering,
    natural_ordering,
    ordering_locality,
    shingle_ordering,
)
from repro.compression.adjacency import (
    CompressedAdjacency,
    decode_adjacency,
    encode_adjacency,
)
from repro.compression.pipeline import (
    CompressedFlatSummary,
    CompressedGraph,
    CompressedHierarchicalSummary,
    compress_flat_summary,
    compress_graph,
    compress_hierarchical_summary,
    compress_summary,
    compression_report,
    decompress_flat_summary,
    decompress_hierarchical_summary,
)

__all__ = [
    "BitReader",
    "BitWriter",
    "bits_to_list",
    "GapCode",
    "available_codes",
    "get_code",
    "encode_unary",
    "decode_unary",
    "encode_gamma",
    "decode_gamma",
    "encode_delta",
    "decode_delta",
    "encode_rice",
    "decode_rice",
    "zigzag_encode",
    "zigzag_decode",
    "available_orderings",
    "compute_ordering",
    "natural_ordering",
    "degree_ordering",
    "bfs_ordering",
    "shingle_ordering",
    "invert_ordering",
    "ordering_locality",
    "CompressedAdjacency",
    "encode_adjacency",
    "decode_adjacency",
    "CompressedGraph",
    "CompressedHierarchicalSummary",
    "CompressedFlatSummary",
    "compress_graph",
    "compress_hierarchical_summary",
    "compress_flat_summary",
    "compress_summary",
    "compression_report",
    "decompress_hierarchical_summary",
    "decompress_flat_summary",
]
