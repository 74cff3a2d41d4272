"""End-to-end bit compression of graphs and summaries.

The paper's pitch for lossless summarization is that it is a *front end*
for any graph compressor: the summary's outputs "are three graphs, and
thus they can be further compressed using any graph-compression
techniques" (Sect. I).  This module closes that loop:

* :func:`compress_graph` bit-compresses a raw graph with gap codes;
* :func:`compress_hierarchical_summary` / :func:`compress_flat_summary`
  bit-compress a summary's output graphs (P+, P-, and H, or P, C+, C-,
  and the membership function);
* the matching ``decompress_*`` functions restore the exact original
  objects, keeping the pipeline lossless end to end;
* :func:`compression_report` compares bits-per-edge of the raw graph
  against summarize-then-compress, which is what the compression-pipeline
  bench regenerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Hashable, Iterator, List, Tuple, Union

from repro.compression.adjacency import CompressedAdjacency, decode_adjacency, encode_adjacency
from repro.compression.bits import BitReader, BitWriter
from repro.compression.codes import (
    decode_pair_gaps,
    encode_pair_gaps,
    get_code,
    zigzag_decode,
    zigzag_encode,
)
from repro.exceptions import CompressionError, SummaryInvariantError
from repro.graphs.graph import Graph, canonical_edge
from repro.model.flat import FlatSummary
from repro.model.hierarchy import Hierarchy
from repro.model.summary import HierarchicalSummary
from repro.utils.rng import SeedLike

__all__ = [
    "CompressedFlatSummary",
    "CompressedGraph",
    "CompressedHierarchicalSummary",
    "compress_flat_summary",
    "compress_graph",
    "compress_hierarchical_summary",
    "compress_summary",
    "compression_report",
    "decompress_flat_summary",
    "decompress_hierarchical_summary",
]

Subnode = Hashable
AnySummary = Union[HierarchicalSummary, FlatSummary]


# ----------------------------------------------------------------------
# Integer streams: each payload is one stream of non-negative integers
# (counts, zig-zagged offsets, ``codes.encode_pair_gaps`` pair lists)
# written with one gap code
# ----------------------------------------------------------------------
def _pair_stream(edges, dense_of: Dict) -> List[int]:
    """The pair-gap stream of ``edges`` relabelled through ``dense_of``."""
    return encode_pair_gaps((dense_of[u], dense_of[v]) for u, v in edges)


def _write_stream(code_name: str, stream: List[int]) -> BitWriter:
    """``stream`` written with the named gap code."""
    code = get_code(code_name)
    writer = BitWriter()
    for value in stream:
        code.encode(writer, value)
    return writer


def _read_stream(payload: bytes, bit_length: int, code_name: str) -> Tuple[BitReader, Iterator[int]]:
    """The reader and an endless iterator of its decoded integers."""
    reader = BitReader(payload, bit_length)
    return reader, iter(partial(get_code(code_name).decode, reader), None)


# ----------------------------------------------------------------------
# Raw graphs
# ----------------------------------------------------------------------
@dataclass
class CompressedGraph:
    """A raw graph compressed with gap-coded adjacency lists."""

    adjacency: CompressedAdjacency

    def size_bits(self) -> int:
        """Payload size in bits."""
        return self.adjacency.size_bits()

    def bits_per_edge(self) -> float:
        """Payload bits divided by |E|."""
        return self.adjacency.bits_per_edge()

    def decompress(self) -> Graph:
        """Restore the original graph exactly."""
        return decode_adjacency(self.adjacency)


def compress_graph(
    graph: Graph, code: str = "gamma", ordering: str = "natural", seed: SeedLike = 0
) -> CompressedGraph:
    """Bit-compress a raw graph (the no-summarization baseline of the pipeline bench)."""
    return CompressedGraph(encode_adjacency(graph, code=code, ordering=ordering, seed=seed))


# ----------------------------------------------------------------------
# Hierarchical summaries
# ----------------------------------------------------------------------
@dataclass
class CompressedHierarchicalSummary:
    """A hierarchical summary (S, P+, P-, H) compressed into one bit payload.

    The payload stores, in order: the supernode count, the parent pointer
    of every supernode (densely relabeled), the p-edge pair list, and the
    n-edge pair list.
    ``leaf_subnodes`` maps dense leaf positions back to subnode labels so
    the summary can be reconstructed exactly.
    """

    payload: bytes
    bit_length: int
    code_name: str
    supernode_order: List[int] = field(repr=False)
    leaf_subnodes: Dict[int, Subnode] = field(repr=False)

    @property
    def num_supernodes(self) -> int:
        """Number of supernodes encoded."""
        return len(self.supernode_order)

    def size_bits(self) -> int:
        """Payload size in bits (excluding the subnode-label metadata)."""
        return self.bit_length

    def decompress(self) -> HierarchicalSummary:
        """Restore an equivalent :class:`HierarchicalSummary`."""
        return decompress_hierarchical_summary(self)


def compress_hierarchical_summary(
    summary: HierarchicalSummary, code: str = "gamma"
) -> CompressedHierarchicalSummary:
    """Bit-compress the three output graphs of a hierarchical summary."""
    hierarchy = summary.hierarchy
    supernode_order = sorted(hierarchy.supernodes())
    dense_of = {supernode: index for index, supernode in enumerate(supernode_order)}

    # Parent pointers: zig-zag of (parent_dense - own_dense), 0 marks a root
    # because a supernode can never be its own parent.
    parent_offsets: List[int] = []
    for index, supernode in enumerate(supernode_order):
        parent = hierarchy.parent(supernode)
        parent_offsets.append(0 if parent is None else dense_of[parent] - index)
    writer = _write_stream(code, [len(supernode_order)]
                           + [zigzag_encode(offset) for offset in parent_offsets]
                           + _pair_stream(summary.p_edges(), dense_of)
                           + _pair_stream(summary.n_edges(), dense_of))
    leaf_subnodes = {
        dense_of[supernode]: hierarchy.subnode_of_leaf(supernode)
        for supernode in supernode_order
        if hierarchy.is_leaf(supernode)
    }
    return CompressedHierarchicalSummary(
        payload=writer.to_bytes(),
        bit_length=writer.bit_length,
        code_name=code,
        supernode_order=supernode_order,
        leaf_subnodes=leaf_subnodes,
    )


def decompress_hierarchical_summary(
    compressed: CompressedHierarchicalSummary,
) -> HierarchicalSummary:
    """Rebuild a :class:`HierarchicalSummary` from its compressed form.

    The reconstructed summary represents exactly the same graph (same
    subnodes, same p/n/h structure), which is what the round-trip tests
    verify via ``decompress()`` equality.  Leaves get ids ``0..L-1`` in
    ascending dense index, so a summary whose leaves were ids ``0..n-1``
    in graph order gets the same leaf ids back and queries that walk rows
    in leaf order (pagerank's float sums) match bit for bit.  Internal
    supernodes get ``L..`` in ascending dense index, each with its
    children in ascending dense order; every parent pointer points up.
    """
    reader, values = _read_stream(compressed.payload, compressed.bit_length,
                                  compressed.code_name)
    num_supernodes = next(values)
    parent_offsets = [zigzag_decode(next(values)) for _ in range(num_supernodes)]
    p_pairs, n_pairs = decode_pair_gaps(values), decode_pair_gaps(values)
    if reader.remaining:
        raise CompressionError(f"{reader.remaining} unread bits after decoding the summary")

    children_of: Dict[int, List[int]] = {}
    for index, offset in enumerate(parent_offsets):
        if offset < 0 or index + offset >= num_supernodes:
            raise CompressionError(f"parent pointer of supernode {index} does not point up")
        if offset:
            children_of.setdefault(index + offset, []).append(index)
    leaves = [index for index in range(num_supernodes) if index not in children_of]
    new_id = {index: position for position, index in enumerate(leaves + sorted(children_of))}
    try:
        hierarchy = Hierarchy.from_parts(
            [compressed.leaf_subnodes[index] for index in leaves],
            [(new_id[index], [new_id[child] for child in children])
             for index, children in sorted(children_of.items())])
    except KeyError as error:
        raise CompressionError(f"leaf supernode {error} has no recorded subnode") from None
    except SummaryInvariantError as error:
        raise CompressionError(f"corrupt hierarchy: {error}") from None
    try:
        return HierarchicalSummary.from_parts(hierarchy,
                                              [(new_id[a], new_id[b]) for a, b in p_pairs],
                                              [(new_id[a], new_id[b]) for a, b in n_pairs])
    except (KeyError, SummaryInvariantError) as error:
        raise CompressionError(f"corrupt superedge list: {error}") from None


# ----------------------------------------------------------------------
# Flat summaries
# ----------------------------------------------------------------------
@dataclass
class CompressedFlatSummary:
    """A flat (Navlakha) summary compressed into one bit payload."""

    payload: bytes
    bit_length: int
    code_name: str
    subnode_order: List[Subnode] = field(repr=False)

    def size_bits(self) -> int:
        """Payload size in bits (excluding the subnode-label metadata)."""
        return self.bit_length

    def decompress(self) -> FlatSummary:
        """Restore an equivalent :class:`FlatSummary`."""
        return decompress_flat_summary(self)


def compress_flat_summary(summary: FlatSummary, code: str = "gamma") -> CompressedFlatSummary:
    """Bit-compress a flat summary (group membership, P, C+, C-)."""
    subnode_order = sorted(summary.group_of, key=repr)
    subnode_id = {subnode: index for index, subnode in enumerate(subnode_order)}
    group_order = sorted(summary.groups)
    group_id = {group: index for index, group in enumerate(group_order)}

    writer = _write_stream(code, [len(subnode_order), len(group_order)]
                           + [zigzag_encode(group_id[summary.group_of[subnode]])
                              for subnode in subnode_order]
                           + _pair_stream(summary.superedges, group_id)
                           + _pair_stream(summary.corrections_plus, subnode_id)
                           + _pair_stream(summary.corrections_minus, subnode_id))
    return CompressedFlatSummary(
        payload=writer.to_bytes(),
        bit_length=writer.bit_length,
        code_name=code,
        subnode_order=subnode_order,
    )


def decompress_flat_summary(compressed: CompressedFlatSummary) -> FlatSummary:
    """Rebuild a :class:`FlatSummary` from its compressed form."""
    reader, values = _read_stream(compressed.payload, compressed.bit_length,
                                  compressed.code_name)
    num_subnodes, num_groups = next(values), next(values)
    if num_subnodes != len(compressed.subnode_order):
        raise CompressionError("subnode count does not match the recorded subnode order")
    membership = [zigzag_decode(next(values)) for _ in range(num_subnodes)]
    superedge_pairs, plus_pairs, minus_pairs = [decode_pair_gaps(values) for _ in range(3)]
    if reader.remaining:
        raise CompressionError(f"{reader.remaining} unread bits after decoding the summary")

    summary = FlatSummary()
    members: Dict[int, set] = {index: set() for index in range(num_groups)}
    for subnode, group in zip(compressed.subnode_order, membership):
        if group < 0 or group >= num_groups:
            raise CompressionError(f"membership group {group} out of range")
        members[group].add(subnode)
        summary.group_of[subnode] = group
    for group, nodes in members.items():
        if nodes:
            summary.groups[group] = frozenset(nodes)
    for a, b in superedge_pairs:
        if a not in summary.groups or b not in summary.groups:
            raise CompressionError("superedge references an empty group")
        summary.superedges.add((a, b))

    order = compressed.subnode_order
    if any(b >= num_subnodes for _, b in plus_pairs + minus_pairs):
        raise CompressionError("correction references an unknown subnode")
    summary.corrections_plus.update(canonical_edge(order[a], order[b]) for a, b in plus_pairs)
    summary.corrections_minus.update(canonical_edge(order[a], order[b]) for a, b in minus_pairs)
    return summary


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def compress_summary(summary: AnySummary, code: str = "gamma"):
    """Compress either summary type with the matching codec."""
    if isinstance(summary, HierarchicalSummary):
        return compress_hierarchical_summary(summary, code=code)
    if isinstance(summary, FlatSummary):
        return compress_flat_summary(summary, code=code)
    raise TypeError(f"unsupported summary type {type(summary).__name__}")


def compression_report(
    graph: Graph,
    summary: AnySummary,
    code: str = "gamma",
    ordering: str = "natural",
    seed: SeedLike = 0,
) -> Dict[str, float]:
    """Bits needed for the raw graph versus the summarize-then-compress pipeline.

    Returns a record with the raw payload bits, the summary payload bits,
    their bits-per-edge, and the ratio ``summary_bits / raw_bits`` (lower
    is better for the pipeline), which is the row format of the
    compression-pipeline bench.
    """
    if graph.num_edges == 0:
        raise CompressionError("compression report is undefined for an edgeless graph")
    raw = compress_graph(graph, code=code, ordering=ordering, seed=seed)
    compressed_summary = compress_summary(summary, code=code)
    raw_bits = float(raw.size_bits())
    summary_bits = float(compressed_summary.size_bits())
    return {
        "num_edges": float(graph.num_edges),
        "raw_bits": raw_bits,
        "summary_bits": summary_bits,
        "raw_bits_per_edge": raw_bits / graph.num_edges,
        "summary_bits_per_edge": summary_bits / graph.num_edges,
        "pipeline_ratio": summary_bits / raw_bits if raw_bits else 0.0,
    }
