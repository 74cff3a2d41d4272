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
from typing import Dict, Hashable, List, Sequence, Tuple, Union

from repro.compression.adjacency import CompressedAdjacency, decode_adjacency, encode_adjacency
from repro.compression.bits import BitReader, BitWriter
from repro.compression.codes import get_code, zigzag_decode, zigzag_encode
from repro.exceptions import CompressionError
from repro.graphs.graph import Graph
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
Pair = Tuple[int, int]
AnySummary = Union[HierarchicalSummary, FlatSummary]


# ----------------------------------------------------------------------
# Shared pair-list codec
# ----------------------------------------------------------------------
def _encode_pair_list(writer: BitWriter, code_name: str, pairs: Sequence[Pair]) -> None:
    """Encode a set of canonical ``(a, b)`` integer pairs (``a <= b``, self-pairs allowed)."""
    code = get_code(code_name)
    ordered = sorted(pairs)
    code.encode(writer, len(ordered))
    previous_a = 0
    previous_b = 0
    for a, b in ordered:
        if a > b:
            raise CompressionError(f"pair ({a}, {b}) is not canonical (a <= b expected)")
        delta_a = a - previous_a
        if delta_a < 0:
            raise CompressionError("pairs must be sorted before encoding")
        code.encode(writer, delta_a)
        if delta_a > 0:
            code.encode(writer, b - a)
        else:
            code.encode(writer, b - previous_b if previous_b <= b else 0)
            if previous_b > b:
                raise CompressionError("pairs with equal first element must have increasing second element")
        previous_a, previous_b = a, b


def _decode_pair_list(reader: BitReader, code_name: str) -> List[Pair]:
    """Decode a pair list written by :func:`_encode_pair_list`."""
    code = get_code(code_name)
    count = code.decode(reader)
    pairs: List[Pair] = []
    previous_a = 0
    previous_b = 0
    for _ in range(count):
        delta_a = code.decode(reader)
        a = previous_a + delta_a
        if delta_a > 0:
            b = a + code.decode(reader)
        else:
            b = previous_b + code.decode(reader)
        pairs.append((a, b))
        previous_a, previous_b = a, b
    return pairs


def _encode_int_list(writer: BitWriter, code_name: str, values: Sequence[int]) -> None:
    """Encode a list of (possibly negative) integers with a leading count."""
    code = get_code(code_name)
    code.encode(writer, len(values))
    for value in values:
        code.encode(writer, zigzag_encode(value))


def _decode_int_list(reader: BitReader, code_name: str) -> List[int]:
    """Decode a list written by :func:`_encode_int_list`."""
    code = get_code(code_name)
    count = code.decode(reader)
    return [zigzag_decode(code.decode(reader)) for _ in range(count)]


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

    The payload stores, in order: the parent pointer of every supernode
    (densely relabeled), the p-edge pair list, and the n-edge pair list.
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

    writer = BitWriter()
    gap_code = get_code(code)
    gap_code.encode(writer, len(supernode_order))
    # Parent pointers: zig-zag of (parent_dense - own_dense), 0 marks a root
    # because a supernode can never be its own parent.
    parent_offsets: List[int] = []
    for index, supernode in enumerate(supernode_order):
        parent = hierarchy.parent(supernode)
        parent_offsets.append(0 if parent is None else dense_of[parent] - index)
    _encode_int_list(writer, code, parent_offsets)

    def dense_pairs(edges) -> List[Pair]:
        pairs = []
        for a, b in edges:
            da, db = dense_of[a], dense_of[b]
            pairs.append((da, db) if da <= db else (db, da))
        return pairs

    _encode_pair_list(writer, code, dense_pairs(summary.p_edges()))
    _encode_pair_list(writer, code, dense_pairs(summary.n_edges()))

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
    verify via ``decompress()`` equality.  Leaves keep their relative id
    order (a summary with leaf ids ``0..n-1`` gets them back); internal
    supernodes get fresh ids after them.
    """
    reader = BitReader(compressed.payload, compressed.bit_length)
    gap_code = get_code(compressed.code_name)
    num_supernodes = gap_code.decode(reader)
    parent_offsets = _decode_int_list(reader, compressed.code_name)
    if len(parent_offsets) != num_supernodes:
        raise CompressionError("parent-pointer list length does not match the supernode count")
    p_pairs = _decode_pair_list(reader, compressed.code_name)
    n_pairs = _decode_pair_list(reader, compressed.code_name)
    if reader.remaining:
        raise CompressionError(f"{reader.remaining} unread bits after decoding the summary")

    children_of: Dict[int, List[int]] = {index: [] for index in range(num_supernodes)}
    roots: List[int] = []
    for index, offset in enumerate(parent_offsets):
        if offset == 0:
            roots.append(index)
        else:
            parent = index + offset
            if parent < 0 or parent >= num_supernodes:
                raise CompressionError(f"parent pointer of supernode {index} is out of range")
            children_of[parent].append(index)

    hierarchy = Hierarchy()
    new_id: Dict[int, int] = {}
    # Leaves first, in ascending dense index: a summary whose leaves were
    # ids 0..n-1 in graph order gets the same leaf ids back, so queries
    # that walk rows in leaf order (pagerank's float sums) match bit for
    # bit.  Parents are then built bottom-up over the already-made leaves.
    for dense_index, children in children_of.items():
        if not children:
            if dense_index not in compressed.leaf_subnodes:
                raise CompressionError(f"leaf supernode {dense_index} has no recorded subnode")
            new_id[dense_index] = hierarchy.add_leaf(compressed.leaf_subnodes[dense_index])

    def build(dense_index: int) -> int:
        if dense_index not in new_id:
            new_id[dense_index] = hierarchy.create_parent(
                [build(child) for child in children_of[dense_index]]
            )
        return new_id[dense_index]

    for root in roots:
        build(root)
    if len(new_id) != num_supernodes:
        raise CompressionError("hierarchy reconstruction did not reach every supernode")

    summary = HierarchicalSummary(hierarchy)
    for a, b in p_pairs:
        summary.add_p_edge(new_id[a], new_id[b])
    for a, b in n_pairs:
        summary.add_n_edge(new_id[a], new_id[b])
    return summary


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

    writer = BitWriter()
    gap_code = get_code(code)
    gap_code.encode(writer, len(subnode_order))
    gap_code.encode(writer, len(group_order))
    membership = [group_id[summary.group_of[subnode]] for subnode in subnode_order]
    _encode_int_list(writer, code, membership)

    def canonical_group_pairs(edges) -> List[Pair]:
        pairs = []
        for a, b in edges:
            da, db = group_id[a], group_id[b]
            pairs.append((da, db) if da <= db else (db, da))
        return pairs

    def canonical_subnode_pairs(edges) -> List[Pair]:
        pairs = []
        for u, v in edges:
            du, dv = subnode_id[u], subnode_id[v]
            pairs.append((du, dv) if du <= dv else (dv, du))
        return pairs

    _encode_pair_list(writer, code, canonical_group_pairs(summary.superedges))
    _encode_pair_list(writer, code, canonical_subnode_pairs(summary.corrections_plus))
    _encode_pair_list(writer, code, canonical_subnode_pairs(summary.corrections_minus))
    return CompressedFlatSummary(
        payload=writer.to_bytes(),
        bit_length=writer.bit_length,
        code_name=code,
        subnode_order=subnode_order,
    )


def decompress_flat_summary(compressed: CompressedFlatSummary) -> FlatSummary:
    """Rebuild a :class:`FlatSummary` from its compressed form."""
    reader = BitReader(compressed.payload, compressed.bit_length)
    gap_code = get_code(compressed.code_name)
    num_subnodes = gap_code.decode(reader)
    num_groups = gap_code.decode(reader)
    if num_subnodes != len(compressed.subnode_order):
        raise CompressionError("subnode count does not match the recorded subnode order")
    membership = _decode_int_list(reader, compressed.code_name)
    if len(membership) != num_subnodes:
        raise CompressionError("membership list length does not match the subnode count")
    superedge_pairs = _decode_pair_list(reader, compressed.code_name)
    plus_pairs = _decode_pair_list(reader, compressed.code_name)
    minus_pairs = _decode_pair_list(reader, compressed.code_name)
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

    def to_subnode_pair(pair: Pair) -> Tuple[Subnode, Subnode]:
        u = compressed.subnode_order[pair[0]]
        v = compressed.subnode_order[pair[1]]
        return (u, v) if repr(u) <= repr(v) else (v, u)

    summary.corrections_plus.update(to_subnode_pair(pair) for pair in plus_pairs)
    summary.corrections_minus.update(to_subnode_pair(pair) for pair in minus_pairs)
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
