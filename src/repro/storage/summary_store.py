"""Summary persistence: ``SUMM`` sections, result cache, and checkpoints.

This module is the persistence layer for the *expensive* artifact — the
summary itself.  Three pieces:

* **Section codecs** — :class:`HierarchicalSummary` / :class:`FlatSummary`
  serialize to a checksummed ``SUMM`` section family inside the ordinary
  ``SLGRPH`` container, alongside (or, for checkpoints, instead of) the
  CSR sections:

  ======  ==========================================================
  tag     payload
  ======  ==========================================================
  SMET    summary metadata: kind, method, seed, graph/config digests
  SHIE    hierarchy: leaf count + internal ``(id, children)`` records
  SPED    positive superedges (sorted canonical id pairs)
  SNED    negative superedges (sorted canonical id pairs)
  SGRP    flat grouping: group ids + ``group_of`` entries, dict order
  SSED    flat superedges (sorted canonical group-id pairs)
  SCRP    flat ``C+`` corrections (sorted canonical node-id pairs)
  SCRN    flat ``C-`` corrections (sorted canonical node-id pairs)
  CKPT    resumable-job state: iteration, RNG stream position, history
  ======  ==========================================================

  Every integer is varint-encoded; pair lists are sorted and
  delta-encoded on the first coordinate, so the encoding is canonical:
  equal summaries yield byte-identical sections, which is what makes
  the cache key a true content address.

  Order preservation is the subtle part.  ``SHIE`` keeps each internal
  supernode's children list **verbatim** and emits internal records in
  ascending id order; :meth:`Hierarchy.from_parts` then reproduces the
  original insertion order of every internal mapping, so a decoded
  hierarchy iterates (``roots()`` etc.) exactly like the one that was
  encoded — the property that keeps resumed runs bit-identical.
  ``SGRP`` likewise records both dict orders of a flat summary (the
  group-id order and the ``group_of`` entry order) because the serving
  layer derives its node numbering from ``group_of`` insertion order.

* **Containers** — :func:`encode_summary_container` appends the family
  to a full CSR container (``FLAG_SUMMARY``): one self-contained file
  that serves queries off the mmap *and* yields the summary with zero
  recompute.  :func:`encode_checkpoint_container` writes a CSR-less
  variant (``FLAG_SUMMARY | FLAG_NO_CSR``) holding the summary snapshot
  plus a ``CKPT`` section; leaves are rebuilt from the live graph at
  restore time, with the ``SMET`` graph digest guarding mismatches.

* **SummaryCache** — a flat content-addressed directory like
  :class:`~repro.storage.cache.GraphCache`, keyed by
  ``sha256(graph digest, method, seed, config digest)``, with
  LRU-by-mtime eviction under an optional size budget.  Checkpoints
  live next to their summary as ``<key>.ckpt.slg`` and are dropped
  once the finished summary lands.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.compression.codes import zigzag_decode, zigzag_encode
from repro.exceptions import (
    ConfigurationError,
    ContainerFormatError,
    SummaryInvariantError,
)
from repro.graphs.graph import canonical_edge
from repro.model.flat import FlatSummary
from repro.model.hierarchy import Hierarchy
from repro.model.summary import HierarchicalSummary
from repro.storage.format import (
    CONTAINER_SUFFIX,
    FLAG_NO_CSR,
    FLAG_SUMMARY,
    ContainerInfo,
    SectionInfo,
    decode_varint,
    encode_container,
    encode_image,
    encode_varint,
    index_width_for,
    read_container_info,
    write_container_image,
)
from repro.storage.mapped import StoredGraph, load as load_stored_graph

__all__ = [
    "CHECKPOINT_SUFFIX",
    "SummaryCache",
    "SummaryCheckpoint",
    "SummaryMeta",
    "StoredSummary",
    "config_fingerprint",
    "decode_summary_sections",
    "encode_checkpoint_container",
    "encode_summary_container",
    "encode_summary_sections",
    "load_checkpoint",
    "load_summary",
    "read_summary_meta",
    "summary_fingerprint",
    "summary_key",
]

PathLike = Union[str, Path]

SUMMARY_FORMAT_VERSION = 1
CHECKPOINT_FORMAT_VERSION = 1

TAG_SUMMARY_META = b"SMET"
TAG_SUMMARY_HIERARCHY = b"SHIE"
TAG_SUMMARY_P_EDGES = b"SPED"
TAG_SUMMARY_N_EDGES = b"SNED"
TAG_SUMMARY_GROUPS = b"SGRP"
TAG_SUMMARY_SUPEREDGES = b"SSED"
TAG_SUMMARY_CORR_PLUS = b"SCRP"
TAG_SUMMARY_CORR_MINUS = b"SCRN"
TAG_CHECKPOINT = b"CKPT"

SUMMARY_SECTION_TAGS = (
    TAG_SUMMARY_META,
    TAG_SUMMARY_HIERARCHY,
    TAG_SUMMARY_P_EDGES,
    TAG_SUMMARY_N_EDGES,
    TAG_SUMMARY_GROUPS,
    TAG_SUMMARY_SUPEREDGES,
    TAG_SUMMARY_CORR_PLUS,
    TAG_SUMMARY_CORR_MINUS,
    TAG_CHECKPOINT,
)

_KIND_HIERARCHICAL = 0
_KIND_FLAT = 1

CHECKPOINT_SUFFIX = ".ckpt" + CONTAINER_SUFFIX

_DOUBLE = struct.Struct("<d")
_DIGEST_BYTES = 32


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
def config_fingerprint(method: str, options: Optional[Dict[str, Any]] = None) -> Tuple[str, str]:
    """``(digest, canonical_json)`` of a summarizer configuration.

    For the ``slugger`` method the options are resolved through
    :class:`~repro.core.config.SluggerConfig` first, so ``{}`` and an
    explicit ``{"iterations": 20}`` (the default) produce the *same*
    fingerprint — equal effective configs share one cache slot.  The
    seed is keyed separately and never part of the config digest.
    """
    payload: Dict[str, Any] = dict(options or {})
    payload.pop("seed", None)
    if method == "slugger":
        from dataclasses import asdict

        from repro.core.config import SluggerConfig

        payload = asdict(SluggerConfig(**payload))
        payload.pop("seed", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return digest, canonical


def summary_key(graph_digest: str, method: str, seed: Optional[int],
                config_digest: str) -> str:
    """The content address of one summarization result.

    Equal ``(graph digest, method, seed, config digest)`` tuples map to
    the same key — and, because every summarizer is deterministic for a
    fixed seed, to byte-identical summary containers.
    """
    blob = json.dumps(
        [graph_digest, method, seed, config_digest],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Metadata
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SummaryMeta:
    """The ``SMET`` payload: what was summarized, how, and under what key."""

    kind: str
    method: str
    seed: Optional[int]
    graph_digest: str
    config_digest: str
    config_json: str
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return summary_key(self.graph_digest, self.method, self.seed, self.config_digest)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "method": self.method,
            "seed": self.seed,
            "graph_digest": self.graph_digest,
            "config_digest": self.config_digest,
            "config": json.loads(self.config_json) if self.config_json else {},
            "key": self.key,
        }


def _encode_blob(data: bytes, out: bytearray) -> None:
    encode_varint(len(data), out)
    out += data


def _read_blob(data: bytes, position: int) -> Tuple[bytes, int]:
    length, position = decode_varint(data, position)
    end = position + length
    if end > len(data):
        raise ContainerFormatError("truncated byte string in summary section")
    return data[position:end], end


def _read_digest(data: bytes, position: int) -> Tuple[str, int]:
    end = position + _DIGEST_BYTES
    if end > len(data):
        raise ContainerFormatError("truncated digest in summary metadata")
    return data[position:end].hex(), end


def _encode_meta(meta: SummaryMeta) -> bytes:
    out = bytearray()
    encode_varint(SUMMARY_FORMAT_VERSION, out)
    out.append(_KIND_HIERARCHICAL if meta.kind == "hierarchical" else _KIND_FLAT)
    _encode_blob(meta.method.encode("utf-8"), out)
    if meta.seed is None:
        out.append(0)
    else:
        out.append(1)
        encode_varint(zigzag_encode(meta.seed), out)
    out += bytes.fromhex(meta.graph_digest or "0" * 64)
    out += bytes.fromhex(meta.config_digest or "0" * 64)
    _encode_blob(meta.config_json.encode("utf-8"), out)
    extra = json.dumps(meta.extra, sort_keys=True, separators=(",", ":"))
    _encode_blob(extra.encode("utf-8"), out)
    return bytes(out)


def _decode_meta(data: bytes) -> SummaryMeta:
    version, pos = decode_varint(data, 0)
    if version != SUMMARY_FORMAT_VERSION:
        raise ContainerFormatError(
            f"unsupported summary section version {version} "
            f"(this build reads version {SUMMARY_FORMAT_VERSION})"
        )
    if pos >= len(data):
        raise ContainerFormatError("truncated summary metadata section")
    kind_byte = data[pos]
    pos += 1
    if kind_byte not in (_KIND_HIERARCHICAL, _KIND_FLAT):
        raise ContainerFormatError(f"unknown summary kind byte {kind_byte}")
    method_bytes, pos = _read_blob(data, pos)
    if pos >= len(data):
        raise ContainerFormatError("truncated summary metadata section")
    seed_flag = data[pos]
    pos += 1
    seed: Optional[int] = None
    if seed_flag:
        raw, pos = decode_varint(data, pos)
        seed = zigzag_decode(raw)
    graph_digest, pos = _read_digest(data, pos)
    config_digest, pos = _read_digest(data, pos)
    config_bytes, pos = _read_blob(data, pos)
    extra_bytes, pos = _read_blob(data, pos)
    if pos != len(data):
        raise ContainerFormatError("trailing bytes after summary metadata")
    try:  # UnicodeDecodeError and JSONDecodeError are both ValueErrors.
        method = method_bytes.decode("utf-8")
        config_json = config_bytes.decode("utf-8")
        extra = json.loads(extra_bytes.decode("utf-8")) if extra_bytes else {}
    except ValueError as error:
        raise ContainerFormatError(f"corrupt summary metadata: {error}") from None
    return SummaryMeta(
        kind="hierarchical" if kind_byte == _KIND_HIERARCHICAL else "flat",
        method=method,
        seed=seed,
        graph_digest=graph_digest,
        config_digest=config_digest,
        config_json=config_json,
        extra=extra,
    )


# ----------------------------------------------------------------------
# Pair-list codec (shared by SPED/SNED/SSED/SCRP/SCRN)
# ----------------------------------------------------------------------
def _encode_id_pairs(pairs: Iterable[Tuple[int, int]]) -> bytes:
    """Sorted canonical pairs, delta-varint first coordinate, raw second."""
    ordered = sorted(pairs)
    out = bytearray()
    encode_varint(len(ordered), out)
    previous = 0
    for a, b in ordered:
        encode_varint(a - previous, out)
        encode_varint(b, out)
        previous = a
    return bytes(out)


def _decode_id_pairs(data: bytes) -> List[Tuple[int, int]]:
    count, pos = decode_varint(data, 0)
    pairs: List[Tuple[int, int]] = []
    previous = 0
    for _ in range(count):
        delta, pos = decode_varint(data, pos)
        second, pos = decode_varint(data, pos)
        previous += delta
        pairs.append((previous, second))
    if pos != len(data):
        raise ContainerFormatError("trailing bytes after superedge pair list")
    return pairs


# ----------------------------------------------------------------------
# Hierarchical codec
# ----------------------------------------------------------------------
def _encode_hierarchy(hierarchy: Hierarchy) -> bytes:
    num_leaves = len(hierarchy.leaf_subnode_map())
    internal = [
        node for node in hierarchy.supernodes() if not hierarchy.is_leaf(node)
    ]
    internal.sort()
    out = bytearray()
    encode_varint(num_leaves, out)
    encode_varint(hierarchy._next_id, out)
    encode_varint(len(internal), out)
    previous = num_leaves
    for node_id in internal:
        encode_varint(node_id - previous, out)
        children = hierarchy.children(node_id)
        encode_varint(len(children), out)
        for child in children:
            encode_varint(child, out)
        previous = node_id
    return bytes(out)


def _decode_hierarchy(data: bytes, subnodes: Sequence) -> Hierarchy:
    num_leaves, pos = decode_varint(data, 0)
    next_id, pos = decode_varint(data, pos)
    num_internal, pos = decode_varint(data, pos)
    if num_leaves != len(subnodes):
        raise ContainerFormatError(
            f"summary hierarchy holds {num_leaves} leaves but the container "
            f"provides {len(subnodes)} node labels"
        )
    internal: List[Tuple[int, List[int]]] = []
    previous = num_leaves
    for _ in range(num_internal):
        delta, pos = decode_varint(data, pos)
        node_id = previous + delta
        child_count, pos = decode_varint(data, pos)
        children: List[int] = []
        for _ in range(child_count):
            child, pos = decode_varint(data, pos)
            children.append(child)
        internal.append((node_id, children))
        previous = node_id
    if pos != len(data):
        raise ContainerFormatError("trailing bytes after summary hierarchy")
    try:
        return Hierarchy.from_parts(subnodes, internal, next_id=next_id)
    except SummaryInvariantError as error:
        raise ContainerFormatError(f"corrupt summary hierarchy: {error}") from None


def _hierarchical_sections(summary: HierarchicalSummary) -> List[Tuple[bytes, bytes]]:
    return [
        (TAG_SUMMARY_HIERARCHY, _encode_hierarchy(summary.hierarchy)),
        (TAG_SUMMARY_P_EDGES, _encode_id_pairs(summary.p_edges())),
        (TAG_SUMMARY_N_EDGES, _encode_id_pairs(summary.n_edges())),
    ]


def _decode_hierarchical(payloads: Dict[bytes, bytes], subnodes: Sequence) -> HierarchicalSummary:
    hierarchy = _decode_hierarchy(payloads[TAG_SUMMARY_HIERARCHY], subnodes)
    summary = HierarchicalSummary(hierarchy)
    try:
        for a, b in _decode_id_pairs(payloads[TAG_SUMMARY_P_EDGES]):
            summary.add_p_edge(a, b)
        for a, b in _decode_id_pairs(payloads[TAG_SUMMARY_N_EDGES]):
            summary.add_n_edge(a, b)
    except (SummaryInvariantError, KeyError) as error:
        raise ContainerFormatError(f"corrupt summary superedges: {error}") from None
    return summary


# ----------------------------------------------------------------------
# Flat codec
# ----------------------------------------------------------------------
def _encode_flat(summary: FlatSummary, node_ids: Dict[Any, int]) -> List[Tuple[bytes, bytes]]:
    groups = bytearray()
    encode_varint(len(summary.groups), groups)
    for gid in summary.groups:
        encode_varint(gid, groups)
    encode_varint(len(summary.group_of), groups)
    for node, gid in summary.group_of.items():
        encode_varint(node_ids[node], groups)
        encode_varint(gid, groups)

    def correction_pairs(corrections):
        for u, v in corrections:
            iu, iv = node_ids[u], node_ids[v]
            yield (iu, iv) if iu <= iv else (iv, iu)

    return [
        (TAG_SUMMARY_GROUPS, bytes(groups)),
        (TAG_SUMMARY_SUPEREDGES, _encode_id_pairs(summary.superedges)),
        (TAG_SUMMARY_CORR_PLUS, _encode_id_pairs(correction_pairs(summary.corrections_plus))),
        (TAG_SUMMARY_CORR_MINUS, _encode_id_pairs(correction_pairs(summary.corrections_minus))),
    ]


def _decode_flat(payloads: Dict[bytes, bytes], labels: Sequence) -> FlatSummary:
    data = payloads[TAG_SUMMARY_GROUPS]
    num_groups, pos = decode_varint(data, 0)
    gid_order: List[int] = []
    for _ in range(num_groups):
        gid, pos = decode_varint(data, pos)
        gid_order.append(gid)
    num_entries, pos = decode_varint(data, pos)
    entries: List[Tuple[int, int]] = []
    for _ in range(num_entries):
        node_id, pos = decode_varint(data, pos)
        gid, pos = decode_varint(data, pos)
        entries.append((node_id, gid))
    if pos != len(data):
        raise ContainerFormatError("trailing bytes after flat summary grouping")

    summary = FlatSummary()
    members: Dict[int, List] = {gid: [] for gid in gid_order}
    num_labels = len(labels)
    for node_id, gid in entries:
        if node_id >= num_labels or gid not in members:
            raise ContainerFormatError(
                f"flat summary entry ({node_id}, {gid}) references an unknown "
                f"node or group"
            )
        node = labels[node_id]
        summary.group_of[node] = gid
        members[gid].append(node)
    for gid in gid_order:
        summary.groups[gid] = frozenset(members[gid])
    summary.superedges = set(_decode_id_pairs(payloads[TAG_SUMMARY_SUPEREDGES]))
    for tag, target in (
        (TAG_SUMMARY_CORR_PLUS, summary.corrections_plus),
        (TAG_SUMMARY_CORR_MINUS, summary.corrections_minus),
    ):
        for u, v in _decode_id_pairs(payloads[tag]):
            if u >= num_labels or v >= num_labels:
                raise ContainerFormatError(
                    f"flat summary correction ({u}, {v}) references an unknown node"
                )
            target.add(canonical_edge(labels[u], labels[v]))
    return summary


# ----------------------------------------------------------------------
# Section assembly / disassembly
# ----------------------------------------------------------------------
def encode_summary_sections(summary, meta: SummaryMeta,
                            labels: Optional[Sequence] = None) -> List[Tuple[bytes, bytes]]:
    """The ``SUMM`` section family for ``summary`` (``SMET`` first).

    ``labels`` supplies the container's node order for flat summaries,
    whose members are label-keyed; hierarchical summaries are id-native
    and ignore it.
    """
    sections = [(TAG_SUMMARY_META, _encode_meta(meta))]
    if isinstance(summary, HierarchicalSummary):
        sections.extend(_hierarchical_sections(summary))
    elif isinstance(summary, FlatSummary):
        if labels is None:
            raise SummaryInvariantError(
                "flat summaries serialize against the container's node labels"
            )
        node_ids = {label: position for position, label in enumerate(labels)}
        sections.extend(_encode_flat(summary, node_ids))
    else:
        raise SummaryInvariantError(
            f"cannot serialize summary of type {type(summary).__name__}"
        )
    return sections


def decode_summary_sections(payloads: Dict[bytes, bytes], labels: Sequence):
    """``(meta, summary)`` from a tag → payload mapping.

    ``labels`` is the container's node label list; hierarchical leaves
    and flat members are rebuilt against it.
    """
    if TAG_SUMMARY_META not in payloads:
        raise ContainerFormatError("summary container is missing its SMET section")
    meta = _decode_meta(payloads[TAG_SUMMARY_META])
    required = (
        (TAG_SUMMARY_HIERARCHY, TAG_SUMMARY_P_EDGES, TAG_SUMMARY_N_EDGES)
        if meta.kind == "hierarchical"
        else (TAG_SUMMARY_GROUPS, TAG_SUMMARY_SUPEREDGES,
              TAG_SUMMARY_CORR_PLUS, TAG_SUMMARY_CORR_MINUS)
    )
    for tag in required:
        if tag not in payloads:
            raise ContainerFormatError(
                f"summary container is missing its {tag.decode('ascii')} section"
            )
    if meta.kind == "hierarchical":
        summary = _decode_hierarchical(payloads, labels)
    else:
        summary = _decode_flat(payloads, labels)
    return meta, summary


def summary_fingerprint(summary, labels: Optional[Sequence] = None) -> str:
    """SHA-256 over the canonical section encoding of ``summary``.

    The bit-identity yardstick used by the resume and warm-start tests:
    two summaries fingerprint equal iff their canonical serializations
    are byte-identical.
    """
    placeholder = SummaryMeta(
        kind="hierarchical" if isinstance(summary, HierarchicalSummary) else "flat",
        method="", seed=None, graph_digest="0" * 64, config_digest="0" * 64,
        config_json="",
    )
    digest = hashlib.sha256()
    for tag, payload in encode_summary_sections(summary, placeholder, labels)[1:]:
        digest.update(tag)
        digest.update(payload)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Containers
# ----------------------------------------------------------------------
def encode_summary_container(csr, summary, meta: SummaryMeta) -> bytes:
    """One self-contained container: CSR sections + the ``SUMM`` family."""
    sections = encode_summary_sections(summary, meta, csr.index.labels())
    return encode_container(csr, extra_sections=sections, extra_flags=FLAG_SUMMARY)


def _encode_rng_state(rng_state) -> bytes:
    version, internal, gauss = rng_state
    out = bytearray()
    encode_varint(version, out)
    encode_varint(len(internal), out)
    for word in internal:
        encode_varint(word, out)
    if gauss is None:
        out.append(0)
    else:
        out.append(1)
        out += _DOUBLE.pack(gauss)
    return bytes(out)


def _decode_rng_state(data: bytes, pos: int):
    version, pos = decode_varint(data, pos)
    count, pos = decode_varint(data, pos)
    internal: List[int] = []
    for _ in range(count):
        word, pos = decode_varint(data, pos)
        internal.append(word)
    if pos >= len(data):
        raise ContainerFormatError("truncated RNG state in checkpoint section")
    flag = data[pos]
    pos += 1
    gauss = None
    if flag:
        end = pos + _DOUBLE.size
        if end > len(data):
            raise ContainerFormatError("truncated RNG state in checkpoint section")
        gauss = _DOUBLE.unpack_from(data, pos)[0]
        pos = end
    return (version, tuple(internal), gauss), pos


def _encode_checkpoint_section(iteration: int, rng_state, history: Sequence[Dict]) -> bytes:
    out = bytearray()
    encode_varint(CHECKPOINT_FORMAT_VERSION, out)
    encode_varint(iteration, out)
    out += _encode_rng_state(rng_state)
    blob = json.dumps(list(history), sort_keys=True, separators=(",", ":"))
    _encode_blob(blob.encode("utf-8"), out)
    return bytes(out)


def _decode_checkpoint_section(data: bytes):
    version, pos = decode_varint(data, 0)
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ContainerFormatError(
            f"unsupported checkpoint section version {version} "
            f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
        )
    iteration, pos = decode_varint(data, pos)
    rng_state, pos = _decode_rng_state(data, pos)
    blob, pos = _read_blob(data, pos)
    if pos != len(data):
        raise ContainerFormatError("trailing bytes after checkpoint section")
    try:
        history = json.loads(blob.decode("utf-8")) if blob else []
    except ValueError as error:
        raise ContainerFormatError(f"corrupt checkpoint history JSON: {error}") from None
    return iteration, rng_state, history


def encode_checkpoint_container(summary: HierarchicalSummary, meta: SummaryMeta,
                                iteration: int, rng_state,
                                history: Sequence[Dict]) -> bytes:
    """A CSR-less checkpoint container (``FLAG_SUMMARY | FLAG_NO_CSR``).

    Holds the iteration-boundary summary snapshot plus the RNG stream
    position and history so far.  Node labels are *not* stored — leaves
    are rebuilt from the live graph at restore time, and the ``SMET``
    graph digest guards against restoring onto the wrong graph.
    """
    if not isinstance(summary, HierarchicalSummary):
        raise SummaryInvariantError("checkpoints snapshot hierarchical summaries only")
    sections = [(TAG_SUMMARY_META, _encode_meta(meta))]
    sections.extend(_hierarchical_sections(summary))
    sections.append(
        (TAG_CHECKPOINT, _encode_checkpoint_section(iteration, rng_state, history))
    )
    num_leaves = len(summary.hierarchy.leaf_subnode_map())
    return encode_image(
        FLAG_SUMMARY | FLAG_NO_CSR, num_leaves, 0,
        index_width_for(num_leaves), sections,
    )


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def _summary_payloads(path: PathLike, info: ContainerInfo) -> Dict[bytes, bytes]:
    """Read and CRC-check every ``SUMM``-family section of a container.

    Seeks straight to the section offsets, so the (potentially large)
    CSR payloads are never pulled off disk.
    """
    wanted: List[Tuple[bytes, SectionInfo]] = []
    for tag in SUMMARY_SECTION_TAGS:
        entry = info.maybe_section(tag)
        if entry is not None:
            wanted.append((tag, entry))
    payloads: Dict[bytes, bytes] = {}
    try:
        with open(path, "rb") as handle:
            for tag, entry in wanted:
                handle.seek(entry.offset)
                payload = handle.read(entry.length)
                if len(payload) != entry.length:
                    raise ContainerFormatError(
                        f"{path}: truncated {entry.tag} section"
                    )
                actual = zlib.crc32(payload)
                if actual != entry.crc32:
                    raise ContainerFormatError(
                        f"{path}: section {entry.tag!r} checksum mismatch "
                        f"(stored {entry.crc32:#010x}, computed {actual:#010x}); "
                        f"the container is corrupted"
                    )
                payloads[tag] = payload
    except OSError as error:
        raise ContainerFormatError(f"{path}: cannot read container: {error}") from None
    return payloads


class StoredSummary:
    """A summary container opened for serving.

    Bundles the mmap-backed :class:`StoredGraph` (queries run zero-copy
    off the CSR sections) with the decoded summary and its metadata.
    Close it when done; the summary and meta survive closing.
    """

    def __init__(self, path: PathLike, stored: Optional[StoredGraph],
                 meta: SummaryMeta, summary) -> None:
        self.path = str(path)
        self.stored = stored
        self.meta = meta
        self.summary = summary

    @property
    def info(self) -> Optional[ContainerInfo]:
        return self.stored.info if self.stored is not None else None

    def fingerprint(self) -> str:
        labels = None
        if self.stored is not None:
            labels = self.stored.csr().index.labels()
        return summary_fingerprint(self.summary, labels)

    def close(self) -> None:
        if self.stored is not None:
            self.stored.close()

    def __enter__(self) -> "StoredSummary":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"StoredSummary(path={self.path!r}, kind={self.meta.kind!r}, "
            f"method={self.meta.method!r}, seed={self.meta.seed!r})"
        )


def load_summary(path: PathLike, verify: bool = True) -> StoredSummary:
    """Open a summary-bearing container: mmap CSR + decoded summary."""
    info = read_container_info(path, verify=False)
    if not info.has_summary:
        raise ContainerFormatError(
            f"{path}: container carries no summary sections; "
            f"use repro.storage.load for plain graph containers"
        )
    if not info.has_csr:
        raise ContainerFormatError(
            f"{path}: CSR-less checkpoint containers are restored through "
            f"load_checkpoint, not load_summary"
        )
    payloads = _summary_payloads(path, info)
    stored = load_stored_graph(path, verify=verify)
    try:
        labels = stored.csr().index.labels()
        meta, summary = decode_summary_sections(payloads, labels)
    except Exception:
        stored.close()
        raise
    return StoredSummary(path, stored, meta, summary)


@dataclass
class SummaryCheckpoint:
    """A restored iteration-boundary snapshot of an interrupted run."""

    path: str
    meta: SummaryMeta
    summary: HierarchicalSummary
    iteration: int
    rng_state: Tuple
    history: List[Dict]


def load_checkpoint(path: PathLike, subnodes: Sequence,
                    graph_digest: Optional[str] = None) -> SummaryCheckpoint:
    """Restore a checkpoint container against the live graph's node list.

    ``subnodes`` must be the graph's nodes in insertion order (the order
    the original run numbered its leaves); ``graph_digest``, when given,
    is checked against the checkpoint's ``SMET`` digest so a checkpoint
    can never silently resume onto a different graph.  Checkpoints are
    taken before pruning, where every merge tree is binary, so a
    hierarchy with an internal supernode that does not have exactly two
    children is rejected as corrupt (the local encoder relies on binary
    trees when the run resumes).
    """
    info = read_container_info(path, verify=False)
    if not info.has_summary or info.maybe_section(TAG_CHECKPOINT) is None:
        raise ContainerFormatError(f"{path}: not a checkpoint container")
    payloads = _summary_payloads(path, info)
    meta, summary = decode_summary_sections(payloads, list(subnodes))
    if meta.kind != "hierarchical":
        raise ContainerFormatError(f"{path}: checkpoints are hierarchical-only")
    hierarchy = summary.hierarchy
    for node in hierarchy.supernodes():
        if not hierarchy.is_leaf(node) and len(hierarchy.children(node)) != 2:
            raise ContainerFormatError(
                f"{path}: checkpoint supernode {node} has "
                f"{len(hierarchy.children(node))} children; merge trees are binary"
            )
    if graph_digest is not None and meta.graph_digest != graph_digest:
        raise ContainerFormatError(
            f"{path}: checkpoint was taken on graph {meta.graph_digest[:12]}..., "
            f"refusing to resume onto graph {graph_digest[:12]}..."
        )
    iteration, rng_state, history = _decode_checkpoint_section(payloads[TAG_CHECKPOINT])
    return SummaryCheckpoint(
        path=str(path), meta=meta, summary=summary,
        iteration=iteration, rng_state=rng_state, history=history,
    )


def read_summary_meta(path: PathLike,
                      info: Optional[ContainerInfo] = None) -> SummaryMeta:
    """Read just the ``SMET`` metadata of a summary-bearing container.

    Cheap enough for ``inspect``: only the metadata section is pulled
    off disk (and CRC-checked) — the hierarchy, edge lists, and CSR
    payloads stay untouched.  Works on full summary containers and on
    CSR-less checkpoint containers alike.
    """
    if info is None:
        info = read_container_info(path, verify=False)
    entry = info.maybe_section(TAG_SUMMARY_META)
    if not info.has_summary or entry is None:
        raise ContainerFormatError(f"{path}: container carries no summary metadata")
    try:
        with open(path, "rb") as handle:
            handle.seek(entry.offset)
            payload = handle.read(entry.length)
    except OSError as error:
        raise ContainerFormatError(f"{path}: cannot read container: {error}") from None
    if len(payload) != entry.length:
        raise ContainerFormatError(f"{path}: truncated SMET section")
    actual = zlib.crc32(payload)
    if actual != entry.crc32:
        raise ContainerFormatError(
            f"{path}: section b'SMET' checksum mismatch "
            f"(stored {entry.crc32:#010x}, computed {actual:#010x}); "
            f"the container is corrupted"
        )
    return _decode_meta(payload)


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class SummaryCache:
    """A flat content-addressed directory of summary containers.

    Finished summaries live as ``<key>.slg``; in-flight checkpoints as
    ``<key>.ckpt.slg`` next to them.  ``budget_bytes`` caps the total
    size: after every store, least-recently-touched files are evicted
    (LRU by mtime) until the directory fits.  Loads touch the file's
    mtime, so warm entries survive eviction pressure.
    """

    def __init__(self, directory: PathLike, budget_bytes: Optional[int] = None) -> None:
        if budget_bytes is not None and budget_bytes < 0:
            raise ConfigurationError(
                f"cache budget must be non-negative, got {budget_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.budget_bytes = budget_bytes
        self.counters: Dict[str, int] = {
            "hits": 0, "misses": 0, "stores": 0, "corrupt": 0,
            "checkpoint_hits": 0, "checkpoint_misses": 0,
            "checkpoint_stores": 0, "evictions": 0,
        }

    # -- paths ----------------------------------------------------------
    def summary_path(self, key: str) -> Path:
        return self.directory / f"{key}{CONTAINER_SUFFIX}"

    def checkpoint_path(self, key: str) -> Path:
        return self.directory / f"{key}{CHECKPOINT_SUFFIX}"

    def has_summary(self, key: str) -> bool:
        return self.summary_path(key).exists()

    def has_checkpoint(self, key: str) -> bool:
        return self.checkpoint_path(key).exists()

    # -- summaries ------------------------------------------------------
    def store_summary(self, key: str, image: bytes) -> Path:
        """Persist an encoded summary container under its content key."""
        path = self.summary_path(key)
        write_container_image(path, image)
        self.counters["stores"] += 1
        self.drop_checkpoint(key)
        self._evict()
        return path

    def load_summary(self, key: str) -> Optional[StoredSummary]:
        """The cached summary for ``key``, or ``None`` on miss.

        A corrupt entry (failed checksum, bad sections) is discarded and
        reported as a miss — the caller recomputes and overwrites it.
        """
        path = self.summary_path(key)
        if not path.exists():
            self.counters["misses"] += 1
            return None
        try:
            stored = load_summary(path, verify=True)
        except ContainerFormatError:
            self.counters["corrupt"] += 1
            self.counters["misses"] += 1
            path.unlink(missing_ok=True)
            return None
        self.counters["hits"] += 1
        path.touch()
        return stored

    # -- checkpoints ----------------------------------------------------
    def store_checkpoint(self, key: str, image: bytes) -> Path:
        path = self.checkpoint_path(key)
        write_container_image(path, image)
        self.counters["checkpoint_stores"] += 1
        self._evict()
        return path

    def load_checkpoint(self, key: str, subnodes: Sequence,
                        graph_digest: Optional[str] = None) -> Optional[SummaryCheckpoint]:
        """The resumable checkpoint for ``key``, or ``None``.

        Corrupt or mismatched checkpoints are discarded — resuming is an
        optimization, never worth failing a run over.
        """
        path = self.checkpoint_path(key)
        if not path.exists():
            self.counters["checkpoint_misses"] += 1
            return None
        try:
            checkpoint = load_checkpoint(path, subnodes, graph_digest=graph_digest)
        except ContainerFormatError:
            self.counters["corrupt"] += 1
            self.counters["checkpoint_misses"] += 1
            path.unlink(missing_ok=True)
            return None
        self.counters["checkpoint_hits"] += 1
        path.touch()
        return checkpoint

    def drop_checkpoint(self, key: str) -> None:
        self.checkpoint_path(key).unlink(missing_ok=True)

    # -- bookkeeping ----------------------------------------------------
    def _files(self) -> List[Path]:
        return [
            path for path in self.directory.iterdir()
            if path.is_file() and path.name.endswith(CONTAINER_SUFFIX)
            and not path.name.startswith(".")
        ]

    def entries(self) -> List[Dict[str, Any]]:
        """Per-file metadata, oldest first (the eviction order)."""
        records = []
        for path in self._files():
            try:
                stat = path.stat()
            except OSError:
                continue
            records.append({
                "key": path.name[:-len(CHECKPOINT_SUFFIX)]
                if path.name.endswith(CHECKPOINT_SUFFIX)
                else path.name[:-len(CONTAINER_SUFFIX)],
                "kind": "checkpoint"
                if path.name.endswith(CHECKPOINT_SUFFIX) else "summary",
                "path": str(path),
                "bytes": stat.st_size,
                "mtime": stat.st_mtime,
            })
        records.sort(key=lambda record: (record["mtime"], record["path"]))
        return records

    def total_bytes(self) -> int:
        return sum(record["bytes"] for record in self.entries())

    def gc(self, budget_bytes: Optional[int] = None) -> Dict[str, Any]:
        """Evict least-recently-touched entries until under budget.

        ``budget_bytes`` overrides the cache's configured budget for
        this sweep; ``0`` empties the cache.  Returns a report of what
        was evicted and what remains.
        """
        budget = self.budget_bytes if budget_bytes is None else budget_bytes
        records = self.entries()
        total = sum(record["bytes"] for record in records)
        evicted = 0
        freed = 0
        if budget is not None:
            for record in records:
                if total <= budget:
                    break
                try:
                    Path(record["path"]).unlink()
                except OSError:
                    continue
                total -= record["bytes"]
                freed += record["bytes"]
                evicted += 1
        self.counters["evictions"] += evicted
        return {
            "evicted": evicted,
            "freed_bytes": freed,
            "kept": len(records) - evicted,
            "total_bytes": total,
            "budget_bytes": budget,
        }

    def _evict(self) -> None:
        if self.budget_bytes is not None:
            self.gc()

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready snapshot: entry counts, sizes, budget, directory."""
        records = self.entries()
        summaries = [record for record in records if record["kind"] == "summary"]
        checkpoints = [record for record in records if record["kind"] == "checkpoint"]
        record = {
            "directory": str(self.directory),
            "entries": len(summaries),
            "checkpoints": len(checkpoints),
            "total_bytes": sum(item["bytes"] for item in records),
            "budget_bytes": self.budget_bytes,
        }
        record.update(self.counters)
        return record
