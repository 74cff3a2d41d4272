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
  SMET    summary metadata: format version, kind, method, seed, digests
  SHIE    hierarchy: leaf count + internal ``(id, children)`` records
  SPED    positive superedges (pair list of supernode ids)
  SNED    negative superedges (pair list of supernode ids)
  SGRP    flat grouping: group ids + ``group_of`` entries, dict order
  SSED    flat superedges (pair list of group ids)
  SCRP    flat ``C+`` corrections (pair list of node ids)
  SCRN    flat ``C-`` corrections (pair list of node ids)
  CKPT    resumable-job state: iteration, RNG stream position, history
  ======  ==========================================================

  Every integer is a varint, except the RNG words of ``CKPT``.  A pair
  list is the integer stream of
  :func:`~repro.compression.codes.encode_pair_gaps`, which the
  compression pipeline writes with a bit code: the count, then per
  sorted canonical pair ``a - prev_a`` and then ``b - a`` (new ``a``)
  or ``b - prev_b`` (same ``a``).  Equal summaries yield byte-identical
  sections.  Format version 2 brought this layout; an older ``SMET``
  is a :class:`ContainerFormatError`, which the cache treats as a miss.

  Order preservation is the subtle part.  ``SHIE`` keeps each internal
  supernode's children list **verbatim** and emits internal records in
  ascending id order; :meth:`Hierarchy.from_parts` then reproduces the
  original insertion order of every internal mapping, so a decoded
  hierarchy iterates (``roots()`` etc.) exactly like the one that was
  encoded — the property that keeps resumed runs bit-identical.  The
  decoded ``SPED``/``SNED`` lists then go to
  :meth:`HierarchicalSummary.from_parts`, the one construction path of
  every decoded summary, which checks and fills ``P+``/``P-`` in one
  pass in the lists' sorted order.
  ``SGRP`` likewise records both dict orders of a flat summary (the
  group-id order and the ``group_of`` entry order) because the serving
  layer derives its node numbering from ``group_of`` insertion order.

  ``CKPT`` version 2 holds the checkpoint format version, the iteration,
  the Mersenne-Twister state of :meth:`random.Random.getstate` — its
  version (3), its word count (625), the 625 words as fixed-width
  little-endian ``u32`` (the last one is the stream index, at most 624),
  a ``gauss_next`` flag byte and, when set, an ``f64`` — and the history
  as a length-prefixed JSON blob.  The words pack and unpack in one
  ``struct`` call each.  A state of another version, word count or
  index is a :class:`ContainerFormatError`, so a checkpoint that passes
  its CRCs can never fail the resumed run in ``Random.setstate``.

* **Containers** — :func:`encode_summary_container` appends the family
  to a full CSR container (``FLAG_SUMMARY``): one self-contained file
  that serves queries off the mmap *and* yields the summary with zero
  recompute.  :meth:`CheckpointSnapshot.encode` (and
  :func:`encode_checkpoint_container`, which captures and encodes in one
  call) writes a CSR-less variant (``FLAG_SUMMARY | FLAG_NO_CSR``)
  holding the summary snapshot plus a ``CKPT`` section; leaves are
  rebuilt from the live graph at restore time, with the ``SMET`` graph
  digest guarding mismatches.  Both containers read the summary through
  :meth:`HierarchicalSummary.to_parts`, so there is one encoder and
  equal summaries give byte-identical images.

* **SummaryCache** — a flat content-addressed directory like
  :class:`~repro.storage.cache.GraphCache`, keyed by
  ``sha256(graph digest, method, seed, config digest)``, with
  LRU-by-mtime eviction under an optional size budget.  Checkpoints
  live next to their summary as ``<key>.ckpt.slg`` and are dropped
  once the finished summary lands.  A running job freezes each
  iteration boundary into a :class:`CheckpointSnapshot` (ids, tuples
  and frozensets, no bytes) and hands it to
  :meth:`SummaryCache.post_checkpoint`, which queues it for one writer
  thread: the encode, write, ``fsync``, rename and budget sweep run
  while the job computes its next iteration.  The writer is latest-wins
  per key — a snapshot replaced by a newer one before the writer takes
  it is never encoded or written — so the file on disk may trail the
  newest snapshot by the snapshots still queued; every snapshot resumes
  bit-identically.  :meth:`~SummaryCache.flush_checkpoint` waits for a
  key's newest snapshot to land, :meth:`~SummaryCache.store_summary`
  discards a key's pending snapshot unencoded before it drops the
  checkpoint, and :meth:`~SummaryCache.close` drains the queue.

:func:`load_summary` is the one decode path (:func:`load_checkpoint`
wraps it).  A cache hit CRC-checks every section, range-checks ``INDX``
and decodes against the service's interned labels, mapping nothing; an
entry whose ``SMET`` graph digest names another graph is rejected.
After those checks a repeat hit of byte-identical ``SUMM`` sections is
served by copying a decoded summary the cache keeps (see
:meth:`SummaryCache.load_summary`).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.compression.codes import decode_pair_gaps, encode_pair_gaps, zigzag_decode, zigzag_encode
from repro.exceptions import (
    CompressionError,
    ConfigurationError,
    ContainerFormatError,
    SummaryInvariantError,
)
from repro.graphs.graph import canonical_edge
from repro.model.flat import FlatSummary
from repro.model.hierarchy import Hierarchy
from repro.model.summary import HierarchicalSummary, SummaryParts
from repro.storage.format import (
    CONTAINER_SUFFIX,
    FLAG_NO_CSR,
    FLAG_SUMMARY,
    TAG_INDICES,
    ContainerInfo,
    check_indices,
    decode_varint,
    encode_container,
    encode_image,
    encode_varint,
    index_width_for,
    iter_varints,
    read_container,
    write_container_image,
)
from repro.storage.mapped import StoredGraph, load as load_stored_graph

__all__ = [
    "CHECKPOINT_SUFFIX",
    "CheckpointSnapshot",
    "SummaryCache",
    "SummaryCheckpoint",
    "SummaryMeta",
    "StoredSummary",
    "config_fingerprint",
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

SUMMARY_FORMAT_VERSION = 2
CHECKPOINT_FORMAT_VERSION = 2

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

#: ``random.Random.getstate()``: version 3, 624 Mersenne-Twister words
#: and the stream index (at most 624) as the 625th word.
_RNG_VERSION = 3
_RNG_WORD_COUNT = 625
_RNG_WORDS = struct.Struct(f"<{_RNG_WORD_COUNT}I")


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
    """The ``SMET`` payload: what was summarized, how, and under what key.

    ``extra`` is copied into a read-only mapping and left out of the
    hash, so a meta is hashable and a frozen snapshot holding one cannot
    be changed through it.
    """

    kind: str
    method: str
    seed: Optional[int]
    graph_digest: str
    config_digest: str
    config_json: str
    extra: Mapping[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "extra", MappingProxyType(dict(self.extra)))

    def __reduce__(self):
        # A mapping proxy does not pickle; rebuild from a plain dict.
        return (type(self), (self.kind, self.method, self.seed, self.graph_digest,
                             self.config_digest, self.config_json, dict(self.extra)))

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
    extra = json.dumps(dict(meta.extra), sort_keys=True, separators=(",", ":"))
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
# Varint streams: SHIE, SGRP and the pair lists are plain varint runs
# ----------------------------------------------------------------------
def _varint_bytes(values: Iterable[int]) -> bytes:
    out = bytearray()
    for value in values:
        encode_varint(value, out)
    return bytes(out)


def _decode_stream(data: bytes, name: str, read):
    """``read(values)`` over the varints of ``data``, which it must consume
    exactly; a bare ``next(values)`` past the end reads as truncation."""
    values = iter_varints(data)
    try:
        result = read(values)
    except StopIteration:
        raise ContainerFormatError(f"truncated {name}") from None
    except CompressionError as error:
        raise ContainerFormatError(f"corrupt {name}: {error}") from None
    if next(values, None) is not None:
        raise ContainerFormatError(f"trailing bytes after {name}")
    return result


def _encode_pairs(pairs: Iterable[Tuple[int, int]]) -> bytes:
    return _varint_bytes(encode_pair_gaps(pairs))


def _decode_pairs(data: bytes) -> List[Tuple[int, int]]:
    return _decode_stream(data, "summary pair list", decode_pair_gaps)


def _encode_id_pairs(pairs: Iterable[Tuple[int, int]]) -> bytes:
    """The version-1 pair layout, kept only for :func:`summary_fingerprint`:
    sorted ``a <= b`` pairs, delta-varint first coordinate, raw second."""
    ordered = sorted((a, b) if a <= b else (b, a) for a, b in pairs)
    values = [len(ordered)]
    previous = 0
    for a, b in ordered:
        values += (a - previous, b)
        previous = a
    return _varint_bytes(values)


# ----------------------------------------------------------------------
# Hierarchical codec
# ----------------------------------------------------------------------
def _encode_hierarchy(parts: SummaryParts) -> bytes:
    values = [parts.num_leaves, parts.next_id, len(parts.internal)]
    previous = parts.num_leaves
    for node_id, children in parts.internal:
        values += (node_id - previous, len(children), *children)
        previous = node_id
    return _varint_bytes(values)


def _decode_hierarchy(data: bytes, subnodes: Sequence) -> Hierarchy:
    def read(values):
        num_leaves, next_id = next(values), next(values)
        if num_leaves != len(subnodes):
            raise ContainerFormatError(
                f"summary hierarchy holds {num_leaves} leaves but the container "
                f"provides {len(subnodes)} node labels"
            )
        internal: List[Tuple[int, List[int]]] = []
        node_id = num_leaves
        for _ in range(next(values)):
            node_id += next(values)
            internal.append((node_id, [next(values) for _ in range(next(values))]))
        return next_id, internal

    next_id, internal = _decode_stream(data, "summary hierarchy", read)
    try:
        return Hierarchy.from_parts(subnodes, internal, next_id=next_id)
    except SummaryInvariantError as error:
        raise ContainerFormatError(f"corrupt summary hierarchy: {error}") from None


def _hierarchical_sections(parts: SummaryParts,
                           encode_pairs=_encode_pairs) -> List[Tuple[bytes, bytes]]:
    """``SHIE``/``SPED``/``SNED`` of :meth:`HierarchicalSummary.to_parts`,
    the one input every hierarchical encoder reads."""
    return [
        (TAG_SUMMARY_HIERARCHY, _encode_hierarchy(parts)),
        (TAG_SUMMARY_P_EDGES, encode_pairs(parts.p_edges)),
        (TAG_SUMMARY_N_EDGES, encode_pairs(parts.n_edges)),
    ]


def _decode_hierarchical(payloads: Dict[bytes, bytes], subnodes: Sequence) -> HierarchicalSummary:
    hierarchy = _decode_hierarchy(payloads[TAG_SUMMARY_HIERARCHY], subnodes)
    try:
        return HierarchicalSummary.from_parts(hierarchy,
                                              _decode_pairs(payloads[TAG_SUMMARY_P_EDGES]),
                                              _decode_pairs(payloads[TAG_SUMMARY_N_EDGES]))
    except SummaryInvariantError as error:
        raise ContainerFormatError(f"corrupt summary superedges: {error}") from None


# ----------------------------------------------------------------------
# Flat codec
# ----------------------------------------------------------------------
def _encode_flat(summary: FlatSummary, node_ids: Dict[Any, int],
                 encode_pairs=_encode_pairs) -> List[Tuple[bytes, bytes]]:
    groups = [len(summary.groups), *summary.groups, len(summary.group_of)]
    for node, gid in summary.group_of.items():
        groups += (node_ids[node], gid)

    def correction_pairs(corrections):
        return ((node_ids[u], node_ids[v]) for u, v in corrections)

    return [
        (TAG_SUMMARY_GROUPS, _varint_bytes(groups)),
        (TAG_SUMMARY_SUPEREDGES, encode_pairs(summary.superedges)),
        (TAG_SUMMARY_CORR_PLUS, encode_pairs(correction_pairs(summary.corrections_plus))),
        (TAG_SUMMARY_CORR_MINUS, encode_pairs(correction_pairs(summary.corrections_minus))),
    ]


def _decode_flat(payloads: Dict[bytes, bytes], labels: Sequence) -> FlatSummary:
    def read(values):
        gid_order = [next(values) for _ in range(next(values))]
        return gid_order, [(next(values), next(values)) for _ in range(next(values))]

    gid_order, entries = _decode_stream(payloads[TAG_SUMMARY_GROUPS],
                                        "flat summary grouping", read)
    summary = FlatSummary()
    members: Dict[int, List] = {gid: [] for gid in gid_order}
    if len(members) != len(gid_order):
        raise ContainerFormatError("flat summary grouping repeats a group id")
    num_labels = len(labels)
    for node_id, gid in entries:
        if node_id >= num_labels or gid not in members:
            raise ContainerFormatError(
                f"flat summary entry ({node_id}, {gid}) references an unknown "
                f"node or group"
            )
        node = labels[node_id]
        if node in summary.group_of:
            raise ContainerFormatError(
                f"flat summary subnode {node_id} is in two groups"
            )
        summary.group_of[node] = gid
        members[gid].append(node)
    for gid in gid_order:
        summary.groups[gid] = frozenset(members[gid])
    summary.superedges = set(_decode_pairs(payloads[TAG_SUMMARY_SUPEREDGES]))
    if any(a not in members or b not in members for a, b in summary.superedges):
        raise ContainerFormatError("flat summary superedge references an unknown group")
    for tag, target in (
        (TAG_SUMMARY_CORR_PLUS, summary.corrections_plus),
        (TAG_SUMMARY_CORR_MINUS, summary.corrections_minus),
    ):
        for u, v in _decode_pairs(payloads[tag]):
            if v >= num_labels or labels[u] not in summary.group_of \
                    or labels[v] not in summary.group_of:
                raise ContainerFormatError(
                    f"flat summary correction ({u}, {v}) references an unknown subnode"
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
    return [(TAG_SUMMARY_META, _encode_meta(meta))] + _summary_sections(
        summary, labels, _encode_pairs)


def _summary_sections(summary, labels: Optional[Sequence],
                      encode_pairs) -> List[Tuple[bytes, bytes]]:
    if isinstance(summary, HierarchicalSummary):
        return _hierarchical_sections(summary.to_parts(), encode_pairs)
    if isinstance(summary, FlatSummary):
        if labels is None:
            raise SummaryInvariantError(
                "flat summaries serialize against the container's node labels"
            )
        node_ids = {label: position for position, label in enumerate(labels)}
        return _encode_flat(summary, node_ids, encode_pairs)
    raise SummaryInvariantError(
        f"cannot serialize summary of type {type(summary).__name__}"
    )


def _summary_meta(payloads: Dict[bytes, bytes]) -> SummaryMeta:
    """The ``SMET`` metadata of a tag → payload mapping, once every
    section its kind needs is present."""
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
    return meta


def _decode_summary(payloads: Dict[bytes, bytes], meta: SummaryMeta, labels: Sequence):
    """The summary of ``payloads``, its leaves or members rebuilt against
    ``labels``, the container's node label list."""
    if meta.kind == "hierarchical":
        return _decode_hierarchical(payloads, labels)
    return _decode_flat(payloads, labels)


def summary_fingerprint(summary, labels: Optional[Sequence] = None) -> str:
    """SHA-256 over the canonical encoding of ``summary``.

    The bit-identity yardstick used by the resume and warm-start tests:
    two summaries fingerprint equal iff their canonical serializations
    are byte-identical.  It hashes the section tags and the ``SHIE`` /
    ``SGRP`` payloads with the version-1 pair layout, so the digest of a
    summary does not move with the container's pair codec.
    """
    digest = hashlib.sha256()
    for tag, payload in _summary_sections(summary, labels, _encode_id_pairs):
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
    out += struct.pack(f"<{len(internal)}I", *internal)
    if gauss is None:
        out.append(0)
    else:
        out.append(1)
        out += _DOUBLE.pack(gauss)
    return bytes(out)


def _decode_rng_state(data: bytes, pos: int):
    """The ``random.Random`` state at ``pos``; one ``setstate`` accepts."""
    version, pos = decode_varint(data, pos)
    count, pos = decode_varint(data, pos)
    if version != _RNG_VERSION:
        raise ContainerFormatError(f"checkpoint RNG state has version {version}, "
                                   f"not {_RNG_VERSION}")
    if count != _RNG_WORD_COUNT:
        raise ContainerFormatError(f"checkpoint RNG state has {count} words, "
                                   f"not {_RNG_WORD_COUNT}")
    end = pos + _RNG_WORDS.size
    if end >= len(data):
        raise ContainerFormatError("truncated RNG state in checkpoint section")
    internal = _RNG_WORDS.unpack_from(data, pos)
    if internal[-1] >= _RNG_WORD_COUNT:
        raise ContainerFormatError(f"checkpoint RNG state index {internal[-1]} "
                                   f"exceeds {_RNG_WORD_COUNT - 1}")
    flag = data[end]
    pos = end + 1
    gauss = None
    if flag:
        end = pos + _DOUBLE.size
        if end > len(data):
            raise ContainerFormatError("truncated RNG state in checkpoint section")
        gauss = _DOUBLE.unpack_from(data, pos)[0]
        pos = end
    return (version, internal, gauss), pos


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


@dataclass(frozen=True)
class CheckpointSnapshot:
    """One iteration boundary of a run, frozen now and encoded later.

    :meth:`capture` copies what a checkpoint holds into immutable data
    (:class:`SummaryParts`, the RNG state, a tuple of the history), which
    costs a fraction of an encode; :meth:`encode` builds the container
    image from it at any later time, on any thread.  A running job posts
    snapshots to :meth:`SummaryCache.post_checkpoint`, and the writer
    encodes only those it writes.
    """

    meta: SummaryMeta
    iteration: int
    parts: SummaryParts
    #: As :meth:`random.Random.getstate` returns it.
    rng_state: Tuple
    #: The run's per-iteration records so far; a run never edits one it
    #: has appended.
    history: Tuple[Dict, ...]

    @classmethod
    def capture(cls, summary: HierarchicalSummary, meta: SummaryMeta, iteration: int,
                rng_state, history: Sequence[Dict]) -> "CheckpointSnapshot":
        if not isinstance(summary, HierarchicalSummary):
            raise SummaryInvariantError("checkpoints snapshot hierarchical summaries only")
        return cls(meta, int(iteration), summary.to_parts(), rng_state, tuple(history))

    def encode(self) -> bytes:
        """The CSR-less checkpoint container (``FLAG_SUMMARY | FLAG_NO_CSR``).

        Holds the summary plus the RNG stream position and history so
        far.  Node labels are *not* stored — leaves are rebuilt from the
        live graph at restore time, and the ``SMET`` graph digest guards
        against restoring onto the wrong graph.
        """
        sections = [(TAG_SUMMARY_META, _encode_meta(self.meta)),
                    *_hierarchical_sections(self.parts),
                    (TAG_CHECKPOINT, _encode_checkpoint_section(
                        self.iteration, self.rng_state, self.history))]
        num_leaves = self.parts.num_leaves
        return encode_image(
            FLAG_SUMMARY | FLAG_NO_CSR, num_leaves, 0,
            index_width_for(num_leaves), sections,
        )


def encode_checkpoint_container(summary: HierarchicalSummary, meta: SummaryMeta,
                                iteration: int, rng_state,
                                history: Sequence[Dict]) -> bytes:
    """The checkpoint image of ``summary`` at ``iteration``, encoded now
    (see :class:`CheckpointSnapshot`)."""
    return CheckpointSnapshot.capture(summary, meta, iteration, rng_state, history).encode()


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
class StoredSummary:
    """A decoded summary container: header, metadata and summary.

    ``stored`` is the mmap-backed :class:`StoredGraph` (queries run
    zero-copy off the CSR sections) when no labels were passed to
    :func:`load_summary`, else ``None``.  Close it when done; the
    summary and meta survive closing.
    """

    def __init__(self, path: PathLike, info: ContainerInfo, stored: Optional[StoredGraph],
                 labels: Sequence, meta: SummaryMeta, summary,
                 checkpoint: Optional[bytes] = None) -> None:
        self.path = str(path)
        self.info = info
        self.stored = stored
        self.labels = labels
        self.meta = meta
        self.summary = summary
        #: The raw ``CKPT`` payload of a checkpoint container, else ``None``.
        self.checkpoint = checkpoint

    def fingerprint(self) -> str:
        return summary_fingerprint(self.summary, self.labels)

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


def load_summary(path: PathLike, verify: bool = True, *,
                 labels: Optional[Sequence] = None,
                 graph_digest: Optional[str] = None,
                 decode=_decode_summary) -> StoredSummary:
    """Decode a summary-bearing container (summary or checkpoint).

    ``SUMM`` payloads are always CRC-checked, every other section too
    under ``verify``.  With ``labels`` (the graph's id-ordered nodes) the
    summary decodes against them and nothing is mapped, though ``INDX``
    is still range-checked; without, the container's CSR is mapped for
    its labels.  ``graph_digest``, when given, must equal ``SMET``'s; it
    is required with ``labels``, since only the digest ties caller
    labels to the graph the summary was taken on.

    ``decode(payloads, meta, labels)`` builds the summary once every
    check has passed; :class:`SummaryCache` passes one that serves a
    repeat of the same verified bytes from a decoded copy.
    """
    if labels is not None and graph_digest is None:
        raise ValueError("load_summary: labels must come with the graph_digest "
                         "they were taken from")
    tags = SUMMARY_SECTION_TAGS if labels is None else SUMMARY_SECTION_TAGS + (TAG_INDICES,)
    info, payloads = read_container(path, tags, verify=verify)
    if not info.has_summary:
        raise ContainerFormatError(
            f"{path}: container carries no summary sections; "
            f"use repro.storage.load for plain graph containers"
        )
    stored = None
    if labels is None:
        if not info.has_csr:
            raise ContainerFormatError(
                f"{path}: CSR-less checkpoint containers are restored through "
                f"load_checkpoint, not load_summary"
            )
        stored = load_stored_graph(path, verify=False)
        labels = stored.csr().index.labels()
    else:
        if len(labels) != info.num_nodes:
            raise ContainerFormatError(f"{path}: {len(labels)} labels for "
                                       f"{info.num_nodes} container nodes")
        if info.has_csr:
            check_indices(payloads[TAG_INDICES], info.num_nodes, info.index_width)
    try:
        meta = _summary_meta(payloads)
        if graph_digest is not None and meta.graph_digest != graph_digest:
            raise ContainerFormatError(
                f"{path}: summary was taken on graph {meta.graph_digest[:12]}..., "
                f"refusing to resume from it or serve it on graph {graph_digest[:12]}..."
            )
        summary = decode(payloads, meta, labels)
    except BaseException:
        if stored is not None:
            stored.close()
        raise
    return StoredSummary(path, info, stored, labels, meta, summary,
                         checkpoint=payloads.get(TAG_CHECKPOINT))


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
                    graph_digest: str) -> SummaryCheckpoint:
    """Restore a checkpoint container against the live graph's node list.

    ``subnodes`` must be the graph's nodes in insertion order (the order
    the original run numbered its leaves); ``graph_digest`` is checked
    against the checkpoint's ``SMET`` digest so a checkpoint can never
    silently resume onto a different graph.  Checkpoints are
    taken before pruning, where every merge tree is binary, so a
    hierarchy with an internal supernode that does not have exactly two
    children is rejected as corrupt (the local encoder relies on binary
    trees when the run resumes).
    """
    stored = load_summary(path, labels=list(subnodes), graph_digest=graph_digest)
    if stored.checkpoint is None:
        raise ContainerFormatError(f"{path}: not a checkpoint container")
    if stored.meta.kind != "hierarchical":
        raise ContainerFormatError(f"{path}: checkpoints are hierarchical-only")
    hierarchy = stored.summary.hierarchy
    for node in hierarchy.supernodes():
        if not hierarchy.is_leaf(node) and len(hierarchy.children(node)) != 2:
            raise ContainerFormatError(
                f"{path}: checkpoint supernode {node} has "
                f"{len(hierarchy.children(node))} children; merge trees are binary"
            )
    iteration, rng_state, history = _decode_checkpoint_section(stored.checkpoint)
    return SummaryCheckpoint(
        path=str(path), meta=stored.meta, summary=stored.summary,
        iteration=iteration, rng_state=rng_state, history=history,
    )


def read_summary_meta(path: PathLike) -> SummaryMeta:
    """Read just the ``SMET`` metadata of a summary-bearing container.

    Cheap enough for ``inspect``: only the header and the metadata
    section are read off disk (and the latter CRC-checked) — the
    hierarchy, edge lists, and CSR payloads stay untouched.  Works on
    full summary containers and on CSR-less checkpoint containers alike.
    """
    info, payloads = read_container(path, (TAG_SUMMARY_META,), verify=False)
    if not info.has_summary or TAG_SUMMARY_META not in payloads:
        raise ContainerFormatError(f"{path}: container carries no summary metadata")
    return _decode_meta(payloads[TAG_SUMMARY_META])


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

    Checkpoint snapshots posted with :meth:`post_checkpoint` are encoded
    and written by one daemon writer thread, started on first use, and
    only the newest snapshot per key is: one that a newer post replaced
    or :meth:`store_summary` discarded is never encoded.  The counters
    are bumped from both threads under the cache's lock; an encode or
    write that raises counts as a ``checkpoint_errors``.

    One slot remembers the last summary entry decoded: its key, its
    verified ``SUMM`` payloads, the labels it was decoded against and,
    from its second hit on, a pristine decode that is never handed out.
    Byte equality is the slot's validity, so it needs no invalidation;
    it is dropped anyway when its entry is discarded, overwritten or
    evicted, and on :meth:`close`.
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
            "checkpoint_stores": 0, "checkpoint_errors": 0, "evictions": 0,
            "decode_reuses": 0,
        }
        # Guards the counters and the writer's queue; the writer waits
        # on it for work and the flushing threads for the writer.
        self._lock = threading.Condition()
        # Serializes budget sweeps: two concurrent sweeps would each
        # evict against the same stale total and free too much.
        self._sweep_lock = threading.Lock()
        #: key -> newest checkpoint snapshot (or image) not yet taken by
        #: the writer.
        self._pending: Dict[str, Union[CheckpointSnapshot, bytes]] = {}
        self._writing: Optional[str] = None
        self._writer: Optional[threading.Thread] = None
        self._stop_writer = False
        #: ``(key, SUMM payloads, labels, pristine summary or None)`` of
        #: the last summary entry decoded; read and replaced under the lock.
        self._decoded: Optional[tuple] = None

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

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
        """Persist an encoded summary container under its content key.

        The key's pending checkpoint snapshot is discarded unencoded and
        an in-flight one waited for, so no checkpoint outlives the
        finished summary.
        """
        with self._lock:
            self._pending.pop(key, None)
            while self._writing == key:
                self._lock.wait()
        path = self.summary_path(key)
        write_container_image(path, image)
        self._drop_decoded(key)
        self._count("stores")
        self.drop_checkpoint(key)
        self._evict()
        return path

    def load_summary(self, key: str, labels: Sequence,
                     graph_digest: str) -> Optional[StoredSummary]:
        """The cached summary for ``key`` (see :func:`load_summary`), or ``None``.

        A corrupt entry (failed checksum, bad sections, another graph's
        digest) is discarded and reported as a miss — the caller
        recomputes and overwrites it.

        Every hit runs all of :func:`load_summary`'s checks.  A hit whose
        verified ``SUMM`` payloads and labels equal the slot's is a
        repeat: the second one keeps its decode as the pristine copy and
        returns a copy of it, every later one returns a copy without
        decoding (counted as ``decode_reuses``).  Each returned summary
        is an independent object the caller may mutate.
        """
        stored = self._load(
            self.summary_path(key), "",
            lambda path: load_summary(path, labels=labels, graph_digest=graph_digest,
                                      decode=partial(self._decode, key)),
        )
        if stored is None:
            self._drop_decoded(key)
        return stored

    def _decode(self, key: str, payloads: Dict[bytes, bytes], meta: SummaryMeta,
                labels: Sequence):
        sections = tuple(payloads.get(tag) for tag in SUMMARY_SECTION_TAGS)
        label_tuple = tuple(labels)
        with self._lock:
            slot = self._decoded
        repeat = slot is not None and slot[:3] == (key, sections, label_tuple)
        if repeat and slot[3] is not None:
            self._count("decode_reuses")
            # Nothing mutates the pristine summary, so it copies unlocked.
            return slot[3].copy()
        summary = _decode_summary(payloads, meta, labels)
        kept = False
        with self._lock:
            if not repeat:
                self._decoded = (key, sections, label_tuple, None)
            elif self._decoded is slot:
                self._decoded = slot[:3] + (summary,)
                kept = True
        return summary.copy() if kept else summary

    def _drop_decoded(self, key: str) -> None:
        with self._lock:
            if self._decoded is not None and self._decoded[0] == key:
                self._decoded = None

    # -- checkpoints ----------------------------------------------------
    def store_checkpoint(self, key: str, image: bytes) -> Path:
        """Write a checkpoint image now, on the calling thread."""
        path = self.checkpoint_path(key)
        write_container_image(path, image)
        self._count("checkpoint_stores")
        self._evict()
        return path

    def post_checkpoint(self, key: str,
                        snapshot: Union[CheckpointSnapshot, bytes]) -> None:
        """Queue ``snapshot`` for the writer thread; a newer post for ``key``
        replaces one that is not yet being written.

        The writer encodes a :class:`CheckpointSnapshot` when it takes it
        to write, so a replaced or discarded snapshot is never encoded;
        ``bytes`` are an image already encoded and are written as is.
        """
        with self._lock:
            if self._writer is not None:
                self._pending[key] = snapshot
                self._lock.notify_all()
                return
            # A new writer is handed its first snapshot, so that one is
            # taken now rather than whenever the thread first runs.
            self._stop_writer = False
            self._writing = key
            self._writer = threading.Thread(
                target=self._write_loop, args=(key, snapshot),
                name=f"summary-cache-writer-{id(self):x}", daemon=True,
            )
            self._writer.start()

    def flush_checkpoint(self, key: str) -> None:
        """Block until the newest snapshot posted for ``key`` is written."""
        with self._lock:
            while key in self._pending or self._writing == key:
                self._lock.wait()

    def close(self) -> None:
        """Write every pending checkpoint snapshot, then join the writer.

        A later :meth:`post_checkpoint` starts a fresh writer.
        """
        with self._lock:
            self._decoded = None
            writer = self._writer
            self._stop_writer = True
            self._lock.notify_all()
        if writer is not None:
            writer.join()

    def _write_loop(self, key: str, image: Union[CheckpointSnapshot, bytes]) -> None:
        """Write ``image`` under ``key``, then the newest pending snapshot
        per key, until nothing is pending and :meth:`close` asked to stop."""
        while True:
            try:
                if isinstance(image, CheckpointSnapshot):
                    image = image.encode()
                self.store_checkpoint(key, image)
            except Exception:  # noqa: BLE001 - a failed encode or write is counted, the writer keeps serving
                self._count("checkpoint_errors")
            with self._lock:
                self._writing = None
                self._lock.notify_all()
                while not self._pending and not self._stop_writer:
                    self._lock.wait()
                if not self._pending:
                    # Cleared under the lock that posts check: the next
                    # post starts a new writer, never a second one.
                    self._writer = None
                    return
                key = next(iter(self._pending))
                image = self._pending.pop(key)
                self._writing = key

    def load_checkpoint(self, key: str, subnodes: Sequence,
                        graph_digest: str) -> Optional[SummaryCheckpoint]:
        """The resumable checkpoint for ``key``, or ``None``.

        Corrupt or mismatched checkpoints are discarded — resuming is an
        optimization, never worth failing a run over.
        """
        return self._load(
            self.checkpoint_path(key), "checkpoint_",
            lambda path: load_checkpoint(path, subnodes, graph_digest=graph_digest),
        )

    def _load(self, path: Path, counter: str, loader):
        """``loader(path)``, counted as a hit, a miss, or a corrupt miss (unlinked)."""
        if not path.exists():
            self._count(counter + "misses")
            return None
        try:
            loaded = loader(path)
        except ContainerFormatError:
            with self._lock:
                self.counters["corrupt"] += 1
                self.counters[counter + "misses"] += 1
            path.unlink(missing_ok=True)
            return None
        self._count(counter + "hits")
        try:
            os.utime(path)
        except FileNotFoundError:
            pass  # A concurrent sweep evicted it; a touch would recreate it empty.
        return loaded

    def drop_checkpoint(self, key: str) -> None:
        self.checkpoint_path(key).unlink(missing_ok=True)

    # -- bookkeeping ----------------------------------------------------
    def entries(self) -> List[Dict[str, Any]]:
        """Per-file metadata, oldest first (the eviction order).

        One ``scandir`` pass with one ``stat`` per container file; dot
        files (in-progress temp writes), other files and directories
        are skipped.
        """
        records = []
        with os.scandir(self.directory) as scan:
            for entry in scan:
                name = entry.name
                if name.startswith(".") or not name.endswith(CONTAINER_SUFFIX):
                    continue
                try:
                    if not entry.is_file():
                        continue
                    stat = entry.stat()
                except OSError:
                    continue
                suffix = (CHECKPOINT_SUFFIX if name.endswith(CHECKPOINT_SUFFIX)
                          else CONTAINER_SUFFIX)
                records.append({
                    "key": name[:-len(suffix)],
                    "kind": "checkpoint" if suffix == CHECKPOINT_SUFFIX else "summary",
                    "path": entry.path,
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
        with self._sweep_lock:
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
                    if record["kind"] == "summary":
                        self._drop_decoded(record["key"])
                    total -= record["bytes"]
                    freed += record["bytes"]
                    evicted += 1
        self._count("evictions", evicted)
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
        checkpoints = sum(record["kind"] == "checkpoint" for record in records)
        record = {
            "directory": str(self.directory),
            "entries": len(records) - checkpoints,
            "checkpoints": checkpoints,
            "total_bytes": sum(item["bytes"] for item in records),
            "budget_bytes": self.budget_bytes,
        }
        with self._lock:
            record.update(self.counters)
        return record
