"""The versioned binary graph container: magic + header + checksummed sections.

Text edge lists are convenient for interchange but expensive to load:
every run re-tokenizes, re-parses, and re-deduplicates millions of
lines.  Production graph systems (WebGraph, swh-graph) compress the
graph *once* into a compact on-disk representation and then memory-map
it on every subsequent load.  This module defines that representation
for the repro library — a single-file container holding a frozen CSR
adjacency plus an optional node-label dictionary:

``[header][section table][section payloads...]``

* **Header** (32 bytes, little-endian): magic ``b"SLGRPH"``, format
  version, flags, ``num_nodes``, ``num_edges``, the byte width of one
  neighbor index, and the section count.
* **Section table**: one 32-byte entry per section — a 4-byte tag, the
  absolute payload offset, the payload length, and a CRC-32 checksum.
  Payloads are 8-byte aligned so fixed-width sections can be cast
  straight out of a memory map.
* **``IPTR``** — the CSR ``indptr`` array, *delta/varint* encoded: the
  deltas are exactly the node degrees, and small degrees dominate real
  graphs, so LEB128 packs the ``n+1`` offsets into roughly one byte per
  node.  Decoded eagerly at load (it is the small ``O(n)`` part).
* **``INDX``** — the CSR ``indices`` array as *fixed-width* little-endian
  unsigned integers, using the narrowest of 1/2/4/8 bytes that fits the
  largest node id.  Fixed width is what makes the section directly
  mmap-addressable (:class:`repro.storage.mapped.MappedCSR` casts a
  ``memoryview`` over it, zero-copy); the narrow width is what makes the
  container ~2-4x smaller than the text edge list it replaces.
* **``LBLS``** — the id → label dictionary for graphs whose node labels
  are not already the contiguous integers ``0..n-1``; omitted (flag
  clear) in the common identity case.  Each entry is a type byte
  followed by a zigzag-varint (``int`` labels) or a length-prefixed
  UTF-8 string.

Neighbor runs are sorted ascending (inherited from
:class:`~repro.graphs.dense.CSRAdjacency`), which both enables binary
-search membership tests on the mapped view and makes the container a
*canonical* encoding of the graph: equal graphs produce byte-identical
payloads, so :func:`container_digest` is a usable content address.

Every malformed input — bad magic, unsupported version, truncation,
out-of-range sections, checksum mismatch — raises
:class:`~repro.exceptions.ContainerFormatError` (a
:class:`~repro.exceptions.GraphFormatError`); a corrupted container can
never deserialize into a silently wrong graph.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
import threading
import zlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ContainerFormatError, GraphFormatError

__all__ = [
    "CONTAINER_SUFFIX",
    "ContainerInfo",
    "FLAG_LABELS",
    "FLAG_NO_CSR",
    "FLAG_SUMMARY",
    "FORMAT_VERSION",
    "MAGIC",
    "SectionInfo",
    "container_digest",
    "decode_indptr",
    "decode_labels",
    "decode_varint",
    "encode_container",
    "encode_image",
    "encode_varint",
    "index_width_for",
    "read_container_info",
    "section_bytes",
    "typecode_for_width",
    "verify_sections",
    "write_container",
    "write_container_image",
]

PathLike = Union[str, Path]

MAGIC = b"SLGRPH"
FORMAT_VERSION = 1
#: Conventional file suffix for containers (not enforced on load).
CONTAINER_SUFFIX = ".slg"

#: Header flag: a ``LBLS`` section is present (labels are not the
#: identity mapping ``id -> id``).
FLAG_LABELS = 0x1

#: Header flag: the container carries a ``SUMM`` section family (a
#: serialized summary riding alongside — or instead of — the CSR); see
#: :mod:`repro.storage.summary_store` for the family's codecs.
FLAG_SUMMARY = 0x2

#: Header flag: the container holds **no** CSR sections (``IPTR`` /
#: ``INDX``) — it is a summary/checkpoint artifact addressed to a graph
#: stored elsewhere.  :class:`~repro.storage.mapped.MappedCSR` refuses
#: such containers; the summary store reads them directly.
FLAG_NO_CSR = 0x4

#: ``<`` little-endian: magic, version, flags, num_nodes, num_edges,
#: index width, 3 pad bytes, section count.
_HEADER = struct.Struct("<6sHHQQB3xH")
#: tag, absolute offset, payload length, CRC-32, 4 pad bytes.
_SECTION = struct.Struct("<4sQQI4x")
_ALIGNMENT = 8

TAG_INDPTR = b"IPTR"
TAG_INDICES = b"INDX"
TAG_LABELS = b"LBLS"

_LABEL_INT = 0
_LABEL_STR = 1

#: index byte width -> array typecode for the fixed-width INDX section.
_WIDTH_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


# ----------------------------------------------------------------------
# Varint primitives (unsigned LEB128 + zigzag for signed labels)
# ----------------------------------------------------------------------
def encode_varint(value: int, out: bytearray) -> None:
    """Append the unsigned LEB128 encoding of ``value`` to ``out``."""
    if value < 0:
        raise ValueError(f"varints encode non-negative integers, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_varint(data: bytes, position: int) -> Tuple[int, int]:
    """Decode one LEB128 varint at ``position``; returns ``(value, next)``."""
    value = 0
    shift = 0
    length = len(data)
    while True:
        if position >= length:
            raise ContainerFormatError("truncated varint in container section")
        byte = data[position]
        position += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, position
        shift += 7


def _zigzag_encode(value: int) -> int:
    """Map a signed integer to an unsigned one (small magnitudes stay small)."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _zigzag_decode(value: int) -> int:
    return value >> 1 if not value & 1 else -((value + 1) >> 1)


def index_width_for(num_nodes: int) -> int:
    """The narrowest of 1/2/4/8 bytes that can address every node id."""
    largest = max(0, num_nodes - 1)
    for width in (1, 2, 4, 8):
        if largest < (1 << (8 * width)):
            return width
    raise ContainerFormatError(f"node count {num_nodes} exceeds 64-bit addressing")


# ----------------------------------------------------------------------
# Section payload codecs
# ----------------------------------------------------------------------
def _encode_indptr(indptr: Sequence[int], num_nodes: int) -> bytes:
    """Delta/varint-encode ``indptr`` (the deltas are the node degrees)."""
    out = bytearray()
    previous = 0
    for position in range(num_nodes + 1):
        value = indptr[position]
        if value < previous:
            raise GraphFormatError("indptr must be monotone non-decreasing")
        encode_varint(value - previous, out)
        previous = value
    return bytes(out)


def decode_indptr(data: bytes, num_nodes: int, num_edges: int) -> "array":
    """Decode a delta/varint ``IPTR`` payload back into a flat offset array."""
    indptr = array("q", bytes(8 * (num_nodes + 1)))
    position = 0
    total = 0
    for node in range(num_nodes + 1):
        delta, position = decode_varint(data, position)
        total += delta
        indptr[node] = total
    if position != len(data):
        raise ContainerFormatError(
            f"IPTR section holds {len(data) - position} trailing bytes"
        )
    if total != 2 * num_edges:
        raise ContainerFormatError(
            f"IPTR section sums to {total} entries, header promises {2 * num_edges}"
        )
    return indptr


def _encode_indices(csr, width: int) -> bytes:
    """Pack the CSR ``indices`` run at fixed ``width`` bytes per entry."""
    typecode = _WIDTH_TYPECODES[width]
    packed = array(typecode, csr.indices)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        packed.byteswap()
    return packed.tobytes()


def _encode_labels(labels: Sequence) -> bytes:
    """Encode the id → label dictionary (int and str labels only)."""
    out = bytearray()
    for label in labels:
        if type(label) is int:
            out.append(_LABEL_INT)
            encode_varint(_zigzag_encode(label), out)
        elif type(label) is str:
            encoded = label.encode("utf-8")
            out.append(_LABEL_STR)
            encode_varint(len(encoded), out)
            out.extend(encoded)
        else:
            raise GraphFormatError(
                f"container labels must be int or str, got {type(label).__name__} "
                f"({label!r}); relabel the graph before packing"
            )
    return bytes(out)


def decode_labels(data: bytes, num_nodes: int) -> List:
    """Decode a ``LBLS`` payload back into the id-ordered label list."""
    labels: List = []
    position = 0
    for _ in range(num_nodes):
        if position >= len(data):
            raise ContainerFormatError("LBLS section ends before every node has a label")
        kind = data[position]
        position += 1
        if kind == _LABEL_INT:
            value, position = decode_varint(data, position)
            labels.append(_zigzag_decode(value))
        elif kind == _LABEL_STR:
            length, position = decode_varint(data, position)
            if position + length > len(data):
                raise ContainerFormatError("truncated string label in LBLS section")
            try:
                labels.append(data[position:position + length].decode("utf-8"))
            except UnicodeDecodeError as error:
                raise ContainerFormatError(f"undecodable string label: {error}") from None
            position += length
        else:
            raise ContainerFormatError(f"unknown label type byte {kind}")
    if position != len(data):
        raise ContainerFormatError(
            f"LBLS section holds {len(data) - position} trailing bytes"
        )
    return labels


def _identity_labels(labels: Sequence) -> bool:
    """Whether ``labels`` is exactly the identity mapping ``id -> id``."""
    return all(
        type(label) is int and label == node_id for node_id, label in enumerate(labels)
    )


# ----------------------------------------------------------------------
# Container metadata
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SectionInfo:
    """One section-table entry: where a payload lives and its checksum."""

    tag: str
    offset: int
    length: int
    crc32: int


@dataclass(frozen=True)
class ContainerInfo:
    """Decoded header + section table of one container file."""

    path: Optional[str]
    version: int
    flags: int
    num_nodes: int
    num_edges: int
    index_width: int
    file_bytes: int
    sections: Tuple[SectionInfo, ...] = field(default_factory=tuple)

    @property
    def has_labels(self) -> bool:
        """Whether the container carries an explicit label dictionary."""
        return bool(self.flags & FLAG_LABELS)

    @property
    def has_summary(self) -> bool:
        """Whether the container carries a serialized summary (``SUMM`` family)."""
        return bool(self.flags & FLAG_SUMMARY)

    @property
    def has_csr(self) -> bool:
        """Whether the container holds the CSR sections (``IPTR``/``INDX``)."""
        return not self.flags & FLAG_NO_CSR

    def section(self, tag: bytes) -> SectionInfo:
        """The section table entry for ``tag``; raises if absent."""
        name = tag.decode("ascii")
        for entry in self.sections:
            if entry.tag == name:
                return entry
        raise ContainerFormatError(f"container has no {name!r} section")

    def maybe_section(self, tag: bytes) -> Optional[SectionInfo]:
        """The section table entry for ``tag``, or ``None`` when absent."""
        name = tag.decode("ascii")
        for entry in self.sections:
            if entry.tag == name:
                return entry
        return None

    def to_dict(self) -> Dict[str, object]:
        """A JSON-compatible description (the CLI ``inspect`` payload)."""
        return {
            "path": self.path,
            "version": self.version,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "index_width": self.index_width,
            "has_labels": self.has_labels,
            "has_summary": self.has_summary,
            "has_csr": self.has_csr,
            "file_bytes": self.file_bytes,
            "sections": [
                {
                    "tag": entry.tag,
                    "offset": entry.offset,
                    "length": entry.length,
                    "crc32": entry.crc32,
                }
                for entry in self.sections
            ],
        }


# ----------------------------------------------------------------------
# Encoding (pack) side
# ----------------------------------------------------------------------
def _build_sections(csr) -> Tuple[int, int, List[Tuple[bytes, bytes]]]:
    """Encode every section payload for a frozen CSR-like object.

    ``csr`` needs ``num_nodes`` / ``num_edges`` / ``indptr`` / ``indices``
    and a ``NodeIndex``-style ``index`` (for the label dictionary) — both
    :class:`~repro.graphs.dense.CSRAdjacency` and
    :class:`~repro.storage.mapped.MappedCSR` qualify, so containers can
    be re-packed from either.
    """
    width = index_width_for(csr.num_nodes)
    sections: List[Tuple[bytes, bytes]] = [
        (TAG_INDPTR, _encode_indptr(csr.indptr, csr.num_nodes)),
        (TAG_INDICES, _encode_indices(csr, width)),
    ]
    flags = 0
    labels = csr.index.labels()
    if not _identity_labels(labels):
        flags |= FLAG_LABELS
        sections.append((TAG_LABELS, _encode_labels(labels)))
    return flags, width, sections


def encode_container(csr, extra_sections: Optional[Sequence[Tuple[bytes, bytes]]] = None,
                     extra_flags: int = 0) -> bytes:
    """The complete container image for ``csr`` as one bytes object.

    The encoding is canonical — equal graphs yield byte-identical
    containers — which is what makes :func:`container_digest` a content
    address.  ``extra_sections`` appends additional checksummed payloads
    (the summary store's ``SUMM`` family) after the CSR sections, in the
    order given, and ``extra_flags`` is OR-ed into the header flags;
    canonical callers must pass deterministic payloads to keep the
    content-address property.
    """
    flags, width, sections = _build_sections(csr)
    if extra_sections:
        sections = sections + list(extra_sections)
    return encode_image(
        flags | extra_flags, csr.num_nodes, csr.num_edges, width, sections
    )


def encode_image(flags: int, num_nodes: int, num_edges: int, width: int,
                 sections: Sequence[Tuple[bytes, bytes]]) -> bytes:
    """Assemble a container image from already-encoded section payloads.

    The low-level assembler behind :func:`encode_container`; the summary
    store also uses it directly for CSR-less checkpoint containers
    (``flags`` carrying :data:`FLAG_NO_CSR`).
    """
    header_size = _HEADER.size + _SECTION.size * len(sections)
    table: List[Tuple[bytes, int, int, int]] = []
    chunks: List[bytes] = []
    offset = _aligned(header_size)
    padding = offset - header_size
    for tag, payload in sections:
        chunks.append(payload)
        table.append((tag, offset, len(payload), zlib.crc32(payload)))
        next_offset = _aligned(offset + len(payload))
        chunks.append(b"\x00" * (next_offset - offset - len(payload)))
        offset = next_offset
    out = bytearray()
    out += _HEADER.pack(
        MAGIC, FORMAT_VERSION, flags, num_nodes, num_edges, width, len(table)
    )
    for tag, section_offset, length, crc in table:
        out += _SECTION.pack(tag, section_offset, length, crc)
    out += b"\x00" * padding
    for chunk in chunks:
        out += chunk
    return bytes(out)


def _aligned(offset: int) -> int:
    remainder = offset % _ALIGNMENT
    return offset if not remainder else offset + (_ALIGNMENT - remainder)


def write_container(path: PathLike, csr) -> ContainerInfo:
    """Write ``csr`` as a container file at ``path`` (atomic via rename)."""
    return write_container_image(path, encode_container(csr))


def write_container_image(path: PathLike, image: bytes) -> ContainerInfo:
    """Write an already-encoded container image atomically (temp + rename).

    The temp-then-rename protocol means a crash mid-write can never leave
    a half-written container under the final name; concurrent writers of
    the same content — across processes *and* across threads (the temp
    name carries both pid and thread id) — race benignly: last rename
    wins, contents equal.  Callers that already hold the image (e.g. the
    cache, which encoded it once to compute the content digest) use this
    to avoid re-encoding.
    """
    file_path = Path(path)
    file_path.parent.mkdir(parents=True, exist_ok=True)
    temp_path = file_path.with_name(
        f".{file_path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        with temp_path.open("wb") as handle:
            handle.write(image)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, file_path)
    finally:
        if temp_path.exists():  # pragma: no cover - only on write failure
            temp_path.unlink()
    return _parse_container(memoryview(image), str(file_path))


def container_digest(csr) -> str:
    """SHA-256 content address of ``csr``'s canonical container encoding."""
    return hashlib.sha256(encode_container(csr)).hexdigest()


# ----------------------------------------------------------------------
# Decoding (load) side
# ----------------------------------------------------------------------
def _parse_container(view, path: Optional[str]) -> ContainerInfo:
    """Parse and validate the header + section table of a container image."""
    total = len(view)
    if total < _HEADER.size:
        raise ContainerFormatError(
            f"{path or '<buffer>'}: file is {total} bytes, smaller than the "
            f"{_HEADER.size}-byte container header"
        )
    magic, version, flags, num_nodes, num_edges, width, count = _HEADER.unpack_from(
        bytes(view[:_HEADER.size])
    )
    where = path or "<buffer>"
    if magic != MAGIC:
        raise ContainerFormatError(
            f"{where}: bad magic {magic!r} (expected {MAGIC!r}); not a graph container"
        )
    if version != FORMAT_VERSION:
        raise ContainerFormatError(
            f"{where}: unsupported container version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    if width not in _WIDTH_TYPECODES:
        raise ContainerFormatError(f"{where}: invalid index width {width}")
    table_end = _HEADER.size + _SECTION.size * count
    if total < table_end:
        raise ContainerFormatError(f"{where}: truncated section table")
    sections: List[SectionInfo] = []
    for position in range(count):
        tag, offset, length, crc = _SECTION.unpack_from(
            bytes(view[_HEADER.size + position * _SECTION.size:
                       _HEADER.size + (position + 1) * _SECTION.size])
        )
        if offset < table_end or offset + length > total:
            raise ContainerFormatError(
                f"{where}: section {tag!r} [{offset}, {offset + length}) lies "
                f"outside the {total}-byte file"
            )
        if not tag.isascii():
            raise ContainerFormatError(
                f"{where}: section tag {tag!r} is not ASCII; the section table "
                f"is corrupted"
            )
        sections.append(SectionInfo(tag.decode("ascii"), offset, length, crc))
    info = ContainerInfo(
        path=path,
        version=version,
        flags=flags,
        num_nodes=num_nodes,
        num_edges=num_edges,
        index_width=width,
        file_bytes=total,
        sections=tuple(sections),
    )
    if info.has_csr:
        expected = 2 * num_edges * width
        indices = info.section(TAG_INDICES)
        if indices.length != expected:
            raise ContainerFormatError(
                f"{where}: INDX section is {indices.length} bytes, header promises "
                f"{expected} ({2 * num_edges} entries x {width} bytes)"
            )
        info.section(TAG_INDPTR)
        if info.has_labels:
            info.section(TAG_LABELS)
    return info


def verify_sections(view, info: ContainerInfo) -> None:
    """CRC-check every section payload against the table; raise on mismatch."""
    for entry in info.sections:
        actual = zlib.crc32(view[entry.offset:entry.offset + entry.length])
        if actual != entry.crc32:
            raise ContainerFormatError(
                f"{info.path or '<buffer>'}: section {entry.tag!r} checksum "
                f"mismatch (stored {entry.crc32:#010x}, computed {actual:#010x}); "
                f"the container is corrupted"
            )


def read_container_info(path: PathLike, verify: bool = False) -> ContainerInfo:
    """Read and validate a container's header + section table from disk.

    With ``verify=True`` every section payload is also checksummed.  This
    is the cheap metadata path behind the CLI ``inspect`` subcommand;
    use :func:`repro.storage.load` to get a usable graph.
    """
    file_path = Path(path)
    try:
        data = file_path.read_bytes()
    except OSError as error:
        raise ContainerFormatError(f"{file_path}: cannot read container: {error}") from None
    view = memoryview(data)
    info = _parse_container(view, str(file_path))
    if verify:
        verify_sections(view, info)
    return info


def section_bytes(view, info: ContainerInfo, tag: bytes) -> bytes:
    """Copy one section payload out of a container image."""
    entry = info.section(tag)
    return bytes(view[entry.offset:entry.offset + entry.length])


def typecode_for_width(width: int) -> str:
    """Array/memoryview typecode of the fixed-width INDX entries."""
    return _WIDTH_TYPECODES[width]
