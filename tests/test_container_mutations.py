"""Mutation tests: corrupted containers fail clean, never with a stray error.

Each example flips 1-4 bytes inside the section payloads of a valid
SLGRPH graph container, SUMM summary container (hierarchical, or FLAT
with its SGRP/SSED/SCRP/SCRN sections) or CKPT checkpoint container,
then re-seals every section CRC so the corruption gets past the checksum
pass and reaches the decoders.  The only acceptable
outcomes of a load are a clean load or a
:class:`~repro.exceptions.ContainerFormatError`; every load runs under a
wall-clock alarm so a decoder that hangs fails the test instead of
stalling the suite.
"""

from __future__ import annotations

import signal
import struct
import zlib
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import storage
from repro.baselines import sweg_summarize
from repro.core import Slugger, SluggerConfig
from repro.engine.hooks import RunControl
from repro.exceptions import ContainerFormatError
from repro.graphs import DenseAdjacency, Graph, caveman_graph
from repro.compression.codes import encode_pair_gaps
from repro.storage.format import (
    FLAG_SUMMARY,
    container_digest,
    encode_container,
    encode_varint,
    read_container,
    read_container_info,
    write_container_image,
)
from repro.service import SummaryService
from repro.storage.summary_store import (
    SummaryCache,
    SummaryMeta,
    config_fingerprint,
    encode_checkpoint_container,
    encode_summary_sections,
    load_checkpoint,
    load_summary,
    read_summary_meta,
)

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="the per-load timeout needs SIGALRM"
)

#: Container layout (see :mod:`repro.storage.format`): a 32-byte header,
#: then one 32-byte section-table entry per section whose CRC-32 sits
#: after the 4-byte tag and the two 8-byte offset/length fields.
_HEADER_BYTES = 32
_ENTRY = struct.Struct("<4sQQI4x")
_CRC_OFFSET = 4 + 8 + 8

#: Seconds one load may take before it counts as a hang.
LOAD_TIMEOUT_S = 5.0


class LoadTimeout(Exception):
    """A container load ran past :data:`LOAD_TIMEOUT_S`."""


@contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise LoadTimeout(f"container load took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def int_graph() -> Graph:
    # Non-contiguous int labels, so the container carries an LBLS section.
    base = caveman_graph(4, 6, 0.1, seed=3)
    return Graph(nodes=[3 * node - 20 for node in base.nodes()],
                 edges=[(3 * u - 20, 3 * v - 20) for u, v in base.edges()])


def str_graph() -> Graph:
    base = caveman_graph(4, 6, 0.1, seed=3)
    return Graph(nodes=[f"v{node}" for node in base.nodes()],
                 edges=[(f"v{u}", f"v{v}") for u, v in base.edges()])


GRAPHS = {"int": int_graph, "str": str_graph}


def _meta(csr, seed: int = -3, kind: str = "hierarchical") -> SummaryMeta:
    config_digest, config_json = config_fingerprint("slugger", {"iterations": 3})
    return SummaryMeta(kind=kind, method="slugger", seed=seed,
                       graph_digest=container_digest(csr),
                       config_digest=config_digest, config_json=config_json,
                       extra={"note": "mutation fixture"})


def build_image(kind: str, labels: str) -> bytes:
    graph = GRAPHS[labels]()
    csr = DenseAdjacency.from_graph(graph).freeze()
    if kind == "SLGRPH":
        return encode_container(csr)
    if kind in ("SUMM", "FLAT"):
        return encode_container(csr, extra_sections=summary_sections(kind, graph, csr),
                                extra_flags=FLAG_SUMMARY)
    images = []

    def sink(payload):
        images.append(encode_checkpoint_container(
            payload["summary"], _meta(csr), payload["iteration"],
            payload["rng_state"], payload["history"],
        ))

    Slugger(SluggerConfig(iterations=3, seed=0)).summarize(
        graph, control=RunControl(checkpoint_sink=sink))
    return images[1]


def summary_sections(kind: str, graph: Graph, csr):
    """The SUMM section family of the hierarchical (``SUMM``) or ``FLAT`` fixture."""
    if kind == "SUMM":
        summary = Slugger(SluggerConfig(iterations=3, seed=0)).summarize(graph).summary
        return encode_summary_sections(summary, _meta(csr))
    summary = sweg_summarize(graph, iterations=3, seed=0)
    return encode_summary_sections(summary, _meta(csr, kind="flat"), csr.index.labels())


_IMAGES = {}


def image_for(kind: str, labels: str) -> bytes:
    if (kind, labels) not in _IMAGES:
        _IMAGES[(kind, labels)] = build_image(kind, labels)
    return _IMAGES[(kind, labels)]


def payload_spans(image: bytes):
    """``(offset, length)`` of every section payload, in table order."""
    (count,) = struct.unpack_from("<H", image, _HEADER_BYTES - 2)
    spans = []
    for index in range(count):
        _tag, offset, length, _crc = _ENTRY.unpack_from(
            image, _HEADER_BYTES + index * _ENTRY.size)
        spans.append((offset, length))
    return spans


def mutate_and_reseal(image: bytes, flips) -> bytes:
    """XOR payload bytes (positions index the concatenated payloads), then
    rewrite every section CRC to match the mutated payloads."""
    spans = payload_spans(image)
    positions = [offset + i for offset, length in spans for i in range(length)]
    data = bytearray(image)
    for position, mask in flips:
        data[positions[position % len(positions)]] ^= mask
    for index, (offset, length) in enumerate(spans):
        crc = zlib.crc32(bytes(data[offset:offset + length]))
        struct.pack_into("<I", data, _HEADER_BYTES + index * _ENTRY.size + _CRC_OFFSET, crc)
    return bytes(data)


def load(kind: str, labels: str, path, verify: bool) -> None:
    """Load a container the way its consumers do, decoding every section.

    Summary-bearing containers also go through the shared reader the way
    a service cache hit does: decoded against the graph's own labels and
    digest, with nothing mapped.
    """
    graph = GRAPHS[labels]()
    if kind == "SLGRPH":
        # Every map range-checks INDX, so even an unverified load must
        # materialize cleanly or fail with a format error.
        with storage.load(path, verify=verify) as stored:
            stored.graph()
        read_container(path, verify=verify)
        return
    read_summary_meta(path)
    if kind in ("SUMM", "FLAT"):
        with load_summary(path, verify=verify) as stored:
            assert stored.summary is not None
        csr = DenseAdjacency.from_graph(graph).freeze()
        with load_summary(path, verify=verify, labels=csr.index.labels(),
                          graph_digest=container_digest(csr)) as stored:
            assert stored.stored is None
    else:
        read_container_info(path, verify=verify)
        load_checkpoint(path, graph.nodes(),
                        graph_digest=container_digest(DenseAdjacency.from_graph(graph).freeze()))


FLIPS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**20), st.integers(min_value=1, max_value=255)),
    min_size=1, max_size=4,
)


@pytest.mark.parametrize("verify", [True, False], ids=["verify", "no-verify"])
@pytest.mark.parametrize("labels", ["int", "str"])
@pytest.mark.parametrize("kind", ["SLGRPH", "SUMM", "FLAT", "CKPT"])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flips=FLIPS)
def test_mutated_container_loads_clean_or_raises_format_error(kind, labels, verify,
                                                             flips, tmp_path):
    path = tmp_path / f"{kind}-{labels}.slg"
    write_container_image(path, mutate_and_reseal(image_for(kind, labels), flips))
    try:
        with deadline(LOAD_TIMEOUT_S):
            load(kind, labels, path, verify)
    except ContainerFormatError:
        pass


@pytest.mark.parametrize("kind", ["SLGRPH", "SUMM", "FLAT", "CKPT"])
@pytest.mark.parametrize("labels", ["int", "str"])
def test_unmutated_containers_load(kind, labels, tmp_path):
    path = tmp_path / "intact.slg"
    write_container_image(path, mutate_and_reseal(image_for(kind, labels), []))
    load(kind, labels, path, verify=True)


def test_out_of_range_index_entry_is_a_format_error(tmp_path):
    image = bytearray(image_for("SLGRPH", "int"))
    info_path = tmp_path / "intact.slg"
    write_container_image(info_path, bytes(image))
    info = read_container_info(info_path)
    indices = info.section(b"INDX")
    # Point the last neighbor entry past the node count.
    last = indices.offset + indices.length - info.index_width
    image[last:last + info.index_width] = info.num_nodes.to_bytes(info.index_width, "little")
    path = tmp_path / "bad-index.slg"
    write_container_image(path, mutate_and_reseal(bytes(image), []))
    with pytest.raises(ContainerFormatError, match="INDX"):
        storage.load(path, verify=True)


def test_out_of_range_index_entry_fails_an_unverified_load(tmp_path):
    # Without checksums the INDX range check still guards the map: a
    # neighbor id past the node count is a format error, not an
    # IndexError out of graph().
    image = bytearray(image_for("SLGRPH", "int"))
    info_path = tmp_path / "intact.slg"
    write_container_image(info_path, bytes(image))
    indices = read_container_info(info_path).section(b"INDX")
    image[indices.offset] = 0xFF
    path = tmp_path / "bad-index.slg"
    write_container_image(path, bytes(image))
    with pytest.raises(ContainerFormatError, match="INDX"):
        storage.load(path, verify=False).graph()


@pytest.mark.parametrize("labels", ["int", "str"])
def test_out_of_range_index_entry_fails_a_labelled_summary_load(labels, tmp_path):
    # A summary decoded against caller labels never maps the CSR, but a
    # resealed out-of-range INDX entry must still fail the load.
    image = bytearray(image_for("SUMM", labels))
    info_path = tmp_path / "intact.slg"
    write_container_image(info_path, bytes(image))
    info = read_container_info(info_path)
    indices = info.section(b"INDX")
    image[indices.offset:indices.offset + info.index_width] = info.num_nodes.to_bytes(
        info.index_width, "little")
    path = tmp_path / "bad-index.slg"
    write_container_image(path, mutate_and_reseal(bytes(image), []))
    csr = DenseAdjacency.from_graph(GRAPHS[labels]()).freeze()
    for verify in (True, False):
        with pytest.raises(ContainerFormatError, match="INDX"):
            load_summary(path, verify=verify, labels=csr.index.labels(),
                         graph_digest=container_digest(csr))


def test_undecodable_metadata_text_is_a_format_error(tmp_path):
    image = bytearray(image_for("SUMM", "str"))
    info_path = tmp_path / "intact.slg"
    write_container_image(info_path, bytes(image))
    meta = read_container_info(info_path).section(b"SMET")
    method = bytes(image[meta.offset:meta.offset + meta.length]).index(b"slugger")
    image[meta.offset + method] = 0xFF  # Not valid UTF-8 anywhere.
    path = tmp_path / "bad-meta.slg"
    write_container_image(path, mutate_and_reseal(bytes(image), []))
    for verify in (True, False):
        with pytest.raises(ContainerFormatError, match="metadata"):
            load_summary(path, verify=verify)


# ----------------------------------------------------------------------
# Pair-list sections (SUMM v2: the shared codes.encode_pair_gaps stream)
# ----------------------------------------------------------------------
def varints(values) -> bytes:
    out = bytearray()
    for value in values:
        encode_varint(value, out)
    return bytes(out)


PAIR_SECTIONS = [("SUMM", b"SPED"), ("SUMM", b"SNED"), ("FLAT", b"SSED"),
                 ("FLAT", b"SCRP"), ("FLAT", b"SCRN")]


def image_with_sections(kind: str, replaced) -> bytes:
    """The ``kind`` fixture with the payloads of ``replaced`` (tag -> bytes)."""
    graph = int_graph()
    csr = DenseAdjacency.from_graph(graph).freeze()
    sections = [(tag, replaced.get(tag, payload))
                for tag, payload in summary_sections(kind, graph, csr)]
    return encode_container(csr, extra_sections=sections, extra_flags=FLAG_SUMMARY)


@pytest.mark.parametrize("kind, tag", PAIR_SECTIONS,
                         ids=[f"{kind}-{tag.decode()}" for kind, tag in PAIR_SECTIONS])
@pytest.mark.parametrize("stream, error", [
    # A count near 2**62 over a one-pair payload: decoding stops at the
    # end of the section, it never loops or allocates up to the count.
    ([2**62] + encode_pair_gaps([(0, 1)])[1:], "ends after 1 of"),
    # (0, 1) twice: a zero gap inside a row.
    ([2, 0, 1, 0, 0], "repeated"),
    ([1, 0, 1, 5], "trailing"),
], ids=["forged-count", "repeated-pair", "trailing-varint"])
def test_forged_pair_section_is_a_format_error(kind, tag, stream, error, tmp_path):
    path = tmp_path / "forged.slg"
    write_container_image(path, image_with_sections(kind, {tag: varints(stream)}))
    for verify in (True, False):
        with deadline(LOAD_TIMEOUT_S), pytest.raises(ContainerFormatError, match=error):
            load(kind, "int", path, verify)


def test_flat_superedge_to_unknown_group_is_a_format_error(tmp_path):
    path = tmp_path / "forged.slg"
    write_container_image(path, image_with_sections(
        "FLAT", {b"SSED": varints(encode_pair_gaps([(0, 10**6)]))}))
    for verify in (True, False):
        with pytest.raises(ContainerFormatError, match="unknown group"):
            load("FLAT", "int", path, verify)


def forged_flat_grouping(case: str):
    """``{tag: payload}`` replacing the FLAT fixture's grouping so that it
    lists a subnode twice, repeats a group id, or leaves a subnode that a
    correction names in no group."""
    graph = int_graph()
    csr = DenseAdjacency.from_graph(graph).freeze()
    summary = sweg_summarize(graph, iterations=3, seed=0)
    node_ids = {label: position for position, label in enumerate(csr.index.labels())}
    gids = list(summary.groups)
    entries = [(node_ids[node], gid) for node, gid in summary.group_of.items()]
    assert len(gids) >= 2
    replaced = {}
    if case == "subnode-in-two-groups":
        node, gid = entries[0]
        entries.append((node, next(other for other in gids if other != gid)))
    elif case == "repeated-group-id":
        gids.append(gids[0])
    else:
        (orphan, _), (kept, _) = entries.pop(0), entries[0]
        replaced[b"SCRP"] = varints(encode_pair_gaps([tuple(sorted((orphan, kept)))]))
    replaced[b"SGRP"] = varints([len(gids), *gids, len(entries),
                                 *(value for entry in entries for value in entry)])
    return replaced


@pytest.mark.parametrize("case, error", [
    ("subnode-in-two-groups", "in two groups"),
    ("repeated-group-id", "repeats a group id"),
    ("correction-outside-every-group", "unknown subnode"),
])
def test_malformed_flat_grouping_is_a_format_error(case, error, tmp_path):
    path = tmp_path / "forged.slg"
    write_container_image(path, image_with_sections("FLAT", forged_flat_grouping(case)))
    for verify in (True, False):
        with pytest.raises(ContainerFormatError, match=error):
            load("FLAT", "int", path, verify)


def with_summary_version(image: bytes, version: int) -> bytes:
    """``image`` with the SMET version varint rewritten and every CRC resealed."""
    spans = payload_spans(image)
    (count,) = struct.unpack_from("<H", image, _HEADER_BYTES - 2)
    tags = [_ENTRY.unpack_from(image, _HEADER_BYTES + index * _ENTRY.size)[0]
            for index in range(count)]
    offset, _length = spans[tags.index(b"SMET")]
    data = bytearray(image)
    data[offset] = version
    return mutate_and_reseal(bytes(data), [])


@pytest.mark.parametrize("kind", ["SUMM", "CKPT"])
def test_version_1_summary_sections_are_rejected(kind, tmp_path):
    path = tmp_path / "v1.slg"
    write_container_image(path, with_summary_version(image_for(kind, "int"), 1))
    with pytest.raises(ContainerFormatError, match="version 1"):
        read_summary_meta(path)
    with pytest.raises(ContainerFormatError, match="version 1"):
        load(kind, "int", path, verify=True)


def test_a_version_1_cache_entry_is_recomputed(tmp_path):
    graph = int_graph()
    csr = DenseAdjacency.from_graph(graph).freeze()
    meta = _meta(csr)
    cache = SummaryCache(tmp_path)
    path = cache.store_summary(meta.key, with_summary_version(image_for("SUMM", "int"), 1))
    with SummaryService(summary_cache_dir=tmp_path) as service:
        result = service.submit(method="slugger", graph=graph, seed=meta.seed,
                                options={"iterations": 3}).result(timeout=120)
        assert result.details.get("summary_cache") != "hit"
        assert service.summary_cache.counters["corrupt"] == 1
        assert service.stats()["summary_cache_hits"] == 0
    # The recomputed summary replaced the old entry in the current format.
    assert read_summary_meta(path).key == meta.key
    with load_summary(path, labels=csr.index.labels(),
                      graph_digest=container_digest(csr)) as stored:
        stored.summary.validate(graph)
