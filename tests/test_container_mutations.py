"""Mutation tests: corrupted containers fail clean, never with a stray error.

Each example flips 1-4 bytes inside the section payloads of a valid
SLGRPH graph container, SUMM summary container or CKPT checkpoint
container, then re-seals every section CRC so the corruption gets past
the checksum pass and reaches the decoders.  The only acceptable
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
from repro.core import Slugger, SluggerConfig
from repro.engine.hooks import RunControl
from repro.exceptions import ContainerFormatError
from repro.graphs import DenseAdjacency, Graph, caveman_graph
from repro.storage.format import (
    container_digest,
    encode_container,
    read_container,
    read_container_info,
    write_container_image,
)
from repro.storage.summary_store import (
    SummaryMeta,
    config_fingerprint,
    encode_checkpoint_container,
    encode_summary_container,
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


def _meta(csr, seed: int = -3) -> SummaryMeta:
    config_digest, config_json = config_fingerprint("slugger", {"iterations": 3})
    return SummaryMeta(kind="hierarchical", method="slugger", seed=seed,
                       graph_digest=container_digest(csr),
                       config_digest=config_digest, config_json=config_json,
                       extra={"note": "mutation fixture"})


def build_image(kind: str, labels: str) -> bytes:
    graph = GRAPHS[labels]()
    csr = DenseAdjacency.from_graph(graph).freeze()
    if kind == "SLGRPH":
        return encode_container(csr)
    if kind == "SUMM":
        result = Slugger(SluggerConfig(iterations=3, seed=0)).summarize(graph)
        return encode_summary_container(csr, result.summary, _meta(csr))
    images = []

    def sink(payload):
        images.append(encode_checkpoint_container(
            payload["summary"], _meta(csr), payload["iteration"],
            payload["rng_state"], payload["history"],
        ))

    Slugger(SluggerConfig(iterations=3, seed=0)).summarize(
        graph, control=RunControl(checkpoint_sink=sink))
    return images[1]


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
    if kind == "SUMM":
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
@pytest.mark.parametrize("kind", ["SLGRPH", "SUMM", "CKPT"])
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


@pytest.mark.parametrize("kind", ["SLGRPH", "SUMM", "CKPT"])
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
