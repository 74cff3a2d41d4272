"""Tests for the binary storage subsystem: format, mmap views, ingest, cache.

The central guarantees exercised here:

* **Round-trip fidelity** — pack → load reproduces the graph exactly
  (node insertion order included), and a summarizer run on the loaded
  graph with the mapped CSR injected is **bit-identical** to the same
  run on the original in-memory / text-parsed graph, pinned with
  hard-coded fingerprints for SLUGGER and two baselines.
* **Fail-loud corruption handling** — bad magic, truncation, flipped
  payload bytes, and bogus section tables all raise
  ``ContainerFormatError`` (a ``GraphFormatError``), never a garbage
  graph.
* **Ingest quirks** — the edge-list reader parses messy input (BOM,
  CRLF, lone ``\r``, tabs, comments, duplicates, self-loops) to pinned
  graphs and maps malformed or non-UTF-8 lines to ``GraphFormatError``
  with their ``path:line``.
"""

from __future__ import annotations

import sys

import pytest

from repro import engine, storage
from repro.core import Slugger, SluggerConfig
from repro.exceptions import ContainerFormatError, GraphFormatError
from repro.graphs import (
    DenseAdjacency,
    Graph,
    LazyDenseAdjacency,
    caveman_graph,
    erdos_renyi_graph,
)
from repro.graphs.io import read_edge_list, write_edge_list
from repro.service import SummaryService
from repro.service.store import GraphStore
from repro.storage.cache import GraphCache, file_digest
from repro.storage.format import (
    container_digest,
    decode_varint,
    encode_varint,
    index_width_for,
)
from repro.storage.mapped import MappedCSR

#: Hash randomization changes ``hash(str)`` and therefore shingle values
#: of string-labelled graphs; string pins were captured under
#: PYTHONHASHSEED=0 (the CI determinism step).
HASHSEED_PINNED = sys.flags.hash_randomization == 0


def int_fixture() -> Graph:
    return caveman_graph(20, 10, 0.05, seed=1)


def er_fixture() -> Graph:
    return erdos_renyi_graph(300, 0.02, seed=5)


def string_fixture() -> Graph:
    return Graph(edges=[(f"v{u}", f"v{v}") for u, v in int_fixture().edges()])


def fingerprint(summary):
    if hasattr(summary, "num_p_edges"):
        return (summary.cost(), summary.num_p_edges,
                summary.num_n_edges, summary.num_h_edges)
    return (summary.cost_eq11(),)


#: Captured from serial in-memory runs (iterations=5 for the iterative
#: methods, seed=0); the generator fixtures match the pins used by
#: tests/test_execution.py.  Any drift means storage injection was not
#: output-preserving.
MEMORY_PINS = {
    ("caveman", "slugger"): (332, 133, 7, 192),
    ("caveman", "sweg"): (327,),
    ("caveman", "randomized"): (327,),
    ("er", "slugger"): (827, 788, 0, 39),
    ("er", "sweg"): (959,),
    ("er", "randomized"): (891,),
}
#: The same runs on *text round-tripped* fixtures (write_edge_list sorts
#: edges, which permutes node insertion order — deterministically).
TEXT_PINS = {
    ("caveman", "slugger"): (333, 137, 5, 191),
    ("caveman", "sweg"): (332,),
    ("caveman", "randomized"): (327,),
    ("er", "slugger"): (828, 786, 0, 42),
    ("er", "sweg"): (943,),
    ("er", "randomized"): (892,),
}
#: String-labelled fixture (PYTHONHASHSEED=0 only).
STRING_PINS = {
    "slugger": (340, 144, 5, 191),
    "sweg": (325,),
    "randomized": (326,),
}

METHOD_OPTIONS = {
    "slugger": {"iterations": 5},
    "sweg": {"iterations": 5},
    "randomized": {},
}


# ----------------------------------------------------------------------
# Varint / format primitives
# ----------------------------------------------------------------------
class TestFormatPrimitives:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**20, 2**61 - 1, 2**70])
    def test_varint_round_trip(self, value):
        out = bytearray()
        encode_varint(value, out)
        decoded, position = decode_varint(bytes(out), 0)
        assert decoded == value
        assert position == len(out)

    def test_varint_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_varint(-1, bytearray())

    def test_varint_truncation_detected(self):
        out = bytearray()
        encode_varint(300, out)
        with pytest.raises(ContainerFormatError):
            decode_varint(bytes(out[:-1]), 0)

    @pytest.mark.parametrize("nodes,width", [
        (0, 1), (1, 1), (256, 1), (257, 2), (2**16, 2), (2**16 + 1, 4),
        (2**32, 4), (2**32 + 1, 8),
    ])
    def test_index_width(self, nodes, width):
        assert index_width_for(nodes) == width

    def test_container_digest_is_content_addressed(self):
        graph_a = int_fixture()
        graph_b = int_fixture()
        csr_a = DenseAdjacency.from_graph(graph_a).freeze()
        csr_b = DenseAdjacency.from_graph(graph_b).freeze()
        assert container_digest(csr_a) == container_digest(csr_b)
        graph_b.add_edge(0, 199)
        changed = DenseAdjacency.from_graph(graph_b).freeze()
        assert container_digest(csr_a) != container_digest(changed)


# ----------------------------------------------------------------------
# Pack / load round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("make", [int_fixture, er_fixture, string_fixture])
    def test_graph_round_trip(self, tmp_path, make):
        graph = make()
        path = tmp_path / "g.slg"
        info = storage.pack(graph, path)
        assert info.num_nodes == graph.num_nodes
        assert info.num_edges == graph.num_edges
        with storage.load(path) as stored:
            loaded = stored.graph()
            assert loaded.edge_set() == graph.edge_set()
            # Insertion order is part of the contract: every downstream
            # id assignment must match the source graph's.
            assert loaded.nodes() == graph.nodes()

    def test_mapped_csr_matches_frozen_csr(self, tmp_path):
        graph = int_fixture()
        reference = DenseAdjacency.from_graph(graph).freeze()
        path = tmp_path / "g.slg"
        storage.pack(graph, path)
        with storage.load(path) as stored:
            mapped = stored.csr()
            assert isinstance(mapped, MappedCSR)
            assert mapped.num_nodes == reference.num_nodes
            assert mapped.num_edges == reference.num_edges
            assert list(mapped.indptr) == list(reference.indptr)
            assert list(mapped.indices) == list(reference.indices)
            for node in range(0, mapped.num_nodes, 7):
                assert mapped.degree(node) == reference.degree(node)
                assert list(mapped.neighbors_of(node)) == list(reference.neighbors_of(node))
            assert sorted(mapped.edge_ids()) == sorted(reference.edge_ids())
            assert mapped.has_edge(0, 1) == reference.has_edge(0, 1)
            assert not mapped.has_edge(0, 199) or reference.has_edge(0, 199)
            assert mapped.index.labels() == reference.index.labels()

    def test_thawed_dense_matches_from_graph(self, tmp_path):
        graph = int_fixture()
        reference = DenseAdjacency.from_graph(graph)
        path = tmp_path / "g.slg"
        storage.pack(graph, path)
        with storage.load(path) as stored:
            dense = stored.dense()
            # The stored read path is a thaw-on-demand overlay: nothing
            # is materialized up front, degrees/edges come straight off
            # the map, and per-node sets appear only when read.
            assert isinstance(dense, LazyDenseAdjacency)
            assert dense.thawed_nodes == 0
            assert dense.num_nodes == reference.num_nodes
            assert dense.num_edges == reference.num_edges
            assert list(dense.degrees) == list(reference.degrees)
            assert sorted(dense.edge_ids()) == sorted(reference.edge_ids())
            assert dense.thawed_nodes == 0
            assert dense.neighbors[3] == reference.neighbors[3]
            assert dense.thawed_nodes == 1
            assert list(dense.neighbors) == reference.neighbors
            assert dense.thawed_nodes == dense.num_nodes
            assert dense.index.labels() == reference.index.labels()

    def test_identity_labels_omit_dictionary(self, tmp_path):
        path = tmp_path / "g.slg"
        info = storage.pack(int_fixture(), path)
        assert not info.has_labels
        assert {entry.tag for entry in info.sections} == {"IPTR", "INDX"}

    def test_string_labels_keep_dictionary(self, tmp_path):
        path = tmp_path / "g.slg"
        info = storage.pack(string_fixture(), path)
        assert info.has_labels
        with storage.load(path) as stored:
            assert stored.csr().index.labels() == string_fixture().nodes()

    def test_mixed_and_negative_labels(self, tmp_path):
        graph = Graph(edges=[(1, "two"), ("two", -3), (-3, 1), (10**15, -3)])
        path = tmp_path / "g.slg"
        storage.pack(graph, path)
        with storage.load(path) as stored:
            loaded = stored.graph()
            assert loaded.edge_set() == graph.edge_set()
            assert loaded.nodes() == graph.nodes()
            # Types survive exactly: int 1 stays int, "two" stays str.
            assert all(type(a) is type(b)
                       for a, b in zip(loaded.nodes(), graph.nodes()))

    def test_unsupported_label_type_raises(self, tmp_path):
        graph = Graph(edges=[((1, 2), (3, 4))])
        with pytest.raises(GraphFormatError, match="int or str"):
            storage.pack(graph, tmp_path / "g.slg")

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.slg"
        storage.pack(Graph(), path)
        with storage.load(path) as stored:
            assert stored.graph().num_nodes == 0
            assert stored.graph().num_edges == 0

    def test_single_edge_graph(self, tmp_path):
        graph = Graph(edges=[(0, 1)])
        path = tmp_path / "one.slg"
        storage.pack(graph, path)
        with storage.load(path) as stored:
            assert stored.graph().edge_set() == {(0, 1)}

    def test_isolated_nodes_survive(self, tmp_path):
        graph = Graph(nodes=[0, 1, 2, 3], edges=[(0, 2)])
        path = tmp_path / "iso.slg"
        storage.pack(graph, path)
        with storage.load(path) as stored:
            assert stored.graph().nodes() == [0, 1, 2, 3]
            assert stored.graph().num_edges == 1

    def test_large_id_width_promotion(self, tmp_path):
        # 300 nodes force a 2-byte index width; cross-check a sample.
        graph = er_fixture()
        path = tmp_path / "wide.slg"
        info = storage.pack(graph, path)
        assert info.index_width == 2
        with storage.load(path) as stored:
            assert stored.graph().edge_set() == graph.edge_set()

    def test_repack_from_mapped_is_byte_identical(self, tmp_path):
        graph = string_fixture()
        first = tmp_path / "a.slg"
        second = tmp_path / "b.slg"
        storage.pack(graph, first)
        with storage.load(first) as stored:
            storage.pack(stored.graph(), second, csr=stored.csr())
        assert first.read_bytes() == second.read_bytes()

    def test_inspect_reports_sections(self, tmp_path):
        path = tmp_path / "g.slg"
        storage.pack(string_fixture(), path)
        info = storage.inspect_container(path)
        record = info.to_dict()
        assert record["num_nodes"] == 200
        assert {entry["tag"] for entry in record["sections"]} == {"IPTR", "INDX", "LBLS"}
        assert record["file_bytes"] == path.stat().st_size


# ----------------------------------------------------------------------
# Corruption / failure handling
# ----------------------------------------------------------------------
class TestCorruption:
    @pytest.fixture()
    def container(self, tmp_path):
        path = tmp_path / "g.slg"
        storage.pack(int_fixture(), path)
        return path

    def test_bad_magic(self, container):
        data = bytearray(container.read_bytes())
        data[0] ^= 0xFF
        container.write_bytes(bytes(data))
        with pytest.raises(ContainerFormatError, match="magic"):
            storage.load(container)

    def test_unsupported_version(self, container):
        data = bytearray(container.read_bytes())
        data[6] = 0xEE
        container.write_bytes(bytes(data))
        with pytest.raises(ContainerFormatError, match="version"):
            storage.load(container)

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.95])
    def test_truncated_file(self, container, fraction):
        data = container.read_bytes()
        container.write_bytes(data[:int(len(data) * fraction)])
        with pytest.raises(ContainerFormatError):
            storage.load(container)

    def test_flipped_payload_byte_fails_checksum(self, container):
        data = bytearray(container.read_bytes())
        data[len(data) // 2] ^= 0x01
        container.write_bytes(bytes(data))
        with pytest.raises(ContainerFormatError, match="checksum"):
            storage.load(container)

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "nope.slg"
        path.write_text("1 2\n2 3\n")
        with pytest.raises(ContainerFormatError):
            storage.load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "zero.slg"
        path.write_bytes(b"")
        with pytest.raises(ContainerFormatError):
            storage.load(path)

    def test_errors_are_graph_format_errors(self):
        # The acceptance contract: corrupted loads raise into the
        # GraphFormatError family, not arbitrary exceptions.
        assert issubclass(ContainerFormatError, GraphFormatError)

    def test_close_is_idempotent_and_marks_closed(self, container):
        stored = storage.load(container)
        csr = stored.csr()
        assert not csr.closed
        stored.close()
        stored.close()
        assert csr.closed


# ----------------------------------------------------------------------
# Bit-identical summarization through the storage path
# ----------------------------------------------------------------------
class TestStorageDeterminism:
    @pytest.mark.parametrize("name,make", [("caveman", int_fixture), ("er", er_fixture)])
    @pytest.mark.parametrize("method", ["slugger", "sweg", "randomized"])
    def test_memory_vs_stored_pinned(self, tmp_path, name, make, method):
        """engine.run on storage.load (MappedCSR injected) == in-memory run."""
        graph = make()
        options = METHOD_OPTIONS[method]
        reference = engine.run(method, graph, seed=0, **options)
        assert fingerprint(reference.summary) == MEMORY_PINS[(name, method)]
        path = tmp_path / "g.slg"
        storage.pack(graph, path)
        with storage.load(path) as stored:
            result = engine.run(method, stored.graph(), seed=0,
                                resources=stored, **options)
            assert fingerprint(result.summary) == MEMORY_PINS[(name, method)]
            result.summary.validate(graph)

    @pytest.mark.parametrize("name,make", [("caveman", int_fixture), ("er", er_fixture)])
    @pytest.mark.parametrize("method", ["slugger", "sweg", "randomized"])
    def test_text_vs_stored_pinned(self, tmp_path, name, make, method):
        """The acceptance pin: text-parsed and container-loaded graphs
        produce byte-identical summaries for a fixed seed."""
        text_path = tmp_path / "g.txt"
        write_edge_list(make(), text_path)
        text_graph = read_edge_list(text_path)
        options = METHOD_OPTIONS[method]
        reference = engine.run(method, text_graph, seed=0, **options)
        assert fingerprint(reference.summary) == TEXT_PINS[(name, method)]
        container = tmp_path / "g.slg"
        storage.pack(text_graph, container)
        with storage.load(container) as stored:
            result = engine.run(method, stored.graph(), seed=0,
                                resources=stored, **options)
            assert fingerprint(result.summary) == TEXT_PINS[(name, method)]
            result.summary.validate(text_graph)

    @pytest.mark.skipif(not HASHSEED_PINNED,
                        reason="string-label pins need PYTHONHASHSEED=0")
    @pytest.mark.parametrize("method", ["slugger", "sweg", "randomized"])
    def test_string_labelled_pinned(self, tmp_path, method):
        graph = string_fixture()
        options = METHOD_OPTIONS[method]
        assert fingerprint(
            engine.run(method, graph, seed=0, **options).summary
        ) == STRING_PINS[method]
        path = tmp_path / "s.slg"
        storage.pack(graph, path)
        with storage.load(path) as stored:
            result = engine.run(method, stored.graph(), seed=0,
                                resources=stored, **options)
            assert fingerprint(result.summary) == STRING_PINS[method]

    def test_stored_resources_with_direct_summarizer(self, tmp_path):
        """The storage resources also plug into Slugger.summarize directly."""
        graph = int_fixture()
        path = tmp_path / "g.slg"
        storage.pack(graph, path)
        config = SluggerConfig(iterations=5, seed=0)
        reference = Slugger(config).summarize(graph)
        with storage.load(path) as stored:
            result = Slugger(config).summarize(stored.graph(), resources=stored)
        assert fingerprint(result.summary) == fingerprint(reference.summary)

    def test_stored_with_degenerate_graphs(self, tmp_path):
        for index, graph in enumerate((Graph(), Graph(edges=[(0, 1)]))):
            path = tmp_path / f"g{index}.slg"
            storage.pack(graph, path)
            with storage.load(path) as stored:
                result = engine.run("slugger", stored.graph(), seed=0,
                                    resources=stored, iterations=3)
                reference = engine.run("slugger", graph, seed=0, iterations=3)
                assert fingerprint(result.summary) == fingerprint(reference.summary)


# ----------------------------------------------------------------------
# Edge-list ingest quirks
# ----------------------------------------------------------------------
MESSY_EDGE_LIST = (
    "\ufeff# a BOM-prefixed comment\r\n"
    "1 2\r\n"
    "% another comment style\n"
    "2\t3\t0.75\n"
    "3 4 extra trailing columns ignored\n"
    "\n"
    "4 4\n"
    "1 2\n"
    "alpha beta\n"
    "beta 1\n"
)
#: What the reader makes of ``MESSY_EDGE_LIST``: first-seen node order,
#: the self-loop and the duplicate dropped, trailing columns ignored.
MESSY_NODES = [1, 2, 3, 4, "alpha", "beta"]
MESSY_EDGES = {(1, 2), (2, 3), (3, 4), ("alpha", "beta"), ("beta", 1)}


class TestEdgeListIngest:
    def test_messy_input_parses_to_the_pinned_graph(self, tmp_path):
        path = tmp_path / "messy.txt"
        path.write_bytes(MESSY_EDGE_LIST.encode("utf-8"))
        graph = read_edge_list(path)
        assert graph.nodes() == MESSY_NODES
        assert graph.edge_set() == MESSY_EDGES
        assert not graph.has_node("\ufeff1")

    def test_lone_carriage_returns_break_lines(self, tmp_path):
        # Universal-newlines mode treats a lone \r as a line break.
        path = tmp_path / "mac.txt"
        path.write_bytes(b"1 2\r3 4\r5 6\n7 8\r\n9 10\r11 12")
        graph = read_edge_list(path)
        assert graph.edge_set() == {(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)}
        assert graph.nodes() == list(range(1, 13))

    def test_malformed_line_mid_file_raises_with_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n" * 50 + "just-one-column\n" + "3 4\n" * 50)
        with pytest.raises(GraphFormatError, match=f"{path}:51: expected at least two"):
            read_edge_list(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_edge_list(tmp_path / "absent.txt")

    def test_non_utf8_line_raises_graph_format_error(self, tmp_path):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"1 2\n3 \xff\xfe\n")
        with pytest.raises(GraphFormatError, match=f"{path}:2: not UTF-8"):
            read_edge_list(path)

    def test_non_utf8_line_is_located_past_the_decode_chunk(self, tmp_path):
        # Text mode decodes ahead in 8 KiB chunks; the reported line must
        # still be the undecodable one, with lone \r counted as a break.
        path = tmp_path / "late.txt"
        path.write_bytes(b"1 2\r\n" * 3000 + b"5 6\r" + b"7 \xe9\n" + b"3 4\n")
        with pytest.raises(GraphFormatError, match=f"{path}:3002: not UTF-8"):
            read_edge_list(path)


# ----------------------------------------------------------------------
# Content-addressed cache
# ----------------------------------------------------------------------
class TestGraphCache:
    def test_fetch_miss_then_hit(self, tmp_path):
        text = tmp_path / "g.txt"
        write_edge_list(int_fixture(), text)
        cache = GraphCache(tmp_path / "cache")
        first = cache.fetch_edge_list(text)
        # A miss packs and then maps the fresh container, so the mapped
        # substrate is available on both sides of the hit/miss split.
        assert not first.hit and first.stored is not None
        second = cache.fetch_edge_list(text)
        assert second.hit and second.stored is not None
        assert second.graph.edge_set() == first.graph.edge_set()
        assert second.graph.nodes() == first.graph.nodes()
        first.stored.close()
        second.stored.close()

    def test_source_change_misses(self, tmp_path):
        text = tmp_path / "g.txt"
        text.write_text("1 2\n")
        cache = GraphCache(tmp_path / "cache")
        cache.fetch_edge_list(text)
        text.write_text("1 2\n2 3\n")
        result = cache.fetch_edge_list(text)
        assert not result.hit
        assert result.graph.num_edges == 2
        assert len(cache.digests()) == 2

    def test_corrupt_cached_container_degrades_to_miss(self, tmp_path):
        text = tmp_path / "g.txt"
        write_edge_list(int_fixture(), text)
        cache = GraphCache(tmp_path / "cache")
        first = cache.fetch_edge_list(text)
        data = bytearray(first.container_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        first.container_path.write_bytes(bytes(data))
        recovered = cache.fetch_edge_list(text)
        assert not recovered.hit
        assert recovered.graph.edge_set() == first.graph.edge_set()
        # And the repack means the next fetch hits again.
        assert cache.fetch_edge_list(text).hit

    def test_store_csr_is_idempotent(self, tmp_path):
        cache = GraphCache(tmp_path / "cache")
        csr = DenseAdjacency.from_graph(int_fixture()).freeze()
        digest_a, path_a, created_a = cache.store_csr(csr)
        digest_b, path_b, created_b = cache.store_csr(csr)
        assert digest_a == digest_b and path_a == path_b
        assert created_a and not created_b
        assert cache.total_bytes() == path_a.stat().st_size

    def test_entries_inspect_cached_containers(self, tmp_path):
        cache = GraphCache(tmp_path / "cache")
        cache.store_graph(int_fixture())
        cache.store_graph(er_fixture())
        infos = list(cache.entries())
        assert sorted(info.num_nodes for info in infos) == [200, 300]

    def test_file_digest_tracks_bytes(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1 2\n")
        before = file_digest(path)
        assert before == file_digest(path)
        path.write_text("1 2\n3 4\n")
        assert file_digest(path) != before


# ----------------------------------------------------------------------
# Service integration: prefetch + persistence
# ----------------------------------------------------------------------
class TestStorePrefetch:
    def test_register_prefetch_builds_in_background(self):
        store = GraphStore()
        graph = int_fixture()
        handle = store.register("g", graph, prefetch=True)
        store.drain_prefetch(timeout=30)
        stats = store.stats()
        assert stats["prefetched"] == 1
        assert stats["prefetch_errors"] == 0
        assert handle.builds == 1
        # The first request finds warm views: no further build happens.
        assert handle.dense() is not None
        assert handle.builds == 1
        store.close()

    def test_register_prefetch_persists_to_cache(self, tmp_path):
        store = GraphStore(cache_dir=tmp_path / "cache")
        graph = int_fixture()
        store.register("g", graph, prefetch=True)
        store.drain_prefetch(timeout=30)
        stats = store.stats()
        assert stats["prefetched"] == 1 and stats["packed"] == 1
        [digest] = store.cache.digests()
        with store.cache.load(digest) as reloaded:
            assert reloaded.graph().edge_set() == graph.edge_set()
        # Re-registering identical content packs nothing new.
        other = int_fixture()
        store.register("g2", other, prefetch=True)
        store.drain_prefetch(timeout=30)
        assert store.stats()["packed"] == 1
        store.close()

    def test_seeded_csr_is_not_repacked(self, tmp_path):
        # A handle seeded from a container must not be re-encoded and
        # duplicated under a content digest by the persistence lane.
        graph = int_fixture()
        path = tmp_path / "g.slg"
        storage.pack(graph, path)
        stored = storage.load(path)
        store = GraphStore(cache_dir=tmp_path / "cache")
        store.register("g", graph, csr=stored.csr(), prefetch=True)
        store.drain_prefetch(timeout=30)
        stats = store.stats()
        assert stats["prefetched"] == 1
        assert stats["packed"] == 0
        assert store.cache.digests() == []
        store.close()
        stored.close()

    def test_register_with_stored_substrate_skips_build(self, tmp_path):
        graph = int_fixture()
        path = tmp_path / "g.slg"
        storage.pack(graph, path)
        stored = storage.load(path)
        store = GraphStore()
        handle = store.register("g", graph, dense=stored.dense(), csr=stored.csr())
        assert handle.builds == 0
        assert handle.csr() is stored.csr()
        assert handle.dense() is stored.dense()
        store.close()
        stored.close()

    def test_stale_seed_substrate_rejected(self, tmp_path):
        graph = int_fixture()
        path = tmp_path / "g.slg"
        storage.pack(graph, path)
        stored = storage.load(path)
        graph.add_edge(0, 199)
        store = GraphStore()
        from repro.exceptions import ServiceError
        with pytest.raises(ServiceError, match="stale"):
            store.register("g", graph, csr=stored.csr())
        store.close()
        stored.close()

    def test_service_stats_expose_prefetch(self):
        with SummaryService() as service:
            graph = int_fixture()
            service.register_graph("g", graph, prefetch=True)
            service.store.drain_prefetch(timeout=30)
            record = service.stats()["store"]
            assert record["prefetched"] == 1
            assert record["prefetch_pending"] == 0
            job = service.submit(method="slugger", graph_key="g", seed=0,
                                 options={"iterations": 5})
            assert fingerprint(job.result(timeout=120).summary) == \
                MEMORY_PINS[("caveman", "slugger")]

    def test_service_cache_dir_owns_persisting_store(self, tmp_path):
        with SummaryService(cache_dir=tmp_path / "cache") as service:
            graph = int_fixture()
            service.register_graph("g", graph, prefetch=True)
            service.store.drain_prefetch(timeout=30)
            assert service.stats()["store"]["packed"] == 1
            assert len(service.store.cache.digests()) == 1

    def test_service_rejects_store_and_cache_dir(self, tmp_path):
        from repro.exceptions import ConfigurationError
        with pytest.raises(ConfigurationError):
            SummaryService(graph_store=GraphStore(), cache_dir=tmp_path)

    def test_stored_graph_serves_identical_results_via_service(self, tmp_path):
        graph = int_fixture()
        path = tmp_path / "g.slg"
        storage.pack(graph, path)
        with storage.load(path) as stored, SummaryService() as service:
            loaded = stored.graph()
            service.register_graph("g", loaded, dense=stored.dense(),
                                   csr=stored.csr())
            job = service.submit(method="slugger", graph_key="g", seed=0,
                                 options={"iterations": 5})
            assert fingerprint(job.result(timeout=120).summary) == \
                MEMORY_PINS[("caveman", "slugger")]


# ----------------------------------------------------------------------
# Mapped CSR as compare-harness substrate
# ----------------------------------------------------------------------
class TestMappedConsumers:
    def test_compare_methods_accepts_stored_resources(self, tmp_path):
        from repro.analysis.comparison import compare_methods

        graph = int_fixture()
        path = tmp_path / "g.slg"
        storage.pack(graph, path)
        reference = compare_methods(graph, methods=("slugger", "sweg"), seed=0)
        with storage.load(path) as stored:
            results = compare_methods(stored.graph(), methods=("slugger", "sweg"),
                                      seed=0, resources=stored)
        assert [(r.method, fingerprint(r.summary)) for r in results] == \
            [(r.method, fingerprint(r.summary)) for r in reference]

    @pytest.mark.parametrize("method", ["slugger", "sweg"])
    def test_mapped_view_runs_serially_at_any_worker_count(self, tmp_path, method):
        """A worker count changes nothing on the mmap-backed substrate."""
        from repro import ExecutionConfig

        graph = er_fixture()
        path = tmp_path / "g.slg"
        storage.pack(graph, path)
        summarizer = engine.create(method, iterations=3)
        reference = summarizer.summarize(graph, seed=0)
        with storage.load(path) as stored:
            result = summarizer.summarize(
                stored.graph(), seed=0, execution=ExecutionConfig(workers=2),
                resources=stored,
            )
        assert fingerprint(result.summary) == fingerprint(reference.summary)
