"""Tests for summary persistence: SUMM sections, result cache, resume.

The central guarantees exercised here:

* **Content addressing** — ``summary_key`` is a pure function of graph
  digest, method, seed, and the *resolved* config fingerprint: default
  options and explicit defaults address the same entry, the execution
  config never participates, and seedless runs are uncacheable.
* **Canonical round trips** — hierarchical and flat summaries encode to
  byte-identical ``SUMM`` sections whenever the summaries are equal, and
  ``encode → write → load_summary`` reproduces fingerprint, metadata,
  history, and decompression exactly.
* **Fail-loud corruption handling** — truncation, flipped payload bytes,
  version skew, missing sections, and wrong-container loads all raise
  ``ContainerFormatError``; the cache converts corruption into a miss
  (unlink + recompute), never a bad summary.
* **Bit-identical warm starts and resumes** — a fresh service over a
  populated cache returns the stored summary with zero summarizer
  iterations, and a run killed at iteration *k* resumes from its
  checkpoint to the same fingerprint and history as an uninterrupted
  run with the same seed.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import engine, storage
from repro.algorithms.components import connected_components, summary_components_ids
from repro.algorithms.kernels import components_ids
from repro.algorithms.providers import resolve_id_adjacency
from repro.core import Slugger, SluggerConfig
from repro.engine.hooks import RunControl
from repro.exceptions import ConfigurationError, ContainerFormatError, JobCancelled
from repro.graphs import (
    DenseAdjacency,
    Graph,
    caveman_graph,
    erdos_renyi_graph,
)
from repro.model.hierarchy import Hierarchy
from repro.model.summary import HierarchicalSummary
from repro.service import SummaryService
from repro.storage.format import (
    FLAG_SUMMARY,
    container_digest,
    encode_container,
    read_container_info,
    write_container_image,
)
from repro.storage.summary_store import (
    TAG_SUMMARY_META,
    SummaryCache,
    SummaryMeta,
    config_fingerprint,
    encode_checkpoint_container,
    encode_summary_container,
    encode_summary_sections,
    load_checkpoint,
    load_summary,
    read_summary_meta,
    summary_fingerprint,
    summary_key,
)

#: SHA-256 of the canonical SUMM encoding of the iterations=8 / seed=0
#: SLUGGER summary of the caveman fixture.  The hierarchical codec is
#: id-native, so the string-labelled twin of the fixture pins the *same*
#: digest — and neither depends on PYTHONHASHSEED (the dense substrate
#: made shingles id-based).  Any drift means the canonical encoding
#: changed and every existing cache entry silently mis-addresses.
CAVEMAN_PIN = "22ff9fd0e2890140dc0dfdbc208dec61ca009815729a311f5f8fbcbec0c391e5"


def int_fixture() -> Graph:
    return caveman_graph(4, 6, seed=1)


def string_fixture() -> Graph:
    return Graph(edges=[(f"v{u}", f"v{v}") for u, v in int_fixture().edges()])


def frozen_csr(graph: Graph):
    return DenseAdjacency.from_graph(graph).freeze()


def summarize(graph: Graph, iterations: int = 8, seed: int = 0, **options):
    return Slugger(
        SluggerConfig(iterations=iterations, seed=seed, **options)
    ).summarize(graph)


def meta_for(graph, csr, result, iterations: int = 8, seed: int = 0) -> SummaryMeta:
    config_digest, config_json = config_fingerprint(
        "slugger", {"iterations": iterations}
    )
    return SummaryMeta(
        kind="hierarchical",
        method="slugger",
        seed=seed,
        graph_digest=container_digest(csr),
        config_digest=config_digest,
        config_json=config_json,
        extra={"history": result.history},
    )


def checkpoint_images(graph, csr, iterations: int = 8, seed: int = 0):
    """Run SLUGGER with a sink that encodes each boundary immediately.

    The sink contract hands over *live* references (the run's summary
    and history keep evolving), so snapshots must serialize inside the
    sink call — exactly what the service's sink does.  Returns the
    finished result and ``{iteration: encoded checkpoint image}``.
    """
    config_digest, config_json = config_fingerprint(
        "slugger", {"iterations": iterations}
    )
    meta = SummaryMeta(
        kind="hierarchical", method="slugger", seed=seed,
        graph_digest=container_digest(csr),
        config_digest=config_digest, config_json=config_json,
    )
    images = {}

    def sink(payload):
        images[payload["iteration"]] = encode_checkpoint_container(
            payload["summary"], meta, payload["iteration"],
            payload["rng_state"], payload["history"],
        )

    control = RunControl(checkpoint_sink=sink)
    result = Slugger(SluggerConfig(iterations=iterations, seed=seed)).summarize(
        graph, control=control
    )
    return result, images, meta


def wide_checkpoint_image(graph, meta: SummaryMeta) -> bytes:
    """A checkpoint whose hierarchy has a 3-child root, which merging never builds."""
    summary = HierarchicalSummary.from_graph(graph)
    summary.hierarchy.create_parent([0, 1, 2])
    return encode_checkpoint_container(
        summary, meta, 1, random.Random(0).getstate(), []
    )


def write_summary(tmp_path, graph, iterations: int = 8, seed: int = 0):
    """``(path, result, csr, meta)`` for a packed summary container."""
    csr = frozen_csr(graph)
    result = summarize(graph, iterations=iterations, seed=seed)
    meta = meta_for(graph, csr, result, iterations=iterations, seed=seed)
    path = tmp_path / "summary.slg"
    write_container_image(path, encode_summary_container(csr, result.summary, meta))
    return path, result, csr, meta


# ======================================================================
# Content addressing
# ======================================================================
class TestSummaryKeying:
    def test_default_options_address_like_explicit_defaults(self):
        assert config_fingerprint("slugger", {}) == config_fingerprint(
            "slugger", {"iterations": 20}
        )

    def test_non_default_options_change_the_address(self):
        assert config_fingerprint("slugger", {"iterations": 3}) != config_fingerprint(
            "slugger", {"iterations": 20}
        )

    def test_option_order_is_canonicalized(self):
        assert config_fingerprint(
            "slugger", {"iterations": 5, "prune": True}
        ) == config_fingerprint("slugger", {"prune": True, "iterations": 5})

    def test_seed_is_excluded_from_the_config_digest(self):
        # The seed addresses through summary_key, not the config digest,
        # so one config fingerprint covers every seed of that config.
        digest_a, _ = config_fingerprint("slugger", {"iterations": 5})
        digest_b, _ = config_fingerprint("slugger", {"iterations": 5, "seed": 9})
        assert digest_a == digest_b

    def test_summary_key_separates_every_coordinate(self):
        base = summary_key("g" * 64, "slugger", 0, "c" * 64)
        assert summary_key("h" * 64, "slugger", 0, "c" * 64) != base
        assert summary_key("g" * 64, "sweg", 0, "c" * 64) != base
        assert summary_key("g" * 64, "slugger", 1, "c" * 64) != base
        assert summary_key("g" * 64, "slugger", 0, "d" * 64) != base
        assert summary_key("g" * 64, "slugger", 0, "c" * 64) == base

    def test_meta_key_matches_summary_key(self):
        graph = int_fixture()
        csr = frozen_csr(graph)
        result = summarize(graph, iterations=3)
        meta = meta_for(graph, csr, result, iterations=3)
        assert meta.key == summary_key(
            meta.graph_digest, "slugger", 0, meta.config_digest
        )

    def test_meta_to_dict_is_json_friendly(self):
        graph = int_fixture()
        csr = frozen_csr(graph)
        result = summarize(graph, iterations=3)
        record = meta_for(graph, csr, result, iterations=3).to_dict()
        assert record["kind"] == "hierarchical"
        assert record["method"] == "slugger"
        assert record["seed"] == 0
        assert record["key"] == summary_key(
            record["graph_digest"], "slugger", 0, record["config_digest"]
        )


# ======================================================================
# Round trips
# ======================================================================
class TestSummaryRoundTrip:
    def test_hierarchical_round_trip(self, tmp_path):
        graph = int_fixture()
        path, result, csr, meta = write_summary(tmp_path, graph)
        with load_summary(path) as stored:
            assert stored.fingerprint() == summary_fingerprint(result.summary)
            assert stored.meta.method == "slugger"
            assert stored.meta.seed == 0
            assert stored.meta.kind == "hierarchical"
            assert stored.meta.graph_digest == container_digest(csr)
            assert stored.meta.extra["history"] == result.history
            decompressed = stored.summary.decompress()
            assert decompressed.num_edges == graph.num_edges
            assert sorted(decompressed.edges()) == sorted(graph.edges())

    @pytest.mark.parametrize("seed", [2**63, 2**64 + 5, -(2**63) - 1])
    def test_seed_past_64_bits_round_trips(self, tmp_path, seed):
        graph = int_fixture()
        csr = frozen_csr(graph)
        result = summarize(graph, iterations=2, seed=0)
        meta = meta_for(graph, csr, result, iterations=2, seed=seed)
        path = tmp_path / "summary.slg"
        write_container_image(path, encode_summary_container(csr, result.summary, meta))
        with load_summary(path) as stored:
            assert stored.meta.seed == seed

    def test_canonical_reencode_is_byte_identical(self, tmp_path):
        # Equal summaries ⇒ byte-identical sections is what makes the
        # store content-addressable; re-encoding a decoded summary must
        # reproduce the original image exactly.
        graph = int_fixture()
        path, result, csr, meta = write_summary(tmp_path, graph)
        original = path.read_bytes()
        with load_summary(path) as stored:
            image = encode_summary_container(csr, stored.summary, stored.meta)
        assert image == original

    def test_flat_round_trip(self, tmp_path):
        graph = int_fixture()
        csr = frozen_csr(graph)
        result = engine.run("sweg", graph, seed=0, iterations=4)
        labels = csr.index.labels()
        config_digest, config_json = config_fingerprint("sweg", {"iterations": 4})
        meta = SummaryMeta(
            kind="flat", method="sweg", seed=0,
            graph_digest=container_digest(csr),
            config_digest=config_digest, config_json=config_json,
            extra={"history": result.history},
        )
        path = tmp_path / "flat.slg"
        write_container_image(
            path, encode_summary_container(csr, result.summary, meta)
        )
        with load_summary(path) as stored:
            assert stored.meta.kind == "flat"
            assert stored.fingerprint() == summary_fingerprint(
                result.summary, labels
            )
            assert stored.summary.cost_eq11() == result.summary.cost_eq11()

    def test_canonical_encoding_pin(self):
        # Hard-coded codec-drift guard: see the CAVEMAN_PIN comment.
        int_summary = summarize(int_fixture()).summary
        assert summary_fingerprint(int_summary) == CAVEMAN_PIN
        string_summary = summarize(string_fixture()).summary
        assert summary_fingerprint(string_summary) == CAVEMAN_PIN

    def test_string_label_round_trip(self, tmp_path):
        graph = string_fixture()
        path, result, csr, meta = write_summary(tmp_path, graph)
        with load_summary(path) as stored:
            assert stored.fingerprint() == summary_fingerprint(result.summary)
            decompressed = stored.summary.decompress()
            assert sorted(decompressed.edges()) == sorted(graph.edges())

    def test_read_summary_meta_without_loading_the_summary(self, tmp_path):
        graph = int_fixture()
        path, result, csr, meta = write_summary(tmp_path, graph)
        cheap = read_summary_meta(path)
        assert cheap.key == meta.key
        assert cheap.extra["history"] == result.history

    def test_inspect_reports_summary_flag(self, tmp_path):
        graph = int_fixture()
        path, _, _, _ = write_summary(tmp_path, graph)
        info = storage.inspect_container(path)
        assert info.has_summary
        assert info.has_csr
        plain = tmp_path / "plain.slg"
        storage.pack(graph, plain)
        assert not storage.inspect_container(plain).has_summary


# ======================================================================
# Corruption and wrong-container handling
# ======================================================================
class TestCorruption:
    def test_load_summary_rejects_plain_container(self, tmp_path):
        path = tmp_path / "plain.slg"
        storage.pack(int_fixture(), path)
        with pytest.raises(ContainerFormatError, match="no summary sections"):
            load_summary(path)

    def test_read_summary_meta_rejects_plain_container(self, tmp_path):
        path = tmp_path / "plain.slg"
        storage.pack(int_fixture(), path)
        with pytest.raises(ContainerFormatError, match="no summary metadata"):
            read_summary_meta(path)

    def _checkpoint_path(self, tmp_path, graph, at: int = 3):
        csr = frozen_csr(graph)
        _, images, _ = checkpoint_images(graph, csr)
        path = tmp_path / "resume.ckpt.slg"
        write_container_image(path, images[at])
        return path, csr

    def test_load_summary_rejects_checkpoint_container(self, tmp_path):
        path, _ = self._checkpoint_path(tmp_path, int_fixture())
        with pytest.raises(ContainerFormatError, match="load_checkpoint"):
            load_summary(path)

    def test_mapped_load_rejects_checkpoint_container(self, tmp_path):
        path, _ = self._checkpoint_path(tmp_path, int_fixture())
        with pytest.raises(ContainerFormatError, match="no CSR sections"):
            storage.load(path)

    def test_load_checkpoint_rejects_summary_container(self, tmp_path):
        graph = int_fixture()
        path, _, _, _ = write_summary(tmp_path, graph)
        with pytest.raises(ContainerFormatError, match="not a checkpoint"):
            load_checkpoint(path, list(graph.nodes()))

    def test_checkpoint_graph_digest_guard(self, tmp_path):
        graph = int_fixture()
        path, _ = self._checkpoint_path(tmp_path, graph)
        with pytest.raises(ContainerFormatError, match="refusing to resume"):
            load_checkpoint(path, list(graph.nodes()), graph_digest="f" * 64)

    def test_load_checkpoint_rejects_non_binary_hierarchy(self, tmp_path):
        graph = int_fixture()
        _, _, meta = checkpoint_images(graph, frozen_csr(graph))
        path = tmp_path / "wide.ckpt.slg"
        write_container_image(path, wide_checkpoint_image(graph, meta))
        with pytest.raises(ContainerFormatError, match="has 3 children"):
            load_checkpoint(path, list(graph.nodes()))

    def test_flipped_payload_byte_fails_the_load(self, tmp_path):
        graph = int_fixture()
        path, _, _, _ = write_summary(tmp_path, graph)
        info = read_container_info(path)
        entry = info.maybe_section(b"SHIE")
        assert entry is not None
        blob = bytearray(path.read_bytes())
        blob[entry.offset] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerFormatError):
            load_summary(path)

    def _container_with_loaders(self, tmp_path, kind, verify):
        """A fresh container of ``kind`` and every loader that opens it."""
        graph = int_fixture()
        if kind == "SLGRPH":
            path = tmp_path / "plain.slg"
            storage.pack(graph, path)
            return path, [lambda: storage.load(path, verify=verify),
                          lambda: read_container_info(path, verify=verify)]
        if kind == "SUMM":
            path, _, _, _ = write_summary(tmp_path, graph)
            return path, [lambda: load_summary(path, verify=verify),
                          lambda: storage.load(path, verify=verify)]
        path, _ = self._checkpoint_path(tmp_path, graph)
        return path, [lambda: storage.load(path, verify=verify),
                      lambda: load_checkpoint(path, list(graph.nodes()))]

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("kind", ["SLGRPH", "SUMM", "CKPT"])
    def test_non_ascii_section_tag_is_a_format_error(self, tmp_path, kind, verify,
                                                     position):
        # Setting the high bit of one byte of one section tag must fail
        # every loader with ContainerFormatError, never UnicodeDecodeError.
        path, loaders = self._container_with_loaders(tmp_path, kind, verify)
        pristine = path.read_bytes()
        sections = read_container_info(path).sections
        for entry in sections:
            where = pristine.index(entry.tag.encode("ascii"))
            assert where < min(section.offset for section in sections)
            blob = bytearray(pristine)
            blob[where + position] ^= 0x80
            path.write_bytes(bytes(blob))
            for loader in loaders:
                with pytest.raises(ContainerFormatError, match="not ASCII"):
                    loader()

    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("kind", ["SLGRPH", "SUMM"])
    @pytest.mark.parametrize("num_nodes", [2 ** 31, 2 ** 40, 2 ** 63])
    def test_huge_header_node_count_is_a_format_error(self, tmp_path, kind, verify,
                                                      num_nodes):
        # The header's node count must be checked against the IPTR payload
        # before it sizes an allocation: a flipped high byte is a format
        # error, never a MemoryError.
        if kind == "SLGRPH":
            path = tmp_path / "plain.slg"
            storage.pack(int_fixture(), path)
            loaders = [storage.load]
        else:
            path, _, _, _ = write_summary(tmp_path, int_fixture())
            loaders = [storage.load, load_summary]
        blob = bytearray(path.read_bytes())
        # Header: 6-byte magic, u16 version, u16 flags, then u64 num_nodes.
        blob[10:18] = num_nodes.to_bytes(8, "little")
        path.write_bytes(bytes(blob))
        for loader in loaders:
            with pytest.raises(ContainerFormatError, match="too few"):
                loader(path, verify=verify)

    def test_truncated_container_fails_the_load(self, tmp_path):
        graph = int_fixture()
        path, _, _, _ = write_summary(tmp_path, graph)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises((ContainerFormatError, ValueError)):
            load_summary(path)

    def test_version_skew_is_rejected(self, tmp_path):
        graph = int_fixture()
        csr = frozen_csr(graph)
        result = summarize(graph, iterations=3)
        meta = meta_for(graph, csr, result, iterations=3)
        sections = encode_summary_sections(result.summary, meta)
        skewed = []
        for tag, payload in sections:
            if tag == TAG_SUMMARY_META:
                # The SMET payload leads with varint version 1; claim a
                # future version the reader must refuse.
                payload = b"\x02" + payload[1:]
            skewed.append((tag, payload))
        path = tmp_path / "skewed.slg"
        write_container_image(
            path,
            encode_container(csr, extra_sections=skewed, extra_flags=FLAG_SUMMARY),
        )
        with pytest.raises(ContainerFormatError, match="unsupported summary section"):
            load_summary(path)

    def test_missing_section_is_rejected(self, tmp_path):
        graph = int_fixture()
        csr = frozen_csr(graph)
        result = summarize(graph, iterations=3)
        meta = meta_for(graph, csr, result, iterations=3)
        sections = [
            (tag, payload)
            for tag, payload in encode_summary_sections(result.summary, meta)
            if tag != b"SHIE"
        ]
        path = tmp_path / "gutted.slg"
        write_container_image(
            path,
            encode_container(csr, extra_sections=sections, extra_flags=FLAG_SUMMARY),
        )
        with pytest.raises(ContainerFormatError, match="missing its SHIE"):
            load_summary(path)


# ======================================================================
# The cache
# ======================================================================
class TestSummaryCache:
    def _image_and_meta(self, graph, iterations=3, seed=0):
        csr = frozen_csr(graph)
        result = summarize(graph, iterations=iterations, seed=seed)
        meta = meta_for(graph, csr, result, iterations=iterations, seed=seed)
        return encode_summary_container(csr, result.summary, meta), meta, result

    def test_store_then_load_is_bit_identical(self, tmp_path):
        image, meta, result = self._image_and_meta(int_fixture())
        cache = SummaryCache(tmp_path / "cache")
        cache.store_summary(meta.key, image)
        assert cache.has_summary(meta.key)
        stored = cache.load_summary(meta.key)
        assert stored is not None
        with stored:
            assert stored.fingerprint() == summary_fingerprint(result.summary)
            assert stored.meta.extra["history"] == result.history

    def test_miss_returns_none(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        assert cache.load_summary("0" * 64) is None
        assert not cache.has_summary("0" * 64)

    def test_corrupt_entry_becomes_a_miss_and_is_unlinked(self, tmp_path):
        image, meta, _ = self._image_and_meta(int_fixture())
        cache = SummaryCache(tmp_path / "cache")
        path = cache.store_summary(meta.key, image)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.load_summary(meta.key) is None
        assert not path.exists()

    def test_store_summary_drops_the_checkpoint(self, tmp_path):
        image, meta, _ = self._image_and_meta(int_fixture())
        cache = SummaryCache(tmp_path / "cache")
        # A stale in-flight checkpoint must not outlive the finished
        # summary it was a snapshot of.
        cache.checkpoint_path(meta.key).write_bytes(b"placeholder")
        assert cache.has_checkpoint(meta.key)
        cache.store_summary(meta.key, image)
        assert not cache.has_checkpoint(meta.key)

    def test_lru_eviction_spares_recently_touched_entries(self, tmp_path):
        graph = int_fixture()
        images = [
            self._image_and_meta(graph, iterations=3, seed=seed)
            for seed in range(3)
        ]
        cache = SummaryCache(tmp_path / "cache")
        for position, (image, meta, _) in enumerate(images):
            path = cache.store_summary(meta.key, image)
            # Pin distinct mtimes without sleeping; seed 0 is oldest.
            os.utime(path, (1_000_000 + position, 1_000_000 + position))
        sizes = {meta.key: len(image) for image, meta, _ in images}
        keep_two = sizes[images[1][1].key] + sizes[images[2][1].key]
        report = cache.gc(budget_bytes=keep_two)
        assert report["evicted"] == 1
        assert report["freed_bytes"] == sizes[images[0][1].key]
        assert report["kept"] == 2
        assert not cache.has_summary(images[0][1].key)
        assert cache.has_summary(images[1][1].key)
        assert cache.has_summary(images[2][1].key)

    def test_gc_budget_zero_empties_the_cache(self, tmp_path):
        image, meta, _ = self._image_and_meta(int_fixture())
        cache = SummaryCache(tmp_path / "cache")
        cache.store_summary(meta.key, image)
        report = cache.gc(budget_bytes=0)
        assert report["evicted"] == 1
        assert report["total_bytes"] == 0
        assert cache.entries() == []

    def test_store_budget_enforced_automatically(self, tmp_path):
        image, meta, _ = self._image_and_meta(int_fixture())
        cache = SummaryCache(tmp_path / "cache", budget_bytes=len(image))
        cache.store_summary(meta.key, image)
        assert cache.has_summary(meta.key)
        other, other_meta, _ = self._image_and_meta(int_fixture(), seed=1)
        first = cache.summary_path(meta.key)
        os.utime(first, (1_000_000, 1_000_000))
        cache.store_summary(other_meta.key, other)
        # The budget holds one entry; the older one is evicted.
        assert cache.total_bytes() <= len(image) + len(other)
        assert not cache.has_summary(meta.key)
        assert cache.has_summary(other_meta.key)

    def test_entries_and_stats_reporting(self, tmp_path):
        image, meta, _ = self._image_and_meta(int_fixture())
        cache = SummaryCache(tmp_path / "cache", budget_bytes=10_000_000)
        cache.store_summary(meta.key, image)
        records = cache.entries()
        assert [record["key"] for record in records] == [meta.key]
        assert records[0]["kind"] == "summary"
        assert records[0]["bytes"] == len(image)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["checkpoints"] == 0
        assert stats["total_bytes"] == len(image)
        assert stats["budget_bytes"] == 10_000_000

    def test_negative_budget_is_rejected(self, tmp_path):
        directory = tmp_path / "cache"
        with pytest.raises(ConfigurationError, match="non-negative"):
            SummaryCache(directory, budget_bytes=-1)
        assert not directory.exists()
        with pytest.raises(ConfigurationError, match="non-negative"):
            SummaryService(summary_cache_dir=directory, summary_cache_budget=-1)


# ======================================================================
# Checkpoint / resume bit-identity
# ======================================================================
class TestCheckpointResume:
    def test_checkpoint_sink_does_not_perturb_the_run(self):
        graph = int_fixture()
        plain = summarize(graph)
        result, images, _ = checkpoint_images(graph, frozen_csr(graph))
        assert summary_fingerprint(result.summary) == summary_fingerprint(
            plain.summary
        )
        assert result.history == plain.history
        assert set(images) == set(range(1, 9))

    def _resume_roundtrip(self, graph, at: int, tmp_path):
        csr = frozen_csr(graph)
        reference, images, _ = checkpoint_images(graph, csr)
        path = tmp_path / f"at{at}.ckpt.slg"
        write_container_image(path, images[at])
        checkpoint = load_checkpoint(
            path, list(graph.nodes()), graph_digest=container_digest(csr)
        )
        assert checkpoint.iteration == at
        assert len(checkpoint.history) == at
        control = RunControl(
            resume_payload={
                "iteration": checkpoint.iteration,
                "summary": checkpoint.summary,
                "rng_state": checkpoint.rng_state,
                "history": checkpoint.history,
            }
        )
        resumed = Slugger(SluggerConfig(iterations=8, seed=0)).summarize(
            graph, control=control
        )
        assert summary_fingerprint(resumed.summary) == summary_fingerprint(
            reference.summary
        )
        assert resumed.history == reference.history

    def test_resume_is_bit_identical_at_every_boundary(self, tmp_path):
        graph = int_fixture()
        for at in (1, 3, 7):
            self._resume_roundtrip(graph, at, tmp_path)

    def test_resume_is_bit_identical_for_string_labels(self, tmp_path):
        # Leaves are rebuilt against the live graph's node order, so the
        # round trip must hold for arbitrary hashable labels too.
        self._resume_roundtrip(string_fixture(), 3, tmp_path)


# ======================================================================
# Service integration: warm start, resume, inline path
# ======================================================================
class TestServiceWarmStart:
    def test_cold_run_persists_then_fresh_service_warm_starts(self, tmp_path):
        graph = int_fixture()
        cache_dir = tmp_path / "cache"
        with SummaryService(summary_cache_dir=cache_dir) as service:
            cold = service.submit(
                method="slugger", graph=graph, seed=0,
                options={"iterations": 6},
            ).result()
            stats = service.stats()
            assert stats["summary_cache_stores"] == 1
            assert stats["summary_cache_hits"] == 0
            assert stats["summary_cache_errors"] == 0
        cold_fingerprint = summary_fingerprint(cold.summary)

        stages = []
        with SummaryService(summary_cache_dir=cache_dir) as service:
            job = service.submit(
                method="slugger", graph=graph, seed=0,
                options={"iterations": 6},
            )
            job.add_progress_listener(lambda event: stages.append(event.stage))
            warm = job.result()
            stats = service.stats()
            assert stats["summary_cache_hits"] == 1
            assert stats["summary_cache_stores"] == 0
        assert warm.details.get("summary_cache") == "hit"
        assert "iteration" not in stages
        assert summary_fingerprint(warm.summary) == cold_fingerprint
        assert warm.history == cold.history

    def test_different_seed_misses(self, tmp_path):
        graph = int_fixture()
        cache_dir = tmp_path / "cache"
        with SummaryService(summary_cache_dir=cache_dir) as service:
            service.submit(
                method="slugger", graph=graph, seed=0,
                options={"iterations": 3},
            ).result()
            service.submit(
                method="slugger", graph=graph, seed=1,
                options={"iterations": 3},
            ).result()
            stats = service.stats()
            assert stats["summary_cache_hits"] == 0
            assert stats["summary_cache_stores"] == 2

    def test_seedless_requests_bypass_the_cache(self, tmp_path):
        graph = int_fixture()
        with SummaryService(summary_cache_dir=tmp_path / "cache") as service:
            service.submit(
                method="slugger", graph=graph, options={"iterations": 3}
            ).result()
            stats = service.stats()
            assert stats["summary_cache_stores"] == 0
            assert stats["summary_cache"]["entries"] == 0

    def test_inline_run_consults_and_populates_the_cache(self, tmp_path):
        from repro.service import SummaryRequest

        graph = int_fixture()
        with SummaryService(summary_cache_dir=tmp_path / "cache") as service:
            request = SummaryRequest(
                method="slugger", graph=graph, seed=0,
                options={"iterations": 3},
            )
            cold = service.run(request)
            warm = service.run(request)
            stats = service.stats()
            assert stats["summary_cache_stores"] == 1
            assert stats["summary_cache_hits"] == 1
        assert warm.details.get("summary_cache") == "hit"
        assert summary_fingerprint(warm.summary) == summary_fingerprint(
            cold.summary
        )

    def test_flat_summaries_warm_start_too(self, tmp_path):
        graph = int_fixture()
        cache_dir = tmp_path / "cache"
        with SummaryService(summary_cache_dir=cache_dir) as service:
            cold = service.submit(
                method="sweg", graph=graph, seed=0, options={"iterations": 3}
            ).result()
        with SummaryService(summary_cache_dir=cache_dir) as service:
            warm = service.submit(
                method="sweg", graph=graph, seed=0, options={"iterations": 3}
            ).result()
            assert service.stats()["summary_cache_hits"] == 1
        assert warm.details.get("summary_cache") == "hit"
        assert warm.summary.cost_eq11() == cold.summary.cost_eq11()
        assert warm.history == cold.history

    def test_cancelled_run_resumes_from_its_checkpoint(self, tmp_path):
        graph = int_fixture()
        cache_dir = tmp_path / "cache"
        with SummaryService(summary_cache_dir=cache_dir) as service:
            reference = service.submit(
                method="slugger", graph=graph, seed=0,
                options={"iterations": 6},
            ).result()
        reference_fingerprint = summary_fingerprint(reference.summary)

        fresh = tmp_path / "fresh"
        with SummaryService(summary_cache_dir=fresh) as service:
            job = service.submit(
                method="slugger", graph=graph, seed=0,
                options={"iterations": 6},
            )

            def cancel_at_two(event):
                # Checkpoint events fire synchronously from the run
                # thread, so the cancel lands before the next iteration.
                if event.stage == "checkpoint" and event.payload.get("iteration") == 2:
                    job.cancel()

            job.add_progress_listener(cancel_at_two)
            with pytest.raises(JobCancelled):
                job.result()
            cache = SummaryCache(fresh)
            assert any(
                record["kind"] == "checkpoint" for record in cache.entries()
            )

            stages = []
            resumed_job = service.submit(
                method="slugger", graph=graph, seed=0,
                options={"iterations": 6},
            )
            resumed_job.add_progress_listener(
                lambda event: stages.append(
                    (event.stage, event.payload.get("iteration"))
                )
            )
            resumed = resumed_job.result()
            stats = service.stats()
            assert stats["summary_resumes"] == 1
            assert stats["summary_cache_errors"] == 0
        iterations_run = [i for stage, i in stages if stage == "iteration"]
        assert iterations_run and min(iterations_run) == 3
        assert ("resume", 2) in stages
        assert summary_fingerprint(resumed.summary) == reference_fingerprint
        assert resumed.history == reference.history

    def test_non_binary_checkpoint_is_discarded_and_the_job_runs_fresh(self, tmp_path):
        graph = int_fixture()
        reference, _, meta = checkpoint_images(graph, frozen_csr(graph), iterations=6)
        SummaryCache(tmp_path / "cache").store_checkpoint(
            meta.key, wide_checkpoint_image(graph, meta)
        )
        with SummaryService(mode="thread", summary_cache_dir=tmp_path / "cache") as service:
            fresh = service.submit(
                method="slugger", graph=graph, seed=0,
                options={"iterations": 6},
            ).result()
            assert service.stats()["summary_resumes"] == 0
        assert summary_fingerprint(fresh.summary) == summary_fingerprint(
            reference.summary
        )
        assert fresh.history == reference.history

    def test_preseeded_checkpoint_resumes_in_a_fresh_service(self, tmp_path):
        # The checkpoint file is a plain container: parking one in the
        # cache directory under the request's content key is all it
        # takes for a brand-new process to resume the run.
        graph = int_fixture()
        csr = frozen_csr(graph)
        reference, images, meta = checkpoint_images(graph, csr, iterations=6)
        cache = SummaryCache(tmp_path / "cache")
        cache.store_checkpoint(meta.key, images[4])
        with SummaryService(summary_cache_dir=tmp_path / "cache") as service:
            resumed = service.submit(
                method="slugger", graph=graph, seed=0,
                options={"iterations": 6},
            ).result()
            assert service.stats()["summary_resumes"] == 1
        assert summary_fingerprint(resumed.summary) == summary_fingerprint(
            reference.summary
        )
        assert resumed.history == reference.history


# ======================================================================
# Superedge-level components shortcut
# ======================================================================
def leaf_level_components(summary):
    """The pre-PR-9 path: decompress-by-neighbor over the id adjacency."""
    adjacency = resolve_id_adjacency(summary)
    labels = adjacency.index.labels()
    return [{labels[u] for u in component} for component in components_ids(adjacency)]


class TestComponentsShortcut:
    def test_matches_leaf_level_on_sparse_graphs(self):
        cases = [erdos_renyi_graph(40, 0.08, seed=seed) for seed in range(6)]
        cases.append(caveman_graph(3, 5, seed=2))
        disconnected = erdos_renyi_graph(30, 0.05, seed=9)
        disconnected.add_node("isolated-a")
        disconnected.add_node("isolated-b")
        cases.append(disconnected)
        for position, graph in enumerate(cases):
            for iterations in (2, 6):
                summary = summarize(
                    graph, iterations=iterations, seed=position
                ).summary
                assert connected_components(summary) == leaf_level_components(
                    summary
                ), (position, iterations)

    def test_matches_leaf_level_on_dense_summaries_with_n_edges(self):
        # Dense ER graphs produce summaries where the dirty path (P
        # rectangles intersected by N carve-outs) actually runs; assert
        # the sweep genuinely exercises it.
        with_n_edges = 0
        for seed in range(12):
            graph = erdos_renyi_graph(50, 0.25, seed=seed)
            for iterations, prune in ((3, False), (8, False), (8, True)):
                summary = summarize(
                    graph, iterations=iterations, seed=seed, prune=prune
                ).summary
                if any(True for _ in summary.n_edges()):
                    with_n_edges += 1
                assert connected_components(summary) == leaf_level_components(
                    summary
                ), (seed, iterations, prune)
        assert with_n_edges > 0

    def test_adversarial_carve_out(self):
        # A blanket P edge whose N carve-outs disconnect vertices at the
        # leaf level while the superedge graph stays connected: {a,b} x
        # {c,d} minus b-c, b-d, a-d decompresses to the single edge a-c.
        hierarchy = Hierarchy()
        for label in ["a", "b", "c", "d"]:
            hierarchy.add_leaf(label)
        ab = hierarchy.create_parent([0, 1])
        cd = hierarchy.create_parent([2, 3])
        summary = HierarchicalSummary(hierarchy)
        summary.add_p_edge(ab, cd)
        summary.add_n_edge(1, cd)
        summary.add_n_edge(0, 3)
        assert sorted(summary.decompress().edges()) == [("a", "c")]
        components = connected_components(summary)
        assert components == leaf_level_components(summary)
        assert {"a", "c"} in components
        assert {"b"} in components
        assert {"d"} in components

    def test_id_level_shortcut_output_convention(self):
        # summary_components_ids follows the kernels convention exactly:
        # first-seen grouping over ascending leaf ids, largest first.
        graph = caveman_graph(3, 5, seed=2)
        summary = summarize(graph, iterations=4, seed=2).summary
        components = summary_components_ids(summary)
        flattened = [leaf for component in components for leaf in component]
        assert len(flattened) == len(set(flattened)) == graph.num_nodes
        assert components == sorted(components, key=len, reverse=True)
