"""Tests for the summary cache's checkpoint writer and the CKPT RNG codec.

A running job freezes each iteration's snapshot on its own thread and
posts it to :meth:`SummaryCache.post_checkpoint`; one writer thread
encodes and persists the newest snapshot per key.  These tests pin the
ordering rules that keep the cache consistent: a finished job leaves no
checkpoint behind, ``shutdown`` lands the newest pending image, a failed
encode or write is counted without stopping the writer, only written
snapshots are encoded, a snapshot encodes to the bytes the live summary
did when it was taken, and asynchronous checkpointing never perturbs a
run.  CI runs this module several times in a row (``-k
checkpoint_writer``) so that ordering races show up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Slugger, SluggerConfig
from repro.core.pruning import prune
from repro.engine.hooks import RunControl
from repro.graphs import DenseAdjacency, Graph, caveman_graph
from repro.model.summary import HierarchicalSummary
from repro.service import SummaryService
from repro.storage import summary_store
from repro.storage.format import FLAG_NO_CSR, FLAG_SUMMARY, container_digest, encode_image
from repro.storage.summary_store import (
    CHECKPOINT_SUFFIX,
    CheckpointSnapshot,
    SummaryCache,
    SummaryMeta,
    config_fingerprint,
    encode_checkpoint_container,
    summary_fingerprint,
)

#: Seconds any wait in these tests may take before it counts as a hang.
WAIT_S = 30.0
ITERATIONS = 6


def int_fixture() -> Graph:
    return caveman_graph(4, 6, seed=1)


def string_fixture() -> Graph:
    return Graph(edges=[(f"v{u}", f"v{v}") for u, v in int_fixture().edges()])


def hot_sized_fixture() -> Graph:
    """1,050 nodes, the size of the serve-mixed benchmark's hot graph."""
    return caveman_graph(70, 15, 0.05, seed=1)


def request(graph: Graph, seed: int = 0) -> dict:
    return {"method": "slugger", "graph": graph, "seed": seed,
            "options": {"iterations": ITERATIONS}}


def meta_for(graph: Graph, seed: int = 0) -> SummaryMeta:
    config_digest, config_json = config_fingerprint("slugger", {"iterations": ITERATIONS})
    return SummaryMeta(
        kind="hierarchical", method="slugger", seed=seed,
        graph_digest=container_digest(DenseAdjacency.from_graph(graph).freeze()),
        config_digest=config_digest, config_json=config_json,
    )


def checkpoint_image(graph: Graph, iteration: int) -> bytes:
    """A valid checkpoint image; ``iteration`` tells images apart."""
    return encode_checkpoint_container(
        HierarchicalSummary.from_graph(graph), meta_for(graph), iteration,
        random.Random(iteration).getstate(), [],
    )


def snapshot(graph: Graph, iteration: int, history=()) -> CheckpointSnapshot:
    """A snapshot that encodes to ``checkpoint_image(graph, iteration)``."""
    return CheckpointSnapshot.capture(
        HierarchicalSummary.from_graph(graph), meta_for(graph), iteration,
        random.Random(iteration).getstate(), list(history),
    )


def live_image(summary: HierarchicalSummary, meta: SummaryMeta, iteration: int,
               rng_state, history) -> bytes:
    """The checkpoint image as it was encoded before snapshots existed:
    straight off the live summary, on the run thread."""
    hierarchy = summary.hierarchy
    num_leaves = len(hierarchy.leaf_subnode_map())
    internal = sorted(node for node in hierarchy.supernodes() if not hierarchy.is_leaf(node))
    values = [num_leaves, hierarchy._next_id, len(internal)]
    previous = num_leaves
    for node_id in internal:
        children = hierarchy.children(node_id)
        values += (node_id - previous, len(children), *children)
        previous = node_id
    sections = [
        (b"SMET", summary_store._encode_meta(meta)),
        (b"SHIE", summary_store._varint_bytes(values)),
        (b"SPED", summary_store._encode_pairs(summary.p_edges())),
        (b"SNED", summary_store._encode_pairs(summary.n_edges())),
        (b"CKPT", summary_store._encode_checkpoint_section(iteration, rng_state, history)),
    ]
    return encode_image(FLAG_SUMMARY | FLAG_NO_CSR, num_leaves, 0,
                        summary_store.index_width_for(num_leaves), sections)


def live_images(graph: Graph, seed: int) -> list:
    """``live_image`` at every iteration boundary of a plain run."""
    meta = meta_for(graph, seed)
    images = []

    def sink(payload):
        images.append(live_image(payload["summary"], meta, payload["iteration"],
                                 payload["rng_state"], payload["history"]))

    Slugger(SluggerConfig(iterations=ITERATIONS, seed=seed)).summarize(
        graph, control=RunControl(checkpoint_sink=sink))
    return images


def count_encodes(monkeypatch) -> list:
    """The iterations of the snapshots encoded from now on, in order."""
    encoded = []
    encode = CheckpointSnapshot.encode

    def counted(item):
        encoded.append(item.iteration)
        return encode(item)

    monkeypatch.setattr(CheckpointSnapshot, "encode", counted)
    return encoded


#: sha256 over the concatenated seed-0 checkpoint images of every
#: iteration, as ``encode_checkpoint_container`` wrote them before
#: snapshots existed.
PARENT_IMAGE_DIGESTS = {
    "int_fixture": "e0c166e8e6abcd2ffc4aa3ae5546249d8c7390fc2df12d9ac15145b717e2e7df",
    "hot_sized_fixture": "29cef1e9b7dd70e8e3a5a804f3418fa35e68dc99f98ae6fe990517ed5528af8f",
}


class HeldWrites:
    """Wraps the module's container write so checkpoint writes can be held.

    While ``release`` is unset a checkpoint write blocks after setting
    ``entered``; every write records whether a checkpoint write was in
    flight when it started.
    """

    def __init__(self, monkeypatch) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()
        self.in_flight = 0
        self.summary_writes_during_checkpoint = 0
        self.lock = threading.Lock()
        self._write = summary_store.write_container_image
        monkeypatch.setattr(summary_store, "write_container_image", self)

    def __call__(self, path, image):
        if not str(path).endswith(CHECKPOINT_SUFFIX):
            with self.lock:
                self.summary_writes_during_checkpoint += self.in_flight
            return self._write(path, image)
        with self.lock:
            self.in_flight += 1
        try:
            self.entered.set()
            assert self.release.wait(WAIT_S), "checkpoint write held too long"
            return self._write(path, image)
        finally:
            with self.lock:
                self.in_flight -= 1


def test_checkpoint_writer_finished_job_leaves_no_checkpoint(tmp_path, monkeypatch):
    held = HeldWrites(monkeypatch)
    graph = int_fixture()
    with SummaryService(summary_cache_dir=tmp_path) as service:
        job = service.submit(**request(graph))
        assert held.entered.wait(WAIT_S)
        # The run goes on while its first snapshot is held; it finishes
        # and waits in store_summary for the in-flight write.
        timer = threading.Timer(0.2, held.release.set)
        timer.start()
        try:
            result = job.result(timeout=WAIT_S)
        finally:
            timer.cancel()
            held.release.set()
        assert held.summary_writes_during_checkpoint == 0
        assert [record["kind"] for record in service.summary_cache.entries()] == ["summary"]
    assert summary_fingerprint(result.summary) == summary_fingerprint(
        Slugger(SluggerConfig(iterations=ITERATIONS, seed=0)).summarize(graph).summary)
    assert not list(tmp_path.glob(f"*{CHECKPOINT_SUFFIX}"))


def test_checkpoint_writer_shutdown_lands_the_newest_pending_image(tmp_path, monkeypatch):
    held = HeldWrites(monkeypatch)
    graph = int_fixture()
    first, replaced, newest = (checkpoint_image(graph, n) for n in (1, 2, 3))
    assert len({first, replaced, newest}) == 3
    service = SummaryService(summary_cache_dir=tmp_path)
    cache = service.summary_cache
    cache.post_checkpoint("k", first)
    assert held.entered.wait(WAIT_S)
    cache.post_checkpoint("k", replaced)
    cache.post_checkpoint("k", newest)
    timer = threading.Timer(0.2, held.release.set)
    timer.start()
    try:
        service.shutdown(wait=True)
    finally:
        timer.cancel()
        held.release.set()
    assert cache.checkpoint_path("k").read_bytes() == newest
    # The replaced image was never written.
    assert cache.counters["checkpoint_stores"] == 2
    assert cache._writer is None


def test_checkpoint_writer_counts_a_failed_write_and_keeps_serving(tmp_path, monkeypatch):
    write = summary_store.write_container_image
    failures = []

    def fail_once(path, image):
        if not failures:
            failures.append(path)
            raise OSError("disk full")
        return write(path, image)

    monkeypatch.setattr(summary_store, "write_container_image", fail_once)
    graph = int_fixture()
    cache = SummaryCache(tmp_path)
    try:
        cache.post_checkpoint("a", checkpoint_image(graph, 1))
        cache.flush_checkpoint("a")
        assert cache.counters["checkpoint_errors"] == 1
        assert not cache.has_checkpoint("a")
        image = checkpoint_image(graph, 2)
        cache.post_checkpoint("b", image)
        cache.flush_checkpoint("b")
        assert cache.checkpoint_path("b").read_bytes() == image
        assert cache.counters["checkpoint_stores"] == 1
        assert cache.stats()["checkpoint_errors"] == 1
    finally:
        cache.close()


@pytest.mark.parametrize("fixture", [int_fixture, string_fixture])
@pytest.mark.parametrize("seed", [0, 1])
def test_checkpoint_writer_jobs_match_runs_without_a_sink(tmp_path, fixture, seed):
    graph = fixture()
    plain = Slugger(SluggerConfig(iterations=ITERATIONS, seed=seed)).summarize(graph)
    with SummaryService(summary_cache_dir=tmp_path) as service:
        job = service.submit(**request(graph, seed))
        result = job.result(timeout=WAIT_S)
        stats = service.stats()
    checkpoints = [event.payload["iteration"] for event in job.events()
                   if event.stage == "checkpoint"]
    assert checkpoints == list(range(1, ITERATIONS + 1))
    assert summary_fingerprint(result.summary) == summary_fingerprint(plain.summary)
    assert result.history == plain.history
    assert stats["summary_cache_errors"] == 0
    assert stats["summary_cache"]["checkpoint_errors"] == 0
    assert stats["summary_cache"]["checkpoints"] == 0


def test_checkpoint_writer_version_1_image_is_discarded(tmp_path, monkeypatch):
    graph = int_fixture()
    reference = Slugger(SluggerConfig(iterations=ITERATIONS, seed=0)).summarize(graph)
    with monkeypatch.context() as patched:
        patched.setattr(summary_store, "CHECKPOINT_FORMAT_VERSION", 1)
        old = checkpoint_image(graph, 2)
    meta = meta_for(graph)
    SummaryCache(tmp_path).store_checkpoint(meta.key, old)
    with SummaryService(summary_cache_dir=tmp_path) as service:
        fresh = service.submit(**request(graph)).result(timeout=WAIT_S)
        assert service.stats()["summary_resumes"] == 0
        assert service.summary_cache.counters["corrupt"] == 1
    assert summary_fingerprint(fresh.summary) == summary_fingerprint(reference.summary)
    assert fresh.history == reference.history


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       draws=st.integers(min_value=0, max_value=2000),
       gauss=st.booleans())
def test_checkpoint_writer_rng_state_round_trip(seed, draws, gauss):
    rng = random.Random(seed)
    for _ in range(draws):
        rng.getrandbits(32)
    if gauss:
        rng.gauss(0.0, 1.0)  # Leaves gauss_next set.
    state = rng.getstate()
    assert (state[2] is not None) == gauss
    data = summary_store._encode_rng_state(state) + b"tail"
    decoded, position = summary_store._decode_rng_state(data, 0)
    assert decoded == state
    assert data[position:] == b"tail"
    restored = random.Random()
    restored.setstate(decoded)
    assert restored.random() == rng.random()


def test_checkpoint_writer_stress_keeps_counters_and_newest_images(tmp_path):
    # More posting threads than cores and a tiny switch interval: a lost
    # counter update or a stale image landing last would break the checks.
    graph = int_fixture()
    images = [checkpoint_image(graph, n) for n in range(1, 5)]
    threads, posts = 6, 25
    cache = SummaryCache(tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def client(number: int) -> None:
            for post in range(posts):
                cache.post_checkpoint(f"k{number}", images[post % len(images)])
                assert cache.load_checkpoint("absent", [], graph_digest="0" * 64) is None

        workers = [threading.Thread(target=client, args=(n,)) for n in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(WAIT_S)
            assert not worker.is_alive()
        for number in range(threads):
            cache.flush_checkpoint(f"k{number}")
    finally:
        sys.setswitchinterval(interval)
        cache.close()
    assert cache.counters["checkpoint_misses"] == threads * posts
    assert cache.counters["checkpoint_errors"] == 0
    assert threads <= cache.counters["checkpoint_stores"] <= threads * posts
    newest = images[(posts - 1) % len(images)]
    for number in range(threads):
        assert cache.checkpoint_path(f"k{number}").read_bytes() == newest


@pytest.mark.parametrize("fixture", [int_fixture, string_fixture, hot_sized_fixture])
def test_checkpoint_writer_posted_snapshots_encode_to_the_live_images(
        tmp_path, monkeypatch, fixture):
    graph = fixture()
    posted = []
    post = SummaryCache.post_checkpoint

    def record(cache, key, item):
        posted.append(item)
        post(cache, key, item)

    monkeypatch.setattr(SummaryCache, "post_checkpoint", record)
    with SummaryService(summary_cache_dir=tmp_path) as service:
        service.submit(**request(graph)).result(timeout=WAIT_S)
    assert all(isinstance(item, CheckpointSnapshot) for item in posted)
    assert [item.iteration for item in posted] == list(range(1, ITERATIONS + 1))
    assert all(item.meta == meta_for(graph) for item in posted)
    # Encoded after the run has moved on, each snapshot still gives the
    # image its iteration's live summary gave.
    images = [item.encode() for item in posted]
    assert images == live_images(graph, 0)
    if fixture.__name__ in PARENT_IMAGE_DIGESTS:
        assert hashlib.sha256(b"".join(images)).hexdigest() == \
            PARENT_IMAGE_DIGESTS[fixture.__name__]


def test_checkpoint_writer_snapshot_outlives_later_changes():
    graph = caveman_graph(6, 5, 0.1, seed=2)
    summary = Slugger(SluggerConfig(iterations=3, seed=0, prune=False)).summarize(graph).summary
    meta = meta_for(graph)
    state = random.Random(7).getstate()
    history = [{"iteration": 1.0}]
    taken = CheckpointSnapshot.capture(summary, meta, 3, state, history)
    image = previous = taken.encode()
    assert image == live_image(summary, meta, 3, state, history)

    def merge():
        roots = summary.hierarchy.roots()
        summary.hierarchy.create_parent(roots[:2])

    def replace_edges():
        a, b = next(summary.p_edges())
        summary.replace_edges([(a, b, 1)], [(a, b, -1)])

    for change in (lambda: prune(DenseAdjacency.from_graph(graph), summary), merge,
                   replace_edges, lambda: history.append({"iteration": 2.0})):
        change()
        current = encode_checkpoint_container(summary, meta, 3, state, history)
        assert current != previous
        assert taken.encode() == image
        previous = current


def test_checkpoint_snapshot_meta_is_frozen_hashable_and_pickles():
    graph = int_fixture()
    source = {"history": [{"iteration": 1.0}]}
    meta = SummaryMeta(**{**vars(meta_for(graph)), "extra": source})
    source["note"] = "changed after construction"
    assert "note" not in meta.extra
    with pytest.raises(TypeError):
        meta.extra["note"] = "changed through the meta"
    # Hashable: ``extra`` stays out of the hash, equality still compares it.
    assert {field.name for field in dataclasses.fields(SummaryMeta)
            if field.hash is False} == {"extra"}
    assert meta != meta_for(graph)
    assert len({meta, meta_for(graph)}) == 2
    round_trip = pickle.loads(pickle.dumps(meta))
    assert round_trip == meta and round_trip in {meta}
    assert summary_store._encode_meta(round_trip) == summary_store._encode_meta(meta)
    assert summary_store._decode_meta(summary_store._encode_meta(meta)) == meta

    taken = CheckpointSnapshot.capture(
        HierarchicalSummary.from_graph(graph), meta, 3,
        random.Random(3).getstate(), [{"iteration": 1.0}],
    )
    copy = pickle.loads(pickle.dumps(taken))
    assert copy == taken and copy.meta in {taken.meta}
    assert copy.encode() == taken.encode()


def test_checkpoint_writer_encodes_only_the_snapshots_it_writes(tmp_path, monkeypatch):
    held = HeldWrites(monkeypatch)
    encoded = count_encodes(monkeypatch)
    graph = int_fixture()
    cache = SummaryCache(tmp_path)
    try:
        cache.post_checkpoint("k", snapshot(graph, 1))
        assert held.entered.wait(WAIT_S)
        posts = 8
        for iteration in range(2, posts + 1):
            cache.post_checkpoint("k", snapshot(graph, iteration))
        held.release.set()
        cache.flush_checkpoint("k")
    finally:
        held.release.set()
        cache.close()
    # The in-flight snapshot and the newest one; the six replaced in
    # between were never encoded.
    assert encoded == [1, posts]
    assert cache.counters["checkpoint_stores"] == len(encoded)
    assert cache.checkpoint_path("k").read_bytes() == checkpoint_image(graph, posts)


def test_checkpoint_writer_never_encodes_a_snapshot_store_summary_discards(
        tmp_path, monkeypatch):
    held = HeldWrites(monkeypatch)
    graph = int_fixture()
    summary_image = checkpoint_image(graph, 9)  # Any valid container.
    encoded = count_encodes(monkeypatch)
    cache = SummaryCache(tmp_path)
    try:
        cache.post_checkpoint("k", snapshot(graph, 1))
        assert held.entered.wait(WAIT_S)
        cache.post_checkpoint("k", snapshot(graph, 2))
        # store_summary discards the pending snapshot, then waits for the
        # in-flight write, which the timer releases.
        timer = threading.Timer(0.2, held.release.set)
        timer.start()
        try:
            cache.store_summary("k", summary_image)
        finally:
            timer.cancel()
            held.release.set()
    finally:
        cache.close()
    assert encoded == [1]
    assert cache.counters["checkpoint_stores"] == 1
    assert not cache.has_checkpoint("k")


def test_checkpoint_writer_counts_a_failed_encode_and_keeps_serving(tmp_path):
    graph = int_fixture()
    cache = SummaryCache(tmp_path)
    try:
        # The history is JSON-encoded at write time; an object fails it.
        cache.post_checkpoint("a", snapshot(graph, 1, history=[{"bad": object()}]))
        cache.flush_checkpoint("a")
        assert cache.counters["checkpoint_errors"] == 1
        assert not cache.has_checkpoint("a")
        cache.post_checkpoint("b", snapshot(graph, 2))
        cache.flush_checkpoint("b")
        assert cache.checkpoint_path("b").read_bytes() == checkpoint_image(graph, 2)
        assert cache.counters["checkpoint_stores"] == 1
        assert cache.stats()["checkpoint_errors"] == 1
    finally:
        cache.close()
