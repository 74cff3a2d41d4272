"""Tests for the summary cache's checkpoint writer and the CKPT RNG codec.

A running job encodes each iteration's snapshot on its own thread and
posts it to :meth:`SummaryCache.post_checkpoint`; one writer thread
persists the newest image per key.  These tests pin the ordering rules
that keep the cache consistent: a finished job leaves no checkpoint
behind, ``shutdown`` lands the newest pending image, a failed write is
counted without stopping the writer, and asynchronous checkpointing
never perturbs a run.  CI runs this module several times in a row
(``-k checkpoint_writer``) so that ordering races show up.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Slugger, SluggerConfig
from repro.graphs import DenseAdjacency, Graph, caveman_graph
from repro.model.summary import HierarchicalSummary
from repro.service import SummaryService
from repro.storage import summary_store
from repro.storage.format import container_digest
from repro.storage.summary_store import (
    CHECKPOINT_SUFFIX,
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
