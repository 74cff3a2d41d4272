"""The benchmark workloads, driven through the program's public API.

Batch workloads (``er-sparse``, ``caveman-community``, ``er-sparse-w2``)
repeat one unit until the run's time is spent: read the edge list
(``read_edge_list``), summarize it (``Slugger(...).summarize`` at the
paper default T=20, prune included), then let a closed-loop client run
bfs queries over the fresh summary (``run_query``).

``serve-mixed`` sets up a thread-mode ``SummaryService`` (parse,
``storage.pack``, ``register_graph``, the cold summary the hit ops read)
and then runs one closed-loop client through seeded blocks of a fixed op
mix: summary-cache hits, CSR queries through ``service.query``, bfs over
the stored hierarchical summary, and cache-miss summarize jobs that
checkpoint, persist and evict under a byte budget.

Every call into the program goes through a module attribute (``graph_io
.read_edge_list``, ``query_api.run_query``, ...) so that a traced run's
probes (see :mod:`spans`) see it.  Correctness checks run untimed, after
the timed unit and outside any probe.
"""

from __future__ import annotations

import random
import resource
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.algorithms.query as query_api
import repro.core.merging as merging
import repro.core.saving as saving
import repro.core.slugger as slugger
import repro.graphs.io as graph_io
import repro.storage as storage
import repro.storage.summary_store as summary_store
from repro.core.config import SluggerConfig
from repro.engine.execution import ExecutionConfig
from repro.graphs.dense import DenseAdjacency
from repro.model.summary import HierarchicalSummary
from repro.service import SummaryService

from inputs import MISS_GRAPHS
from measure import HostSpeed, median, tail_percentile
from spans import Probe, SpanRecorder, self_times

__all__ = ["BATCH_WORKERS", "LAYER_METRICS", "run_batch", "run_serve"]

ITERATIONS = 20
#: Batch: edge-list reads per setup sample, and queries after each summarize.
READS_PER_SAMPLE = 10
QUERIES_PER_REP = 40
#: Ops timed between two calibrations: short enough that the host rarely
#: changes speed inside one bracket.
OPS_PER_BRACKET = 5
MIN_REPS = 5
#: Ops a run must complete so that ten samples lie beyond p95.
MIN_OPS = 200
#: serve-mixed: set-ups per run, and the op mix of one seeded block.
SETUP_REPS = 3
BLOCK = (["hit"] * 7 + ["bfs"] * 3 + ["cores"] * 2 + ["pagerank"] * 2
         + ["triangles"] + ["summary_bfs"] * 3 + ["miss"] * 2)
CSR_KINDS = ("bfs", "cores", "pagerank", "triangles")
#: Miss entries the summary cache holds beyond the hot entry.  Each block
#: touches the hot entry, so LRU eviction only ever removes miss entries.
MISS_ENTRIES_KEPT = 8
JOB_TIMEOUT_S = 60.0
#: Hard stop for a run's measuring loop, well inside the 180 s limit.
HARD_STOP_S = 120.0
#: Request seed of the set-up's own miss job; loop misses use 1000 + k.
WARMUP_MISS_SEED = 999_999_999

BATCH_WORKERS = {"er-sparse": 1, "caveman-community": 1, "er-sparse-w2": 2}

#: Per-layer metrics: name -> (unit, better, kind).  ``count`` metrics
#: repeat exactly for a seed and come from the first traced unit; ``time``
#: metrics are medians over the traced units.
LAYER_METRICS: Dict[str, Tuple[str, str, str]] = {
    "graphs.read_edge_list_s": ("s", "lower", "time"),
    "core.candidates.generate_s": ("s", "lower", "time"),
    "core.candidates.groups": ("count", "lower", "count"),
    "core.saving.best_partner_calls": ("count", "lower", "count"),
    "core.saving.best_partner_s": ("s", "lower", "time"),
    "core.saving.estimate_calls": ("count", "lower", "count"),
    "core.merging.merges": ("count", "higher", "count"),
    "core.merging.merge_s": ("s", "lower", "time"),
    "core.merging.merge_yield": ("ratio", "higher", "count"),
    "core.encoder.plan_calls": ("count", "lower", "count"),
    "core.encoder.plan_s": ("s", "lower", "time"),
    "core.pruning.prune_s": ("s", "lower", "time"),
    "core.pruning.pairs_scanned": ("count", "lower", "count"),
    "core.pruning.pairs_reencoded": ("count", "higher", "count"),
    "engine.execution.replayed": ("count", "higher", "count"),
    "engine.execution.fallbacks": ("count", "lower", "count"),
    "engine.execution.replay_ratio": ("ratio", "higher", "count"),
    "engine.execution.prune_s": ("s", "lower", "time"),
    "service.submit_to_result_ms.hit": ("ms", "lower", "time"),
    "service.submit_to_result_ms.miss": ("ms", "lower", "time"),
    "service.summary_cache_hits": ("count", "higher", "count"),
    "service.summary_cache_stores": ("count", "lower", "count"),
    "storage.pack_s": ("s", "lower", "time"),
    "storage.summary_load_ms": ("ms", "lower", "time"),
    "storage.summary_store_ms": ("ms", "lower", "time"),
    "storage.checkpoint_stores": ("count", "lower", "count"),
    "storage.evictions": ("count", "lower", "count"),
    "storage.summary_bytes_per_edge": ("B/edge", "lower", "count"),
    "algorithms.query_ms.bfs": ("ms", "lower", "time"),
    "algorithms.query_ms.pagerank": ("ms", "lower", "time"),
    "algorithms.query_ms.cores": ("ms", "lower", "time"),
    "algorithms.query_ms.triangles": ("ms", "lower", "time"),
    "algorithms.summary_bfs_ms": ("ms", "lower", "time"),
    "tracing.overhead_s": ("s", "lower", "time"),
}


# ----------------------------------------------------------------------
# Probes: where each layer is entered, at the attribute its caller reads
# ----------------------------------------------------------------------
def _query_span(provider, kind, *args, **kwargs) -> str:
    if isinstance(provider, HierarchicalSummary):
        return f"algorithms.summary_{kind}"
    return f"algorithms.query.{kind}"


def _count_groups(recorder, args, kwargs, result) -> None:
    recorder.counters["core.candidates.groups"] += len(result)


def _prune_profile(recorder, args, kwargs, result) -> None:
    profile = kwargs.get("profile") or {}
    recorder.counters["core.pruning.pairs_scanned"] += profile.get("pairs_scanned", 0)
    recorder.counters["core.pruning.pairs_reencoded"] += profile.get("pairs_reencoded", 0)


PROBES = [
    Probe(graph_io, "read_edge_list", "graphs.read_edge_list"),
    Probe(slugger, "generate_candidate_sets", "core.candidates.generate",
          after=_count_groups),
    Probe(merging, "best_partner", "core.saving.best_partner"),
    Probe(saving, "estimate_merged_cost", "core.saving.estimate", count_only=True),
    Probe(merging, "merge_and_update", "core.merging.merge"),
    Probe(merging, "plan_cross_encoding", "core.encoder.plan"),
    Probe(merging, "plan_intra_encoding", "core.encoder.plan"),
    Probe(slugger, "prune", "core.pruning.prune", after=_prune_profile),
    Probe(storage, "pack", "storage.pack"),
    Probe(summary_store, "load_summary", "storage.summary_load"),
    Probe(summary_store.SummaryCache, "store_summary", "storage.summary_store"),
    Probe(summary_store.SummaryCache, "store_checkpoint", "storage.checkpoint_stores",
          count_only=True),
    Probe(query_api, "run_query", _query_span),
]


def layer_metrics(recorder: SpanRecorder, factor: float, extra: Dict[str, float],
                  parallel_prune: bool = False) -> Dict[str, float]:
    """Per-layer metrics of one traced unit (``extra`` fills the rest).

    Self times are calibrated with ``factor``, the unit's :attr:`HostSpeed.factor`.
    """
    selfs = {name: value * factor for name, value in self_times(recorder.spans).items()}
    counts: Dict[str, int] = {}
    for record in recorder.spans:
        counts[record[0]] = counts.get(record[0], 0) + 1

    def per_call_ms(name: str) -> float:
        return 1000.0 * selfs.get(name, 0.0) / counts[name] if counts.get(name) else 0.0

    best_calls = counts.get("core.saving.best_partner", 0)
    merges = counts.get("core.merging.merge", 0)
    metrics = {
        "graphs.read_edge_list_s": per_call_ms("graphs.read_edge_list") / 1000.0,
        "core.candidates.generate_s": selfs.get("core.candidates.generate", 0.0),
        "core.candidates.groups": recorder.counters["core.candidates.groups"],
        "core.saving.best_partner_calls": best_calls,
        "core.saving.best_partner_s": selfs.get("core.saving.best_partner", 0.0),
        "core.saving.estimate_calls": recorder.counters["core.saving.estimate"],
        "core.merging.merges": merges,
        "core.merging.merge_s": selfs.get("core.merging.merge", 0.0),
        "core.merging.merge_yield": merges / best_calls if best_calls else 0.0,
        "core.encoder.plan_calls": counts.get("core.encoder.plan", 0),
        "core.encoder.plan_s": selfs.get("core.encoder.plan", 0.0),
        "core.pruning.prune_s": selfs.get("core.pruning.prune", 0.0),
        "core.pruning.pairs_scanned": recorder.counters["core.pruning.pairs_scanned"],
        "core.pruning.pairs_reencoded": recorder.counters["core.pruning.pairs_reencoded"],
        "engine.execution.prune_s":
            selfs.get("core.pruning.prune", 0.0) if parallel_prune else 0.0,
        "storage.pack_s": selfs.get("storage.pack", 0.0),
        "storage.summary_load_ms": per_call_ms("storage.summary_load"),
        "storage.summary_store_ms": per_call_ms("storage.summary_store"),
        "storage.checkpoint_stores": recorder.counters["storage.checkpoint_stores"],
        "algorithms.summary_bfs_ms": per_call_ms("algorithms.summary_bfs"),
    }
    for kind in CSR_KINDS:
        metrics[f"algorithms.query_ms.{kind}"] = per_call_ms(f"algorithms.query.{kind}")
    metrics.update(extra)
    return metrics


def aggregate_layers(units: List[Dict[str, float]], overhead_s: float) -> Dict[str, float]:
    """Counts from the first traced unit, times as medians over all units."""
    result = {}
    for name, (_unit, _better, kind) in LAYER_METRICS.items():
        values = [unit.get(name, 0.0) for unit in units]
        result[name] = values[0] if kind == "count" else median(values)
    result["tracing.overhead_s"] = overhead_s
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)

    def check(self, what: str, check) -> None:
        """Run ``check()`` as one op; False or an exception fails it."""
        try:
            ok = bool(check())
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            self.record(False, f"{what}: {type(error).__name__}: {error}")
            return
        self.record(ok, f"{what}: check failed")


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              paths: Dict[str, Path], expected_cost: Optional[int], spans_out) -> dict:
    workers = BATCH_WORKERS[workload]
    execution = ExecutionConfig(workers=workers) if workers > 1 else None
    config = SluggerConfig(iterations=ITERATIONS, seed=seed)
    path = paths["graph"]
    rng = random.Random(seed)
    tally = Tally()
    # Calibrated and raw seconds per sample; summarize split by traced.
    setup: Dict[str, List[float]] = {"calibrated": [], "raw": []}
    summarize: Dict[bool, Dict[str, List[float]]] = {
        traced: {"calibrated": [], "raw": []} for traced in (False, True)}
    latencies: Dict[str, List[float]] = {"calibrated": [], "raw": []}
    units: List[Dict[str, float]] = []
    reference: Optional[Tuple[int, str]] = None
    graph = None
    started = time.perf_counter()
    hard_stop = started + HARD_STOP_S
    rep = 0
    while (rep < MIN_REPS or len(latencies["raw"]) < MIN_OPS
           or time.perf_counter() - started < seconds) and time.perf_counter() < hard_stop:
        traced = trace and rep % 2 == 0
        recorder = SpanRecorder()
        result = None
        answers = []
        with recorder.installed(PROBES) if traced else nullcontext():
            with HostSpeed() as speed:
                tick = time.perf_counter()
                for _ in range(READS_PER_SAMPLE):
                    graph = graph_io.read_edge_list(path)
                raw = (time.perf_counter() - tick) / READS_PER_SAMPLE
            _add(setup, raw, speed)
            with HostSpeed(processes=workers) as unit_speed:
                try:
                    tick = time.perf_counter()
                    result = slugger.Slugger(config, execution=execution).summarize(graph)
                    raw = time.perf_counter() - tick
                except Exception as error:  # noqa: BLE001 - counted as a failed op
                    tally.record(False, f"summarize: {type(error).__name__}: {error}")
            if result is not None:
                _add(summarize[traced], raw, unit_speed)
                sources = rng.sample(list(graph.nodes()), QUERIES_PER_REP)
                for start in range(0, len(sources), OPS_PER_BRACKET):
                    with HostSpeed() as speed:
                        raws = []
                        for source in sources[start:start + OPS_PER_BRACKET]:
                            tick = time.perf_counter()
                            try:
                                answer = query_api.run_query(result.summary, "bfs",
                                                             source=source)
                            except Exception as error:  # noqa: BLE001 - a failed op
                                answer = error
                            raws.append(time.perf_counter() - tick)
                            answers.append((source, answer))
                    for raw in raws:
                        _add(latencies, raw, speed)
        rep += 1
        if result is None:
            continue

        def summary_ok(summary=result.summary) -> bool:
            nonlocal reference
            summary.validate(graph)
            identity = (summary.cost(), summary_store.summary_fingerprint(summary))
            if reference is None:
                reference = identity
            return identity == reference and (
                expected_cost is None or identity[0] == expected_cost)

        tally.check("summarize", summary_ok)
        csr = DenseAdjacency.from_graph(graph).freeze()
        for source, answer in answers:
            tally.check(f"summary bfs from {source}",
                        lambda source=source, answer=answer:
                        answer == query_api.run_query(csr, "bfs", source=source))
        if traced:
            stats = result.execution_stats
            parallel = execution is not None and execution.parallel
            units.append(layer_metrics(recorder, unit_speed.factor, {
                "engine.execution.replayed": stats["replayed"],
                "engine.execution.fallbacks": stats["fallbacks"],
                "engine.execution.replay_ratio":
                    stats["replayed"] / stats["groups"] if stats["groups"] else 0.0,
            }, parallel_prune=parallel))
            recorder.write_jsonl(spans_out, rep - 1)

    if workers > 1 and expected_cost is None and graph is not None:
        # No pinned cost for this seed: the serial run is the reference.
        def matches_serial() -> bool:
            serial = slugger.Slugger(config).summarize(graph).summary
            return reference == (serial.cost(), summary_store.summary_fingerprint(serial))

        tally.check("parallel equals serial", matches_serial)

    details = {
        "reps": rep,
        "queries": len(latencies["raw"]),
        "summarize_s": summarize[False],
        "traced_summarize_s": summarize[True],
        "setup_s": setup,
        "query_raw_p50_ms": 1000.0 * median(latencies["raw"]) if latencies["raw"] else None,
        "cost": reference[0] if reference else None,
        "edges": graph.num_edges if graph is not None else None,
    }
    if trace:
        overhead = (median(summarize[True]["calibrated"])
                    - median(summarize[False]["calibrated"]))
        return {"tally": tally, "metrics": aggregate_layers(units, overhead),
                "details": details}
    queries = latencies["calibrated"]
    return {
        "tally": tally,
        "details": details,
        "metrics": {
            "setup_s": median(setup["calibrated"]),
            "summarize_s": median(summarize[False]["calibrated"]),
            "relative_size": reference[0] / graph.num_edges,
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": len(queries) / sum(queries),
            "latency_p50_ms": 1000.0 * median(queries),
            "latency_p95_ms": 1000.0 * tail_percentile(queries, 0.95),
        },
    }


def _add(samples: Dict[str, List[float]], raw: float, speed: HostSpeed) -> None:
    samples["raw"].append(raw)
    samples["calibrated"].append(speed.scale(raw))


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class ServeSetup:
    """One complete set-up: a warm service plus what its ops read."""

    def __init__(self, paths: Dict[str, Path], workdir: Path, seed: int) -> None:
        self.options = {"iterations": ITERATIONS}
        self.service = None
        try:
            with HostSpeed() as speed:
                tick = time.perf_counter()
                self.hot = graph_io.read_edge_list(paths["hot"])
                self.misses = [graph_io.read_edge_list(paths[f"miss-{index}"])
                               for index in range(MISS_GRAPHS["count"])]
                storage.pack(self.hot, workdir / "hot.slg")
                self.service = SummaryService(mode="thread", max_inflight=1,
                                              summary_cache_dir=workdir / "summaries")
                self.service.register_graph("hot", self.hot)
                for index, graph in enumerate(self.misses):
                    self.service.register_graph(f"miss-{index}", graph)
                self.cold = self.submit("hot", seed)
                self.raw_seconds = time.perf_counter() - tick
            self.speed = speed
            self.seconds = speed.scale(self.raw_seconds)
            # Untimed from here: find the stored entry through a first hit,
            # load it for the summary-bfs ops, and size the cache budget.
            warm = self.submit("hot", seed)
            self.container = Path(warm.details["container"])
            stored = storage.load_summary(self.container)
            try:
                self.stored_summary = stored.summary
            finally:
                stored.close()
            self.fingerprints = [summary_store.summary_fingerprint(summary) for summary
                                 in (self.cold.summary, warm.summary, self.stored_summary)]
            cache = self.service.summary_cache
            self.submit("miss-0", WARMUP_MISS_SEED)
            miss_bytes = max(entry["bytes"] for entry in cache.entries()
                             if entry["path"] != str(self.container))
            cache.budget_bytes = (self.container.stat().st_size
                                  + MISS_ENTRIES_KEPT * miss_bytes)
        except BaseException:
            self.close()
            raise

    def submit(self, key: str, seed: int):
        job = self.service.submit(method="slugger", graph_key=key, seed=seed,
                                  options=self.options)
        return job.result(timeout=JOB_TIMEOUT_S)

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None


def _serve_op(setup: ServeSetup, op: str, argument, seed: int):
    """Run one closed-loop op; an exception is returned as the answer."""
    try:
        if op == "hit":
            return setup.submit("hot", seed)
        if op == "miss":
            return setup.submit(*argument)
        if op == "summary_bfs":
            return query_api.run_query(setup.stored_summary, "bfs", source=argument)
        return setup.service.query("hot", op, source=argument)
    except Exception as error:  # noqa: BLE001 - counted as a failed op
        return error


def _serve_answer_ok(op: str, argument, answer, setup: ServeSetup,
                     first_answers: Dict[str, object]) -> bool:
    if isinstance(answer, Exception):
        raise answer
    if op == "hit":
        return (answer.details.get("summary_cache") == "hit"
                and summary_store.summary_fingerprint(answer.summary)
                == setup.fingerprints[0])
    if op == "miss":
        graph = setup.misses[int(argument[0].rsplit("-", 1)[1])]
        answer.summary.validate(graph)
        return answer.details.get("summary_cache") != "hit"
    if op == "summary_bfs":
        return answer == setup.service.query("hot", "bfs", source=argument)
    if op == "bfs":
        return answer == query_api.run_query(setup.hot, "bfs", source=argument)
    return answer == first_answers.setdefault(op, answer)


def run_serve(seed: int, seconds: float, trace: bool, paths: Dict[str, Path],
              workdir: Path, expected_cost: Optional[int], spans_out) -> dict:
    tally = Tally()
    setups: List[ServeSetup] = []
    setup_recorder = SpanRecorder()
    try:
        for index in range(SETUP_REPS):
            last = index == SETUP_REPS - 1
            with setup_recorder.installed(PROBES) if trace and last else nullcontext():
                setups.append(ServeSetup(paths, workdir / f"setup-{index}", seed))
            if not last:
                setups[-1].close()
        for number, done in enumerate(setups):
            tally.check(f"setup {number} cold summary", lambda done=done: (
                done.cold.summary.validate(done.hot) is None
                and len(set(done.fingerprints)) == 1
                and done.fingerprints[0] == setups[0].fingerprints[0]
                and (expected_cost is None or done.cold.summary.cost() == expected_cost)))
        if trace:
            setup_recorder.write_jsonl(spans_out, -1)
        return _serve_loop(setups, seed, seconds, trace, tally, setup_recorder, spans_out)
    finally:
        for done in setups:
            done.close()


def _serve_loop(setups: List[ServeSetup], seed: int, seconds: float, trace: bool,
                tally: Tally, setup_recorder: SpanRecorder, spans_out) -> dict:
    current = setups[-1]
    service = current.service
    cache = service.summary_cache
    hot = current.hot
    rng = random.Random(seed)
    nodes = list(hot.nodes())
    samples: List[Tuple[str, float, bool]] = []  # (op, calibrated s, traced)
    raw_seconds: List[float] = []
    first_answers: Dict[str, object] = {}
    units: List[Dict[str, float]] = []
    misses = 0
    blocks = 0
    started = time.perf_counter()
    hard_stop = started + HARD_STOP_S
    while (len(samples) < MIN_OPS or time.perf_counter() - started < seconds) \
            and time.perf_counter() < hard_stop:
        traced = trace and blocks % 2 == 0
        recorder = SpanRecorder()
        ops = list(BLOCK)
        rng.shuffle(ops)
        stats_before = service.stats()
        evictions_before = cache.counters["evictions"]
        done = []
        factors = []
        with recorder.installed(PROBES) if traced else nullcontext():
            for first in range(0, len(ops), OPS_PER_BRACKET):
                timed = []
                with HostSpeed() as speed:
                    for op in ops[first:first + OPS_PER_BRACKET]:
                        if op == "miss":
                            argument = (f"miss-{misses % MISS_GRAPHS['count']}",
                                        1000 + misses)
                            misses += 1
                        elif op in ("bfs", "summary_bfs"):
                            argument = rng.choice(nodes)
                        else:
                            argument = None
                        tick = time.perf_counter()
                        answer = _serve_op(current, op, argument, seed)
                        timed.append((op, argument, answer, time.perf_counter() - tick))
                factors.append(speed.factor)
                raw_seconds.extend(raw for _op, _a, _r, raw in timed)
                done.extend((op, argument, answer, raw * speed.factor)
                            for op, argument, answer, raw in timed)
        blocks += 1
        stats_after = service.stats()
        for op, argument, answer, elapsed in done:
            samples.append((op, elapsed, traced))
            tally.check(op, lambda op=op, argument=argument, answer=answer:
                        _serve_answer_ok(op, argument, answer, current, first_answers))
        if traced:
            def block_ms(kind: str) -> float:
                return 1000.0 * median([elapsed for op, _a, _r, elapsed in done
                                        if op == kind])

            units.append(layer_metrics(recorder, sum(factors) / len(factors), {
                "service.submit_to_result_ms.hit": block_ms("hit"),
                "service.submit_to_result_ms.miss": block_ms("miss"),
                "service.summary_cache_hits":
                    stats_after["summary_cache_hits"] - stats_before["summary_cache_hits"],
                "service.summary_cache_stores":
                    stats_after["summary_cache_stores"]
                    - stats_before["summary_cache_stores"],
                "storage.evictions": cache.counters["evictions"] - evictions_before,
            }))
            recorder.write_jsonl(spans_out, blocks - 1)

    def latencies(kind: Optional[str] = None, traced: Optional[bool] = None) -> List[float]:
        return [elapsed for op, elapsed, was_traced in samples
                if (kind is None or op == kind) and (traced is None or was_traced == traced)]

    details = {
        "blocks": blocks,
        "ops": len(samples),
        "setup_s": {"calibrated": [done.seconds for done in setups],
                    "raw": [done.raw_seconds for done in setups]},
        "raw_p50_ms": 1000.0 * median(raw_seconds),
        "latency_ms_by_op": {op: 1000.0 * median(latencies(op)) for op in sorted(set(BLOCK))},
        "cache": cache.stats(),
    }
    if trace:
        overhead = median(latencies("miss", True)) - median(latencies("miss", False))
        layers = aggregate_layers(units, overhead)
        setup_layers = layer_metrics(setup_recorder, current.speed.factor, {})
        for name in ("graphs.read_edge_list_s", "storage.pack_s"):
            layers[name] = setup_layers[name]
        layers["storage.summary_bytes_per_edge"] = (
            current.container.stat().st_size / hot.num_edges)
        return {"tally": tally, "metrics": layers, "details": details}
    everything = latencies()
    return {
        "tally": tally,
        "details": details,
        "metrics": {
            "setup_s": median([done.seconds for done in setups]),
            "summarize_s": median(latencies("miss")),
            "relative_size": current.cold.summary.cost() / hot.num_edges,
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": len(everything) / sum(everything),
            "latency_p50_ms": 1000.0 * median(everything),
            "latency_p95_ms": 1000.0 * tail_percentile(everything, 0.95),
        },
    }
