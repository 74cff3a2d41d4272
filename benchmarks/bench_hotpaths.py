"""Microbenchmark for the SLUGGER hot paths and the dense substrate.

Times the three inner-loop stages that the hot-path overhaul targets —
subnode-shingle computation, candidate generation, and one merge sweep —
against inline replicas of the seed implementation (eager per-edge
hashing, full per-round rehash, O(n) ``list.index`` partner replacement
without partner-search short-circuits).  Both variants run on the same
graphs with the same seeds, so the speedups are measured, not asserted
from first principles, and the outputs are cross-checked for equality.

On top of the stage benches, two substrate comparisons track the dense
integer-graph layer:

* an *end-to-end* comparison: the full SLUGGER driver built from the
  seed replicas versus the current implementation (same seeds, costs
  cross-checked equal);
* a *representation* comparison: the dense shingle sweep SLUGGER runs,
  and the approximate memory of dict-of-sets adjacency versus
  :class:`DenseAdjacency` versus the frozen CSR view.

Run directly::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py          # full (10k-node ER)
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --quick  # CI smoke mode
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --json out.json

``--json`` writes a machine-readable record (timings, speedups, memory,
peak RSS) so the perf trajectory is tracked across PRs.  The full mode
asserts the acceptance bars: candidate generation on the 10k-node
Erdős–Rényi graph at least 2x faster than the seed, and the substrate
either >= 1.3x faster end-to-end or >= 30% smaller in adjacency memory.
The ``ingest`` section compares the two disk-to-substrate paths (text
parse, packed-container mmap load) and gates the storage layer: mmap
load >= 5x faster than the text parse and the container >= 2x smaller
than the text edge list.

The ``queries`` section times the CSR-native query kernels (pagerank,
BFS, triangle counting) served straight off a mapped container against
inline replicas of the seed's dict-of-sets analytics, results
cross-checked equal (pagerank bit-identically) and the serving path
asserted to materialize zero ``Graph`` nodes and no dense substrate
(hardware-independent gate: each kernel >= 3x the dict implementation
on the 10k-node ER fixture).

The ``summary_cache`` section measures summary persistence: one cold
SLUGGER run through a cache-attached service versus the identical
request warm-started from the persisted ``SUMM`` container by a fresh
service, summaries cross-checked bit-identical (hardware-independent
gate: warm >= 10x cold).

The ``obs`` section measures telemetry overhead: the same run with
telemetry disabled, with a live metrics registry, and with metrics plus
span tracing, costs cross-checked identical (gate: full telemetry
<= +3% wall time over the disabled path on the 10k-node ER fixture).
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from typing import Callable, Dict, List, Sequence

from repro.core import Slugger, SluggerConfig
from repro.core.candidates import generate_candidate_sets
from repro.engine.execution import available_cpus, process_execution_available
from repro.core.merging import merge_and_update, process_candidate_set
from repro.core.pruning import prune
from repro.core.saving import saving, two_hop_roots
from repro.core.shingles import dense_shingles, make_hash_function
from repro.core.state import SluggerState
from repro.graphs import caveman_graph, erdos_renyi_graph
from repro.graphs.dense import DenseAdjacency, graph_adjacency_bytes
from repro.graphs.graph import Graph
from repro.model.hierarchy import Hierarchy
from repro.utils.rng import ensure_rng


# ----------------------------------------------------------------------
# Seed-implementation replicas (the "before" side of the comparison)
# ----------------------------------------------------------------------
def seed_subnode_shingles(graph: Graph, hash_function) -> Dict:
    """Seed shingle computation: re-invokes the hash closure per edge endpoint."""
    shingles = {}
    for node in graph.nodes():
        best = hash_function(node)
        for neighbor in graph.neighbor_set(node):
            value = hash_function(neighbor)
            if value < best:
                best = value
        shingles[node] = best
    return shingles


def seed_leaf_subnodes(hierarchy: Hierarchy, supernode: int) -> List:
    """Seed leaf lookup: walks the subtree on every call (no memoized leaf index)."""
    leaves = []
    stack = [supernode]
    children = hierarchy._children
    leaf_subnode = hierarchy._leaf_subnode
    while stack:
        node = stack.pop()
        if node in leaf_subnode:
            leaves.append(leaf_subnode[node])
        else:
            stack.extend(children[node])
    return leaves


def seed_root_shingles(roots, hierarchy: Hierarchy, node_shingles: Dict) -> Dict:
    result = {}
    for root in roots:
        best = None
        for subnode in seed_leaf_subnodes(hierarchy, root):
            value = node_shingles[subnode]
            if best is None or value < best:
                best = value
        result[root] = best if best is not None else 0
    return result


def seed_generate_candidate_sets(
    graph: Graph, hierarchy: Hierarchy, roots: Sequence[int], config: SluggerConfig, seed=None
) -> List[List[int]]:
    """Seed candidate generation: rehashes every graph node on every round."""
    rng = ensure_rng(seed)
    groups: List[List[int]] = [list(roots)]
    finished: List[List[int]] = []
    for _ in range(config.shingle_rounds):
        oversized = [group for group in groups if len(group) > config.max_candidate_size]
        finished.extend(group for group in groups if len(group) <= config.max_candidate_size)
        if not oversized:
            groups = []
            break
        hash_function = make_hash_function(rng.randrange(2**61))
        node_shingles = seed_subnode_shingles(graph, hash_function)
        groups = []
        for group in oversized:
            shingles = seed_root_shingles(group, hierarchy, node_shingles)
            buckets: Dict[int, List[int]] = {}
            for root in group:
                buckets.setdefault(shingles[root], []).append(root)
            if len(buckets) == 1:
                groups.append(group)
            else:
                groups.extend(buckets.values())
    for group in groups:
        if len(group) <= config.max_candidate_size:
            finished.append(group)
        else:
            shuffled = list(group)
            rng.shuffle(shuffled)
            for start in range(0, len(shuffled), config.max_candidate_size):
                finished.append(shuffled[start:start + config.max_candidate_size])
    candidate_sets = [group for group in finished if len(group) >= 2]
    rng.shuffle(candidate_sets)
    return candidate_sets


def seed_best_partner(state: SluggerState, root: int, candidates, height_bound=None):
    """Seed partner search: full two-hop set per call, no estimate short-circuit."""
    admissible = two_hop_roots(state, root)
    best_value = float("-inf")
    best_root = -1
    for other in candidates:
        if other == root or other not in admissible:
            continue
        if height_bound is not None:
            new_height = 1 + max(state.tree_height[root], state.tree_height[other])
            if new_height > height_bound:
                continue
        value = saving(state, root, other)
        if value > best_value:
            best_value = value
            best_root = other
    return best_value, best_root


class SeedState(SluggerState):
    """State with the seed's O(|pn_edges|) bucket scan on every merge."""

    def _rekey_pn_edges(self, root_a: int, root_b: int, merged: int) -> None:
        affected = [pair for pair in self.pn_edges if root_a in pair or root_b in pair]
        for pair in affected:
            records = self.pn_edges.pop(pair)
            first, second = pair
            new_first = merged if first in (root_a, root_b) else first
            new_second = merged if second in (root_a, root_b) else second
            new_pair = (new_first, new_second) if new_first <= new_second else (new_second, new_first)
            self.pn_edges.setdefault(new_pair, set()).update(records)


def seed_process_candidate_set(
    state: SluggerState, candidate_set, threshold: float, config: SluggerConfig, seed=None
) -> int:
    """Seed merge loop: O(n) ``queue.index`` scan to replace the merged partner."""
    rng = ensure_rng(seed)
    queue: List[int] = [root for root in candidate_set if root in state.roots]
    merges = 0
    while len(queue) > 1:
        index = rng.randrange(len(queue))
        root_a = queue[index]
        queue[index] = queue[-1]
        queue.pop()
        value, root_b = seed_best_partner(
            state, root_a, queue, height_bound=config.height_bound
        )
        if root_b < 0 or value < threshold:
            continue
        merged = merge_and_update(state, root_a, root_b, config)
        queue[queue.index(root_b)] = merged
        merges += 1
    return merges


# ----------------------------------------------------------------------
# Timing harness
# ----------------------------------------------------------------------
def best_of(repeats: int, callback: Callable[[], object]) -> float:
    """Minimum wall time over ``repeats`` invocations of ``callback``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callback()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def bench_shingles(graph: Graph, repeats: int) -> Dict[str, float]:
    """Seed label-keyed shingles versus the dense sweep SLUGGER runs.

    The dense substrate is built once per run by the state, so it is
    built outside the timed call here too.
    """
    dense = DenseAdjacency.from_graph(graph)
    before = best_of(repeats, lambda: seed_subnode_shingles(graph, make_hash_function(42)))
    after = best_of(repeats, lambda: dense_shingles(dense, make_hash_function(42)))
    assert_dense_shingles_match_seed(graph, dense)
    return {"before": before, "after": after}


def assert_dense_shingles_match_seed(graph: Graph, dense: DenseAdjacency) -> None:
    """The dense sweep must give the seed's shingle of every label."""
    by_label = seed_subnode_shingles(graph, make_hash_function(42))
    by_id = dense_shingles(dense, make_hash_function(42))
    assert by_id == [by_label[label] for label in dense.index.labels()]


def bench_candidates(graph: Graph, repeats: int) -> Dict[str, float]:
    state = SluggerState(graph)
    hierarchy = state.summary.hierarchy
    roots = sorted(state.roots)
    config = SluggerConfig(seed=0)
    dense = state.dense
    before = best_of(repeats, lambda: seed_generate_candidate_sets(graph, hierarchy, roots, config, seed=1))
    after = best_of(repeats, lambda: generate_candidate_sets(dense, hierarchy, roots, config, seed=1))
    assert generate_candidate_sets(dense, hierarchy, roots, config, seed=1) == \
        seed_generate_candidate_sets(graph, hierarchy, roots, config, seed=1)
    return {"before": before, "after": after}


def bench_merge_sweep(graph: Graph) -> Dict[str, float]:
    """One full merge sweep over all candidate sets at threshold 0.

    Threshold 0 is the final-iteration regime, where most merges happen
    and the per-merge bookkeeping (partner replacement, superedge-bucket
    re-keying) dominates.
    """
    config = SluggerConfig(seed=0)
    threshold = 0.0

    def sweep(process, state_class):
        rng = ensure_rng(7)
        state = state_class(graph)
        candidate_sets = generate_candidate_sets(
            state.dense, state.summary.hierarchy, sorted(state.roots), config,
            seed=rng.randrange(2**61),
        )
        merges = 0
        started = time.perf_counter()
        for candidate_set in candidate_sets:
            merges += process(state, candidate_set, threshold, config, seed=rng.randrange(2**61))
        return time.perf_counter() - started, merges

    before, merges_before = sweep(seed_process_candidate_set, SeedState)
    after, merges_after = sweep(process_candidate_set, SluggerState)
    assert merges_before == merges_after, "merge sweep diverged from the seed implementation"
    return {"before": before, "after": after}


def bench_validation(graph: Graph, iterations: int) -> float:
    """Full run with per-iteration invariant checks; returns the final cost."""
    result = Slugger(SluggerConfig(iterations=iterations, seed=0, check_invariants=graph.num_nodes <= 2000)).summarize(graph)
    result.summary.validate(graph)
    return result.cost()


# ----------------------------------------------------------------------
# End-to-end and substrate comparisons
# ----------------------------------------------------------------------
def seed_full_run(graph: Graph, config: SluggerConfig) -> int:
    """The full SLUGGER driver built from the seed replicas; returns the cost.

    Candidate generation, partner search, and the state bookkeeping are
    the seed's (eager label-keyed rehash, no short-circuits, bucket
    scans); the merge re-encoding itself is shared with the current
    implementation, so the measured end-to-end speedup is conservative.
    The RNG protocol matches ``Slugger.summarize`` exactly, so the final
    cost must equal the current implementation's.
    """
    rng = ensure_rng(config.seed)
    state = SeedState(graph)
    for iteration in range(1, config.iterations + 1):
        threshold = config.threshold(iteration)
        candidate_sets = seed_generate_candidate_sets(
            graph, state.summary.hierarchy, sorted(state.roots), config,
            seed=rng.randrange(2**61),
        )
        for candidate_set in candidate_sets:
            seed_process_candidate_set(
                state, candidate_set, threshold, config, seed=rng.randrange(2**61)
            )
    if config.prune:
        prune(state.dense, state.summary, rounds=config.prune_rounds)
    return state.summary.cost()


def bench_full_run(graph: Graph, iterations: int) -> Dict[str, float]:
    """End-to-end: seed-replica driver versus the current implementation."""
    config = SluggerConfig(iterations=iterations, seed=0)
    started = time.perf_counter()
    cost_before = seed_full_run(graph, config)
    before = time.perf_counter() - started
    started = time.perf_counter()
    cost_after = Slugger(config).summarize(graph).cost()
    after = time.perf_counter() - started
    assert cost_before == cost_after, (
        f"full run diverged from the seed replica: {cost_before} != {cost_after}"
    )
    return {"before": before, "after": after}


def bench_substrate(graph: Graph, repeats: int) -> Dict[str, float]:
    """Adjacency-representation comparison: dict-of-sets vs dense vs CSR.

    Times a whole-graph shingle sweep (the canonical read-only pass) on
    the dense substrate SLUGGER runs, and reports the approximate
    adjacency memory of all three representations.
    """
    dense = DenseAdjacency.from_graph(graph)
    csr = dense.freeze()
    dense_time = best_of(repeats, lambda: dense_shingles(dense, make_hash_function(42)))
    assert_dense_shingles_match_seed(graph, dense)
    return {
        "dense_sweep_seconds": dense_time,
        "dict_bytes": float(graph_adjacency_bytes(graph)),
        "dense_bytes": float(dense.approx_bytes()),
        "csr_bytes": float(csr.approx_bytes()),
    }


def bench_serving(quick: bool) -> Dict[str, object]:
    """Throughput of many small requests: warm service vs per-call runs.

    ``requests`` SLUGGER jobs (rotating seeds) against one small graph,
    three ways:

    * ``cold``     — a fresh summarizer per call, substrate rebuilt every
      time (the pre-service per-call path);
    * ``engine_run`` — sequential ``engine.run`` (the default-service
      shim: interned substrate, no concurrency);
    * ``service``  — one warm :class:`SummaryService` (process mode where
      fork is available) executing the same requests with
      ``min(4, cpus)`` in-flight jobs.

    Every service result's cost is asserted equal to the corresponding
    ``engine.run`` — the serving determinism guarantee — so the section
    measures scheduling and reuse, never a different computation.
    """
    from repro import engine
    from repro.service import SummaryService

    graph = erdos_renyi_graph(600, 0.01, seed=2)
    requests = 10 if quick else 50
    iterations = 3
    seeds = [i % 5 for i in range(requests)]
    cpus = available_cpus()
    fork = process_execution_available()
    mode = "process" if fork and cpus >= 2 else "thread"
    inflight = max(1, min(4, cpus))

    started = time.perf_counter()
    cold_costs = [
        engine.create("slugger", iterations=iterations).summarize(graph, seed=seed).cost()
        for seed in seeds
    ]
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    run_costs = [
        engine.run("slugger", graph, seed=seed, iterations=iterations).cost()
        for seed in seeds
    ]
    engine_run_seconds = time.perf_counter() - started
    assert run_costs == cold_costs, "engine.run diverged from the cold per-call path"

    started = time.perf_counter()
    with SummaryService(mode=mode, max_inflight=inflight) as service:
        service.register_graph("bench", graph)
        jobs = [
            service.submit(method="slugger", graph_key="bench", seed=seed,
                           options={"iterations": iterations})
            for seed in seeds
        ]
        service_costs = [job.result(timeout=600).cost() for job in jobs]
    service_seconds = time.perf_counter() - started
    assert service_costs == run_costs, (
        "warm service diverged from per-call engine.run"
    )

    speedup = engine_run_seconds / service_seconds if service_seconds > 0 else float("inf")
    section: Dict[str, object] = {
        "graph": {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
        "requests": requests,
        "iterations": iterations,
        "cpus": cpus,
        "fork_available": fork,
        "mode": mode,
        "inflight": inflight,
        "cold_seconds": cold_seconds,
        "engine_run_seconds": engine_run_seconds,
        "service_seconds": service_seconds,
        "speedup": speedup,
        "throughput_rps": requests / service_seconds if service_seconds > 0 else float("inf"),
    }
    print(f"  serving {requests} requests  cold={cold_seconds:8.3f}s  "
          f"engine.run={engine_run_seconds:8.3f}s  "
          f"service[{mode} x{inflight}]={service_seconds:8.3f}s  "
          f"speedup={speedup:5.2f}x")
    return section


def bench_ingest(graph: Graph, name: str, repeats: int) -> Dict[str, object]:
    """Getting a graph off disk: text parse vs mmap load.

    Writes the fixture as a text edge list and as a packed binary
    container, then times the two ingest paths.  Every path's result
    is cross-checked for equality with the text parse (edge set, node
    insertion order, CSR arrays), so the section measures I/O strategy,
    never a different graph.
    """
    import os
    import tempfile

    from repro import storage
    from repro.graphs.io import read_edge_list, write_edge_list

    section: Dict[str, object] = {"graph": name}
    with tempfile.TemporaryDirectory() as workdir:
        text_path = f"{workdir}/graph.txt"
        container_path = f"{workdir}/graph.slg"
        write_edge_list(graph, text_path, header=False)

        text_seconds = best_of(repeats, lambda: read_edge_list(text_path))
        parsed = read_edge_list(text_path)

        pack_started = time.perf_counter()
        info = storage.pack(parsed, container_path)
        pack_seconds = time.perf_counter() - pack_started

        def mmap_load():
            with storage.load(container_path) as stored:
                stored.csr()  # fully usable zero-copy substrate

        load_seconds = best_of(repeats, mmap_load)
        with storage.load(container_path) as stored:
            assert stored.graph().edge_set() == parsed.edge_set(), "container diverged"
            assert stored.graph().nodes() == parsed.nodes(), "container order diverged"
            reference = DenseAdjacency.from_graph(parsed).freeze()
            assert list(stored.csr().indptr) == list(reference.indptr)
            assert list(stored.csr().indices) == list(reference.indices)

        text_bytes = os.path.getsize(text_path)
        section.update({
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "text_parse_seconds": text_seconds,
            "pack_seconds": pack_seconds,
            "mmap_load_seconds": load_seconds,
            "load_speedup": text_seconds / load_seconds if load_seconds > 0 else float("inf"),
            "text_bytes": text_bytes,
            "container_bytes": info.file_bytes,
            "size_ratio": text_bytes / info.file_bytes if info.file_bytes else float("inf"),
        })
    print(f"  ingest text parse      {section['text_parse_seconds']:8.3f}s  "
          f"mmap load={section['mmap_load_seconds']:8.3f}s  "
          f"({section['load_speedup']:5.2f}x)  pack={section['pack_seconds']:8.3f}s")
    print(f"  ingest size            text={text_bytes/1024:.0f}KiB  "
          f"container={info.file_bytes/1024:.0f}KiB  "
          f"({section['size_ratio']:.2f}x smaller)")
    return section


def bench_queries(graph: Graph, repeats: int) -> Dict[str, object]:
    """Dict-of-sets analytics versus the CSR-native query kernels.

    Packs the fixture into a container, maps it back, and serves
    pagerank / BFS / triangle counting straight off the mapped substrate
    through :func:`~repro.algorithms.providers.resolve_id_adjacency`,
    against inline replicas of the seed's label-keyed implementations
    (per-node Python sets, dict accumulators).  Results are
    cross-checked equal — pagerank bit-identically — and the serving
    path is asserted to materialize zero :class:`Graph` nodes and build
    no dense substrate, so the ratios measure pure algorithmic wins,
    independent of core count.
    """
    import tempfile
    from collections import deque

    from repro import storage
    from repro.algorithms import bfs_order, count_triangles, pagerank

    def legacy_pagerank(g: Graph, damping: float = 0.85, iterations: int = 20):
        nodes = g.nodes()
        num_nodes = len(nodes)
        scores = {node: 1.0 / num_nodes for node in nodes}
        for _ in range(iterations):
            incoming = {node: 0.0 for node in nodes}
            for node in nodes:
                adjacent = set(g.neighbor_set(node))
                if not adjacent:
                    continue
                share = scores[node] / len(adjacent)
                for neighbor in adjacent:
                    incoming[neighbor] += share
            total_flow = 0.0
            for node in nodes:
                incoming[node] *= damping
                total_flow += incoming[node]
            leak = (1.0 - total_flow) / num_nodes
            scores = {node: incoming[node] + leak for node in nodes}
        return scores

    def legacy_bfs(g: Graph, source):
        order, seen, queue = [], {source}, deque([source])
        while queue:
            node = queue.popleft()
            order.append(node)
            for neighbor in sorted(g.neighbor_set(node), key=repr):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return order

    def legacy_triangles(g: Graph) -> int:
        cache = {node: set(g.neighbor_set(node)) for node in g.nodes()}
        corner_count = 0
        for node, adjacent in cache.items():
            for neighbor in adjacent:
                corner_count += len(adjacent & cache[neighbor])
        return corner_count // 6

    source = graph.nodes()[0]
    section: Dict[str, object] = {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
    }
    with tempfile.TemporaryDirectory() as workdir:
        container_path = f"{workdir}/graph.slg"
        storage.pack(graph, container_path)
        with storage.load(container_path) as stored:
            for label, dict_fn, csr_fn in (
                ("pagerank", lambda: legacy_pagerank(graph),
                 lambda: pagerank(stored)),
                ("bfs", lambda: legacy_bfs(graph, source),
                 lambda: bfs_order(stored, source)),
                ("triangles", lambda: legacy_triangles(graph),
                 lambda: count_triangles(stored)),
            ):
                dict_result = dict_fn()
                csr_result = csr_fn()
                if label == "pagerank":
                    assert list(csr_result) == list(dict_result) and all(
                        csr_result[node] == dict_result[node] for node in dict_result
                    ), "CSR-native pagerank diverged from the dict implementation"
                else:
                    assert csr_result == dict_result, \
                        f"CSR-native {label} diverged from the dict implementation"
                dict_seconds = best_of(repeats, dict_fn)
                csr_seconds = best_of(repeats, csr_fn)
                speedup = dict_seconds / csr_seconds if csr_seconds > 0 else float("inf")
                section[label] = {
                    "dict_seconds": dict_seconds,
                    "csr_seconds": csr_seconds,
                    "speedup": speedup,
                }
                print(f"  query {label:<16} dict={dict_seconds:8.3f}s  "
                      f"csr={csr_seconds:8.3f}s  speedup={speedup:5.2f}x")
            assert stored.materializations == 0, \
                "serving queries must not materialize a label-keyed Graph"
            assert stored._dense is None, \
                "serving queries must not build the dense substrate"
    section["materializations"] = 0
    return section


def bench_summary_cache(quick: bool) -> Dict[str, object]:
    """Cold summarizer run versus a warm-start hit on the summary cache.

    Runs one SLUGGER request through a :class:`SummaryService` with a
    summary cache attached (cold: full compute + persist), then replays
    the identical request through a *fresh* service over the same cache
    directory — the warm path decodes the persisted ``SUMM`` sections
    off the mmap without running a single summarizer iteration.  Both
    summaries are cross-checked for bit-identity via
    :func:`summary_fingerprint`, so the speedup measures pure recompute
    avoidance (hardware-independent gate: warm >= 10x cold).
    """
    import tempfile

    from repro.service import SummaryService
    from repro.storage.summary_store import summary_fingerprint

    graph = (erdos_renyi_graph(3000, 0.004, seed=3) if not quick
             else erdos_renyi_graph(600, 0.01, seed=3))
    iterations = 5 if not quick else 3
    section: Dict[str, object] = {
        "graph": {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
        "iterations": iterations,
    }
    with tempfile.TemporaryDirectory() as workdir:
        with SummaryService(summary_cache_dir=workdir) as service:
            service.register_graph("bench", graph)
            started = time.perf_counter()
            cold = service.submit(method="slugger", graph_key="bench", seed=0,
                                  options={"iterations": iterations},
                                  block=True).result(timeout=600)
            cold_seconds = time.perf_counter() - started
            cold_stats = service.stats()
        assert cold_stats["summary_cache_stores"] == 1, \
            "cold run must persist exactly one summary container"
        assert cold_stats["summary_cache_errors"] == 0

        # A fresh service over the same cache directory: no in-memory
        # state survives, so a hit proves the on-disk container alone
        # reproduces the result.
        with SummaryService(summary_cache_dir=workdir) as service:
            service.register_graph("bench", graph)
            started = time.perf_counter()
            warm = service.submit(method="slugger", graph_key="bench", seed=0,
                                  options={"iterations": iterations},
                                  block=True).result(timeout=600)
            warm_seconds = time.perf_counter() - started
            warm_stats = service.stats()
        assert warm_stats["summary_cache_hits"] == 1, \
            "warm run must be served from the summary cache"
        assert warm.details.get("summary_cache") == "hit"
        assert summary_fingerprint(cold.summary) == summary_fingerprint(warm.summary), \
            "warm-start summary diverged from the cold compute"
        assert cold.history == warm.history, \
            "warm-start history diverged from the cold compute"
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    section.update({
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": speedup,
        "stores": cold_stats["summary_cache_stores"],
        "hits": warm_stats["summary_cache_hits"],
    })
    print(f"  summary cache cold     {cold_seconds:8.3f}s  warm={warm_seconds:8.3f}s  "
          f"({speedup:5.1f}x)  bit-identical, zero warm iterations")
    return section


def bench_obs(graph: Graph, iterations: int, repeats: int) -> Dict[str, object]:
    """Telemetry overhead: a fully instrumented run versus the null path.

    The same SLUGGER run three ways — telemetry disabled (the null-object
    default), with a live :class:`~repro.obs.MetricsRegistry`, and with a
    registry *plus* a :class:`~repro.obs.Tracer` — best-of-``repeats``
    each.  Costs are cross-checked identical (telemetry is pure
    observation), and the full-telemetry run must stay within 3% of the
    disabled wall time: the null spans already pay the two
    ``perf_counter`` calls per phase, so instrumentation only adds the
    registry/span bookkeeping.
    """
    from repro.engine.hooks import RunControl
    from repro.obs import MetricsRegistry, Tracer

    config = SluggerConfig(iterations=iterations, seed=0)

    def run_disabled() -> int:
        return Slugger(config).summarize(graph).cost()

    def run_metered() -> int:
        control = RunControl(metrics=MetricsRegistry())
        return Slugger(config).summarize(graph, control=control).cost()

    def run_traced() -> int:
        control = RunControl(metrics=MetricsRegistry(), tracer=Tracer())
        return Slugger(config).summarize(graph, control=control).cost()

    cost_disabled = run_disabled()
    assert run_metered() == cost_disabled, "metrics perturbed the summary cost"
    assert run_traced() == cost_disabled, "tracing perturbed the summary cost"

    disabled = best_of(repeats, run_disabled)
    metered = best_of(repeats, run_metered)
    traced = best_of(repeats, run_traced)
    overhead = traced / disabled - 1.0 if disabled > 0 else 0.0
    section: Dict[str, object] = {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "iterations": iterations,
        "disabled_seconds": disabled,
        "metrics_seconds": metered,
        "metrics_and_trace_seconds": traced,
        "overhead": overhead,
        "cost": cost_disabled,
    }
    print(f"  obs disabled           {disabled:8.3f}s  metrics={metered:8.3f}s  "
          f"metrics+trace={traced:8.3f}s  overhead={overhead:+.1%}")
    return section


def check_devtools_isolation() -> None:
    """Importing ``repro`` must not import the ``repro.devtools`` analyzer.

    The lint framework is a dev-time tool; pulling it (ast walks, rule
    registry) into serving imports would tax every cold start.  Checked
    in a fresh interpreter so this process's own imports cannot mask a
    leak.
    """
    script = (
        "import sys\n"
        "import repro\n"
        "import repro.engine\n"
        "import repro.service\n"
        "leaked = sorted(m for m in sys.modules if m.startswith('repro.devtools'))\n"
        "assert not leaked, 'importing repro pulled in ' + ', '.join(leaked)\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True)
    print("PASS: importing repro does not import repro.devtools")


def report(label: str, timings: Dict[str, float]) -> float:
    speedup = timings["before"] / timings["after"] if timings["after"] > 0 else float("inf")
    print(f"  {label:<22} before={timings['before']:8.3f}s  "
          f"after={timings['after']:8.3f}s  speedup={speedup:5.2f}x")
    return speedup


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small graphs, fewer repeats (CI smoke mode; no speedup assertions)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write a machine-readable BENCH_*.json-style record to PATH")
    args = parser.parse_args(argv)

    if args.quick:
        graphs = [
            ("er-1k", erdos_renyi_graph(1000, 0.01, seed=1)),
            ("caveman-20x10", caveman_graph(20, 10, 0.05, seed=1)),
        ]
        repeats, iterations = 2, 2
    else:
        graphs = [
            ("er-10k", erdos_renyi_graph(10000, 0.003, seed=1)),
            ("caveman-100x20", caveman_graph(100, 20, 0.05, seed=1)),
        ]
        repeats, iterations = 3, 3

    check_devtools_isolation()

    record: Dict[str, object] = {
        "bench": "hotpaths",
        "quick": args.quick,
        "python": platform.python_version(),
        "devtools_isolated": True,
        "graphs": {},
    }
    candidate_speedups: Dict[str, float] = {}
    full_run_speedups: Dict[str, float] = {}
    memory_reductions: Dict[str, float] = {}
    for name, graph in graphs:
        print(f"{name}: n={graph.num_nodes} m={graph.num_edges}")
        graph_record: Dict[str, object] = {
            "num_nodes": graph.num_nodes, "num_edges": graph.num_edges,
        }
        timings = bench_shingles(graph, repeats)
        graph_record["shingles"] = {**timings, "speedup": report("subnode shingles", timings)}
        timings = bench_candidates(graph, repeats)
        candidate_speedups[name] = report("candidate generation", timings)
        graph_record["candidates"] = {**timings, "speedup": candidate_speedups[name]}
        timings = bench_merge_sweep(graph)
        graph_record["merge_sweep"] = {**timings, "speedup": report("merge sweep", timings)}
        timings = bench_full_run(graph, iterations)
        full_run_speedups[name] = report("full run (end-to-end)", timings)
        graph_record["full_run"] = {**timings, "speedup": full_run_speedups[name]}
        substrate = bench_substrate(graph, repeats)
        memory_reductions[name] = 1.0 - substrate["csr_bytes"] / substrate["dict_bytes"]
        substrate["csr_memory_reduction"] = memory_reductions[name]
        graph_record["substrate"] = substrate
        print(f"  substrate sweep        dense={substrate['dense_sweep_seconds']:8.3f}s")
        print(f"  adjacency memory       dict={substrate['dict_bytes']/1024:.0f}KiB  "
              f"dense={substrate['dense_bytes']/1024:.0f}KiB  "
              f"csr={substrate['csr_bytes']/1024:.0f}KiB  "
              f"(csr {memory_reductions[name]:.0%} smaller than dict)")
        cost = bench_validation(graph, iterations)
        graph_record["cost"] = cost
        print(f"  validation             lossless OK (cost={cost})")
        record["graphs"][name] = graph_record  # type: ignore[index]

    # Warm-pool serving throughput over many small requests.
    print("serving: warm service vs per-call engine.run")
    record["serving"] = bench_serving(args.quick)

    # Disk-to-substrate ingest paths on the ER fixture.
    ingest_name, ingest_graph = graphs[0]
    print(f"{ingest_name}: ingest (text parse vs mmap load)")
    record["ingest"] = bench_ingest(ingest_graph, ingest_name, repeats)

    # CSR-native query kernels versus the dict-of-sets analytics.
    queries_name, queries_graph = graphs[0]
    print(f"{queries_name}: query serving (dict-of-sets vs CSR-native kernels)")
    record["queries"] = {
        "graph": queries_name,
        **bench_queries(queries_graph, repeats),
    }

    # Summary persistence: cold compute vs warm-start off the cache.
    print("summary cache: cold compute vs warm-start (SUMM container mmap)")
    record["summary_cache"] = bench_summary_cache(args.quick)

    # Telemetry overhead: instrumented vs disabled on the ER fixture.
    obs_name, obs_graph = graphs[0]
    print(f"{obs_name}: telemetry overhead (disabled vs metrics vs metrics+trace)")
    record["obs"] = {"graph": obs_name, **bench_obs(obs_graph, iterations, repeats)}

    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if not args.quick:
        failures: List[str] = []
        er_speedup = candidate_speedups["er-10k"]
        if er_speedup < 2.0:
            failures.append(f"candidate generation on the 10k-node ER graph is only "
                            f"{er_speedup:.2f}x faster than the seed (need >= 2x)")
        else:
            print(f"PASS: candidate generation on the 10k-node ER graph is {er_speedup:.2f}x "
                  f"faster than the seed")
        er_full = full_run_speedups["er-10k"]
        er_memory = memory_reductions["er-10k"]
        if er_full < 1.3 and er_memory < 0.30:
            failures.append(f"substrate shows neither >= 1.3x end-to-end speedup "
                            f"(got {er_full:.2f}x) nor >= 30% adjacency-memory reduction "
                            f"(got {er_memory:.0%}) on the 10k-node ER run")
        else:
            print(f"PASS: 10k-node ER full run {er_full:.2f}x faster end-to-end; "
                  f"CSR adjacency {er_memory:.0%} smaller than dict-of-sets")
        ingest = record["ingest"]  # type: ignore[assignment]
        if ingest["load_speedup"] < 5.0:
            ingest["load_gate"] = "failed"  # type: ignore[index]
            failures.append(f"mmap container load is only {ingest['load_speedup']:.2f}x "
                            f"faster than the text parse (need >= 5x)")
        else:
            ingest["load_gate"] = "passed"  # type: ignore[index]
            print(f"PASS: mmap container load {ingest['load_speedup']:.2f}x faster "
                  f"than the text parse on the 10k-node ER fixture")
        if ingest["size_ratio"] < 2.0:
            ingest["size_gate"] = "failed"  # type: ignore[index]
            failures.append(f"container is only {ingest['size_ratio']:.2f}x smaller "
                            f"than the text edge list (need >= 2x)")
        else:
            ingest["size_gate"] = "passed"  # type: ignore[index]
            print(f"PASS: container {ingest['size_ratio']:.2f}x smaller than the "
                  f"text edge list")
        serving = record["serving"]  # type: ignore[assignment]
        if not serving["fork_available"] or serving["cpus"] < 2:
            # Warm-pool throughput needs real hardware parallelism; on a
            # single-CPU (or fork-less) box the determinism cross-check
            # still ran, only the speedup gate is meaningless.
            serving["gate"] = "skipped"  # type: ignore[index]
            print(f"SKIP: serving gate needs >= 2 usable CPUs and fork "
                  f"(cpus={serving['cpus']}, fork={serving['fork_available']}); "
                  f"determinism cross-check still enforced")
        elif serving["speedup"] < 1.3:
            serving["gate"] = "failed"  # type: ignore[index]
            failures.append(f"warm-pool serving is only {serving['speedup']:.2f}x "
                            f"the per-call engine.run throughput (need >= 1.3x)")
        else:
            serving["gate"] = "passed"  # type: ignore[index]
            print(f"PASS: warm-pool service served {serving['requests']} requests "
                  f"{serving['speedup']:.2f}x faster than per-call engine.run")
        summary_cache_section = record["summary_cache"]  # type: ignore[assignment]
        if summary_cache_section["speedup"] < 10.0:
            summary_cache_section["gate"] = "failed"  # type: ignore[index]
            failures.append(f"summary-cache warm start is only "
                            f"{summary_cache_section['speedup']:.2f}x the cold "
                            f"compute (need >= 10x)")
        else:
            summary_cache_section["gate"] = "passed"  # type: ignore[index]
            print(f"PASS: summary-cache warm start "
                  f"{summary_cache_section['speedup']:.1f}x the cold compute; "
                  f"results bit-identical")
        queries_section = record["queries"]  # type: ignore[assignment]
        slow_queries = [
            (label, queries_section[label]["speedup"])  # type: ignore[index]
            for label in ("pagerank", "bfs", "triangles")
            if queries_section[label]["speedup"] < 3.0  # type: ignore[index]
        ]
        if slow_queries:
            queries_section["gate"] = "failed"  # type: ignore[index]
            for label, speedup in slow_queries:
                failures.append(f"CSR-native {label} is only {speedup:.2f}x the "
                                f"dict-of-sets implementation on the 10k-node ER "
                                f"graph (need >= 3x)")
        else:
            queries_section["gate"] = "passed"  # type: ignore[index]
            speedups = ", ".join(
                f"{label} {queries_section[label]['speedup']:.1f}x"  # type: ignore[index]
                for label in ("pagerank", "bfs", "triangles")
            )
            print(f"PASS: CSR-native query kernels >= 3x the dict implementations "
                  f"({speedups}); 0 graphs materialized, 0 dense substrates built")
        obs_section = record["obs"]  # type: ignore[assignment]
        if obs_section["overhead"] > 0.03:
            obs_section["gate"] = "failed"  # type: ignore[index]
            failures.append(f"full telemetry costs {obs_section['overhead']:+.1%} "
                            f"over the disabled path on the 10k-node ER run "
                            f"(need <= +3%)")
        else:
            obs_section["gate"] = "passed"  # type: ignore[index]
            print(f"PASS: full telemetry overhead {obs_section['overhead']:+.1%} "
                  f"on the 10k-node ER run; costs identical")
    else:
        record["serving"]["gate"] = "not-evaluated"  # type: ignore[index]
        for gate in ("load_gate", "size_gate"):
            record["ingest"][gate] = "not-evaluated"  # type: ignore[index]
        for section in ("queries", "summary_cache", "obs"):
            record[section]["gate"] = "not-evaluated"  # type: ignore[index]
        failures = []

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"json record written to {args.json}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
