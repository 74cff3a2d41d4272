"""Command-line interface: summarize graphs and run paper experiments.

Examples
--------
Summarize an edge list with SLUGGER and save the summary::

    repro-slugger summarize --input graph.txt --output summary.json --iterations 10

Compare all methods on a built-in dataset analogue::

    repro-slugger compare --dataset PR --iterations 5

List the built-in dataset analogues::

    repro-slugger datasets

Measure the summarize-then-compress pipeline, replay a dynamic stream,
sweep the lossy error bound, or export the hierarchy::

    repro-slugger compress --dataset CN --code gamma --ordering bfs
    repro-slugger stream --dataset FA --mode dynamic --deletion-ratio 0.2
    repro-slugger lossy --dataset PR --epsilon 0.1 --epsilon 0.3
    repro-slugger export --dataset PR --format ascii

Serve a batch of requests from a JSON file through one warm service
(shared substrate builds, configurable in-flight concurrency), and watch
per-iteration progress::

    repro-slugger serve --batch requests.json --inflight 4 --progress
    repro-slugger summarize --dataset PR --progress

Pack an edge list into a binary container (mmap-loaded in later runs),
inspect a container, or let a cache directory do both transparently —
the first ``--cache-dir`` run parses + packs, every later one
memory-maps::

    repro-slugger pack --input graph.txt --output graph.slg
    repro-slugger inspect --container graph.slg
    repro-slugger summarize --input graph.txt --cache-dir ~/.cache/slg

Serve graph queries straight off a packed substrate — the container is
memory-mapped and queried id-native, with no label-keyed graph ever
materialized::

    repro-slugger query pagerank --container graph.slg --top 5
    repro-slugger query bfs --input graph.txt --cache-dir ~/.cache/slg --source 0

Persist the summary itself: ``pack --with-summary`` embeds the SLUGGER
summary as ``SUMM`` sections in the container, ``serve
--summary-cache`` warm-starts identical requests from a
content-addressed result cache (and resumes interrupted jobs from
per-iteration checkpoints), and ``cache stats`` / ``cache gc`` manage
the cache directory::

    repro-slugger pack --input graph.txt --with-summary --seed 0
    repro-slugger query components --container graph.txt.slg
    repro-slugger serve --batch requests.json --summary-cache ~/.cache/summ
    repro-slugger cache stats --dir ~/.cache/summ
    repro-slugger cache gc --dir ~/.cache/summ --budget 50000000

Observe a run without perturbing it: ``--trace`` writes the phase/job
span tree (Chrome trace-event JSON, or JSON-lines for ``.jsonl`` paths),
``--metrics-file`` writes a Prometheus text-format snapshot, and the
``metrics`` subcommand pretty-prints such a file — summaries stay
bit-identical with telemetry on or off::

    repro-slugger summarize --dataset PR --trace run.trace.json
    repro-slugger serve --batch requests.json --metrics-file metrics.prom
    repro-slugger metrics --file metrics.prom --match service_

Exit codes: ``0`` success, ``1`` a failed command (unreadable input,
malformed file, failed job; a :class:`~repro.exceptions.ReproError` or
``OSError`` is reported as one ``repro-slugger: error: ...`` line on
stderr), ``2`` invalid arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro import engine
from repro.analysis.comparison import compare_methods, default_methods
from repro.engine.hooks import RunControl
from repro.exceptions import ReproError
from repro.service import SummaryRequest, SummaryService
from repro.compression.pipeline import compression_report
from repro.core import Slugger, SluggerConfig
from repro.experiments.reporting import format_table
from repro.graphs.datasets import available_datasets, dataset_table, load_dataset
from repro.graphs.io import read_edge_list
from repro.lossy.bounded import lossy_tradeoff_curve
from repro.model.export import ascii_hierarchy, summary_to_dot
from repro.model.serialization import save_hierarchical_summary
from repro.streaming.online import replay_stream
from repro.streaming.stream import (
    fully_dynamic_stream,
    insertion_stream,
    sliding_window_stream,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro-slugger`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-slugger",
        description="Lossless hierarchical graph summarization (SLUGGER reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    summarize_parser = subparsers.add_parser("summarize", help="summarize one graph with SLUGGER")
    source = summarize_parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="edge-list file to summarize")
    source.add_argument("--dataset", help="built-in dataset analogue key (e.g. PR)")
    summarize_parser.add_argument("--output", help="write the summary as JSON to this path")
    summarize_parser.add_argument("--iterations", type=int, default=20, help="number of iterations T")
    summarize_parser.add_argument("--seed", type=int, default=0, help="random seed")
    summarize_parser.add_argument("--no-prune", action="store_true", help="skip the pruning step")
    summarize_parser.add_argument(
        "--height-bound", type=int, default=None, help="optional bound H_b on hierarchy height"
    )
    _add_progress_argument(summarize_parser)
    _add_cache_argument(summarize_parser)
    _add_telemetry_arguments(summarize_parser)

    compare_parser = subparsers.add_parser("compare", help="compare SLUGGER with the baselines")
    compare_source = compare_parser.add_mutually_exclusive_group(required=True)
    compare_source.add_argument("--input", help="edge-list file")
    compare_source.add_argument("--dataset", help="built-in dataset analogue key")
    compare_parser.add_argument("--iterations", type=int, default=10)
    compare_parser.add_argument("--seed", type=int, default=0)
    compare_parser.add_argument(
        "--method", action="append", default=None, metavar="NAME",
        help="summarizer registry name to include (repeatable; default: the paper's suite; "
             "see the 'methods' subcommand)",
    )
    _add_progress_argument(compare_parser)
    _add_cache_argument(compare_parser)
    _add_telemetry_arguments(compare_parser)

    pack_parser = subparsers.add_parser(
        "pack", help="pack an edge list into a binary mmap-able container"
    )
    pack_parser.add_argument("--input", required=True, help="edge-list file to pack")
    pack_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="container path (default: the input path with a .slg suffix)",
    )
    pack_parser.add_argument(
        "--with-summary", action="store_true",
        help="also run SLUGGER and embed the summary as SUMM sections, "
             "so later runs warm-start with zero recompute",
    )
    pack_parser.add_argument(
        "--iterations", type=int, default=20,
        help="iterations for --with-summary (default 20)",
    )
    pack_parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for --with-summary (default 0)",
    )

    inspect_parser = subparsers.add_parser(
        "inspect", help="show the header and sections of a packed container"
    )
    inspect_parser.add_argument("--container", required=True, help="container file to inspect")
    inspect_parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the per-section checksum verification",
    )

    query_parser = subparsers.add_parser(
        "query", help="run a graph query straight off a packed substrate"
    )
    query_parser.add_argument(
        "kind", choices=("pagerank", "bfs", "components", "triangles", "cores"),
        help="which query to run",
    )
    query_source = query_parser.add_mutually_exclusive_group(required=True)
    query_source.add_argument("--container", help="packed .slg container to query (mmap)")
    query_source.add_argument("--input", help="edge-list file (pair with --cache-dir to serve mmap)")
    query_source.add_argument("--dataset", help="built-in dataset analogue key")
    query_parser.add_argument(
        "--source", default=None, metavar="NODE",
        help="start node for bfs (integer-looking values are tried as ints first)",
    )
    query_parser.add_argument("--top", type=int, default=None, metavar="N",
                              help="truncate ranked output to the N best entries")
    query_parser.add_argument("--iterations", type=int, default=20,
                              help="pagerank power iterations (default 20)")
    query_parser.add_argument("--damping", type=float, default=0.85,
                              help="pagerank damping factor (default 0.85)")
    query_parser.add_argument("--seed", type=int, default=0,
                              help="seed for generating built-in dataset analogues")
    query_parser.add_argument("--json", action="store_true",
                              help="emit the raw result payload as JSON")
    _add_cache_argument(query_parser)
    _add_telemetry_arguments(query_parser)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or trim a summary result cache directory"
    )
    cache_parser.add_argument(
        "action", choices=("stats", "gc"),
        help="stats = report entries and bytes; gc = evict LRU entries to a budget",
    )
    cache_parser.add_argument("--dir", required=True, metavar="DIR",
                              help="summary cache directory")
    cache_parser.add_argument(
        "--budget", type=int, default=None, metavar="BYTES",
        help="byte budget for gc (0 empties the cache; default: keep everything)",
    )
    cache_parser.add_argument("--json", action="store_true",
                              help="emit the raw stats/gc report as JSON")

    serve_parser = subparsers.add_parser(
        "serve", help="run a batch file of requests through a warm SummaryService"
    )
    serve_parser.add_argument(
        "--batch", required=True, metavar="PATH",
        help="JSON file: a list of request records, each with 'method', a graph "
             "reference ('dataset' key or 'input' edge-list path), and optional "
             "'seed', 'options', 'tag'",
    )
    serve_parser.add_argument("--inflight", type=int, default=2, metavar="N",
                              help="jobs executed concurrently (default 2)")
    serve_parser.add_argument("--mode", choices=("thread", "process"), default="thread",
                              help="job execution mode (process = warm forked worker pool)")
    serve_parser.add_argument("--seed", type=int, default=0,
                              help="seed for generating built-in dataset analogues")
    serve_parser.add_argument(
        "--summary-cache", default=None, metavar="DIR",
        help="content-addressed summary result cache: finished summaries are "
             "persisted as SUMM containers and later identical requests "
             "warm-start from the mmap with zero summarizer iterations",
    )
    serve_parser.add_argument(
        "--summary-budget", type=int, default=None, metavar="BYTES",
        help="byte budget for --summary-cache (LRU eviction after stores)",
    )
    _add_progress_argument(serve_parser)
    _add_cache_argument(serve_parser)
    _add_telemetry_arguments(serve_parser)

    metrics_parser = subparsers.add_parser(
        "metrics", help="pretty-print a Prometheus metrics file written by --metrics-file"
    )
    metrics_parser.add_argument("--file", required=True, metavar="FILE",
                                help="Prometheus text-exposition file to render")
    metrics_parser.add_argument(
        "--match", default=None, metavar="SUBSTR",
        help="only show samples whose metric name contains SUBSTR",
    )
    metrics_parser.add_argument("--json", action="store_true",
                                help="emit the parsed samples as JSON")

    subparsers.add_parser("datasets", help="list the built-in dataset analogues")

    subparsers.add_parser("methods", help="list the registered summarizers")

    compress_parser = subparsers.add_parser(
        "compress", help="measure the summarize-then-compress pipeline"
    )
    compress_source = compress_parser.add_mutually_exclusive_group(required=True)
    compress_source.add_argument("--input", help="edge-list file")
    compress_source.add_argument("--dataset", help="built-in dataset analogue key")
    compress_parser.add_argument("--iterations", type=int, default=10)
    compress_parser.add_argument("--seed", type=int, default=0)
    compress_parser.add_argument("--code", default="gamma",
                                 help="gap code (unary, gamma, delta, rice2, rice4)")
    compress_parser.add_argument("--ordering", default="bfs",
                                 help="node ordering (natural, degree, bfs, shingle)")

    stream_parser = subparsers.add_parser(
        "stream", help="replay an edge stream through the online summarizer"
    )
    stream_source = stream_parser.add_mutually_exclusive_group(required=True)
    stream_source.add_argument("--input", help="edge-list file")
    stream_source.add_argument("--dataset", help="built-in dataset analogue key")
    stream_parser.add_argument("--mode", choices=("insertion", "dynamic", "window"),
                               default="insertion", help="stream workload shape")
    stream_parser.add_argument("--deletion-ratio", type=float, default=0.2,
                               help="deletion ratio for --mode dynamic")
    stream_parser.add_argument("--window", type=int, default=1000,
                               help="window size for --mode window")
    stream_parser.add_argument("--checkpoints", type=int, default=8)
    stream_parser.add_argument("--seed", type=int, default=0)

    lossy_parser = subparsers.add_parser(
        "lossy", help="sweep the error bound of lossy summarization"
    )
    lossy_source = lossy_parser.add_mutually_exclusive_group(required=True)
    lossy_source.add_argument("--input", help="edge-list file")
    lossy_source.add_argument("--dataset", help="built-in dataset analogue key")
    lossy_parser.add_argument("--epsilon", type=float, action="append", default=None,
                              help="error bound to evaluate (repeatable)")
    lossy_parser.add_argument("--iterations", type=int, default=10)
    lossy_parser.add_argument("--seed", type=int, default=0)

    # ``lint`` is dispatched before this parser runs (see :func:`main`) so
    # every following argument — including options like ``--json`` —
    # reaches the analyzer's own parser untouched; the subparser here
    # only makes the command visible in ``--help``.
    subparsers.add_parser(
        "lint",
        help="run the repro-lint static analyzer (determinism, fork-safety, hygiene)",
        add_help=False,
    )

    export_parser = subparsers.add_parser(
        "export", help="render the SLUGGER hierarchy as ASCII or Graphviz DOT"
    )
    export_source = export_parser.add_mutually_exclusive_group(required=True)
    export_source.add_argument("--input", help="edge-list file")
    export_source.add_argument("--dataset", help="built-in dataset analogue key")
    export_parser.add_argument("--format", choices=("ascii", "dot"), default="ascii")
    export_parser.add_argument("--output", help="write the rendering to this path")
    export_parser.add_argument("--iterations", type=int, default=10)
    export_parser.add_argument("--seed", type=int, default=0)
    return parser


def _add_progress_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--progress", action="store_true",
        help="print per-iteration progress events while runs execute",
    )


def _add_cache_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed container cache for --input edge lists: the "
             "first run parses and packs, later runs memory-map the packed "
             "substrate (output is bit-identical either way)",
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record phase/job spans and write them to FILE — Chrome "
             "trace-event JSON (load in chrome://tracing or Perfetto), or "
             "one JSON object per span when FILE ends in .jsonl; output is "
             "bit-identical with tracing on or off",
    )
    parser.add_argument(
        "--metrics-file", default=None, metavar="FILE",
        help="write the run's metrics snapshot to FILE in Prometheus text "
             "exposition format (pretty-print with the 'metrics' subcommand)",
    )


def _telemetry_from_args(arguments: argparse.Namespace):
    """``(metrics, tracer)`` per the telemetry flags — ``None`` when off."""
    from repro.obs import MetricsRegistry, Tracer

    metrics = MetricsRegistry() if getattr(arguments, "metrics_file", None) else None
    tracer = Tracer() if getattr(arguments, "trace", None) else None
    return metrics, tracer


def _write_telemetry(arguments, metrics, tracer, snapshot=None) -> None:
    """Persist collected telemetry to the files the flags asked for.

    ``snapshot`` optionally overrides ``metrics.snapshot()`` — the serve
    path hands in the service's federated :meth:`telemetry` snapshot so
    the file covers store/cache counters, not just the run registry.
    """
    from repro.obs import render_prometheus

    if tracer is not None:
        spans = len(tracer.sorted_spans())
        if arguments.trace.endswith(".jsonl"):
            tracer.write_jsonl(arguments.trace)
        else:
            tracer.write_chrome_trace(arguments.trace)
        print(f"trace written to {arguments.trace} ({spans} spans)")
    if metrics is not None:
        data = snapshot if snapshot is not None else metrics.snapshot()
        with open(arguments.metrics_file, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(data))
        print(f"metrics written to {arguments.metrics_file} "
              f"({len(data)} metric families)")


def _format_progress(label: str, event: Dict[str, Any]) -> str:
    stage = event.get("stage", "progress")
    if stage == "iteration":
        detail = (f"iteration {event.get('iteration')}/{event.get('iterations')}"
                  f"  merges={event.get('merges')}")
        if "cost" in event:
            detail += f"  cost={event.get('cost')}"
    else:
        extras = {k: v for k, v in event.items() if k != "stage"}
        detail = stage + ("" if not extras else " " + " ".join(
            f"{key}={value}" for key, value in extras.items()))
    return f"[{label}] {detail}"


def _load_graph(arguments: argparse.Namespace):
    if arguments.input:
        return read_edge_list(arguments.input)
    return load_dataset(arguments.dataset, seed=arguments.seed)


def _load_graph_cached(arguments: argparse.Namespace):
    """Load the input graph, optionally through a container cache.

    Returns ``(graph, resources)`` — ``resources`` is a
    :class:`~repro.storage.mapped.StoredGraph` on a cache hit (the run
    then consumes the memory-mapped substrate zero-copy) and ``None``
    otherwise.  Hits skip the label-graph materialization entirely:
    ``graph`` is then the read-only ``CSRGraphView`` facade, which the
    summarizers initialize from directly (leaf numbering and substrate
    ids coincide, so output is bit-identical to a run over the parsed
    graph).
    """
    cache_dir = getattr(arguments, "cache_dir", None)
    if arguments.input and cache_dir:
        from repro.storage import GraphCache

        cached = GraphCache(cache_dir).fetch_edge_list(
            arguments.input, materialize=False
        )
        origin = "cache hit (mmap)" if cached.hit else "parsed + packed"
        print(f"cache: {origin}  {cached.container_path}")
        return cached.graph, cached.stored
    return _load_graph(arguments), None


def _command_summarize(arguments: argparse.Namespace) -> int:
    graph, resources = _load_graph_cached(arguments)
    config = SluggerConfig(
        iterations=arguments.iterations,
        seed=arguments.seed,
        prune=not arguments.no_prune,
        height_bound=arguments.height_bound,
    )
    metrics, tracer = _telemetry_from_args(arguments)
    control = None
    if arguments.progress or metrics is not None or tracer is not None:
        on_progress = None
        if arguments.progress:
            on_progress = lambda event: print(_format_progress("slugger", event))  # noqa: E731
        control = RunControl(on_progress=on_progress, metrics=metrics, tracer=tracer)
    result = Slugger(config).summarize(graph, control=control, resources=resources)
    print(f"nodes={graph.num_nodes} edges={graph.num_edges}")
    print(
        f"cost={result.cost()} relative_size={result.relative_size(graph):.4f} "
        f"p={result.summary.num_p_edges} n={result.summary.num_n_edges} "
        f"h={result.summary.num_h_edges} seconds={result.runtime_seconds:.2f}"
    )
    if arguments.output:
        save_hierarchical_summary(result.summary, arguments.output)
        print(f"summary written to {arguments.output}")
    _write_telemetry(arguments, metrics, tracer)
    return 0


def _command_compare(arguments: argparse.Namespace) -> int:
    graph, resources = _load_graph_cached(arguments)
    methods = engine.default_suite(
        iterations=arguments.iterations, methods=arguments.method
    )
    on_progress = None
    if arguments.progress:
        on_progress = lambda name, event: print(_format_progress(name, event))  # noqa: E731
    metrics, tracer = _telemetry_from_args(arguments)
    results = compare_methods(graph, methods=methods, seed=arguments.seed,
                              on_progress=on_progress, resources=resources,
                              metrics=metrics, tracer=tracer)
    rows = [
        {
            "method": result.method,
            "relative_size": result.relative_size,
            "cost": result.report["cost"],
            "seconds": result.runtime_seconds,
        }
        for result in results
    ]
    print(format_table(rows, ["method", "relative_size", "cost", "seconds"],
                       title=f"nodes={graph.num_nodes} edges={graph.num_edges}"))
    _write_telemetry(arguments, metrics, tracer)
    return 0


def _command_pack(arguments: argparse.Namespace) -> int:
    """Pack one edge list into a binary container."""
    from repro import storage

    graph = read_edge_list(arguments.input)
    output = arguments.output
    if output is None:
        output = arguments.input + storage.CONTAINER_SUFFIX
    if arguments.with_summary:
        from repro.graphs.dense import DenseAdjacency
        from repro.storage.format import write_container_image

        csr = DenseAdjacency.from_graph(graph).freeze()
        options = {"iterations": arguments.iterations}
        config_digest, config_json = storage.config_fingerprint("slugger", options)
        config = SluggerConfig(seed=arguments.seed, **options)
        result = Slugger(config).summarize(graph)
        meta = storage.SummaryMeta(
            kind="hierarchical", method="slugger", seed=arguments.seed,
            graph_digest=storage.container_digest(csr),
            config_digest=config_digest, config_json=config_json,
            extra={"history": result.history},
        )
        image = storage.encode_summary_container(csr, result.summary, meta)
        info = write_container_image(output, image)
        print(f"summary: method=slugger seed={arguments.seed} "
              f"iterations={arguments.iterations} key={meta.key[:16]}... "
              f"({result.runtime_seconds:.2f}s)")
    else:
        info = storage.pack(graph, output)
    text_bytes = os.path.getsize(arguments.input)
    ratio = text_bytes / info.file_bytes if info.file_bytes else float("inf")
    print(f"packed {arguments.input} -> {output}")
    print(f"nodes={info.num_nodes} edges={info.num_edges} "
          f"index_width={info.index_width} labels={'yes' if info.has_labels else 'no'} "
          f"summary={'yes' if info.has_summary else 'no'}")
    print(f"container={info.file_bytes} bytes  text={text_bytes} bytes  "
          f"({ratio:.2f}x smaller)")
    return 0


def _command_inspect(arguments: argparse.Namespace) -> int:
    """Print the header and section table of a container."""
    from repro import storage

    info = storage.inspect_container(
        arguments.container, verify=not arguments.no_verify
    )
    print(f"container {info.path}")
    print(f"  version={info.version} nodes={info.num_nodes} edges={info.num_edges} "
          f"index_width={info.index_width} labels={'yes' if info.has_labels else 'no'} "
          f"csr={'yes' if info.has_csr else 'no'} "
          f"summary={'yes' if info.has_summary else 'no'} "
          f"bytes={info.file_bytes}")
    if info.has_summary:
        meta = storage.read_summary_meta(arguments.container, info)
        checkpoint = info.maybe_section(b"CKPT")
        print(f"  summary: kind={meta.kind} method={meta.method} seed={meta.seed}")
        print(f"  summary: graph_digest={meta.graph_digest[:16]}... "
              f"config_digest={meta.config_digest[:16]}... key={meta.key[:16]}...")
        if checkpoint is not None:
            print("  summary: resumable checkpoint (CKPT section present)")
    rows = [
        {"section": entry.tag, "offset": entry.offset, "length": entry.length,
         "crc32": f"{entry.crc32:#010x}"}
        for entry in info.sections
    ]
    checked = "verified" if not arguments.no_verify else "not checked"
    print(format_table(rows, ["section", "offset", "length", "crc32"],
                       title=f"{len(rows)} sections (checksums {checked})"))
    return 0


def _coerce_node(value: str):
    """CLI node argument → label: integer-looking values become ints."""
    try:
        return int(value)
    except ValueError:
        return value


def _command_query(arguments: argparse.Namespace) -> int:
    """Serve one graph query, straight off the substrate where possible."""
    from repro.algorithms.query import run_query

    stored = None
    summary_note = None
    if arguments.container:
        from repro import storage

        info = storage.inspect_container(arguments.container, verify=False)
        # Every kind runs zero-copy off the mmap CSR; a summary-bearing
        # container only adds its SMET metadata line to the output.
        stored = storage.load(arguments.container)
        provider: Any = stored
        if info.has_summary:
            meta = storage.read_summary_meta(arguments.container, info)
            summary_note = f"summary: kind={meta.kind} method={meta.method} seed={meta.seed}"
        origin = f"container (mmap)  {arguments.container}"
    elif arguments.input and arguments.cache_dir:
        from repro.storage import GraphCache

        cached = GraphCache(arguments.cache_dir).fetch_edge_list(
            arguments.input, materialize=False
        )
        stored = cached.stored
        provider = cached.graph
        origin = (f"cache {'hit (mmap)' if cached.hit else 'miss (parsed + packed)'}  "
                  f"{cached.container_path}")
    elif arguments.input:
        provider = read_edge_list(arguments.input)
        origin = f"parsed  {arguments.input}"
    else:
        provider = load_dataset(arguments.dataset, seed=arguments.seed)
        origin = f"dataset  {arguments.dataset}"

    metrics, tracer = _telemetry_from_args(arguments)
    from repro.obs import NULL_METRICS, NULL_TRACER

    obs_metrics = metrics if metrics is not None else NULL_METRICS
    obs_tracer = tracer if tracer is not None else NULL_TRACER
    source = _coerce_node(arguments.source) if arguments.source is not None else None
    try:
        with obs_tracer.span("query", kind=arguments.kind) as span:
            try:
                result = run_query(
                    provider, arguments.kind, source=source, top=arguments.top,
                    damping=arguments.damping, iterations=arguments.iterations,
                )
            except KeyError:
                if not isinstance(source, int):
                    raise
                # An integer-looking --source on a string-labelled graph:
                # retry with the raw text label before giving up.
                result = run_query(
                    provider, arguments.kind, source=arguments.source, top=arguments.top,
                    damping=arguments.damping, iterations=arguments.iterations,
                )
    except KeyError:
        print(f"query source node {arguments.source!r} is not in the graph",
              file=sys.stderr)
        return 1
    obs_metrics.counter("cli_queries_total", kind=arguments.kind).inc()
    obs_metrics.histogram("cli_query_seconds", kind=arguments.kind).observe(span.duration)
    _write_telemetry(arguments, metrics, tracer)

    print(f"query: {arguments.kind}  {origin}")
    if summary_note is not None:
        print(summary_note)
    if stored is not None:
        # Substrate-served queries never materialize the label graph.
        print(f"serving: materialized_graphs={stored.materializations} "
              f"(zero-copy={'yes' if stored.materializations == 0 else 'no'})")
    if arguments.json:
        print(json.dumps(result.value, default=str))
        return 0
    for key, value in result.value.items():
        if key in ("ranking",):
            rows = [{"node": node, "value": value_of} for node, value_of in value]
            print(format_table(rows, ["node", "value"],
                               title=f"{len(rows)} ranked entries", precision=6))
        elif key == "order":
            print(f"{key}: {' '.join(str(node) for node in value)}")
        elif key == "sizes":
            print(f"{key}: {' '.join(str(size) for size in value)}")
        else:
            print(f"{key}={value}")
    return 0


def _command_cache(arguments: argparse.Namespace) -> int:
    """Report on — or garbage-collect — a summary result cache."""
    from repro.storage import SummaryCache

    cache = SummaryCache(arguments.dir, budget_bytes=arguments.budget)
    if arguments.action == "gc":
        report = cache.gc(budget_bytes=arguments.budget)
        if arguments.json:
            print(json.dumps(report))
            return 0
        budget = report["budget_bytes"]
        print(f"gc {arguments.dir}: evicted={report['evicted']} "
              f"freed={report['freed_bytes']} bytes  kept={report['kept']} "
              f"({report['total_bytes']} bytes, "
              f"budget={'unbounded' if budget is None else budget})")
        return 0
    stats = cache.stats()
    if arguments.json:
        print(json.dumps(stats))
        return 0
    print(f"cache {stats['directory']}")
    print(f"  entries={stats['entries']} (checkpoints={stats['checkpoints']}) "
          f"bytes={stats['total_bytes']} "
          f"budget={'unbounded' if stats['budget_bytes'] is None else stats['budget_bytes']}")
    rows = [
        {"key": entry["key"][:16] + "...", "kind": entry["kind"],
         "bytes": entry["bytes"]}
        for entry in cache.entries()
    ]
    if rows:
        print(format_table(rows, ["key", "kind", "bytes"],
                           title=f"{len(rows)} entries (least-recently-used first)"))
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    """Batch-file serving: many requests, one warm service."""
    with open(arguments.batch, "r", encoding="utf-8") as handle:
        records = json.load(handle)
    if isinstance(records, dict):
        records = records.get("requests", [])
    if not isinstance(records, list) or not records:
        print(f"batch file {arguments.batch} holds no requests", file=sys.stderr)
        return 1

    cache = None
    if arguments.cache_dir:
        from repro.storage import GraphCache

        cache = GraphCache(arguments.cache_dir)
    metrics, tracer = _telemetry_from_args(arguments)
    with SummaryService(mode=arguments.mode, max_inflight=arguments.inflight,
                        cache_dir=arguments.cache_dir,
                        summary_cache_dir=arguments.summary_cache,
                        summary_cache_budget=arguments.summary_budget,
                        metrics=metrics, tracer=tracer) as service:
        jobs = []
        graphs: Dict[str, Any] = {}
        for record in records:
            record = dict(record)
            dataset = record.pop("dataset", None)
            input_path = record.pop("input", None)
            if (dataset is None) == (input_path is None):
                print(f"request {record} needs exactly one of 'dataset'/'input'",
                      file=sys.stderr)
                return 1
            key = dataset if dataset is not None else input_path
            if key not in graphs:
                if input_path is not None and cache is not None:
                    # Through the container cache: a hit memory-maps the
                    # packed CSR and seeds the handle with it (dense is
                    # thawed lazily — in the prefetch lane, not here on
                    # the registration path); the lane also persists
                    # fresh substrates.
                    cached = cache.fetch_edge_list(input_path)
                    graph = cached.graph
                    service.register_graph(
                        key, graph,
                        csr=cached.stored.csr() if cached.stored else None,
                        prefetch=True,
                    )
                else:
                    graph = (read_edge_list(input_path) if input_path is not None
                             else load_dataset(dataset, seed=arguments.seed))
                    service.register_graph(key, graph, prefetch=True)
                graphs[key] = graph
            record["graph_key"] = key
            request = SummaryRequest.from_dict(record)
            job = service.submit(request, block=True)
            if arguments.progress:
                label = f"job {job.id} {request.method}@{key}"
                job.add_progress_listener(
                    lambda event, _label=label: print(
                        _format_progress(_label, {"stage": event.stage, **event.payload})
                    )
                )
            jobs.append((job, key))

        rows = []
        failures = 0
        for job, key in jobs:
            job.wait()
            row = {
                "job": job.id,
                "method": job.request.method,
                "graph": key,
                "state": job.state.value,
                "cost": "-",
                "relative_size": "-",
                "seconds": "-",
            }
            if job.state.value == "done":
                result = job.result()
                # Read the graph from the local table, not store.get():
                # the latter counts interning hits, and bookkeeping must
                # not inflate the footer's cache-effectiveness figure.
                graph = graphs[key]
                row["cost"] = result.cost()
                row["relative_size"] = round(result.relative_size(graph), 4)
                row["seconds"] = round(result.runtime_seconds, 3)
            else:
                failures += 1
                error = job.exception()
                if error is not None:
                    print(f"job {job.id} failed: {error!r}", file=sys.stderr)
            rows.append(row)
        stats = service.stats()
        print(format_table(
            rows, ["job", "method", "graph", "state", "cost", "relative_size", "seconds"],
            title=f"served {len(rows)} requests (mode={stats['mode']}, "
                  f"inflight={stats['max_inflight']}, substrate builds: "
                  f"{stats['store']['misses']}, warm hits: {stats['store']['hits']})",
        ))
        if arguments.summary_cache:
            print(f"summary cache: hits={stats['summary_cache_hits']} "
                  f"stores={stats['summary_cache_stores']} "
                  f"resumes={stats['summary_resumes']} "
                  f"errors={stats['summary_cache_errors']} "
                  f"({stats['summary_cache']['entries']} entries, "
                  f"{stats['summary_cache']['total_bytes']} bytes)")
        # Snapshot inside the ``with``: the federated telemetry view
        # reads the live store/cache stats, which close() tears down.
        snapshot = service.telemetry() if metrics is not None else None
    _write_telemetry(arguments, metrics, tracer, snapshot=snapshot)
    return 1 if failures else 0


def _command_metrics(arguments: argparse.Namespace) -> int:
    """Pretty-print a Prometheus text-format metrics file."""
    from repro.obs import parse_prometheus_text

    with open(arguments.file, "r", encoding="utf-8") as handle:
        text = handle.read()
    samples = parse_prometheus_text(text)
    if arguments.match:
        samples = [sample for sample in samples if arguments.match in sample[0]]
    if arguments.json:
        print(json.dumps(
            [{"name": name, "labels": labels, "value": value}
             for name, labels, value in samples]
        ))
        return 0
    rows = [
        {
            "metric": name,
            "labels": ",".join(f"{key}={value}"
                               for key, value in sorted(labels.items())) or "-",
            "value": value,
        }
        for name, labels, value in samples
    ]
    print(format_table(rows, ["metric", "labels", "value"],
                       title=f"{len(rows)} samples from {arguments.file}",
                       precision=6))
    return 0


def _command_methods(_arguments: argparse.Namespace) -> int:
    rows = []
    for name in engine.available_methods():
        summarizer_cls = type(engine.create(name))
        rows.append({
            "method": name,
            "iterations_knob": "yes" if summarizer_cls.iteration_controlled else "no",
            "description": (summarizer_cls.__doc__ or "").strip().splitlines()[0],
        })
    print(format_table(rows, ["method", "iterations_knob", "description"],
                       title=f"{len(rows)} registered summarizers"))
    return 0


def _command_datasets(_arguments: argparse.Namespace) -> int:
    rows = dataset_table()
    print(format_table(
        rows,
        ["key", "name", "domain", "paper_nodes", "paper_edges", "analogue_nodes", "analogue_edges"],
        title=f"{len(available_datasets())} dataset analogues",
    ))
    return 0


def _command_compress(arguments: argparse.Namespace) -> int:
    graph = _load_graph(arguments)
    config = SluggerConfig(iterations=arguments.iterations, seed=arguments.seed)
    summary = Slugger(config).summarize(graph).summary
    report = compression_report(
        graph, summary, code=arguments.code, ordering=arguments.ordering, seed=arguments.seed
    )
    rows = [{"metric": key, "value": value} for key, value in report.items()]
    print(format_table(rows, ["metric", "value"],
                       title=f"summarize-then-compress pipeline "
                             f"(code={arguments.code}, ordering={arguments.ordering})",
                       precision=4))
    return 0


def _command_stream(arguments: argparse.Namespace) -> int:
    graph = _load_graph(arguments)
    if arguments.mode == "dynamic":
        events = fully_dynamic_stream(graph, deletion_ratio=arguments.deletion_ratio,
                                      seed=arguments.seed)
    elif arguments.mode == "window":
        events = sliding_window_stream(graph, window=arguments.window, seed=arguments.seed)
    else:
        events = insertion_stream(graph, seed=arguments.seed)
    result = replay_stream(events, checkpoints=arguments.checkpoints, validate=False)
    if result.final_graph is not None and result.final_graph.num_edges:
        result.final_summary.validate(result.final_graph)
    print(format_table(result.as_rows(), ["time", "num_edges", "cost", "relative_size"],
                       title=f"online summarization over a {arguments.mode} stream "
                             f"({len(events)} events)"))
    return 0


def _command_lossy(arguments: argparse.Namespace) -> int:
    graph = _load_graph(arguments)
    epsilons = arguments.epsilon if arguments.epsilon else [0.0, 0.1, 0.25, 0.5]
    rows = lossy_tradeoff_curve(graph, epsilons, iterations=arguments.iterations,
                                seed=arguments.seed)
    print(format_table(rows, ["epsilon", "relative_size", "dropped_corrections",
                              "max_relative_error"],
                       title="lossy summarization trade-off (SWeG + correction dropping)"))
    return 0


def _command_export(arguments: argparse.Namespace) -> int:
    graph = _load_graph(arguments)
    config = SluggerConfig(iterations=arguments.iterations, seed=arguments.seed)
    summary = Slugger(config).summarize(graph).summary
    if arguments.format == "dot":
        rendering = summary_to_dot(summary)
    else:
        rendering = ascii_hierarchy(summary)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(rendering + "\n")
        print(f"{arguments.format} rendering written to {arguments.output}")
    else:
        print(rendering)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-slugger`` console script."""
    arg_list = list(sys.argv[1:] if argv is None else argv)
    if arg_list[:1] == ["lint"]:
        # Forward to the analyzer's own parser, imported lazily: the
        # serving stack must never pay for the analyzer, and vice versa.
        from repro.devtools.lint import main as lint_main

        return lint_main(arg_list[1:])
    parser = build_parser()
    arguments = parser.parse_args(arg_list)
    handlers = {
        "summarize": _command_summarize,
        "compare": _command_compare,
        "pack": _command_pack,
        "inspect": _command_inspect,
        "query": _command_query,
        "cache": _command_cache,
        "serve": _command_serve,
        "metrics": _command_metrics,
        "datasets": _command_datasets,
        "methods": _command_methods,
        "compress": _command_compress,
        "stream": _command_stream,
        "lossy": _command_lossy,
        "export": _command_export,
    }
    try:
        return handlers[arguments.command](arguments)
    except (ReproError, OSError) as error:
        print(f"{parser.prog}: error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
