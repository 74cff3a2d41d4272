"""Quickstart: summarize a graph with SLUGGER and inspect the result.

Run with::

    python examples/quickstart.py

The script builds the Protein-dataset analogue, summarizes it under the
hierarchical graph summarization model, verifies that the summary is
lossless, prints the key statistics, and round-trips the summary through
the JSON serialization.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import SluggerConfig, load_dataset, summarize
from repro.model import load_hierarchical_summary, save_hierarchical_summary


def main() -> None:
    # 1. Load a graph.  Any simple undirected graph works; here we use the
    #    built-in analogue of the paper's Protein (PR) dataset.
    graph = load_dataset("PR", seed=0)
    print(f"input graph: {graph.num_nodes} nodes, {graph.num_edges} edges")

    # 2. Summarize it.  T=10 iterations is plenty for a graph this size;
    #    the paper's default is T=20.
    config = SluggerConfig(iterations=10, seed=0)
    result = summarize(graph, config)
    summary = result.summary

    # 3. The summary is exact: decompressing it gives back the input graph.
    summary.validate(graph)
    print("losslessness check: OK")

    # 4. Inspect what the summary looks like.
    print(f"encoding cost      : {result.cost()} edges "
          f"(p={summary.num_p_edges}, n={summary.num_n_edges}, h={summary.num_h_edges})")
    print(f"relative size      : {result.relative_size(graph):.3f} "
          f"(1.0 would mean no compression)")
    print(f"supernodes         : {summary.hierarchy.num_supernodes} "
          f"({len(summary.hierarchy.roots())} roots)")
    print(f"max tree height    : {summary.hierarchy.max_height()}")
    print(f"avg leaf depth     : {summary.hierarchy.average_leaf_depth():.2f}")
    print(f"wall-clock         : {result.runtime_seconds:.2f}s")

    # 5. Neighbor queries run directly on the summary (partial decompression).
    some_node = graph.nodes()[0]
    assert summary.neighbors(some_node) == set(graph.neighbor_set(some_node))
    print(f"neighbors({some_node!r}) answered from the summary without decompressing it")

    # 6. Summaries serialize to JSON and load back losslessly.
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "pr_summary.json"
        save_hierarchical_summary(summary, path)
        reloaded = load_hierarchical_summary(path)
        reloaded.validate(graph)
        print(f"serialized summary round-trips through {path.name} "
              f"({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
