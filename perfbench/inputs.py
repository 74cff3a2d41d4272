"""Seeded workload inputs, written to disk as edge-list files.

The generators are the benchmark's own (stdlib ``random`` only), so the
inputs for a seed stay byte-identical even if the program's generators
change.  Edges are written in a seeded shuffled order, one ``u v`` pair a
line, as a real edge-list download would arrive.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Tuple

__all__ = [
    "CAVEMAN",
    "ER",
    "MISS_GRAPHS",
    "caveman_edges",
    "er_edges",
    "write_edge_list",
    "write_inputs",
]

Edge = Tuple[int, int]

#: Erdős–Rényi G(n, m) at average degree 10: incompressible.
ER = {"nodes": 1000, "edges": 5000}
#: Relaxed caveman: 70 caves of 15 nodes, 5% of intra-cave edges rewired.
CAVEMAN = {"caves": 70, "size": 15, "rewire": 0.05}
#: The small graphs cache-miss jobs summarize in ``serve-mixed``.
MISS_GRAPHS = {"count": 4, "caves": 8, "size": 8, "rewire": 0.1}


def _rng(seed: int, salt: int) -> random.Random:
    return random.Random(seed * 1_000_003 + salt)


def er_edges(nodes: int, edges: int, rng: random.Random) -> List[Edge]:
    """Exactly ``edges`` distinct undirected edges on ``nodes`` nodes."""
    chosen = set()
    while len(chosen) < edges:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    ordered = sorted(chosen)
    rng.shuffle(ordered)
    return ordered


def caveman_edges(caves: int, size: int, rewire: float, rng: random.Random) -> List[Edge]:
    """A relaxed caveman graph: cliques whose edges are rewired with ``rewire``."""
    nodes = caves * size
    chosen = set()
    for cave in range(caves):
        base = cave * size
        for i in range(size):
            for j in range(i + 1, size):
                u, v = base + i, base + j
                if rng.random() < rewire:
                    while True:
                        w = rng.randrange(nodes)
                        if w != u and (min(u, w), max(u, w)) not in chosen:
                            break
                    v = w
                chosen.add((min(u, v), max(u, v)))
    ordered = sorted(chosen)
    rng.shuffle(ordered)
    return ordered


def write_edge_list(path: Path, edges: List[Edge], comment: str) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# {comment}\n")
        handle.writelines(f"{u} {v}\n" for u, v in edges)
    return path


def write_inputs(workload: str, seed: int, directory: Path) -> Dict[str, Path]:
    """Write ``workload``'s input files for ``seed``; returns name → path.

    ``er-sparse`` and ``er-sparse-w2`` get the same graph for a seed, so
    the two workloads differ only in the worker count.
    """
    directory.mkdir(parents=True, exist_ok=True)
    if workload in ("er-sparse", "er-sparse-w2"):
        edges = er_edges(ER["nodes"], ER["edges"], _rng(seed, 1))
        return {"graph": write_edge_list(directory / "graph.txt", edges,
                                         f"er nodes={ER['nodes']} seed={seed}")}
    if workload == "caveman-community":
        edges = caveman_edges(CAVEMAN["caves"], CAVEMAN["size"], CAVEMAN["rewire"],
                              _rng(seed, 2))
        return {"graph": write_edge_list(directory / "graph.txt", edges,
                                         f"caveman seed={seed}")}
    if workload == "serve-mixed":
        paths = {"hot": write_edge_list(
            directory / "hot.txt",
            caveman_edges(CAVEMAN["caves"], CAVEMAN["size"], CAVEMAN["rewire"],
                          _rng(seed, 3)),
            f"caveman seed={seed}")}
        for index in range(MISS_GRAPHS["count"]):
            edges = caveman_edges(MISS_GRAPHS["caves"], MISS_GRAPHS["size"],
                                  MISS_GRAPHS["rewire"], _rng(seed, 10 + index))
            paths[f"miss-{index}"] = write_edge_list(
                directory / f"miss-{index}.txt", edges, f"miss {index} seed={seed}")
        return paths
    raise ValueError(f"unknown workload {workload!r}")
