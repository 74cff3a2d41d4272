"""Named query dispatch for the serving layer.

:func:`run_query` maps a query name to the corresponding algorithm and
returns a JSON-ready result payload.  It is the shared engine behind the
``repro-slugger query`` CLI subcommand and
:meth:`repro.service.SummaryService.query`: the provider can be a raw
graph, a summary, or — the serving case — a CSR-shaped substrate view
straight out of a mapped container, which is queried without
materializing a label-keyed graph or thawing dense rows.
"""

from __future__ import annotations

from typing import Any, Hashable, NamedTuple, Optional

from repro.algorithms.components import connected_components
from repro.algorithms.cores import core_numbers
from repro.algorithms.pagerank import pagerank
from repro.algorithms.traversal import bfs_sweep
from repro.algorithms.triangles import count_triangles, local_triangle_counts

__all__ = ["QUERY_KINDS", "QueryResult", "run_query"]

Label = Hashable

QUERY_KINDS = ("pagerank", "bfs", "components", "triangles", "cores")


class QueryResult(NamedTuple):
    """A named query outcome: the query kind and its JSON-ready payload."""

    kind: str
    value: Any


def _ranked(items, top: Optional[int]):
    """Items as ``[node, value]`` pairs, best value first, ``repr`` ties."""
    ordered = sorted(items, key=lambda pair: (-pair[1], repr(pair[0])))
    if top is not None:
        ordered = ordered[:top]
    return [[node, value] for node, value in ordered]


def run_query(
    provider,
    kind: str,
    source: Optional[Label] = None,
    top: Optional[int] = None,
    damping: float = 0.85,
    iterations: int = 20,
) -> QueryResult:
    """Run the named query against any neighbor provider.

    Parameters
    ----------
    provider:
        Graph, summary, or CSR-shaped substrate view.
    kind:
        One of :data:`QUERY_KINDS`.
    source:
        Start node for ``bfs`` (required there, ignored elsewhere).
    top:
        Truncate ranked payloads (``pagerank``, ``cores``) to this many
        entries; ``None`` keeps everything.
    damping / iterations:
        PageRank parameters (ignored by the other kinds).
    """
    if kind == "pagerank":
        scores = pagerank(provider, damping=damping, iterations=iterations)
        return QueryResult(kind, {
            "num_nodes": len(scores),
            "ranking": _ranked(scores.items(), top),
        })
    if kind == "bfs":
        if source is None:
            raise ValueError("bfs query requires a source node")
        order, eccentricity = bfs_sweep(provider, source)
        return QueryResult(kind, {
            "source": source,
            "reached": len(order),
            "eccentricity": eccentricity,
            "order": order if top is None else order[:top],
        })
    if kind == "components":
        components = connected_components(provider)
        sizes = [len(component) for component in components]
        return QueryResult(kind, {
            "count": len(components),
            "largest": sizes[0] if sizes else 0,
            "sizes": sizes if top is None else sizes[:top],
        })
    if kind == "triangles":
        counts = local_triangle_counts(provider)
        return QueryResult(kind, {
            "triangles": count_triangles(provider),
            "ranking": _ranked(counts.items(), top),
        })
    if kind == "cores":
        cores = core_numbers(provider)
        return QueryResult(kind, {
            "degeneracy": max(cores.values()) if cores else 0,
            "ranking": _ranked(cores.items(), top),
        })
    raise ValueError(
        f"unknown query kind {kind!r}; expected one of {', '.join(QUERY_KINDS)}"
    )
