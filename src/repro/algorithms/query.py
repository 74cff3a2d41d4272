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
from repro.algorithms.triangles import local_triangle_counts
from repro.exceptions import ConfigurationError

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

    Arguments are checked before any work is done: an unknown ``kind``,
    a negative ``top``, ``iterations < 1``, ``damping`` outside [0, 1]
    or a ``bfs`` query without a ``source`` raise
    :class:`~repro.exceptions.ConfigurationError`.
    """
    if kind not in QUERY_KINDS:
        raise ConfigurationError(
            f"unknown query kind {kind!r}; expected one of {', '.join(QUERY_KINDS)}"
        )
    if top is not None and top < 0:
        raise ConfigurationError(f"top must be non-negative, got {top}")
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    if not 0.0 <= damping <= 1.0:
        raise ConfigurationError(f"damping must be in [0, 1], got {damping}")
    if kind == "bfs" and source is None:
        raise ConfigurationError("bfs query requires a source node")
    if kind == "pagerank":
        scores = pagerank(provider, damping=damping, iterations=iterations)
        return QueryResult(kind, {
            "num_nodes": len(scores),
            "ranking": _ranked(scores.items(), top),
        })
    if kind == "bfs":
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
        # One enumeration: each triangle adds 1 to each of its 3 corners.
        return QueryResult(kind, {
            "triangles": sum(counts.values()) // 3,
            "ranking": _ranked(counts.items(), top),
        })
    cores = core_numbers(provider)
    return QueryResult(kind, {
        "degeneracy": max(cores.values()) if cores else 0,
        "ranking": _ranked(cores.items(), top),
    })
