"""Binary graph storage: packed CSR containers, mmap loads, a content cache.

This subsystem is the persistence layer between "dataset on disk" and
"hot in-memory substrate":

* :mod:`repro.storage.format` — the versioned single-file container
  (magic + checksummed sections; delta/varint ``indptr``, fixed
  narrow-width ``indices``, optional label dictionary);
* :mod:`repro.storage.mapped` — :class:`MappedCSR` /
  :class:`StoredGraph`, the zero-copy mmap-backed views that plug into
  the summarizers as prebuilt substrate ``resources``;
* :mod:`repro.storage.cache` — the content-addressed on-disk cache the
  CLI's ``--cache-dir`` and the serving layer's
  :class:`~repro.service.store.GraphStore` persistence use;
* :mod:`repro.storage.summary_store` — the ``SUMM`` section family that
  persists summaries *inside* the container format, the
  content-addressed :class:`SummaryCache` behind warm-start serving,
  and resumable per-iteration job checkpoints.

Quick start::

    from repro import storage

    storage.pack(graph, "graph.slg")        # once
    stored = storage.load("graph.slg")      # near-instant, mmap-backed
    result = engine.run("slugger", stored.graph(), seed=0,
                        resources=stored)   # zero-copy CSR injected

Determinism: for a fixed seed, a run on a ``storage.load``-ed graph is
bit-identical to the same run on the text-parsed original — packing
preserves node insertion order and the substrate views are canonical in
graph content.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.graphs.dense import DenseAdjacency
from repro.graphs.graph import Graph
from repro.storage.cache import CachedEdgeList, GraphCache, file_digest
from repro.storage.format import (
    CONTAINER_SUFFIX,
    ContainerInfo,
    container_digest,
    read_container_info,
    write_container,
)
from repro.storage.mapped import MappedCSR, StoredGraph, load
from repro.storage.summary_store import (
    CHECKPOINT_SUFFIX,
    StoredSummary,
    SummaryCache,
    SummaryCheckpoint,
    SummaryMeta,
    config_fingerprint,
    encode_summary_container,
    load_checkpoint,
    load_summary,
    read_summary_meta,
    summary_fingerprint,
    summary_key,
)

__all__ = [
    "CHECKPOINT_SUFFIX",
    "CONTAINER_SUFFIX",
    "CachedEdgeList",
    "ContainerInfo",
    "GraphCache",
    "MappedCSR",
    "StoredGraph",
    "StoredSummary",
    "SummaryCache",
    "SummaryCheckpoint",
    "SummaryMeta",
    "config_fingerprint",
    "container_digest",
    "encode_summary_container",
    "file_digest",
    "inspect_container",
    "load",
    "load_checkpoint",
    "load_summary",
    "pack",
    "read_container_info",
    "read_summary_meta",
    "summary_fingerprint",
    "summary_key",
    "write_container",
]

PathLike = Union[str, Path]


def pack(graph: Graph, path: PathLike, *, csr=None) -> ContainerInfo:
    """Pack ``graph`` into a binary container at ``path``.

    ``csr`` optionally supplies an already-frozen CSR view (e.g. from an
    interned service handle) so the pack reuses it instead of rebuilding
    the substrate from the graph.
    """
    if csr is None:
        csr = DenseAdjacency.from_graph(graph).freeze()
    return write_container(path, csr)


def inspect_container(path: PathLike, verify: bool = True) -> ContainerInfo:
    """Header + section metadata of a container (checksummed by default)."""
    return read_container_info(path, verify=verify)
