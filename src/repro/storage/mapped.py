"""Memory-mapped, zero-copy CSR views over binary graph containers.

:class:`MappedCSR` opens a container written by
:mod:`repro.storage.format` and exposes the same read-only interface as
:class:`~repro.graphs.dense.CSRAdjacency` — ``indptr`` / ``indices``
flat arrays, ``degree`` / ``neighbors_of`` / ``has_edge`` / ``edge_ids``
and a ``NodeIndex``-compatible ``index`` — without materializing any
per-node Python structure for the heavy ``2m``-sized part: ``indices``
is a ``memoryview`` cast directly over the memory map, so the neighbor
data stays in the page cache, loads in near-constant time, and is
shared between processes mapping the same file (a process-mode
service's forked job workers inherit the mapping for free).  Only the small ``O(n)`` parts — the
varint-decoded ``indptr`` and the label index — are materialized.

:class:`StoredGraph` wraps a mapped view as a full
:class:`~repro.engine.hooks.GraphResources` implementation: ``csr()``
returns the zero-copy view, ``dense()`` thaws the mutable
:class:`~repro.graphs.dense.DenseAdjacency` from the map once (memoized),
and ``graph()`` lazily materializes the label-keyed
:class:`~repro.graphs.graph.Graph`.  Because nodes materialize in id
order (the original insertion order) and substrate construction is
deterministic in graph content, a run on a stored graph is
**bit-identical** to the same run on the text-parsed original — pinned
by the storage test suite for SLUGGER and the baselines.
"""

from __future__ import annotations

import mmap
import sys
from array import array
from bisect import bisect_left
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from repro.exceptions import ContainerFormatError
from repro.graphs.dense import DenseAdjacency
from repro.graphs.graph import Graph
from repro.graphs.index import NodeIndex
from repro.graphs.staleness import ensure_fresh_views
from repro.engine.hooks import GraphResources
from repro.storage.format import (
    TAG_INDICES,
    TAG_INDPTR,
    TAG_LABELS,
    ContainerInfo,
    check_indices,
    decode_indptr,
    decode_labels,
    read_sections,
    typecode_for_width,
)

__all__ = ["MappedCSR", "StoredGraph", "load"]

PathLike = Union[str, Path]


class MappedCSR:
    """Read-only CSR adjacency served straight from a memory-mapped file.

    Satisfies the :class:`~repro.graphs.dense.CSRAdjacency` view
    interface (``indptr``/``indices``/``index``/``num_nodes``/
    ``num_edges`` plus the query methods), so it can be injected
    anywhere a frozen CSR is consumed: ``SluggerState(csr=...)`` and
    the query kernels.  ``indices`` is a ``memoryview``
    cast over the map — slicing it (``indices[lo:hi]``) is zero-copy and
    iterating a slice yields plain ints, exactly like the ``array``
    slices of the in-memory view.

    The object owns its file handle and map; use it as a context manager
    or call :meth:`close`.  All query methods assume the object is open.
    """

    __slots__ = ("info", "index", "indptr", "indices", "num_nodes", "num_edges",
                 "path", "_file", "_mmap", "_closed")

    def __init__(self, path: PathLike, verify: bool = True) -> None:
        self.path = str(path)
        self._file = open(self.path, "rb")
        self._closed = False
        try:
            self._mmap = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as error:
            self._file.close()
            self._closed = True
            raise ContainerFormatError(
                f"{self.path}: cannot map container: {error}"
            ) from None
        try:
            # All fallible parsing happens against short-lived views that
            # are released before any cleanup can try to close the map —
            # only the final zero-copy ``indices`` cast (which cannot
            # fail past validation) holds an export across the lifetime.
            view = memoryview(self._mmap)
            try:
                info, payloads = read_sections(
                    view, self.path, (TAG_INDPTR, TAG_LABELS), verify=verify
                )
                if not info.has_csr:
                    raise ContainerFormatError(
                        f"{self.path}: container holds no CSR sections (a "
                        f"summary checkpoint artifact); load it through "
                        f"repro.storage.summary_store instead"
                    )
                indices_span = info.section(TAG_INDICES).span
                with view[indices_span] as indices_view:
                    check_indices(indices_view, info.num_nodes, info.index_width)
            finally:
                view.release()
            self.info = info
            self.num_nodes = info.num_nodes
            self.num_edges = info.num_edges
            self.indptr = decode_indptr(payloads[TAG_INDPTR], info.num_nodes, info.num_edges)
            if info.has_labels:
                labels = decode_labels(payloads[TAG_LABELS], info.num_nodes)
                self.index = NodeIndex(labels)
                if len(self.index) != info.num_nodes:
                    raise ContainerFormatError(
                        f"{self.path}: LBLS section holds duplicate labels "
                        f"({info.num_nodes} nodes, {len(self.index)} distinct labels)"
                    )
            else:
                self.index = NodeIndex(range(info.num_nodes))
            typecode = typecode_for_width(info.index_width)
            if sys.byteorder == "little":
                # The zero-copy path: the cast view reads the map in place.
                self.indices = memoryview(self._mmap)[indices_span].cast(typecode)
            else:  # pragma: no cover - big-endian hosts copy + swap
                swapped = array(typecode, self._mmap[indices_span])
                swapped.byteswap()
                self.indices = swapped
        except BaseException:
            self._release()
            raise

    # ------------------------------------------------------------------
    # CSRAdjacency view interface
    # ------------------------------------------------------------------
    def degree(self, u: int) -> int:
        """Degree of id ``u``."""
        return self.indptr[u + 1] - self.indptr[u]

    def neighbors_of(self, u: int):
        """The sorted neighbor run of ``u`` (a zero-copy slice of the map)."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Binary-search membership test in ``u``'s sorted neighbor run."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        position = bisect_left(self.indices, v, lo, hi)
        return position < hi and self.indices[position] == v

    def edge_ids(self) -> Iterator[Tuple[int, int]]:
        """Iterate every edge once as an ``(u, v)`` id pair with ``u < v``."""
        indptr, indices = self.indptr, self.indices
        for u in range(self.num_nodes):
            for position in range(indptr[u], indptr[u + 1]):
                v = indices[position]
                if u < v:
                    yield (u, v)

    def approx_bytes(self) -> int:
        """Resident heap bytes: the decoded indptr only — indices stay mapped."""
        return self.indptr.itemsize * len(self.indptr)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the map."""
        return self._closed

    def close(self) -> None:
        """Release the memory map and file handle (idempotent).

        After closing, the ``indices`` view is invalid; consumers holding
        the object across a run must keep it open for the run's duration.
        """
        if not self._closed:
            self._release()

    def _release(self) -> None:
        self._closed = True
        indices = getattr(self, "indices", None)
        if isinstance(indices, memoryview):
            indices.release()
        self.indices = array("q")
        self._mmap.close()
        self._file.close()

    def __enter__(self) -> "MappedCSR":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"MappedCSR(path={self.path!r}, num_nodes={self.num_nodes}, "
                f"num_edges={self.num_edges}, {state})")


class StoredGraph(GraphResources):
    """A loaded container: zero-copy CSR plus views derived on first use.

    Implements the :class:`~repro.engine.hooks.GraphResources` protocol,
    so it can be passed straight to ``Summarizer.summarize(...,
    resources=stored)`` or ``engine.run(..., resources=stored)`` — the
    run then consumes the mapped CSR directly and thaws the mutable
    dense substrate from the map instead of re-deriving everything from
    a label-keyed graph.  ``graph()`` materializes the
    :class:`~repro.graphs.graph.Graph` (nodes in id order, edges in
    canonical ascending order); all three views are cached.
    """

    __slots__ = ("_csr", "_dense", "_graph", "_view", "materializations")

    def __init__(self, csr: MappedCSR) -> None:
        self._csr = csr
        self._dense: Optional[DenseAdjacency] = None
        self._graph: Optional[Graph] = None
        self._view: Optional[Graph] = None
        #: How many times :meth:`graph` actually built the label-keyed
        #: Graph (0 or 1; cached afterwards).  The query layer asserts
        #: this stays 0 when serving straight off the substrate.
        self.materializations = 0

    @property
    def info(self) -> ContainerInfo:
        """Header + section metadata of the backing container."""
        return self._csr.info

    @property
    def path(self) -> str:
        """Filesystem path of the backing container."""
        return self._csr.path

    # -- GraphResources protocol ---------------------------------------
    def csr(self) -> MappedCSR:
        """The zero-copy mapped CSR view."""
        return self._csr

    def dense(self) -> DenseAdjacency:
        """The mutable dense substrate, thawed from the map on first use.

        ``DenseAdjacency.from_csr`` over the mapped CSR, memoized: the
        same ids, neighbor sets and degrees as ``DenseAdjacency.from_graph``
        on the text-parsed original, so summarizer output is bit-identical.
        """
        if self._dense is None:
            self._dense = DenseAdjacency.from_csr(self._csr)
        return self._dense

    def seed(
        self,
        dense: Optional[DenseAdjacency] = None,
        graph: Optional[Graph] = None,
    ) -> "StoredGraph":
        """Seed the lazily-derived views with already-built equivalents.

        Used by cache *miss* paths that just packed this container from
        an in-memory graph: the dense substrate and the label-keyed
        graph already exist, so deriving them again from the map would
        double the cold-load work.  Seeds must be content-equivalent to
        what the thaw/materialization would produce (validated cheaply
        on edge counts); returns ``self`` for chaining.
        """
        ensure_fresh_views(
            self._csr.num_edges,
            error=ContainerFormatError,
            owner="the container",
            dense=dense,
            graph=graph,
        )
        if dense is not None:
            self._dense = dense
        if graph is not None:
            self._graph = graph
        return self

    # -- materialization ------------------------------------------------
    def graph(self) -> Graph:
        """The label-keyed :class:`Graph`, materialized on first use.

        Nodes are added in id order — the original insertion order the
        container preserved — so every downstream id assignment
        (``NodeIndex.from_graph``, leaf supernode numbering) matches the
        source graph's exactly.
        """
        if self._graph is None:
            self.materializations += 1
            csr = self._csr
            labels: List = csr.index.labels()
            graph = Graph(nodes=labels)
            for u, v in csr.edge_ids():
                graph.add_edge(labels[u], labels[v])
            self._graph = graph
        return self._graph

    def view(self) -> Graph:
        """A read-only label-keyed facade over the mapped substrate.

        Unlike :meth:`graph` this materializes nothing: the returned
        :class:`~repro.graphs.view.CSRGraphView` answers ``nodes()`` /
        ``edges()`` / ``degree()`` / ``has_edge()`` straight off the
        flat arrays and thaws individual label rows only when a consumer
        asks for a neighbor set.  This is what the query serving path
        and the cache hit path hand out.
        """
        if self._view is None:
            from repro.graphs.view import CSRGraphView

            self._view = CSRGraphView(self._csr, self._csr.index)
        return self._view

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Close the backing map (thawed/materialized views stay usable)."""
        self._csr.close()

    def __enter__(self) -> "StoredGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"StoredGraph(path={self.path!r}, num_nodes={self._csr.num_nodes}, "
                f"num_edges={self._csr.num_edges})")


def load(path: PathLike, verify: bool = True) -> StoredGraph:
    """Open a container as a :class:`StoredGraph` (mmap; near-instant).

    Every neighbor id is range-checked before use, and ``verify=True``
    (default) also checksums every section; a corrupted or truncated
    container raises :class:`~repro.exceptions.ContainerFormatError`
    instead of producing a garbage graph.
    """
    return StoredGraph(MappedCSR(path, verify=verify))
