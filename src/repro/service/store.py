"""Graph interning: one substrate build per graph, shared across requests.

Every summarizer run needs the dense integer-id substrate
(:class:`~repro.graphs.index.NodeIndex` + adjacency) and, for some
consumers, a frozen CSR view.  A one-shot ``engine.run`` call rebuilds
all of that per invocation; a serving workload issuing many small
requests against the same graphs should not.  :class:`GraphStore`
interns graphs by object identity and hands out :class:`GraphHandle`
objects that memoize the substrate views lazily.

Everything a handle shares is **read-only for summarizer runs** (the
input adjacency never changes during a run), so one handle can serve any
number of concurrent jobs; builds are serialized per handle with a lock
so two racing jobs cannot duplicate work.

Staleness: handles remember the graph's :attr:`~repro.graphs.graph.Graph.
mutation_count` at build time.  If a caller mutates a graph between
requests (the ``Graph`` type is mutable), the next ``intern`` / ``get``
detects the drift — including count-preserving edit sequences — and
rebuilds the handle.

A graph reaches the store one way, :meth:`GraphStore.intern` (or
:meth:`GraphStore.register` for a named graph).  Its dense/CSR views
are built on first use under the handle's lock, or seeded by the caller
with prebuilt views (``dense=`` / ``csr=``, e.g. a storage-layer mmap
load).  The store keeps nothing on disk; the expensive artifact, the
summary, is persisted by the service's
:class:`~repro.storage.summary_store.SummaryCache`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional

from repro.engine.hooks import GraphResources
from repro.exceptions import ServiceError
from repro.graphs.dense import CSRAdjacency, DenseAdjacency
from repro.graphs.graph import Graph
from repro.graphs.staleness import ensure_fresh_views, mutation_stamp, stamp_is_stale

__all__ = ["GraphHandle", "GraphStore"]


class GraphHandle(GraphResources):
    """Memoized substrate views for one interned graph.

    Implements the :class:`~repro.engine.hooks.GraphResources` protocol,
    so a handle can be passed straight into ``Summarizer.summarize`` as
    the run's ``resources``.
    """

    def __init__(
        self,
        graph: Graph,
        key: Optional[str] = None,
        dense: Optional[DenseAdjacency] = None,
        csr: Optional[CSRAdjacency] = None,
    ) -> None:
        # Weak, not strong: the handle lives as a value of the store's
        # weak-keyed table, so a strong graph reference here would keep
        # the key reachable through the value and no anonymous graph
        # could ever be evicted.  Named registrations pin the graph
        # separately (see :meth:`GraphStore.register`).
        self._graph = weakref.ref(graph)
        self.key = key
        self._stamp_at_build = mutation_stamp(graph)
        self._lock = threading.Lock()
        # Prebuilt substrate views (a storage-layer mmap load, a prior
        # handle) seed the memos; substrate construction is deterministic
        # in graph content, so a seeded handle serves the same bytes a
        # self-building one would.
        ensure_fresh_views(graph.num_edges, error=ServiceError, dense=dense, csr=csr)
        self._dense = dense
        self._csr = csr
        #: Graph content digest, memoized by the service's summary cache
        #: on its first lookup so later requests skip the O(m) re-encode.
        self.content_digest: Optional[str] = None
        self._builds = 0

    @property
    def graph(self) -> Graph:
        """The interned graph; raises if it was garbage-collected."""
        graph = self._graph()
        if graph is None:
            raise ServiceError(
                "the interned graph was garbage-collected; keep a reference "
                "to the graph (or register it under a name) while using its handle"
            )
        return graph

    # -- GraphResources protocol ---------------------------------------
    def dense(self) -> DenseAdjacency:
        """The interned dense substrate, built on first use.

        A handle seeded with a frozen CSR only (a storage-layer mmap
        load) thaws it with ``DenseAdjacency.from_csr`` instead of
        re-deriving the substrate from the label-keyed graph; the contents
        are identical either way.  The build runs once, under the lock.
        """
        if self._dense is None:
            with self._lock:
                if self._dense is None:
                    self._builds += 1
                    self._dense = (
                        DenseAdjacency.from_csr(self._csr)
                        if self._csr is not None
                        else DenseAdjacency.from_graph(self.graph)
                    )
        return self._dense

    def csr(self) -> CSRAdjacency:
        """The interned frozen CSR view, built on first use."""
        if self._csr is None:
            dense = self.dense()
            with self._lock:
                if self._csr is None:
                    self._csr = dense.freeze()
        return self._csr

    # -- lifecycle ------------------------------------------------------
    @property
    def stale(self) -> bool:
        """Whether the graph was structurally mutated since the handle was built.

        Tracks :attr:`Graph.mutation_count` (via
        :mod:`repro.graphs.staleness`), so even count-preserving edit
        sequences (remove one edge, add another) are detected.
        """
        return stamp_is_stale(self.graph, self._stamp_at_build)

    @property
    def builds(self) -> int:
        """Number of substrate builds this handle performed (0 or 1)."""
        return self._builds

    def __repr__(self) -> str:
        return (f"GraphHandle(key={self.key!r}, nodes={self.graph.num_nodes}, "
                f"edges={self.graph.num_edges})")


class GraphStore:
    """Interning table: graph → :class:`GraphHandle`.

    Graphs are interned by *object identity* (``Graph`` hashes by
    identity), through a weak mapping — the store never keeps an
    anonymous graph alive on its own.  Named graphs registered via
    :meth:`register` are additionally pinned strongly under their key, so
    a serving batch file can reference them by name.

    ``hits`` / ``misses`` count :meth:`intern` lookups and are the
    serving layer's cache-effectiveness signal.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._handles: "weakref.WeakKeyDictionary[Graph, GraphHandle]" = (
            weakref.WeakKeyDictionary()
        )
        self._named: Dict[str, GraphHandle] = {}
        #: Strong references for named graphs (handles only hold weakrefs).
        self._pinned: Dict[str, Graph] = {}
        self.hits = 0
        self.misses = 0

    def intern(
        self,
        graph: Graph,
        key: Optional[str] = None,
        dense: Optional[DenseAdjacency] = None,
        csr: Optional[CSRAdjacency] = None,
    ) -> GraphHandle:
        """The (possibly new) handle for ``graph``; counts hit/miss.

        ``dense`` / ``csr`` optionally seed a *new* handle with prebuilt
        substrate views (e.g. a storage-layer mmap load), skipping the
        first-request build; an existing fresh handle wins over seeds.
        """
        with self._lock:
            handle = self._handles.get(graph)
            if handle is not None and not handle.stale:
                self.hits += 1
                return handle
            self.misses += 1
            handle = GraphHandle(graph, key=key, dense=dense, csr=csr)
            self._handles[graph] = handle
            return handle

    def register(
        self,
        key: str,
        graph: Graph,
        dense: Optional[DenseAdjacency] = None,
        csr: Optional[CSRAdjacency] = None,
    ) -> GraphHandle:
        """Intern ``graph`` under a stable name (strongly referenced).

        ``dense`` / ``csr`` seed a new handle as in :meth:`intern`.
        """
        handle = self.intern(graph, key=key, dense=dense, csr=csr)
        with self._lock:
            self._named[key] = handle
            self._pinned[key] = graph
        return handle

    def get(self, key: str) -> GraphHandle:
        """The handle registered under ``key``; raises if unknown.

        Applies the same staleness protocol as :meth:`intern`: a
        registered graph whose edge count drifted is re-interned before
        use.  A fresh resolution counts as an interning hit — reuse of a
        registered graph is exactly what the store exists for.
        """
        with self._lock:
            handle = self._named.get(key)
            stale = handle is not None and handle.stale
            if handle is not None and not stale:
                self.hits += 1
        if handle is None:
            raise ServiceError(
                f"no graph registered under {key!r}; "
                f"known keys: {', '.join(sorted(self._named)) or '(none)'}"
            )
        if stale:
            return self.register(key, handle.graph)
        return handle

    def keys(self) -> List[str]:
        """Names of all registered graphs."""
        with self._lock:
            return sorted(self._named)

    def stats(self) -> Dict[str, int]:
        """Interning counters: hits, misses, live and named handles."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "graphs": len(self._handles),
                "named": len(self._named),
            }

    def close(self) -> None:
        """Forget all graphs."""
        with self._lock:
            self._handles = weakref.WeakKeyDictionary()
            self._named.clear()
            self._pinned.clear()
