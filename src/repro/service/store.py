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
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Dict, Iterator, List, Optional

from repro.engine.hooks import GraphResources
from repro.exceptions import ServiceError
from repro.graphs.dense import CSRAdjacency, DenseAdjacency, LazyDenseAdjacency
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
        generation: int = 0,
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
        #: Store generation at creation; the process-mode service uses it
        #: to decide whether a forked worker snapshot already holds this
        #: handle's graph.
        self.generation = generation
        self._stamp_at_build = mutation_stamp(graph)
        self._lock = threading.Lock()
        # Prebuilt substrate views (a storage-layer mmap load, a prior
        # handle) seed the memos; substrate construction is deterministic
        # in graph content, so a seeded handle serves the same bytes a
        # self-building one would.
        ensure_fresh_views(graph.num_edges, error=ServiceError, dense=dense, csr=csr)
        self._dense = dense
        self._csr = csr
        #: Whether the frozen CSR was injected rather than built here —
        #: a seeded view came off a container/mmap, so the store's
        #: persistence lane must not re-encode and re-pack it.
        self.seeded_csr = csr is not None
        #: Content digest memoized by the persistence lane after the
        #: first pack, so re-registrations skip the O(m) re-encode.
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
        load) hands out a thaw-on-demand
        :class:`~repro.graphs.dense.LazyDenseAdjacency` overlay over that
        view instead of re-deriving an eager thaw from the label-keyed
        graph — the contents are identical either way, and jobs that only
        read a fraction of the neighborhoods never pay the O(m) thaw.
        Concurrent jobs may race to thaw the same node; the overlay's
        per-node slot assignment is atomic under the GIL and every racer
        builds the identical set, so the race is benign for the
        read-only-during-runs contract this handle already requires.
        """
        if self._dense is None:
            with self._lock:
                if self._dense is None:
                    self._builds += 1
                    self._dense = (
                        LazyDenseAdjacency(self._csr)
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

    Persistence and prefetch
    ------------------------
    With a ``cache_dir``, the store persists every *prefetched* named
    registration as a packed binary container
    (:class:`~repro.storage.cache.GraphCache`, content-addressed), so
    other processes — and restarts — can memory-map the substrate
    instead of rebuilding it.  ``register(..., prefetch=True)`` builds
    the handle's dense/CSR views in a background lane at registration
    time instead of on the first request; ``prefetched`` / ``packed``
    counters surface in :meth:`stats`.
    """

    def __init__(self, cache_dir=None) -> None:
        self._lock = threading.Lock()
        self._handles: "weakref.WeakKeyDictionary[Graph, GraphHandle]" = (
            weakref.WeakKeyDictionary()
        )
        self._named: Dict[str, GraphHandle] = {}
        #: Strong references for named graphs (handles only hold weakrefs).
        self._pinned: Dict[str, Graph] = {}
        #: Store generation at which each *key* was (last) registered —
        #: distinct from the handle's creation generation: re-registering
        #: an already-interned graph under a new key must still look
        #: "young" to pools forked before that key existed.
        self._key_generation: Dict[str, int] = {}
        #: Bumped whenever a new handle is created; process-mode services
        #: compare it against their forked snapshot's generation.
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self.prefetched = 0
        self.packed = 0
        self.prefetch_errors = 0
        self._prefetch_threads: List[threading.Thread] = []
        self._cache = None
        if cache_dir is not None:
            from repro.storage.cache import GraphCache

            self._cache = GraphCache(cache_dir)

    @property
    def cache(self):
        """The backing :class:`~repro.storage.cache.GraphCache`, if any."""
        return self._cache

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
            self.generation += 1
            handle = GraphHandle(
                graph, key=key, generation=self.generation, dense=dense, csr=csr
            )
            self._handles[graph] = handle
            return handle

    def register(
        self,
        key: str,
        graph: Graph,
        dense: Optional[DenseAdjacency] = None,
        csr: Optional[CSRAdjacency] = None,
        prefetch: bool = False,
    ) -> GraphHandle:
        """Intern ``graph`` under a stable name (strongly referenced).

        ``prefetch=True`` builds the handle's dense/CSR substrate in a
        background lane immediately — the first request then finds warm
        views instead of paying the build — and, when the store has a
        ``cache_dir``, persists the packed container there.  The lane
        never fails a registration: build/pack errors are counted
        (``prefetch_errors``) and the first request falls back to the
        ordinary on-demand build.
        """
        handle = self.intern(graph, key=key, dense=dense, csr=csr)
        with self._lock:
            if self._named.get(key) is not handle:
                # New or rebound key: pools forked earlier cannot resolve
                # it, so the binding must look younger than they are.
                self.generation += 1
                self._key_generation[key] = self.generation
            self._named[key] = handle
            self._pinned[key] = graph
        if prefetch:
            thread = threading.Thread(
                target=self._prefetch,
                args=(handle,),
                name=f"graph-store-prefetch-{key}",
                daemon=True,
            )
            with self._lock:
                # Prune only *finished* threads (an unstarted thread is
                # not alive either, and join() on one raises), and start
                # inside the lock so a concurrent drain can never see —
                # or prune — a thread that was appended but not started.
                self._prefetch_threads = [
                    t for t in self._prefetch_threads if t.is_alive()
                ]
                self._prefetch_threads.append(thread)
                thread.start()
        return handle

    def _prefetch(self, handle: GraphHandle) -> None:
        """Background lane: build (and optionally persist) one substrate."""
        try:
            # Warm both views: csr() alone would skip the dense thaw on
            # handles seeded with a mapped CSR.
            handle.dense()
            csr = handle.csr()
            cache = self._cache
            created = False
            # Seeded CSRs came off an existing container — re-encoding
            # them (O(m)) to discover a digest we would not write is
            # pure waste, and for cache-fed inputs it would duplicate
            # the container under a second digest.  The digest memo
            # makes a re-registration of the same handle a true
            # metadata no-op (no re-encode, just a stat).
            if cache is not None and not handle.seeded_csr:
                digest, _, created = cache.store_csr(
                    csr, digest=handle.content_digest
                )
                handle.content_digest = digest
            with self._lock:
                self.prefetched += 1
                if created:
                    self.packed += 1
        except Exception:
            # The lane must never propagate: a failed prefetch simply
            # means the first request pays the build it would have paid
            # anyway (or surfaces the real error in request context).
            with self._lock:
                self.prefetch_errors += 1

    def drain_prefetch(self, timeout: Optional[float] = None) -> None:
        """Wait for all in-flight prefetch lanes (tests, orderly shutdown).

        ``timeout`` bounds the *total* wait, not each join — a store with
        many slow lanes still drains within the advertised cap (threads
        still alive past the deadline are daemons and are abandoned).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            threads = list(self._prefetch_threads)
        for thread in threads:
            thread.join(
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )

    def key_generation(self, key: str) -> int:
        """Store generation at which ``key`` was last registered.

        Process-mode services compare this against their forked
        snapshot's generation to decide whether a worker can resolve the
        key from inherited memory.  Unknown keys report an impossibly
        young generation so callers fall back to shipping the graph.
        """
        with self._lock:
            return self._key_generation.get(key, self.generation + 1)

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

    def invalidate(self, graph: Graph) -> None:
        """Drop the handle for ``graph`` (after an in-place mutation)."""
        with self._lock:
            handle = self._handles.pop(graph, None)
            if handle is not None:
                for key in [k for k, h in self._named.items() if h is handle]:
                    del self._named[key]
                    self._pinned.pop(key, None)
                    self._key_generation.pop(key, None)

    def keys(self) -> List[str]:
        """Names of all registered graphs."""
        with self._lock:
            return sorted(self._named)

    def handles(self) -> Iterator[GraphHandle]:
        """All live handles (weak and named)."""
        with self._lock:
            return iter(list(self._handles.values()))

    def named_handles(self) -> List[GraphHandle]:
        """Handles of all registered (named, strongly pinned) graphs."""
        with self._lock:
            return list(self._named.values())

    def stats(self) -> Dict[str, int]:
        """Interning counters: hits, misses, prefetches, live handles."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "graphs": len(self._handles),
                "named": len(self._named),
                "generation": self.generation,
                "prefetched": self.prefetched,
                "packed": self.packed,
                "prefetch_errors": self.prefetch_errors,
                "prefetch_pending": sum(
                    1 for t in self._prefetch_threads if t.is_alive()
                ),
            }

    def close(self) -> None:
        """Wait for prefetch lanes and forget all graphs."""
        self.drain_prefetch(timeout=30.0)
        with self._lock:
            self._handles = weakref.WeakKeyDictionary()
            self._named.clear()
            self._pinned.clear()
            self._key_generation.clear()
