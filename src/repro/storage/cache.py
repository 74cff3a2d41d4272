"""Content-addressed on-disk cache of packed graph containers.

A :class:`GraphCache` is a flat directory of ``<sha256>.slg`` container
files keyed by *content digest*, serving two workloads:

* **Edge-list acceleration** (:meth:`GraphCache.fetch_edge_list`): the
  digest of the *source text file* keys a packed container, so the first
  load of a file parses + packs and every later load memory-maps — the
  CLI's ``--cache-dir`` flag and the serving layer's input files ride
  this.  Keying by source bytes (cheap streaming SHA-256, no parse
  needed) is what lets a cache hit skip the text parse entirely.
* **Substrate persistence** (:meth:`GraphCache.store_csr`): the serving
  layer's :class:`~repro.service.store.GraphStore` packs each interned
  substrate under its *graph-content* digest
  (:func:`repro.storage.format.container_digest`) in the registration
  prefetch lane, so a restarted service — or any other process — can
  reload the exact substrate from disk instead of rebuilding it.

Both keys live in one namespace: every entry is a self-describing
container addressed by the SHA-256 of *something* immutable, and
:meth:`entries` inspects them uniformly.  Writes go through the format
layer's atomic temp-then-rename, so concurrent processes sharing a cache
directory race benignly.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.exceptions import ContainerFormatError
from repro.graphs.dense import DenseAdjacency
from repro.graphs.graph import Graph
from repro.storage.format import (
    CONTAINER_SUFFIX,
    ContainerInfo,
    encode_container,
    read_container_info,
    write_container,
    write_container_image,
)
from repro.storage.mapped import StoredGraph, load

__all__ = ["CachedEdgeList", "GraphCache", "file_digest"]

PathLike = Union[str, Path]

_CHUNK = 1 << 20


def file_digest(path: PathLike) -> str:
    """Streaming SHA-256 of a file's bytes (the edge-list cache key)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                return digest.hexdigest()
            digest.update(chunk)


class CachedEdgeList(NamedTuple):
    """Outcome of a cached edge-list load.

    ``graph`` is always usable, and ``stored`` is the mmap-backed
    :class:`~repro.storage.mapped.StoredGraph` of the cached container
    on hits *and* misses (a miss packs, then maps the fresh container) —
    inject it as the run's ``resources`` for zero-copy substrate reuse.
    Only a torn concurrent write can leave it ``None``.

    With ``materialize=False`` a hit's ``graph`` is the read-only
    :class:`~repro.graphs.view.CSRGraphView` facade instead of a
    materialized :class:`Graph` — the zero-copy serving path.
    """

    graph: Graph
    stored: Optional[StoredGraph]
    hit: bool
    digest: str
    container_path: Path


class GraphCache:
    """A directory of content-addressed packed graph containers."""

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._stats_lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "hits": 0, "misses": 0, "mmap_loads": 0, "packs": 0, "corrupt": 0,
        }

    def _count(self, key: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._counters[key] += amount

    def stats(self) -> Dict[str, int]:
        """Lifetime cache counters (this process only).

        ``hits``/``misses`` count :meth:`fetch_edge_list` outcomes,
        ``mmap_loads`` successful :meth:`load` maps, ``packs`` containers
        actually written by :meth:`store_csr`, and ``corrupt`` unreadable
        containers discarded and re-packed.  Telemetry only — the
        on-disk cache itself is shared across processes and has no
        process-local state.
        """
        with self._stats_lock:
            return dict(self._counters)

    def container_path(self, digest: str) -> Path:
        """Where the container for ``digest`` lives (whether or not it exists)."""
        return self.directory / f"{digest}{CONTAINER_SUFFIX}"

    def has(self, digest: str) -> bool:
        """Whether a container for ``digest`` is present."""
        return self.container_path(digest).is_file()

    def load(self, digest: str, verify: bool = True) -> Optional[StoredGraph]:
        """Memory-map the container for ``digest``, or ``None`` if absent."""
        path = self.container_path(digest)
        if not path.is_file():
            return None
        stored = load(path, verify=verify)
        self._count("mmap_loads")
        return stored

    # ------------------------------------------------------------------
    # Write paths
    # ------------------------------------------------------------------
    def store_csr(self, csr, digest: Optional[str] = None) -> Tuple[str, Path, bool]:
        """Pack a frozen CSR under its content digest (idempotent).

        Returns ``(digest, path, created)`` — ``created`` is ``False``
        when the container already existed, making repeated registration
        of the same graph content a metadata no-op.  When the digest must
        be derived from the content, the container is encoded exactly
        once (the same image is hashed and written).
        """
        image = None
        if digest is None:
            image = encode_container(csr)
            digest = hashlib.sha256(image).hexdigest()
        path = self.container_path(digest)
        if path.is_file():
            return digest, path, False
        if image is None:
            write_container(path, csr)
        else:
            write_container_image(path, image)
        self._count("packs")
        return digest, path, True

    def store_graph(self, graph: Graph, digest: Optional[str] = None) -> Tuple[str, Path, bool]:
        """Pack a label-keyed graph (builds the CSR) under its digest."""
        return self.store_csr(DenseAdjacency.from_graph(graph).freeze(), digest=digest)

    # ------------------------------------------------------------------
    # Edge-list front door
    # ------------------------------------------------------------------
    def fetch_edge_list(self, path: PathLike, materialize: bool = True) -> CachedEdgeList:
        """Load an edge-list file through the cache.

        Hit: memory-map the container keyed by the file's byte digest —
        no text parse; ``stored`` carries the zero-copy substrate.
        Miss: parse the text, pack the result under the file digest, and
        memory-map the fresh container — so ``stored`` is available either
        way and downstream consumers (handle seeding, resource injection)
        never need a second pack.
        An unreadable cached container (e.g. torn by an external
        process) is discarded and treated as a miss rather than failing
        the load.

        ``materialize=False`` keeps a hit entirely on the substrate:
        ``graph`` is then :meth:`StoredGraph.view` (a read-only
        ``CSRGraphView``; zero rows thawed, zero nodes materialized)
        rather than the O(m) :meth:`StoredGraph.graph` materialization.
        Misses parsed the text anyway, so they return the parsed graph
        either way.
        """
        from repro.graphs.io import read_edge_list

        digest = file_digest(path)
        if self.has(digest):
            try:
                stored = self.load(digest)
            except ContainerFormatError:
                self._count("corrupt")
                self.container_path(digest).unlink(missing_ok=True)
            else:
                if stored is not None:
                    self._count("hits")
                    return CachedEdgeList(
                        graph=stored.graph() if materialize else stored.view(),
                        stored=stored,
                        hit=True,
                        digest=digest,
                        container_path=self.container_path(digest),
                    )
        self._count("misses")
        graph = read_edge_list(path)
        dense = DenseAdjacency.from_graph(graph)
        _, container_path, _ = self.store_csr(dense.freeze(), digest=digest)
        try:
            stored = self.load(digest)
        except ContainerFormatError:  # pragma: no cover - torn by a racer
            stored = None
        if stored is not None:
            # The substrate was just built to pack the container; seed
            # the mapped views with it so the cold run doesn't thaw and
            # re-materialize everything a second time.
            stored.seed(dense=dense, graph=graph)
        return CachedEdgeList(
            graph=graph,
            stored=stored,
            hit=False,
            digest=digest,
            container_path=container_path,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def digests(self) -> List[str]:
        """Digests of every container currently in the cache."""
        return sorted(
            entry.stem for entry in self.directory.glob(f"*{CONTAINER_SUFFIX}")
        )

    def entries(self) -> Iterator[ContainerInfo]:
        """Header metadata of every cached container (skips unreadable files)."""
        for digest in self.digests():
            try:
                yield read_container_info(self.container_path(digest))
            except ContainerFormatError:
                continue

    def total_bytes(self) -> int:
        """Bytes currently occupied by cached containers."""
        return sum(
            entry.stat().st_size
            for entry in self.directory.glob(f"*{CONTAINER_SUFFIX}")
        )

    def __repr__(self) -> str:
        return f"GraphCache(directory={str(self.directory)!r})"
