"""Dense integer-id adjacency: the array-backed substrate of the hot paths.

:class:`DenseAdjacency` mirrors a :class:`~repro.graphs.graph.Graph` on
the contiguous id space of a :class:`~repro.graphs.index.NodeIndex`:
neighbor sets become a ``list`` of ``set[int]`` (list indexing instead
of label hashing per access) and degrees live in a preallocated
``array('q')``.  It is the mutable working representation every
summarizer now computes on; labels only appear at the boundary.

:class:`CSRAdjacency` is the frozen, read-only view for phases that only
read the graph (shingle sweeps, orderings, analytics): neighbor lists
are packed into two flat integer arrays (``indptr``/``indices``, the
standard compressed-sparse-row layout used by WebGraph-style systems),
which cuts the per-neighbor memory from a hash-set slot (~32+ bytes) to
one machine integer and makes whole-graph sweeps cache-friendly.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from sys import getsizeof
from typing import Iterator, List, Optional, Set, Tuple

from repro.exceptions import InvalidGraphError
from repro.graphs.index import Label, NodeIndex

__all__ = [
    "CSRAdjacency",
    "DenseAdjacency",
    "graph_adjacency_bytes",
]


class DenseAdjacency:
    """Mutable set-based adjacency over contiguous integer node ids.

    Examples
    --------
    >>> dense = DenseAdjacency(NodeIndex(["a", "b", "c"]))
    >>> dense.add_edge(0, 1)
    True
    >>> sorted(dense.neighbors[0])
    [1]
    >>> dense.degrees[1]
    1
    """

    __slots__ = ("index", "neighbors", "degrees", "num_edges")

    def __init__(self, index: Optional[NodeIndex] = None) -> None:
        self.index = index if index is not None else NodeIndex()
        size = len(self.index)
        self.neighbors: List[Set[int]] = [set() for _ in range(size)]
        # Preallocated degree array, maintained on every edge mutation so
        # degree reads never touch the neighbor sets.
        self.degrees = array("q", bytes(8 * size))
        self.num_edges = 0

    @classmethod
    def from_graph(cls, graph) -> "DenseAdjacency":
        """Mirror ``graph`` onto dense ids (assigned in node-insertion order)."""
        index = NodeIndex.from_graph(graph)
        dense = cls(index)
        ids = index.ids()
        neighbors = dense.neighbors
        degrees = dense.degrees
        # Graphs whose labels already are the ints 0..n-1 (every
        # generator and dataset analogue) need no per-neighbor
        # translation — the sets are copied as-is.  The type check
        # matters: 0.0 == 0 but a float label must still be translated,
        # or list-indexed consumers would be handed floats.
        identity = all(
            type(label) is int and label == node_id
            for node_id, label in enumerate(index.labels())
        )
        for label, nbrs in graph.adjacency().items():
            u = ids[label]
            mapped = set(nbrs) if identity else {ids[other] for other in nbrs}
            neighbors[u] = mapped
            degrees[u] = len(mapped)
        dense.num_edges = graph.num_edges
        return dense

    @classmethod
    def from_csr(cls, csr) -> "DenseAdjacency":
        """Thaw a frozen CSR view back into a mutable dense adjacency.

        ``csr`` is any CSR-like object (``index`` / ``indptr`` /
        ``indices`` / ``num_nodes`` / ``num_edges``) — the in-memory
        :class:`CSRAdjacency` or a storage-layer mapped view.  The result
        is content-identical to :meth:`from_graph` on the equivalent
        graph: same ids (the CSR inherited the index order), same
        neighbor sets, same degrees.
        """
        dense = cls(csr.index)
        if dense.num_nodes != csr.num_nodes:
            raise InvalidGraphError(
                f"CSR index holds {dense.num_nodes} labels for {csr.num_nodes} nodes"
            )
        indptr, indices = csr.indptr, csr.indices
        neighbors = dense.neighbors
        degrees = dense.degrees
        for u in range(csr.num_nodes):
            lo, hi = indptr[u], indptr[u + 1]
            run = indices[lo:hi]
            neighbors[u] = set(run)
            degrees[u] = hi - lo
        dense.num_edges = csr.num_edges
        return dense

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes (ids ``0..num_nodes-1``)."""
        return len(self.neighbors)

    def add_node(self, label: Label) -> int:
        """Intern ``label`` and make room for its adjacency; returns the id."""
        node_id = self.index.intern(label)
        while node_id >= len(self.neighbors):
            self.neighbors.append(set())
            self.degrees.append(0)
        return node_id

    def add_edge(self, u: int, v: int) -> bool:
        """Add the undirected edge ``(u, v)`` by id; returns whether it was new."""
        if u == v:
            raise InvalidGraphError(f"self-loops are not allowed (id {u})")
        nbrs_u = self.neighbors[u]
        if v in nbrs_u:
            return False
        nbrs_u.add(v)
        self.neighbors[v].add(u)
        self.degrees[u] += 1
        self.degrees[v] += 1
        self.num_edges += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove the undirected edge ``(u, v)`` by id if present."""
        nbrs_u = self.neighbors[u]
        if v not in nbrs_u:
            return False
        nbrs_u.discard(v)
        self.neighbors[v].discard(u)
        self.degrees[u] -= 1
        self.degrees[v] -= 1
        self.num_edges -= 1
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` is present."""
        return v in self.neighbors[u]

    def degree(self, u: int) -> int:
        """Degree of id ``u`` (array read; no set involved)."""
        return self.degrees[u]

    def edge_ids(self) -> Iterator[Tuple[int, int]]:
        """Iterate every edge once as an ``(u, v)`` id pair with ``u < v``."""
        for u, nbrs in enumerate(self.neighbors):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def approx_bytes(self) -> int:
        """Approximate heap footprint of the adjacency structure itself."""
        total = getsizeof(self.neighbors) + getsizeof(self.degrees)
        for nbrs in self.neighbors:
            total += getsizeof(nbrs)
        return total

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def freeze(self) -> "CSRAdjacency":
        """A compact read-only CSR snapshot of the current adjacency."""
        return CSRAdjacency(self)

    def to_graph(self):
        """Materialize the adjacency back into a label-keyed ``Graph``."""
        from repro.graphs.graph import Graph

        labels = self.index.labels()
        graph = Graph(nodes=labels)
        for u, v in self.edge_ids():
            graph.add_edge(labels[u], labels[v])
        return graph

    def __repr__(self) -> str:
        return f"DenseAdjacency(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


class CSRAdjacency:
    """Frozen compressed-sparse-row view of a :class:`DenseAdjacency`.

    Neighbor runs are sorted ascending, so membership tests are binary
    searches and gap-based consumers (the compression layer) can read
    monotone runs directly.

    Examples
    --------
    >>> dense = DenseAdjacency(NodeIndex(range(3)))
    >>> _ = dense.add_edge(0, 2); _ = dense.add_edge(0, 1)
    >>> csr = dense.freeze()
    >>> list(csr.neighbors_of(0))
    [1, 2]
    >>> csr.degree(0), csr.has_edge(0, 2), csr.has_edge(1, 2)
    (2, True, False)
    """

    __slots__ = ("index", "indptr", "indices", "num_nodes", "num_edges")

    def __init__(self, dense: DenseAdjacency) -> None:
        self.index = dense.index
        self.num_nodes = dense.num_nodes
        self.num_edges = dense.num_edges
        indptr = array("q", bytes(8 * (self.num_nodes + 1)))
        indices = array("q", bytes(8 * (2 * self.num_edges)))
        position = 0
        for u, nbrs in enumerate(dense.neighbors):
            indptr[u] = position
            for v in sorted(nbrs):
                indices[position] = v
                position += 1
        indptr[self.num_nodes] = position
        self.indptr = indptr
        self.indices = indices

    def degree(self, u: int) -> int:
        """Degree of id ``u``."""
        return self.indptr[u + 1] - self.indptr[u]

    def neighbors_of(self, u: int) -> "array":
        """The sorted neighbor run of ``u`` (a slice of the flat array)."""
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
        """Approximate heap footprint of the two flat arrays."""
        return getsizeof(self.indptr) + getsizeof(self.indices)

    def __repr__(self) -> str:
        return f"CSRAdjacency(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def graph_adjacency_bytes(graph) -> int:
    """Approximate heap footprint of a ``Graph``'s dict-of-sets adjacency.

    Used by the substrate benchmark to report the memory side of the
    dense/CSR comparison; node label objects themselves are excluded on
    all sides so the numbers compare structures, not label payloads.
    """
    adjacency = graph.adjacency()
    total = getsizeof(adjacency)
    for nbrs in adjacency.values():
        total += getsizeof(nbrs)
    return total
