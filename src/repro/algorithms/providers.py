"""Provider resolution: anything graph-shaped becomes an id adjacency.

The kernels in :mod:`repro.algorithms.kernels` speak dense integer ids
over sorted neighbor runs.  This module is the boundary that gets them
those runs from every representation the library serves queries on:

- a label-keyed :class:`~repro.graphs.graph.Graph` (flattened once into
  CSR arrays through a :class:`~repro.graphs.index.NodeIndex`),
- any ``CSRAdjacency``-shaped view — the in-memory
  :class:`~repro.graphs.dense.CSRAdjacency` or a zero-copy
  :class:`~repro.storage.mapped.MappedCSR` — served as-is,
- a mutable :class:`~repro.graphs.dense.DenseAdjacency`, packed once,
- a ``GraphResources`` carrier (:class:`~repro.storage.mapped.StoredGraph`,
  the service's ``GraphHandle``) via its interned ``csr()``,
- a :class:`~repro.model.summary.HierarchicalSummary`, served from its
  memoized row table (:meth:`HierarchicalSummary.row_table`): partial
  decompression on ids runs once per leaf on the first query, and every
  later query reads flat CSR slices until the summary is mutated,
- a :class:`~repro.model.flat.FlatSummary`, bridged through its
  label-keyed partial decompression.

:func:`resolve_id_adjacency` returns an object with ``num_nodes``, an
``index`` (labels ↔ ids), and sorted neighbor runs (flat
``indptr``/``indices``, or ``neighbor_ids`` for the flat summary);
the algorithm shims map labels to ids at this boundary and hand the
rest to the kernels.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Callable, Hashable, List, Sequence

from repro.graphs.dense import DenseAdjacency
from repro.graphs.graph import Graph
from repro.graphs.index import NodeIndex
from repro.graphs.view import CSRGraphView
from repro.model.flat import FlatSummary
from repro.model.summary import HierarchicalSummary

__all__ = [
    "CSRIdAdjacency",
    "GraphIdAdjacency",
    "LabelIdAdjacency",
    "repr_rank",
    "resolve_id_adjacency",
]

Label = Hashable


class _FlatCSR:
    """Minimal CSR-shaped carrier for freshly flattened arrays."""

    __slots__ = ("indptr", "indices", "num_nodes")

    def __init__(self, indptr, indices, num_nodes: int) -> None:
        self.indptr = indptr
        self.indices = indices
        self.num_nodes = num_nodes


class CSRIdAdjacency:
    """Id adjacency over any CSR-shaped view (zero-copy row slices)."""

    __slots__ = ("source", "indptr", "indices", "num_nodes", "index")

    def __init__(self, source, index: NodeIndex = None) -> None:
        self.source = source
        self.indptr = source.indptr
        self.indices = source.indices
        self.num_nodes = source.num_nodes
        resolved = index if index is not None else getattr(source, "index", None)
        if resolved is None:
            resolved = NodeIndex(range(self.num_nodes))
        self.index = resolved

    def neighbor_ids(self, u: int) -> Sequence[int]:
        """The sorted neighbor run of ``u`` (a zero-copy slice)."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def __repr__(self) -> str:
        return f"CSRIdAdjacency(num_nodes={self.num_nodes})"


class GraphIdAdjacency(CSRIdAdjacency):
    """Id adjacency flattened once from a label-keyed :class:`Graph`.

    The one O(m) pass happens here, at the label↔id boundary; the
    kernels then run on the flat arrays exactly as they would over a
    mapped container.
    """

    __slots__ = ()

    def __init__(self, graph: Graph) -> None:
        index = NodeIndex.from_graph(graph)
        ids = index.ids()
        num_nodes = len(index)
        indptr = array("q", bytes(8 * (num_nodes + 1)))
        indices = array("q", bytes(8 * (2 * graph.num_edges)))
        adjacency = graph.adjacency()
        position = 0
        for u, label in enumerate(index.labels()):
            indptr[u] = position
            for v in sorted(ids[x] for x in adjacency[label]):
                indices[position] = v
                position += 1
        indptr[num_nodes] = position
        super().__init__(_FlatCSR(indptr, indices, num_nodes), index=index)


class LabelIdAdjacency:
    """Id adjacency bridged through a label-keyed neighbor function.

    Compatibility fallback for providers without an id-native neighbor
    query (the flat summary): each row is translated label→id at query
    time and sorted, so results match the id-native paths exactly.
    """

    __slots__ = ("_neighbors", "num_nodes", "index")

    def __init__(
        self,
        neighbors: Callable[[Label], Sequence[Label]],
        index: NodeIndex,
    ) -> None:
        self._neighbors = neighbors
        self.num_nodes = len(index)
        self.index = index

    def neighbor_ids(self, u: int) -> List[int]:
        """Sorted neighbor ids of ``u`` via the label-keyed provider."""
        ids = self.index.ids()
        label = self.index.label_of(u)
        return sorted(ids[x] for x in self._neighbors(label))

    def __repr__(self) -> str:
        return f"LabelIdAdjacency(num_nodes={self.num_nodes})"


def resolve_id_adjacency(provider):
    """Resolve any supported provider to an id adjacency with an ``index``.

    Raises ``TypeError`` for unsupported inputs, matching the historical
    contract of :func:`repro.algorithms.neighbors.as_neighbor_function`.
    """
    if isinstance(provider, CSRGraphView):
        # Already substrate-backed: reuse its (index, csr) directly
        # instead of re-flattening through the label facade.
        return CSRIdAdjacency(provider.substrate, index=provider.index)
    if isinstance(provider, Graph):
        return GraphIdAdjacency(provider)
    if isinstance(provider, HierarchicalSummary):
        indptr, indices = provider.row_table()
        return CSRIdAdjacency(
            _FlatCSR(indptr, indices, len(indptr) - 1),
            index=provider.hierarchy.subnode_index(),
        )
    if isinstance(provider, FlatSummary):
        index = NodeIndex(provider.group_of)
        return LabelIdAdjacency(provider.neighbors, index)
    if isinstance(provider, DenseAdjacency):
        return CSRIdAdjacency(provider.freeze())
    csr_method = getattr(provider, "csr", None)
    if callable(csr_method):
        return CSRIdAdjacency(csr_method())
    if hasattr(provider, "indptr") and hasattr(provider, "indices"):
        return CSRIdAdjacency(provider)
    raise TypeError(
        "provider must be a Graph, HierarchicalSummary, FlatSummary, or a "
        f"CSR-shaped substrate view, got {type(provider).__name__}"
    )


_rank_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def repr_rank(index: NodeIndex) -> List[int]:
    """Rank of each id when labels are sorted by ``repr``.

    ``rank[u]`` is the position label ``u`` takes in the legacy
    ``sorted(nodes, key=repr)`` order — the permutation the traversal
    and community shims pass to the kernels to reproduce the label-keyed
    visiting order bit for bit.

    Ranks are memoized per index object: indexes are grow-only and ids
    never re-label, so a cached permutation stays valid as long as the
    length matches.  Callers must treat the returned list as read-only.
    """
    cached = _rank_cache.get(index)
    if cached is not None and cached[0] == len(index):
        return cached[1]
    labels = index.labels()
    order = sorted(range(len(labels)), key=lambda u: repr(labels[u]))
    rank = [0] * len(labels)
    for position, u in enumerate(order):
        rank[u] = position
    _rank_cache[index] = (len(labels), rank)
    return rank
