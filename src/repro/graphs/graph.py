"""Simple undirected graph structure used across the library.

The paper (Sect. II) works with simple undirected graphs without
self-loops; directions, duplicate edges, and self-loops are removed from
its datasets.  :class:`Graph` enforces exactly that contract: nodes are
arbitrary hashable identifiers (integers in practice), edges are
unordered pairs of distinct nodes, and adjacency is stored as
per-node sets for O(1) membership tests, which the summarizers rely on
heavily.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Set, Tuple

from repro.exceptions import InvalidGraphError
from repro.utils.rng import content_order

__all__ = ["Edge", "Graph", "Node", "canonical_edge"]

Node = Hashable
Edge = Tuple[Node, Node]


def canonical_edge(u: Node, v: Node) -> Edge:
    """Return the canonical (sorted) form of the undirected edge ``(u, v)``.

    Canonicalization lets edge sets and dictionaries treat ``(u, v)`` and
    ``(v, u)`` as the same key.  Nodes of mixed non-comparable types, and
    labels incomparable under a partial order (e.g. two disjoint
    frozensets, where neither ``u <= v`` nor ``v <= u``), fall back
    to ordering by ``repr`` — the same form :meth:`Graph.edges` yields.
    """
    try:
        if u <= v:  # type: ignore[operator]
            return (u, v)
        if v <= u:  # type: ignore[operator]
            return (v, u)
    except TypeError:
        pass
    return (u, v) if repr(u) <= repr(v) else (v, u)


class Graph:
    """A simple undirected graph with set-based adjacency.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs.  Duplicate edges are
        collapsed; self-loops raise :class:`InvalidGraphError`.
    nodes:
        Optional iterable of nodes to add even if isolated.

    Examples
    --------
    >>> g = Graph(edges=[(0, 1), (1, 2)])
    >>> g.num_nodes, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    def __init__(
        self,
        edges: Iterable[Edge] = (),
        nodes: Iterable[Node] = (),
    ) -> None:
        self._adjacency: Dict[Node, Set[Node]] = {}
        self._num_edges = 0
        self._mutations = 0
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` (a no-op if it already exists)."""
        if node not in self._adjacency:
            self._adjacency[node] = set()
            self._mutations += 1

    def add_edge(self, u: Node, v: Node) -> bool:
        """Add the undirected edge ``(u, v)``.

        Returns ``True`` if the edge was new, ``False`` if it already
        existed.  Self-loops are rejected because the model of Sect. II
        assumes simple graphs.
        """
        if u == v:
            raise InvalidGraphError(f"self-loops are not allowed (node {u!r})")
        self.add_node(u)
        self.add_node(v)
        if v in self._adjacency[u]:
            return False
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._num_edges += 1
        self._mutations += 1
        return True

    def remove_edge(self, u: Node, v: Node) -> bool:
        """Remove the undirected edge ``(u, v)`` if present; return whether it was."""
        if u in self._adjacency and v in self._adjacency[u]:
            self._adjacency[u].discard(v)
            self._adjacency[v].discard(u)
            self._num_edges -= 1
            self._mutations += 1
            return True
        return False

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._adjacency:
            return
        for neighbor in list(self._adjacency[node]):
            self.remove_edge(node, neighbor)
        del self._adjacency[node]
        self._mutations += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes |V|."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges |E|."""
        return self._num_edges

    @property
    def mutation_count(self) -> int:
        """Monotonic counter of structural mutations.

        Bumped by every node/edge addition or removal that changed the
        graph, including sequences that preserve node and edge counts —
        the signal cached-substrate consumers (the serving layer's graph
        store) use to detect that a derived view went stale.
        """
        return self._mutations

    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is in the graph."""
        return node in self._adjacency

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the undirected edge ``(u, v)`` is in the graph."""
        return u in self._adjacency and v in self._adjacency[u]

    def neighbors(self, node: Node) -> FrozenSet[Node]:
        """The neighbor set of ``node`` (raises ``KeyError`` if absent)."""
        if node not in self._adjacency:
            # repro-lint: disable=raise-taxonomy (documented mapping-style lookup contract)
            raise KeyError(f"node {node!r} is not in the graph")
        return frozenset(self._adjacency[node])

    def neighbor_set(self, node: Node) -> Set[Node]:
        """Internal adjacency set of ``node`` (not copied; do not mutate)."""
        return self._adjacency[node]

    def adjacency(self) -> Dict[Node, Set[Node]]:
        """The internal node → neighbor-set mapping (not copied; do not mutate).

        Hot paths iterate this directly to avoid a method call per node.
        """
        return self._adjacency

    def degree(self, node: Node) -> int:
        """Degree of ``node``."""
        if node not in self._adjacency:
            # repro-lint: disable=raise-taxonomy (documented mapping-style lookup contract)
            raise KeyError(f"node {node!r} is not in the graph")
        return len(self._adjacency[node])

    def nodes(self) -> List[Node]:
        """A list of all nodes."""
        return list(self._adjacency)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once, in canonical form.

        Each edge ``{u, v}`` is yielded from its canonical endpoint (the
        one with ``u <= v``, falling back to ``repr`` order for mixed
        non-comparable types), so the iteration needs no O(E) ``seen``
        set: the reverse encounter is simply skipped.  Labels whose
        ``<=`` is only a partial order (e.g. ``frozenset``) can be
        incomparable in *both* directions without raising; those pairs
        take the ``repr`` fallback as well, so the edge is still yielded
        exactly once.
        """
        for u, nbrs in self._adjacency.items():
            for v in nbrs:
                try:
                    if u <= v:  # type: ignore[operator]
                        yield (u, v)
                    elif not v <= u:  # type: ignore[operator]
                        # Incomparable under a partial order: neither
                        # endpoint wins by <=, so fall back to repr.
                        if repr(u) <= repr(v):
                            yield (u, v)
                except TypeError:
                    if repr(u) <= repr(v):
                        yield (u, v)

    def edge_set(self) -> Set[Edge]:
        """All edges as a set of canonical pairs."""
        return set(self.edges())

    def copy(self) -> "Graph":
        """An independent copy of the graph."""
        clone = Graph()
        clone._adjacency = {node: set(nbrs) for node, nbrs in self._adjacency.items()}
        clone._num_edges = self._num_edges
        return clone

    def relabeled(self) -> Tuple["Graph", Dict[Node, int]]:
        """Return a copy with nodes relabeled to ``0..n-1`` plus the mapping.

        Homogeneous comparable node sets (the common all-integer case) are
        ordered by their natural sort — sorting by ``repr`` would place 10
        before 2.  Mixed non-comparable types fall back to ``repr`` order.
        """
        ordered = content_order(self._adjacency)
        mapping = {node: index for index, node in enumerate(ordered)}
        relabeled = Graph(nodes=mapping.values())
        for u, v in self.edges():
            relabeled.add_edge(mapping[u], mapping[v])
        return relabeled, mapping

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adjacency

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adjacency)

    def __len__(self) -> int:
        return len(self._adjacency)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            set(self._adjacency) == set(other._adjacency)
            and self.edge_set() == other.edge_set()
        )

    def __hash__(self) -> int:  # Graphs are mutable; identity hash keeps them usable in ids only.
        return id(self)

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Graph":
        """Build a graph from an iterable of edges, skipping self-loops.

        Unlike :meth:`add_edge`, this constructor tolerates self-loops and
        duplicates in raw data (the paper's preprocessing removes them).
        """
        graph = cls()
        for u, v in edges:
            if u == v:
                continue
            graph.add_edge(u, v)
        return graph
