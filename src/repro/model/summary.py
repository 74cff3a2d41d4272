"""The hierarchical graph summarization model ``G = (S, P+, P-, H)``.

A :class:`HierarchicalSummary` couples a :class:`~repro.model.hierarchy.Hierarchy`
(the supernodes ``S`` and hierarchy edges ``H``) with two sets of
undirected superedges: positive edges ``P+`` and negative edges ``P-``.
Self-loops are allowed on both.  The represented graph contains a
subedge ``(u, v)`` if and only if strictly more p-edges than n-edges
cover the pair, where an edge ``{X, Y}`` covers ``(u, v)`` when one
endpoint supernode contains ``u`` and the other contains ``v``
(Sect. II-B of the paper).
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import (
    Dict, FrozenSet, Hashable, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple,
)

from repro.exceptions import SummaryInvariantError
from repro.graphs.dense import DenseAdjacency
from repro.graphs.graph import Graph, canonical_edge
from repro.graphs.staleness import mutation_stamp
from repro.model.hierarchy import Hierarchy

__all__ = ["HierarchicalSummary", "SummaryParts"]

Subnode = Hashable
SuperEdge = Tuple[int, int]


class SummaryParts(NamedTuple):
    """An immutable copy of a summary's ``(H, P+, P-)``, leaves by count.

    What :meth:`HierarchicalSummary.to_parts` returns and every summary
    encoder reads.  It holds only ints, tuples and frozensets, so it
    pickles and no later change to the summary reaches it.
    """

    num_leaves: int
    next_id: int
    #: ``(id, children)`` per internal supernode, ascending id, children verbatim.
    internal: Tuple[Tuple[int, Tuple[int, ...]], ...]
    p_edges: FrozenSet[SuperEdge]
    n_edges: FrozenSet[SuperEdge]


POSITIVE = 1
NEGATIVE = -1


def _canonical(a: int, b: int) -> SuperEdge:
    """Canonical (sorted) form of an undirected superedge, self-loops allowed."""
    return (a, b) if a <= b else (b, a)


class HierarchicalSummary:
    """Mutable hierarchical summary of an undirected graph.

    The summary does not keep a reference to the input graph; exactness
    is checked on demand with :meth:`validate`.

    Examples
    --------
    >>> from repro.graphs import complete_graph
    >>> graph = complete_graph(3)
    >>> summary = HierarchicalSummary.from_graph(graph)
    >>> summary.validate(graph)
    >>> summary.cost() == graph.num_edges
    True
    """

    def __init__(self, hierarchy: Optional[Hierarchy] = None) -> None:
        self.hierarchy = hierarchy if hierarchy is not None else Hierarchy()
        self._p_edges: Set[SuperEdge] = set()
        self._n_edges: Set[SuperEdge] = set()
        self._incident: Dict[int, Set[Tuple[int, int]]] = {}
        # Bumped by every superedge add/remove that changed P+ or P-.
        self._mutations = 0
        # Memoized row table (see row_table): the key it was built under,
        # ``(self._mutations, hierarchy, mutation_stamp(hierarchy))``, and
        # the ``(indptr, indices)`` arrays, stored as one tuple.
        self._rows: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_parts(
        cls,
        hierarchy: Hierarchy,
        p_edges: Iterable[SuperEdge],
        n_edges: Iterable[SuperEdge],
    ) -> "HierarchicalSummary":
        """The summary ``(hierarchy, P+, P-)`` — the one construction path.

        ``hierarchy`` comes from :meth:`Hierarchy.from_parts`; every
        decoder (containers, checkpoints, the compression pipeline, JSON)
        and :meth:`from_dense` build through this pair.  Pairs are
        canonicalized and added in the order given, which fixes the sets'
        iteration order, so equal inputs build bit-identical summaries.
        Raises :class:`SummaryInvariantError` on an endpoint that is not
        a live supernode, a pair given twice (in either orientation) or a
        pair in both P+ and P-.
        """
        summary = cls(hierarchy)
        live = hierarchy.size_map()  # keyed by exactly the live supernode ids
        incident = summary._incident
        positive = summary._p_edges
        for edges, sign, target, other in ((p_edges, POSITIVE, positive, ()),
                                           (n_edges, NEGATIVE, summary._n_edges, positive)):
            for a, b in edges:
                edge = (a, b) if a <= b else (b, a)
                if a not in live or b not in live:
                    raise SummaryInvariantError(f"superedge {edge} has an unknown endpoint")
                if edge in target:
                    raise SummaryInvariantError(f"superedge {edge} is repeated")
                if edge in other:
                    raise SummaryInvariantError(f"superedge {edge} is in both P+ and P-")
                target.add(edge)
                incident.setdefault(edge[0], set()).add((edge[1], sign))
                incident.setdefault(edge[1], set()).add((edge[0], sign))
        return summary

    @classmethod
    def from_dense(cls, dense: DenseAdjacency) -> "HierarchicalSummary":
        """The trivial summary: every subnode is a singleton root supernode
        and every subedge becomes a p-edge between two singletons.

        This is the initial state of SLUGGER (Algorithm 1, lines 1-4),
        built through :meth:`from_parts`: leaf id == dense node id, and
        the p-edges are the dense id pairs.
        """
        hierarchy = Hierarchy.from_parts(dense.index.labels(), ())
        return cls.from_parts(hierarchy, dense.edge_ids(), ())

    @classmethod
    def from_graph(cls, graph: Graph) -> "HierarchicalSummary":
        """The trivial summary of ``graph`` (see :meth:`from_dense`)."""
        return cls.from_dense(DenseAdjacency.from_graph(graph))

    def to_parts(self) -> SummaryParts:
        """The summary frozen into the parts :meth:`from_parts` takes.

        The inverse of the constructor pair: for the summary's subnodes
        ``labels``, ``from_parts(Hierarchy.from_parts(labels,
        parts.internal, parts.next_id), parts.p_edges, parts.n_edges)``
        rebuilds an equal summary.  Copying the ids is far cheaper than
        encoding them, so a running job takes its checkpoint snapshots
        with this and leaves the encode to the cache's writer.
        """
        num_leaves, internal, next_id = self.hierarchy.to_parts()
        return SummaryParts(num_leaves, next_id, internal,
                            frozenset(self._p_edges), frozenset(self._n_edges))

    # ------------------------------------------------------------------
    # Superedge mutation
    # ------------------------------------------------------------------
    def _check_supernode(self, supernode: int) -> None:
        if not self.hierarchy.contains(supernode):
            # repro-lint: disable=raise-taxonomy (documented mapping-style lookup contract)
            raise KeyError(f"unknown supernode id {supernode}")

    def add_p_edge(self, a: int, b: int) -> bool:
        """Add the positive superedge ``{a, b}``; returns whether it was new.

        Adding a p-edge where the same pair already carries an n-edge is
        rejected: the pair would cancel out and only waste encoding cost.
        """
        self._check_supernode(a)
        self._check_supernode(b)
        edge = _canonical(a, b)
        if edge in self._n_edges:
            raise SummaryInvariantError(f"superedge {edge} already present with negative sign")
        if edge in self._p_edges:
            return False
        self._p_edges.add(edge)
        self._incident.setdefault(edge[0], set()).add((edge[1], POSITIVE))
        self._incident.setdefault(edge[1], set()).add((edge[0], POSITIVE))
        self._mutations += 1
        return True

    def add_n_edge(self, a: int, b: int) -> bool:
        """Add the negative superedge ``{a, b}``; returns whether it was new."""
        self._check_supernode(a)
        self._check_supernode(b)
        edge = _canonical(a, b)
        if edge in self._p_edges:
            raise SummaryInvariantError(f"superedge {edge} already present with positive sign")
        if edge in self._n_edges:
            return False
        self._n_edges.add(edge)
        self._incident.setdefault(edge[0], set()).add((edge[1], NEGATIVE))
        self._incident.setdefault(edge[1], set()).add((edge[0], NEGATIVE))
        self._mutations += 1
        return True

    def add_edge(self, a: int, b: int, sign: int) -> bool:
        """Add a superedge with an explicit sign (+1 or -1)."""
        if sign == POSITIVE:
            return self.add_p_edge(a, b)
        if sign == NEGATIVE:
            return self.add_n_edge(a, b)
        raise ValueError(f"sign must be +1 or -1, got {sign}")

    def remove_p_edge(self, a: int, b: int) -> bool:
        """Remove the positive superedge ``{a, b}`` if present."""
        edge = _canonical(a, b)
        if edge not in self._p_edges:
            return False
        self._p_edges.discard(edge)
        self._discard_incident(edge, POSITIVE)
        return True

    def remove_n_edge(self, a: int, b: int) -> bool:
        """Remove the negative superedge ``{a, b}`` if present."""
        edge = _canonical(a, b)
        if edge not in self._n_edges:
            return False
        self._n_edges.discard(edge)
        self._discard_incident(edge, NEGATIVE)
        return True

    def remove_edge(self, a: int, b: int, sign: int) -> bool:
        """Remove a superedge with an explicit sign (+1 or -1)."""
        if sign == POSITIVE:
            return self.remove_p_edge(a, b)
        if sign == NEGATIVE:
            return self.remove_n_edge(a, b)
        raise ValueError(f"sign must be +1 or -1, got {sign}")

    def _discard_incident(self, edge: SuperEdge, sign: int) -> None:
        self._mutations += 1
        a, b = edge
        incident_a = self._incident.get(a)
        if incident_a is not None:
            incident_a.discard((b, sign))
            if not incident_a:
                del self._incident[a]
        if a != b:
            incident_b = self._incident.get(b)
            if incident_b is not None:
                incident_b.discard((a, sign))
                if not incident_b:
                    del self._incident[b]

    def replace_edges(
        self,
        removed: Iterable[Tuple[int, int, int]],
        added: Iterable[Tuple[int, int, int]],
    ) -> Set[Tuple[int, int, int]]:
        """Remove the signed superedges ``removed``, then add ``added``, in bulk.

        Each ``(x, y, sign)`` triple is handled as :meth:`remove_edge` and
        :meth:`add_edge` would handle it, in the order given, so P+, P-
        and the incident index see the same inserts and deletes in the
        same order as the one-edge-at-a-time path (an emptied incident set
        is deleted at once) and keep the same iteration orders.  Returns
        the added superedges as canonical ``(x, y, sign)`` records in a set
        built by successive adds.

        Raises :class:`SummaryInvariantError` when a removed superedge is
        not in the summary with its sign, or an added one has an endpoint
        that is not a live supernode or is already present with either
        sign; ``ValueError`` on a sign other than +1 or -1.
        """
        positive, negative, incident = self._p_edges, self._n_edges, self._incident
        changed = 0
        for x, y, sign in removed:
            if sign == POSITIVE:
                own = positive
            elif sign == NEGATIVE:
                own = negative
            else:
                raise ValueError(f"sign must be +1 or -1, got {sign}")
            a, b = edge = (x, y) if x <= y else (y, x)
            try:
                own.remove(edge)
            except KeyError:
                raise SummaryInvariantError(
                    f"superedge ({x}, {y}, {sign}) is not in the summary"
                ) from None
            members = incident[a]
            members.discard((b, sign))
            if not members:
                del incident[a]
            if a != b:
                members = incident[b]
                members.discard((a, sign))
                if not members:
                    del incident[b]
            changed += 1
        live = self.hierarchy.size_map()  # keyed by exactly the live supernode ids
        records: Set[Tuple[int, int, int]] = set()
        for x, y, sign in added:
            if sign == POSITIVE:
                own, other = positive, negative
            elif sign == NEGATIVE:
                own, other = negative, positive
            else:
                raise ValueError(f"sign must be +1 or -1, got {sign}")
            a, b = edge = (x, y) if x <= y else (y, x)
            if a not in live or b not in live:
                raise SummaryInvariantError(f"superedge {edge} has an unknown endpoint")
            if edge in own or edge in other:
                raise SummaryInvariantError(f"superedge {edge} is already present")
            own.add(edge)
            incident.setdefault(a, set()).add((b, sign))
            incident.setdefault(b, set()).add((a, sign))
            records.add((a, b, sign))
            changed += 1
        self._mutations += changed
        return records

    def check_incident_index(self) -> None:
        """Verify the incident index against P+ and P- (used by consistency checks).

        Raises :class:`SummaryInvariantError` unless every supernode's
        incident set holds exactly the signed neighbors its p- and n-edges
        imply, and no empty set is kept.
        """
        expected: Dict[int, Set[Tuple[int, int]]] = {}
        for edges, sign in ((self._p_edges, POSITIVE), (self._n_edges, NEGATIVE)):
            for a, b in edges:
                expected.setdefault(a, set()).add((b, sign))
                expected.setdefault(b, set()).add((a, sign))
        if self._incident == expected:
            return
        wrong = min(node for node in set(self._incident) | set(expected)
                    if self._incident.get(node) != expected.get(node))
        raise SummaryInvariantError(
            f"incident index of supernode {wrong} is {self._incident.get(wrong)!r}, "
            f"but P+/P- imply {expected.get(wrong)!r}"
        )

    # ------------------------------------------------------------------
    # Superedge queries
    # ------------------------------------------------------------------
    def has_p_edge(self, a: int, b: int) -> bool:
        """Whether the positive superedge ``{a, b}`` is present."""
        return _canonical(a, b) in self._p_edges

    def has_n_edge(self, a: int, b: int) -> bool:
        """Whether the negative superedge ``{a, b}`` is present."""
        return _canonical(a, b) in self._n_edges

    def p_edges(self) -> Iterator[SuperEdge]:
        """Iterate over positive superedges (canonical pairs)."""
        return iter(self._p_edges)

    def n_edges(self) -> Iterator[SuperEdge]:
        """Iterate over negative superedges (canonical pairs)."""
        return iter(self._n_edges)

    def incident_edges(self, supernode: int) -> List[Tuple[int, int]]:
        """Signed superedges incident to ``supernode`` as ``(other, sign)`` pairs."""
        return list(self._incident.get(supernode, ()))

    def degree(self, supernode: int) -> int:
        """Number of p/n superedges incident to ``supernode``."""
        return len(self._incident.get(supernode, ()))

    # ------------------------------------------------------------------
    # Cost (Eq. 1) and composition (Fig. 6)
    # ------------------------------------------------------------------
    @property
    def num_p_edges(self) -> int:
        """|P+|."""
        return len(self._p_edges)

    @property
    def num_n_edges(self) -> int:
        """|P-|."""
        return len(self._n_edges)

    @property
    def num_h_edges(self) -> int:
        """|H|."""
        return self.hierarchy.num_hierarchy_edges

    def cost(self) -> int:
        """Encoding cost Cost(G) = |P+| + |P-| + |H| (Eq. 1)."""
        return self.num_p_edges + self.num_n_edges + self.num_h_edges

    def relative_size(self, graph: Graph) -> float:
        """Relative output size Cost(G) / |E| (Eq. 10)."""
        if graph.num_edges == 0:
            raise SummaryInvariantError("relative size is undefined for an edgeless graph")
        return self.cost() / graph.num_edges

    def composition(self) -> Dict[str, int]:
        """Edge counts by type, as plotted in Fig. 6."""
        return {
            "p_edges": self.num_p_edges,
            "n_edges": self.num_n_edges,
            "h_edges": self.num_h_edges,
        }

    # ------------------------------------------------------------------
    # Decompression
    # ------------------------------------------------------------------
    def _covered_leaf_pairs(self, edge: SuperEdge) -> Iterator[Tuple[Subnode, Subnode]]:
        """Subnode pairs covered by one superedge, each yielded exactly once."""
        x, y = edge
        hierarchy = self.hierarchy
        if x == y:
            members = hierarchy.leaf_subnodes(x)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    u, v = members[i], members[j]
                    yield (u, v) if repr(u) <= repr(v) else (v, u)
            return
        leaves_x = hierarchy.leaf_subnodes(x)
        leaves_y = hierarchy.leaf_subnodes(y)
        seen: Set[Tuple[Subnode, Subnode]] = set()
        for u in leaves_x:
            for v in leaves_y:
                if u == v:
                    continue
                pair = (u, v) if repr(u) <= repr(v) else (v, u)
                if pair not in seen:
                    seen.add(pair)
                    yield pair

    def decompress(self) -> Graph:
        """Reconstruct the represented graph exactly.

        A subedge exists when the net coverage (p minus n) of the pair is
        strictly positive.
        """
        weights: Dict[Tuple[Subnode, Subnode], int] = {}
        for edge in self._p_edges:
            for pair in self._covered_leaf_pairs(edge):
                weights[pair] = weights.get(pair, 0) + 1
        for edge in self._n_edges:
            for pair in self._covered_leaf_pairs(edge):
                weights[pair] = weights.get(pair, 0) - 1
        graph = Graph(nodes=self.hierarchy.subnodes())
        for (u, v), weight in weights.items():
            if weight > 0:
                graph.add_edge(u, v)
        return graph

    def pair_weight(self, u: Subnode, v: Subnode) -> int:
        """Net coverage (p minus n) of the subnode pair ``(u, v)``.

        This is the quantity the model interpretation compares against
        zero; it is mostly used by tests and by the pruning invariants.
        """
        if u == v:
            raise ValueError("pair_weight() requires two distinct subnodes")
        ancestors_u = set(self.hierarchy.ancestors(self.hierarchy.leaf_of(u)))
        ancestors_v = set(self.hierarchy.ancestors(self.hierarchy.leaf_of(v)))
        weight = 0
        for edges, sign in ((self._p_edges, POSITIVE), (self._n_edges, NEGATIVE)):
            for x, y in edges:
                covers = (x in ancestors_u and y in ancestors_v) or (
                    x in ancestors_v and y in ancestors_u
                )
                if covers:
                    weight += sign
        return weight

    def neighbors(self, subnode: Subnode) -> Set[Subnode]:
        """One-hop neighbors of ``subnode`` by partial decompression (Alg. 4).

        The label-keyed form of :meth:`neighbor_ids`: only the superedges
        incident to the ancestors of ``subnode`` are touched, so the query
        cost is proportional to the encoding local to the queried node
        rather than to the whole summary.
        """
        hierarchy = self.hierarchy
        label_of = hierarchy.leaf_subnode_map()
        return {label_of[leaf] for leaf in self._neighbor_leaves(hierarchy.leaf_of(subnode))}

    def neighbor_ids(self, node_id: int) -> List[int]:
        """Sorted leaf ids adjacent to leaf ``node_id`` by partial decompression.

        Alg. 4 on dense ids: walks the superedges incident to the leaf's
        ancestors and keeps the far leaves whose net p-minus-n coverage
        is positive.  Leaf ids coincide with the node ids of an index
        built from the same graph, so no subnode labels are resolved.
        Analytics served off the summary (:mod:`repro.algorithms.kernels`)
        read the same rows from :meth:`row_table`, built once per summary.
        """
        if not self.hierarchy.is_leaf(node_id):
            # repro-lint: disable=raise-taxonomy (documented mapping-style lookup contract)
            raise KeyError(f"unknown leaf supernode id {node_id}")
        return sorted(self._neighbor_leaves(node_id))

    def _neighbor_leaves(self, node_id: int) -> Iterable[int]:
        """The leaves adjacent to leaf ``node_id``, unordered (Alg. 4).

        A superedge whose far end is off the ancestor chain is met
        exactly once and its leaves never contain ``node_id``, so its
        leaf tuple is appended to a flat positive or negative list as
        is.  Only a superedge with both ends on the chain (a self-loop,
        or a supernode and its own ancestor) is met from both ends: it
        is taken once, from its lower end, and covers the leaves of its
        upper end — which include ``node_id`` itself, dropped at the end.
        """
        leaf_ids = self.hierarchy.leaf_id_view
        incident = self._incident
        chain = self.hierarchy.ancestors(node_id)
        height = {ancestor: level for level, ancestor in enumerate(chain)}
        positive: List[int] = []
        negative: List[int] = []
        for level, ancestor in enumerate(chain):
            for other, sign in incident.get(ancestor, ()):
                # Nothing on the chain lies below the leaf itself (level 0).
                if level and height.get(other, level) < level:
                    continue
                (positive if sign == POSITIVE else negative).extend(leaf_ids(other))
        if negative:
            counts = Counter(positive)
            counts.subtract(negative)
            return [leaf for leaf, count in counts.items() if count > 0 and leaf != node_id]
        kept = set(positive)
        kept.discard(node_id)
        return kept

    def row_table(self) -> Tuple[array, array]:
        """Every leaf's sorted neighbor row as CSR ``(indptr, indices)`` arrays.

        Row ``u`` belongs to the ``u``-th subnode of
        :meth:`~repro.model.hierarchy.Hierarchy.subnode_index` and holds
        that index's ids, so ``indices[indptr[u]:indptr[u + 1]]`` is what
        :meth:`neighbor_ids` returns for its leaf.  Partial decompression
        (Alg. 4) runs once per leaf to build the table; every query on
        the summary then reads flat slices.  A hierarchy with gapped leaf
        ids (e.g. one built by interleaving ``add_leaf`` and
        ``create_parent``) has
        its rows translated through the leaf order, which is monotone in
        leaf id, so they stay sorted.

        Memoized (do not mutate the arrays) until a superedge is added or
        removed, the hierarchy changes
        (:attr:`~repro.model.hierarchy.Hierarchy.mutation_count`), or
        :attr:`hierarchy` is reassigned.  Racing threads build equal
        tables and the memo is one attribute store, so it needs no lock.
        The table holds 8 bytes per subnode plus 16 per graph edge (about
        2.4 MB for 10k nodes at average degree 30) and stays on the
        summary after the first query or :meth:`validate`; pickling (and
        so :func:`copy.deepcopy`) leaves it behind.
        """
        hierarchy = self.hierarchy
        key = (self._mutations, hierarchy, mutation_stamp(hierarchy))
        memo = self._rows
        # Hierarchy has no __eq__, so the key compares the forest by identity.
        if memo is not None and memo[:3] == key:
            return memo[3]
        leaves = hierarchy.leaf_subnode_map()
        position = None
        if not hierarchy.leaf_ids_are_dense():
            position = {leaf: u for u, leaf in enumerate(leaves)}
        indptr = array("q", [0])
        indices = array("q")
        for leaf in leaves:
            row = self._neighbor_leaves(leaf)
            if position is not None:
                row = [position[other] for other in row]
            indices.extend(sorted(row))
            indptr.append(len(indices))
        table = (indptr, indices)
        self._rows = key + (table,)
        return table

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, graph: Graph) -> None:
        """Raise :class:`SummaryInvariantError` unless the summary represents ``graph`` exactly.

        Compares every row of :meth:`row_table` with the graph's sorted
        id row from :func:`~repro.algorithms.providers.resolve_id_adjacency`,
        so nothing is decompressed into a :class:`Graph` and a
        :class:`~repro.graphs.view.CSRGraphView` is read off its substrate
        without thawing a row.  The table stays memoized on the summary
        afterwards (see :meth:`row_table`).
        """
        # Imported here: the providers module imports this one.
        from repro.algorithms.providers import resolve_id_adjacency

        summary_nodes = set(self.hierarchy.subnodes())
        graph_nodes = set(graph.nodes())
        if summary_nodes != graph_nodes:
            missing = graph_nodes - summary_nodes
            extra = summary_nodes - graph_nodes
            raise SummaryInvariantError(
                f"subnode mismatch: missing={sorted(map(repr, missing))[:5]} "
                f"extra={sorted(map(repr, extra))[:5]}"
            )
        indptr, indices = self.row_table()
        index = self.hierarchy.subnode_index()
        labels, ids = index.labels(), index.ids()
        truth = resolve_id_adjacency(graph)
        truth_labels = truth.index.labels()
        # Graph id -> summary id, or None when both indexes agree.
        to_mine = None if truth_labels == labels else [ids[label] for label in truth_labels]
        lost: Set[Tuple[Subnode, Subnode]] = set()
        spurious: Set[Tuple[Subnode, Subnode]] = set()
        for v in range(truth.num_nodes):
            expected = truth.neighbor_ids(v)
            if to_mine is None:
                u = v
            else:
                u = to_mine[v]
                expected = array("q", sorted(map(to_mine.__getitem__, expected)))
            row = indices[indptr[u]:indptr[u + 1]]
            # Both runs are sorted, so slice equality is row equality.
            if row == expected:
                continue
            # Both sides are symmetric, so a wrong pair shows in both rows;
            # it is recorded from its lower id only.
            label = labels[u]
            rebuilt = {labels[x] for x in row}
            wanted = {labels[x] for x in expected}
            lost.update(canonical_edge(label, other)
                        for other in wanted - rebuilt if ids[other] > u)
            spurious.update(canonical_edge(label, other)
                            for other in rebuilt - wanted if ids[other] > u)
        if lost or spurious:
            raise SummaryInvariantError(
                f"summary is not lossless: {len(lost)} edges lost "
                f"(e.g. {sorted(map(repr, lost))[:3]}), {len(spurious)} spurious "
                f"(e.g. {sorted(map(repr, spurious))[:3]})"
            )

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # The row table is a cache: a pickled summary is shipped without it.
        state = self.__dict__.copy()
        state["_rows"] = None
        return state

    def copy(self) -> "HierarchicalSummary":
        """A deep copy of the summary."""
        clone = HierarchicalSummary(self.hierarchy.copy())
        clone._p_edges = set(self._p_edges)
        clone._n_edges = set(self._n_edges)
        clone._incident = {node: set(edges) for node, edges in self._incident.items()}
        return clone

    def __repr__(self) -> str:
        return (
            f"HierarchicalSummary(p_edges={self.num_p_edges}, n_edges={self.num_n_edges}, "
            f"h_edges={self.num_h_edges}, cost={self.cost()})"
        )
