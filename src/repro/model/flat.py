"""The previous (flat) graph summarization model of Navlakha et al.

``FlatSummary`` represents a graph by a partition ``S`` of its nodes
into disjoint supernodes, a set ``P`` of superedges (self-loops allowed),
and correction sets ``C+``/``C-`` of subedges (Sect. II-A).  It is the
output model of every baseline (Randomized, Greedy, SWeG, SAGS, MoSSo)
and a special case of the hierarchical model, which is how the paper
compares costs across models (Eq. 11).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import SummaryInvariantError
from repro.graphs.graph import Graph, canonical_edge
from repro.utils.validation import require_type

__all__ = ["FlatSummary"]

Subnode = Hashable
GroupId = int
SubedgePair = Tuple[Subnode, Subnode]
SuperEdge = Tuple[GroupId, GroupId]


def _canonical_pair(a: GroupId, b: GroupId) -> SuperEdge:
    return (a, b) if a <= b else (b, a)


class FlatSummary:
    """A lossless flat summary ``(S, P, C+, C-)`` of an undirected graph.

    Instances are normally produced by :meth:`from_grouping`, which
    computes the optimal superedge/correction encoding for a fixed node
    partition — once ``S`` is chosen, that encoding is unique and cheap
    to compute (Sect. II-A).
    """

    def __init__(self) -> None:
        self.groups: Dict[GroupId, FrozenSet[Subnode]] = {}
        self.group_of: Dict[Subnode, GroupId] = {}
        self.superedges: Set[SuperEdge] = set()
        self.corrections_plus: Set[SubedgePair] = set()
        self.corrections_minus: Set[SubedgePair] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_grouping(cls, graph: Graph, groups: Iterable[Iterable[Subnode]]) -> "FlatSummary":
        """Build the optimal flat summary of ``graph`` for a fixed partition.

        Parameters
        ----------
        graph:
            The input graph.
        groups:
            An iterable of node groups forming a partition of the graph's
            nodes.  Groups may be given in any order; singletons may be
            omitted and are added automatically for uncovered nodes.
        """
        require_type(graph, Graph, "graph")
        summary = cls()
        covered: Set[Subnode] = set()
        next_id = 0
        for group in groups:
            members = frozenset(group)
            if not members:
                continue
            overlap = members & covered
            if overlap:
                raise SummaryInvariantError(
                    f"groups must be disjoint; nodes seen twice: {sorted(map(repr, overlap))[:5]}"
                )
            for node in members:
                if not graph.has_node(node):
                    raise SummaryInvariantError(f"group member {node!r} is not a node of the graph")
            summary.groups[next_id] = members
            for node in members:
                summary.group_of[node] = next_id
            covered |= members
            next_id += 1
        for node in graph.nodes():
            if node not in covered:
                summary.groups[next_id] = frozenset([node])
                summary.group_of[node] = next_id
                next_id += 1
        summary._encode(graph)
        return summary

    @classmethod
    def singletons(cls, graph: Graph) -> "FlatSummary":
        """The trivial summary where every node is its own supernode."""
        return cls.from_grouping(graph, ([node] for node in graph.nodes()))

    def _encode(self, graph: Graph) -> None:
        """Compute the optimal ``P``, ``C+``, ``C-`` for the current partition."""
        self.superedges.clear()
        self.corrections_plus.clear()
        self.corrections_minus.clear()
        # Count actual subedges per supernode pair in one pass over E.
        pair_edges: Dict[SuperEdge, List[SubedgePair]] = {}
        for u, v in graph.edges():
            pair = _canonical_pair(self.group_of[u], self.group_of[v])
            pair_edges.setdefault(pair, []).append(canonical_edge(u, v))
        for (a, b), edges in pair_edges.items():
            present = len(edges)
            if a == b:
                size = len(self.groups[a])
                possible = size * (size - 1) // 2
            else:
                possible = len(self.groups[a]) * len(self.groups[b])
            # Either list all present edges as C+ (cost `present`), or add a
            # superedge and list the missing pairs as C- (cost 1 + missing).
            if 1 + (possible - present) < present:
                self.superedges.add((a, b))
                missing = possible - present
                if missing:
                    edge_set = set(edges)
                    for u, v in self._pairs_between(a, b):
                        if canonical_edge(u, v) not in edge_set:
                            self.corrections_minus.add(canonical_edge(u, v))
            else:
                self.corrections_plus.update(edges)

    def _pairs_between(self, a: GroupId, b: GroupId) -> Iterator[SubedgePair]:
        """All potential subedges between supernodes ``a`` and ``b``."""
        if a == b:
            members = sorted(self.groups[a], key=repr)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    yield members[i], members[j]
        else:
            for u in self.groups[a]:
                for v in self.groups[b]:
                    yield u, v

    # ------------------------------------------------------------------
    # Cost
    # ------------------------------------------------------------------
    @property
    def num_superedges(self) -> int:
        """|P|."""
        return len(self.superedges)

    @property
    def num_corrections(self) -> int:
        """|C+| + |C-|."""
        return len(self.corrections_plus) + len(self.corrections_minus)

    def membership_edges(self) -> int:
        """|H*| of Eq. 11: one membership edge per subnode of each non-singleton supernode."""
        return sum(len(members) for members in self.groups.values() if len(members) >= 2)

    def cost(self) -> int:
        """Navlakha encoding cost |P| + |C+| + |C-|."""
        return self.num_superedges + self.num_corrections

    def cost_eq11(self) -> int:
        """Cost comparable with the hierarchical model (Eq. 11): adds |H*|."""
        return self.cost() + self.membership_edges()

    def relative_size(self, graph: Graph) -> float:
        """Relative output size under Eq. 11, as reported in Fig. 5(a)."""
        if graph.num_edges == 0:
            raise SummaryInvariantError("relative size is undefined for an edgeless graph")
        return self.cost_eq11() / graph.num_edges

    # ------------------------------------------------------------------
    # Decompression
    # ------------------------------------------------------------------
    def decompress(self) -> Graph:
        """Reconstruct the represented graph exactly."""
        graph = Graph(nodes=self.group_of)
        for a, b in self.superedges:
            for u, v in self._pairs_between(a, b):
                if u != v:
                    graph.add_edge(u, v)
        for u, v in self.corrections_minus:
            graph.remove_edge(u, v)
        for u, v in self.corrections_plus:
            graph.add_edge(u, v)
        return graph

    def neighbors(self, subnode: Subnode) -> Set[Subnode]:
        """One-hop neighbors of ``subnode`` by partial decompression."""
        if subnode not in self.group_of:
            # repro-lint: disable=raise-taxonomy (documented mapping-style lookup contract)
            raise KeyError(f"subnode {subnode!r} is not in the summary")
        group = self.group_of[subnode]
        result: Set[Subnode] = set()
        for a, b in self.superedges:
            if a == group and b == group:
                result |= set(self.groups[group])
            elif a == group:
                result |= set(self.groups[b])
            elif b == group:
                result |= set(self.groups[a])
        result.discard(subnode)
        for u, v in self.corrections_minus:
            if u == subnode:
                result.discard(v)
            elif v == subnode:
                result.discard(u)
        for u, v in self.corrections_plus:
            if u == subnode:
                result.add(v)
            elif v == subnode:
                result.add(u)
        return result

    # ------------------------------------------------------------------
    # Validation and stats
    # ------------------------------------------------------------------
    def validate(self, graph: Graph) -> None:
        """Raise :class:`SummaryInvariantError` unless the summary is exact for ``graph``."""
        if set(self.group_of) != set(graph.nodes()):
            raise SummaryInvariantError("flat summary does not cover exactly the graph's nodes")
        rebuilt = self.decompress()
        if rebuilt.edge_set() != graph.edge_set():
            lost = graph.edge_set() - rebuilt.edge_set()
            spurious = rebuilt.edge_set() - graph.edge_set()
            raise SummaryInvariantError(
                f"flat summary is not lossless: {len(lost)} edges lost, {len(spurious)} spurious"
            )

    def group_sizes(self) -> List[int]:
        """Sizes of all supernodes (descending)."""
        return sorted((len(members) for members in self.groups.values()), reverse=True)

    def num_non_singleton_groups(self) -> int:
        """Number of supernodes containing at least two subnodes."""
        return sum(1 for members in self.groups.values() if len(members) >= 2)

    def copy(self) -> "FlatSummary":
        """An independent copy: new dicts and sets, shared (immutable) member frozensets."""
        clone = FlatSummary()
        clone.groups = dict(self.groups)
        clone.group_of = dict(self.group_of)
        clone.superedges = set(self.superedges)
        clone.corrections_plus = set(self.corrections_plus)
        clone.corrections_minus = set(self.corrections_minus)
        return clone

    def __repr__(self) -> str:
        return (
            f"FlatSummary(groups={len(self.groups)}, superedges={self.num_superedges}, "
            f"corrections={self.num_corrections})"
        )
