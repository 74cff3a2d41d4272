"""Shared machinery for flat-model (Navlakha) summarizers.

Every baseline maintains a partition of the graph's nodes into groups
(candidate supernodes) and needs the same two primitives:

* the optimal encoding cost of the subedges between two groups (list the
  edges individually, or spend one superedge plus negative corrections);
* the *saving* of merging two groups, i.e. the normalized reduction of
  the groups' total encoding cost (Navlakha et al., Eq. used by
  RANDOMIZED/GREEDY and re-used by SWeG).

:class:`FlatGroupingState` provides both on top of per-group superneighbor
counters, so the baselines stay O(degree) per decision just like the
original algorithms.

Dense substrate
---------------
The state works on the dense integer-id substrate
(:class:`~repro.graphs.dense.DenseAdjacency`): members and node arguments
are contiguous node *ids* (assigned in graph node-insertion order, so for
the common 0..n-1 integer-labelled graphs id == label), the node → group
mapping is a plain list, and neighbor reads index the dense adjacency.
Original labels reappear only at the :meth:`to_summary` boundary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.exceptions import SummaryInvariantError
from repro.graphs.dense import DenseAdjacency
from repro.graphs.graph import Graph
from repro.graphs.staleness import ensure_fresh_views
from repro.model.flat import FlatSummary

__all__ = ["FlatGroupingState", "pair_encoding_cost"]


def pair_encoding_cost(subedges: int, possible: int) -> int:
    """Optimal flat-model cost of one group pair: min(list edges, superedge + corrections)."""
    if subedges <= 0:
        return 0
    return min(subedges, 1 + (possible - subedges))


class FlatGroupingState:
    """A mutable partition of dense node ids with superneighbor bookkeeping.

    The state tracks, for every group, the number of subedges to every
    other group (and within itself), which is all the flat model needs to
    evaluate encoding costs and merge savings.
    """

    def __init__(self, graph: Graph, dense: Optional[DenseAdjacency] = None) -> None:
        self.graph = graph
        ensure_fresh_views(graph.num_edges, dense=dense)
        self.dense = dense if dense is not None else DenseAdjacency.from_graph(graph)
        self.index = self.dense.index
        num_nodes = self.dense.num_nodes
        # Initially group id i == node id i, one singleton per node.
        self.members: Dict[int, Set[int]] = {node: {node} for node in range(num_nodes)}
        self.group_of: List[int] = list(range(num_nodes))
        self.group_adj: Dict[int, Dict[int, int]] = {node: {} for node in range(num_nodes)}
        self._next_id = num_nodes
        for u, v in self.dense.edge_ids():
            self._bump(u, v, 1)

    def _bump(self, group_a: int, group_b: int, delta: int) -> None:
        adj_a = self.group_adj[group_a]
        adj_a[group_b] = adj_a.get(group_b, 0) + delta
        if group_a != group_b:
            adj_b = self.group_adj[group_b]
            adj_b[group_a] = adj_b.get(group_a, 0) + delta

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def groups(self) -> List[int]:
        """Ids of all current groups."""
        return list(self.members)

    def size(self, group: int) -> int:
        """Number of nodes in ``group``."""
        return len(self.members[group])

    def neighbors(self, group: int) -> Set[int]:
        """Groups connected to ``group`` by at least one subedge (excluding itself)."""
        result = set(self.group_adj[group])
        result.discard(group)
        return result

    def two_hop_groups(self, group: int) -> Set[int]:
        """Groups within distance two of ``group`` (the merge-candidate pool)."""
        direct = self.neighbors(group)
        result = set(direct)
        for other in direct:
            result.update(self.group_adj[other])
        result.discard(group)
        return result

    def pair_cost(self, group_a: int, group_b: int) -> int:
        """Optimal encoding cost of the subedges between two groups (or within one)."""
        subedges = self.group_adj[group_a].get(group_b, 0)
        if group_a == group_b:
            size = self.size(group_a)
            possible = size * (size - 1) // 2
        else:
            possible = self.size(group_a) * self.size(group_b)
        return pair_encoding_cost(subedges, possible)

    def group_cost(self, group: int) -> int:
        """Navlakha cost of ``group``: sum of pair costs over all incident pairs."""
        return sum(self.pair_cost(group, other) for other in self.group_adj[group])

    def merged_cost(self, group_a: int, group_b: int) -> int:
        """Cost of the hypothetical merged group ``A ∪ B``."""
        size_a, size_b = self.size(group_a), self.size(group_b)
        merged_size = size_a + size_b
        adj_a, adj_b = self.group_adj[group_a], self.group_adj[group_b]
        cost = 0
        intra = (
            adj_a.get(group_a, 0) + adj_b.get(group_b, 0) + adj_a.get(group_b, 0)
        )
        cost += pair_encoding_cost(intra, merged_size * (merged_size - 1) // 2)
        others = (set(adj_a) | set(adj_b)) - {group_a, group_b}
        for other in others:
            subedges = adj_a.get(other, 0) + adj_b.get(other, 0)
            cost += pair_encoding_cost(subedges, merged_size * self.size(other))
        return cost

    def saving(self, group_a: int, group_b: int) -> float:
        """Normalized cost reduction of merging two groups (Navlakha's saving)."""
        cost_a = self.group_cost(group_a)
        cost_b = self.group_cost(group_b)
        overlap = self.pair_cost(group_a, group_b)
        denominator = cost_a + cost_b - overlap
        if denominator <= 0:
            return float("-inf")
        return 1.0 - self.merged_cost(group_a, group_b) / denominator

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_singleton(self, node: int) -> int:
        """Register a fresh singleton group for a (new) node id."""
        group_id = self._next_id
        self._next_id += 1
        self.members[group_id] = {node}
        while node >= len(self.group_of):
            self.group_of.append(-1)
        self.group_of[node] = group_id
        self.group_adj[group_id] = {}
        return group_id

    def insert_edge(self, u: int, v: int) -> None:
        """Record a new graph edge ``(u, v)`` (ids) in substrate and counters."""
        self.dense.add_edge(u, v)
        self._bump(self.group_of[u], self.group_of[v], 1)

    def delete_edge(self, u: int, v: int) -> None:
        """Remove the graph edge ``(u, v)`` (ids) from substrate and counters."""
        self.dense.remove_edge(u, v)
        self._bump(self.group_of[u], self.group_of[v], -1)

    def merge(self, group_a: int, group_b: int) -> int:
        """Merge two groups; returns the id of the surviving (larger) group."""
        if group_a == group_b:
            raise SummaryInvariantError("cannot merge a group with itself")
        if group_a not in self.members or group_b not in self.members:
            raise SummaryInvariantError("both groups must exist to merge")
        # Keep the larger member set to make the merge cost amortized.
        if self.size(group_b) > self.size(group_a):
            group_a, group_b = group_b, group_a
        members_b = self.members.pop(group_b)
        self.members[group_a].update(members_b)
        group_of = self.group_of
        for node in members_b:
            group_of[node] = group_a

        adj_a = self.group_adj[group_a]
        adj_b = self.group_adj.pop(group_b)
        intra = adj_a.pop(group_b, 0) + adj_b.pop(group_b, 0)
        adj_b.pop(group_a, 0)
        if intra:
            adj_a[group_a] = adj_a.get(group_a, 0) + intra
        for other, value in adj_b.items():
            adj_a[other] = adj_a.get(other, 0) + value
        for other in list(adj_a):
            if other in (group_a, group_b):
                continue
            other_adj = self.group_adj[other]
            other_adj.pop(group_b, None)
            other_adj[group_a] = adj_a[other]
        return group_a

    def move(self, node: int, target_group: Optional[int]) -> int:
        """Move node id ``node`` into ``target_group`` (or a fresh singleton when ``None``).

        Returns the id of the group the node ends up in.  Used by the
        incremental baseline (MoSSo), which relocates individual nodes
        rather than merging whole groups.
        """
        source = self.group_of[node]
        if target_group == source:
            return source
        if target_group is not None and target_group not in self.members:
            raise SummaryInvariantError(f"unknown target group {target_group}")
        # Detach from the source group.
        group_of = self.group_of
        self.members[source].discard(node)
        for neighbor in self.dense.neighbors[node]:
            self._bump(source, group_of[neighbor], -1)
        if target_group is None:
            target_group = self._next_id
            self._next_id += 1
            self.members[target_group] = set()
            self.group_adj[target_group] = {}
        self.members[target_group].add(node)
        group_of[node] = target_group
        for neighbor in self.dense.neighbors[node]:
            self._bump(target_group, group_of[neighbor], 1)
        if not self.members[source]:
            del self.members[source]
            leftovers = self.group_adj.pop(source)
            for other in leftovers:
                if other != source and other in self.group_adj:
                    self.group_adj[other].pop(source, None)
        return target_group

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def total_cost(self) -> int:
        """Navlakha encoding cost of the current grouping (without membership edges)."""
        total = 0
        for group, adjacency in self.group_adj.items():
            for other in adjacency:
                if other >= group:
                    total += self.pair_cost(group, other)
        return total

    def to_summary(self) -> FlatSummary:
        """Freeze the current grouping into an optimally encoded :class:`FlatSummary`.

        This is the boundary where dense ids are mapped back to the
        original node labels.
        """
        labels = self.index.labels()
        return FlatSummary.from_grouping(
            self.graph,
            ([labels[node] for node in group] for group in self.members.values()),
        )
