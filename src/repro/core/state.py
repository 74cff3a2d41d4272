"""Mutable summarization state maintained while SLUGGER runs.

Besides the summary under construction, the state keeps per-root
bookkeeping that the merging step relies on:

* ``root_adj``  — for every pair of root trees, the number of subedges of
  the input graph between their leaf sets (the superneighbor counts that
  make saving evaluation O(degree) instead of O(|E|));
* ``pn_count`` — for every pair of root trees, the number of p/n-edges of
  the current encoding between them (``Cost^P_{A,B}`` of Eq. 4);
* ``pn_edges`` — the actual superedges between every pair of root trees,
  so a local re-encoding can remove them without scanning the summary.
  A re-encoding replaces a pair's bucket whole
  (:meth:`SluggerState.replace_between`): one bulk summary update and one
  ``pn_count``/``pn_total`` change per pair, not one per superedge;
* ``tree_h`` / ``tree_height`` — per-root hierarchy-edge counts
  (``Cost^H_A`` of Eq. 3) and tree heights (for the ``H_b`` variant).

Per-root leaf sets and leaf counts are maintained incrementally by the
hierarchy itself (see :class:`~repro.model.hierarchy.Hierarchy`):
``create_parent`` extends the memoized leaf index on every merge, so
:meth:`leaf_count` and :meth:`leaf_subnodes` are O(1)/O(size) lookups
rather than tree walks.  :meth:`check_consistency` cross-checks that
index against a fresh traversal along with the superedge counters.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.exceptions import SummaryInvariantError
from repro.graphs.dense import CSRAdjacency, DenseAdjacency
from repro.graphs.graph import Graph
from repro.graphs.staleness import ensure_fresh_views
from repro.model.summary import HierarchicalSummary

__all__ = ["SluggerState"]

Subnode = Hashable
RootPair = Tuple[int, int]


def _pair(a: int, b: int) -> RootPair:
    return (a, b) if a <= b else (b, a)


def _bump(table: Dict[int, Dict[int, int]], root_a: int, root_b: int) -> None:
    """Count one more item between two roots, in both directions."""
    table[root_a][root_b] = table[root_a].get(root_b, 0) + 1
    if root_a != root_b:
        table[root_b][root_a] = table[root_b].get(root_a, 0) + 1


class SluggerState:
    """All mutable data SLUGGER needs while merging root supernodes.

    The state mirrors the input graph onto the dense integer-id
    substrate (built here, or injected as ``dense``) and builds the
    trivial summary from it: :meth:`HierarchicalSummary.from_dense`
    numbers leaf supernodes ``0..n-1`` in ``dense.index`` order, so
    *dense node id == leaf supernode id*, and shingle rounds, candidate
    generation, the local encoder and pruning work directly on leaf ids
    with no label lookups.
    """

    def __init__(
        self,
        graph: Graph,
        dense: Optional[DenseAdjacency] = None,
        csr: Optional[CSRAdjacency] = None,
    ) -> None:
        self.graph = graph
        ensure_fresh_views(graph.num_edges, dense=dense, csr=csr)
        # A prebuilt substrate (service graph-store interning) is used as
        # is; its construction is deterministic in the graph, so injected
        # and self-built runs are bit-identical.
        self.dense: DenseAdjacency = (
            dense if dense is not None else DenseAdjacency.from_graph(graph)
        )
        self.summary = HierarchicalSummary.from_dense(self.dense)

        self.roots: Set[int] = set(self.summary.hierarchy.roots())
        self.root_adj: Dict[int, Dict[int, int]] = {root: {} for root in self.roots}
        self.pn_count: Dict[int, Dict[int, int]] = {root: {} for root in self.roots}
        # Incrementally maintained Cost^P_A per root (the sum of the
        # root's pn_count map), so saving evaluation reads it in O(1)
        # instead of re-summing a dict per candidate pair.  Every root is
        # a leaf with one p-edge per incident subedge: its degree.
        degrees = self.dense.degrees
        self.pn_total: Dict[int, int] = {root: degrees[root] for root in self.roots}
        self.pn_edges: Dict[RootPair, Set[Tuple[int, int, int]]] = {}
        self.tree_h: Dict[int, int] = {root: 0 for root in self.roots}
        self.tree_height: Dict[int, int] = {root: 0 for root in self.roots}

        # Root id == leaf id == node id and every edge is met once, so
        # each subedge is one unit subedge count, one unit p-edge count
        # and one singleton superedge bucket between its two leaves.
        root_adj, pn_count, pn_edges = self.root_adj, self.pn_count, self.pn_edges
        for u, v in self.dense.edge_ids():
            root_adj[u][v] = 1
            root_adj[v][u] = 1
            pn_edges[(u, v)] = {(u, v, 1)}
            pn_count[u][v] = 1
            pn_count[v][u] = 1

    def restore_summary(self, summary: HierarchicalSummary) -> None:
        """Adopt a checkpointed summary, rebuilding every per-root index.

        This is the resume path: the summary comes from a checkpoint
        container, rebuilt through the one construction path — the
        hierarchy in ascending-id order
        (:meth:`~repro.model.hierarchy.Hierarchy.from_parts`), then the
        sorted superedge lists
        (:meth:`~repro.model.summary.HierarchicalSummary.from_parts`) —
        so its iteration orders match the interrupted run's exactly.  The
        indices are reconstructed from the ground truth the same way
        :meth:`check_consistency` derives its expectations: ``root_adj``
        from the input edges, ``pn_count``/``pn_edges``/``pn_total``
        from the summary's superedges, ``tree_h`` from the subtree
        supernode counts and ``tree_height`` from the tree heights.
        Rebuild order is deterministic (sorted roots, sorted superedge
        pairs), so a resumed state is bit-compatible with the one the
        uninterrupted run would have carried.
        """
        hierarchy = summary.hierarchy
        self.summary = summary
        self.roots = set(hierarchy.roots())
        self.root_adj = {root: {} for root in sorted(self.roots)}
        self.pn_count = {root: {} for root in sorted(self.roots)}
        self.pn_edges = {}
        root_of = hierarchy.root_array()
        # Node id == leaf id on the dense substrate (both follow graph
        # insertion order), so edges map straight to roots.
        for leaf_u, leaf_v in self.dense.edge_ids():
            _bump(self.root_adj, root_of[leaf_u], root_of[leaf_v])
        for edges, sign in ((sorted(summary.p_edges()), 1), (sorted(summary.n_edges()), -1)):
            for x, y in edges:
                root_x, root_y = root_of[x], root_of[y]
                self.pn_edges.setdefault(_pair(root_x, root_y), set()).add((x, y, sign))
                _bump(self.pn_count, root_x, root_y)
        self.pn_total = {root: sum(counts.values()) for root, counts in self.pn_count.items()}
        self.tree_h = {}
        self.tree_height = {}
        for root in sorted(self.roots):
            # Cost^H_A = (#supernodes in the tree) - 1 hierarchy edges.
            subtree = sum(1 for _ in hierarchy.descendants(root))
            self.tree_h[root] = subtree - 1
            self.tree_height[root] = hierarchy.height(root)

    # ------------------------------------------------------------------
    # Superedge mutation (roots supplied by the caller to avoid tree walks)
    # ------------------------------------------------------------------
    def replace_between(
        self, root_a: int, root_b: int, superedges: Iterable[Tuple[int, int, int]]
    ) -> None:
        """Swap every superedge between two root trees for ``superedges``.

        The pair's ``pn_edges`` bucket is popped and its superedges leave
        the summary in bucket order; then ``superedges`` — signed ``(x, y,
        sign)`` triples between the two trees (or inside one, when
        ``root_a == root_b``) — are added in the order given.  The pair's
        two ``pn_count`` entries are deleted and re-inserted last, and the
        new bucket is a new ``pn_edges`` key: the same inserts and deletes,
        in the same order, as removing and adding the superedges one at a
        time, so every iteration order stays as that path leaves it.
        """
        pair = _pair(root_a, root_b)
        removed = self.pn_edges.pop(pair, ())
        added = self.summary.replace_edges(removed, superedges)
        if added:
            self.pn_edges[pair] = added
        delta = len(added) - len(removed)
        directions = [(root_a, root_b)] if root_a == root_b else [(root_a, root_b), (root_b, root_a)]
        for root, other in directions:
            counts = self.pn_count[root]
            count = counts.pop(other, 0) + delta
            if count:
                counts[other] = count
            self.pn_total[root] += delta

    # ------------------------------------------------------------------
    # Cost accessors (Eqs. 3-6)
    # ------------------------------------------------------------------
    def subedges_between(self, root_a: int, root_b: int) -> int:
        """Number of input-graph subedges between two root trees (or within one)."""
        return self.root_adj[root_a].get(root_b, 0)

    def pn_cost_between(self, root_a: int, root_b: int) -> int:
        """Cost^P_{A,B}: p/n-edges currently encoding the pair of root trees."""
        return self.pn_count[root_a].get(root_b, 0)

    def pn_cost_of(self, root: int) -> int:
        """Cost^P_A: p/n-edges incident to any supernode of the root's tree (O(1))."""
        return self.pn_total[root]

    def cost_of(self, root: int) -> int:
        """Cost_A = Cost^H_A + Cost^P_A (Eq. 6)."""
        return self.tree_h[root] + self.pn_total[root]

    def neighbor_roots(self, root: int) -> Set[int]:
        """Roots whose trees share a subedge or a superedge with ``root``'s tree."""
        neighbors = set(self.root_adj[root]) | set(self.pn_count[root])
        neighbors.discard(root)
        return neighbors

    def leaf_count(self, root: int) -> int:
        """Number of subnodes in ``root``'s tree (O(1), maintained on merges)."""
        return self.summary.hierarchy.size(root)

    def leaf_subnodes(self, root: int) -> List[Subnode]:
        """Subnodes of ``root``'s tree, served from the hierarchy's leaf index."""
        return self.summary.hierarchy.leaf_subnodes(root)

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge_roots(self, root_a: int, root_b: int) -> int:
        """Create a new root supernode containing ``root_a`` and ``root_b``.

        All per-root indices are re-keyed onto the new root.  The
        superedges themselves are not touched — re-encoding them is the
        merging step's job.
        """
        if root_a == root_b:
            raise SummaryInvariantError("cannot merge a root with itself")
        if root_a not in self.roots or root_b not in self.roots:
            raise SummaryInvariantError("both supernodes must be current roots to merge")
        hierarchy = self.summary.hierarchy
        merged = hierarchy.create_parent([root_a, root_b])

        self.roots.discard(root_a)
        self.roots.discard(root_b)
        self.roots.add(merged)

        self.tree_h[merged] = self.tree_h.pop(root_a) + self.tree_h.pop(root_b) + 2
        self.tree_height[merged] = 1 + max(
            self.tree_height.pop(root_a), self.tree_height.pop(root_b)
        )

        self.root_adj[merged] = self._merge_counter_maps(self.root_adj, root_a, root_b, merged)
        self.pn_count[merged] = self._merge_counter_maps(self.pn_count, root_a, root_b, merged)
        self.pn_total.pop(root_a)
        self.pn_total.pop(root_b)
        self.pn_total[merged] = sum(self.pn_count[merged].values())
        self._rekey_pn_edges(root_a, root_b, merged)
        return merged

    def _merge_counter_maps(
        self, table: Dict[int, Dict[int, int]], root_a: int, root_b: int, merged: int
    ) -> Dict[int, int]:
        """Combine the per-root counter maps of two roots into the merged root."""
        map_a = table.pop(root_a)
        map_b = table.pop(root_b)
        combined: Dict[int, int] = {}
        intra = map_a.pop(root_a, 0) + map_b.pop(root_b, 0)
        intra += map_a.pop(root_b, 0)
        map_b.pop(root_a, 0)
        if intra:
            combined[merged] = intra
        for source in (map_a, map_b):
            for other, value in source.items():
                combined[other] = combined.get(other, 0) + value
        for other in combined:
            if other == merged:
                continue
            other_map = table[other]
            other_map.pop(root_a, None)
            other_map.pop(root_b, None)
            other_map[merged] = combined[other]
        return combined

    def _rekey_pn_edges(self, root_a: int, root_b: int, merged: int) -> None:
        """Move superedge buckets keyed by the old roots onto the merged root.

        The affected pairs are enumerated from the merged root's counter
        map (already re-keyed by :meth:`_merge_counter_maps`), so this is
        O(degree of the merged root) instead of a scan over every bucket.
        """
        candidates: List[RootPair] = []
        for other in self.pn_count.get(merged, ()):
            if other == merged:
                candidates.append((root_a, root_a))
                candidates.append((root_b, root_b))
                candidates.append(_pair(root_a, root_b))
            else:
                candidates.append(_pair(root_a, other))
                candidates.append(_pair(root_b, other))
        for pair in candidates:
            records = self.pn_edges.pop(pair, None)
            if records is None:
                continue
            first, second = pair
            new_first = merged if first in (root_a, root_b) else first
            new_second = merged if second in (root_a, root_b) else second
            new_pair = _pair(new_first, new_second)
            self.pn_edges.setdefault(new_pair, set()).update(records)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def total_cost(self) -> int:
        """Encoding cost of the current summary (Eq. 1)."""
        return self.summary.cost()

    def check_consistency(self) -> None:
        """Verify the internal indices against the summary (used by tests).

        This covers the per-root counters and buckets, the summary's
        incident index, the hierarchy's leaf cache and the dense ids.

        Raises :class:`SummaryInvariantError` when a counter drifts from
        the ground truth; this is O(|summary|) and meant for small graphs.
        """
        hierarchy = self.summary.hierarchy
        root_of = hierarchy.root_array()
        expected_pn: Dict[RootPair, int] = {}
        for edges in (self.summary.p_edges(), self.summary.n_edges()):
            for x, y in edges:
                pair = _pair(root_of[x], root_of[y])
                expected_pn[pair] = expected_pn.get(pair, 0) + 1
        for pair, count in expected_pn.items():
            stored = self.pn_count[pair[0]].get(pair[1], 0)
            if stored != count:
                raise SummaryInvariantError(
                    f"pn_count for root pair {pair} is {stored}, expected {count}"
                )
        for root_a, counters in self.pn_count.items():
            for root_b, stored in counters.items():
                if expected_pn.get(_pair(root_a, root_b), 0) != stored:
                    raise SummaryInvariantError(
                        f"stale pn_count entry for root pair ({root_a}, {root_b})"
                    )
        for root, counters in self.pn_count.items():
            if self.pn_total.get(root) != sum(counters.values()):
                raise SummaryInvariantError(
                    f"pn_total for root {root} is {self.pn_total.get(root)}, "
                    f"expected {sum(counters.values())}"
                )
        if set(self.pn_total) != set(self.pn_count):
            raise SummaryInvariantError("pn_total keys drifted from pn_count keys")
        expected_adj: Dict[RootPair, int] = {}
        for u, v in self.dense.edge_ids():
            pair = _pair(root_of[u], root_of[v])
            expected_adj[pair] = expected_adj.get(pair, 0) + 1
        for pair, count in expected_adj.items():
            stored = self.root_adj[pair[0]].get(pair[1], 0)
            if stored != count:
                raise SummaryInvariantError(
                    f"root_adj for root pair {pair} is {stored}, expected {count}"
                )
        # Partner search prices a merge from the subedge maps alone, which
        # is exact only if p/n-edges between two trees imply subedges.
        for root, counters in self.pn_count.items():
            adjacent = self.root_adj[root]
            for other in counters:
                if other not in adjacent:
                    raise SummaryInvariantError(
                        f"root pair ({root}, {other}) has p/n-edges but no subedges"
                    )
        for pair, records in self.pn_edges.items():
            if not records:
                raise SummaryInvariantError(f"empty superedge bucket kept for root pair {pair}")
            for x, y, _sign in records:
                actual = _pair(root_of[x], root_of[y])
                if actual != pair:
                    raise SummaryInvariantError(
                        f"superedge ({x}, {y}) filed under root pair {pair}, belongs to {actual}"
                    )
            stored = self.pn_count[pair[0]].get(pair[1], 0)
            if stored != len(records):
                raise SummaryInvariantError(
                    f"pn_count for root pair {pair} is {stored}, "
                    f"but its bucket holds {len(records)} superedges"
                )
        self.summary.check_incident_index()
        hierarchy.verify_leaf_cache()
        if self.roots != set(hierarchy.roots()):
            raise SummaryInvariantError("the root index disagrees with the hierarchy")
        if self.dense.num_edges != self.graph.num_edges:
            raise SummaryInvariantError("dense substrate edge count drifted from the graph")
        for node_id, label in enumerate(self.dense.index.labels()):
            if hierarchy.leaf_of(label) != node_id:
                raise SummaryInvariantError(
                    f"dense id {node_id} (label {label!r}) does not match its leaf id"
                )
