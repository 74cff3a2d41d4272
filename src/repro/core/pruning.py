"""The pruning step of SLUGGER (Sect. III-B4, Algorithm 3).

After the merge phase, some supernodes no longer earn their keep: they
carry hierarchy edges without enabling any cheaper encoding.  Pruning
removes them without changing what the summary represents.  Three
substeps are applied (and can be repeated, since substep 3 may expose new
opportunities for substeps 1 and 2):

1. remove non-leaf supernodes with no incident p/n-edge, splicing their
   children up to their parent;
2. remove non-leaf root supernodes with exactly one incident non-loop
   p/n-edge, pushing that edge down to their children with the
   appropriate signs;
3. for every pair of root trees, fall back to the flat (Navlakha-model)
   encoding of the subedges between them whenever it is cheaper than the
   current hierarchical encoding.

All operations strictly decrease the encoding cost and preserve
losslessness; the latter is exercised by the property-based tests.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.graphs.graph import Graph
from repro.model.summary import NEGATIVE, POSITIVE, HierarchicalSummary

__all__ = [
    "prune",
    "prune_edgeless_supernodes",
    "prune_single_edge_roots",
    "reencode_root_pairs_flat",
]

Subnode = Hashable
RootPair = Tuple[int, int]

#: The verdict for one root pair: ``None`` (keep the hierarchical
#: encoding) or a plan — ``("blanket", n_edge_leaf_pairs)`` for the
#: superedge-plus-corrections form, ``("leaves", p_edge_leaf_pairs)``
#: for the individual-subedge form.
FlatPlan = Tuple[str, List[Tuple[int, int]]]


def _fresh_profile() -> Dict[str, Any]:
    return {
        "rounds": 0,
        "pairs_scanned": 0,
        "pairs_reencoded": 0,
        "edgeless_seconds": 0.0,
        "single_edge_seconds": 0.0,
        "reencode_seconds": 0.0,
    }


def prune(
    graph: Graph,
    summary: HierarchicalSummary,
    rounds: int = 2,
    profile: Optional[Dict[str, Any]] = None,
) -> Dict[str, int]:
    """Run the pruning substeps in place; returns per-substep change counters.

    ``rounds`` bounds how many times the three substeps are repeated; the
    loop stops early once a full round changes nothing.

    ``profile``, when given, is filled in place with per-substep wall
    times and pair counters (see
    :func:`repro.analysis.cost_breakdown.pruning_profile`).
    """
    totals = {"substep1": 0, "substep2": 0, "substep3": 0}
    timings = _fresh_profile()
    for _ in range(max(rounds, 0)):
        timings["rounds"] += 1
        started = time.perf_counter()
        removed_silent = prune_edgeless_supernodes(summary)
        mid = time.perf_counter()
        timings["edgeless_seconds"] += mid - started
        removed_single = prune_single_edge_roots(summary)
        ended = time.perf_counter()
        timings["single_edge_seconds"] += ended - mid
        reencoded = reencode_root_pairs_flat(graph, summary, profile=timings)
        totals["substep1"] += removed_silent
        totals["substep2"] += removed_single
        totals["substep3"] += reencoded
        if removed_silent == 0 and removed_single == 0 and reencoded == 0:
            break
    if profile is not None:
        profile.update(timings)
    return totals


# ----------------------------------------------------------------------
# Substep 1
# ----------------------------------------------------------------------
def prune_edgeless_supernodes(summary: HierarchicalSummary) -> int:
    """Remove internal supernodes with no incident p/n-edge (Algorithm 3, step 1).

    The candidate scan is a pure read over the supernode list, and the
    splices are applied in scan order — splicing an edgeless supernode
    never changes another supernode's degree or leaf-ness.
    """
    hierarchy = summary.hierarchy
    removable = [
        node
        for node in hierarchy.supernodes()
        if not hierarchy.is_leaf(node) and summary.degree(node) == 0
    ]
    for node in removable:
        hierarchy.splice_out(node)
    return len(removable)


# ----------------------------------------------------------------------
# Substep 2
# ----------------------------------------------------------------------
def prune_single_edge_roots(summary: HierarchicalSummary) -> int:
    """Remove non-leaf roots with exactly one incident non-loop edge (step 2).

    The single edge ``(A, B)`` is replaced by edges between ``B`` and the
    children of ``A``: an existing opposite-sign edge cancels out and is
    removed, otherwise a same-sign edge is added.  The hierarchy edges of
    ``A`` disappear, so the total cost drops by at least one.
    """
    hierarchy = summary.hierarchy
    queue: List[int] = [root for root in hierarchy.roots() if not hierarchy.is_leaf(root)]
    removed = 0
    while queue:
        root = queue.pop()
        if not hierarchy.contains(root) or hierarchy.is_leaf(root) or not hierarchy.is_root(root):
            continue
        incident = summary.incident_edges(root)
        if len(incident) != 1:
            continue
        other, sign = incident[0]
        if other == root:
            continue  # A self-loop cannot be pushed down this way.
        if hierarchy.is_ancestor(root, other):
            continue  # Nested superedges are never produced, but stay safe.
        children = hierarchy.children(root)
        summary.remove_edge(root, other, sign)
        for child in children:
            if summary.has_p_edge(child, other) or summary.has_n_edge(child, other):
                opposite = NEGATIVE if sign == POSITIVE else POSITIVE
                if (sign == POSITIVE and summary.has_n_edge(child, other)) or (
                    sign == NEGATIVE and summary.has_p_edge(child, other)
                ):
                    summary.remove_edge(child, other, opposite)
                # A same-sign edge already provides the required coverage.
            else:
                summary.add_edge(child, other, sign)
        hierarchy.splice_out(root)
        removed += 1
        queue.extend(child for child in children if not hierarchy.is_leaf(child))
    return removed


# ----------------------------------------------------------------------
# Substep 3
# ----------------------------------------------------------------------
def _flat_plan(
    graph: Graph,
    hierarchy,
    pair: RootPair,
    current: Sequence[Tuple[int, int, int]],
    present: Sequence[Tuple[Subnode, Subnode]],
) -> Optional[FlatPlan]:
    """The flat re-encode plan for one root pair, or ``None`` to keep it.

    Pure function of the (immutable during substep 3) graph and
    hierarchy plus the pair's index entries.
    """
    root_a, root_b = pair
    num_present = len(present)
    current_cost = len(current)
    if root_a == root_b:
        size = hierarchy.size(root_a)
        possible = size * (size - 1) // 2
    else:
        possible = hierarchy.size(root_a) * hierarchy.size(root_b)
    if num_present == 0:
        flat_cost = 0
    else:
        flat_cost = min(num_present, 1 + possible - num_present)
    if flat_cost >= current_cost:
        return None
    leaf_of = hierarchy.leaf_of
    if num_present and 1 + possible - num_present < num_present:
        corrections = [
            (leaf_of(u), leaf_of(v))
            for u, v in _missing_pairs(graph, hierarchy, root_a, root_b)
        ]
        return ("blanket", corrections)
    return ("leaves", [(leaf_of(u), leaf_of(v)) for u, v in present])


def _apply_plan(
    summary: HierarchicalSummary,
    pair: RootPair,
    current: Sequence[Tuple[int, int, int]],
    plan: FlatPlan,
) -> None:
    """Replace one pair's hierarchical encoding with its flat plan."""
    for x, y, sign in current:
        summary.remove_edge(x, y, sign)
    kind, edges = plan
    if kind == "blanket":
        root_a, root_b = pair
        summary.add_p_edge(root_a, root_b)
        for x, y in edges:
            summary.add_n_edge(x, y)
    else:
        for x, y in edges:
            summary.add_p_edge(x, y)


def reencode_root_pairs_flat(
    graph: Graph,
    summary: HierarchicalSummary,
    profile: Optional[Dict[str, Any]] = None,
) -> int:
    """Fall back to the flat-model encoding per root pair when cheaper (step 3).

    For each pair of root trees (and each single root tree) the flat model
    either lists the subedges individually or uses one superedge between
    the roots plus per-pair negative corrections; whichever of the two is
    cheaper is compared against the current hierarchical encoding of the
    pair and substituted when it wins.  Pairs are visited in canonical
    (sorted) order.  Returns the number of re-encoded root pairs.
    """
    started = time.perf_counter()
    hierarchy = summary.hierarchy
    pair_edges = _superedges_by_root_pair(summary)
    pair_subedges = _subedges_by_root_pair(graph, summary)
    pairs = sorted(set(pair_edges) | set(pair_subedges))
    changed = 0
    for pair in pairs:
        current = pair_edges.get(pair, ())
        plan = _flat_plan(graph, hierarchy, pair, current, pair_subedges.get(pair, ()))
        if plan is not None:
            _apply_plan(summary, pair, current, plan)
            changed += 1
    if profile is not None:
        for key, value in _fresh_profile().items():
            profile.setdefault(key, value)
        profile["pairs_scanned"] += len(pairs)
        profile["pairs_reencoded"] += changed
        profile["reencode_seconds"] += time.perf_counter() - started
    return changed


def _superedges_by_root_pair(
    summary: HierarchicalSummary,
) -> Dict[RootPair, List[Tuple[int, int, int]]]:
    """Index all p/n-edges by the (canonical) pair of root trees they connect."""
    hierarchy = summary.hierarchy
    root_cache: Dict[int, int] = {}

    def root_of(node: int) -> int:
        cached = root_cache.get(node)
        if cached is None:
            cached = hierarchy.root_of(node)
            root_cache[node] = cached
        return cached

    index: Dict[RootPair, List[Tuple[int, int, int]]] = {}
    for edges, sign in ((summary.p_edges(), POSITIVE), (summary.n_edges(), NEGATIVE)):
        for x, y in edges:
            pair = _ordered(root_of(x), root_of(y))
            index.setdefault(pair, []).append((x, y, sign))
    return index


def _subedges_by_root_pair(
    graph: Graph, summary: HierarchicalSummary
) -> Dict[RootPair, List[Tuple[Subnode, Subnode]]]:
    """Index all input subedges by the (canonical) pair of root trees they connect."""
    hierarchy = summary.hierarchy
    root_of_subnode: Dict[Subnode, int] = {}
    for subnode in hierarchy.subnodes():
        root_of_subnode[subnode] = hierarchy.root_of(hierarchy.leaf_of(subnode))
    index: Dict[RootPair, List[Tuple[Subnode, Subnode]]] = {}
    for u, v in graph.edges():
        pair = _ordered(root_of_subnode[u], root_of_subnode[v])
        index.setdefault(pair, []).append((u, v))
    return index


def _missing_pairs(
    graph: Graph, hierarchy, root_a: int, root_b: int
) -> List[Tuple[Subnode, Subnode]]:
    """Non-adjacent subnode pairs between (or within) the given root trees."""
    pairs: List[Tuple[Subnode, Subnode]] = []
    if root_a == root_b:
        members = hierarchy.leaf_subnodes(root_a)
        for i in range(len(members)):
            neighbor_set = graph.neighbor_set(members[i])
            for j in range(i + 1, len(members)):
                if members[j] not in neighbor_set:
                    pairs.append((members[i], members[j]))
        return pairs
    members_b = hierarchy.leaf_subnodes(root_b)
    for u in hierarchy.leaf_subnodes(root_a):
        neighbor_set = graph.neighbor_set(u)
        for v in members_b:
            if v not in neighbor_set:
                pairs.append((u, v))
    return pairs


def _ordered(a: int, b: int) -> RootPair:
    return (a, b) if a <= b else (b, a)
