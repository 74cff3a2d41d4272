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
from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import SummaryInvariantError
from repro.graphs.dense import DenseAdjacency
from repro.model.summary import NEGATIVE, POSITIVE, HierarchicalSummary

__all__ = [
    "prune",
    "prune_edgeless_supernodes",
    "prune_single_edge_roots",
    "reencode_root_pairs_flat",
]


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
    dense: DenseAdjacency,
    summary: HierarchicalSummary,
    rounds: int = 2,
    profile: Optional[Dict[str, Any]] = None,
) -> Dict[str, int]:
    """Run the pruning substeps in place; returns per-substep change counters.

    ``dense`` is the input graph on dense ids; leaf ``i`` of the summary
    must wrap its node ``i`` (:class:`SummaryInvariantError` otherwise).
    ``rounds`` bounds how many times the three substeps are repeated; the
    loop stops early once a full round changes nothing.

    ``profile``, when given, is filled in place with the rounds run
    (``rounds``), the pair counters (``pairs_scanned``,
    ``pairs_reencoded``) and per-substep wall times
    (``edgeless_seconds``, ``single_edge_seconds``,
    ``reencode_seconds``).
    """
    _require_dense_leaves(dense, summary.hierarchy)
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
        reencoded = reencode_root_pairs_flat(dense, summary, profile=timings)
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
def reencode_root_pairs_flat(
    dense: DenseAdjacency,
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

    ``dense`` is the input graph on dense ids, and leaf ``i`` of the
    summary must wrap its node ``i``.  The decision needs only per-pair
    counts: subedges from ``dense.edge_ids()`` and p/n-edges from the
    summary, keyed by the int ``a * stride + b`` of the root pair
    ``a <= b``.  Only the pairs that re-encode read superedges and
    ``dense`` rows.
    """
    started = time.perf_counter()
    hierarchy = summary.hierarchy
    _require_dense_leaves(dense, hierarchy)
    root_of = hierarchy.root_array()
    stride = len(root_of)

    def pair_counts(edges) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for x, y in edges:
            a, b = root_of[x], root_of[y]
            key = a * stride + b if a <= b else b * stride + a
            counts[key] = counts.get(key, 0) + 1
        return counts

    subedges = pair_counts(dense.edge_ids())
    superedges = pair_counts(chain(summary.p_edges(), summary.n_edges()))
    pairs = sorted(subedges.keys() | superedges.keys())
    size = hierarchy.size
    # Re-encoded pair key -> whether it takes the blanket form.
    blankets: Dict[int, bool] = {}
    for key in pairs:
        root_a, root_b = divmod(key, stride)
        present = subedges.get(key, 0)
        if root_a == root_b:
            possible = size(root_a) * (size(root_a) - 1) // 2
        else:
            possible = size(root_a) * size(root_b)
        blanket_cost = 1 + possible - present
        flat_cost = min(present, blanket_cost) if present else 0
        if flat_cost < superedges.get(key, 0):
            blankets[key] = blanket_cost < present

    if blankets:
        current: Dict[int, List[Tuple[int, int, int]]] = {key: [] for key in blankets}
        for edges, sign in ((summary.p_edges(), POSITIVE), (summary.n_edges(), NEGATIVE)):
            for x, y in edges:
                a, b = root_of[x], root_of[y]
                records = current.get(a * stride + b if a <= b else b * stride + a)
                if records is not None:
                    records.append((x, y, sign))
        for key, blanket in blankets.items():
            for x, y, sign in current[key]:
                summary.remove_edge(x, y, sign)
            root_a, root_b = divmod(key, stride)
            leaves_b = hierarchy.leaf_id_view(root_b)
            if blanket:
                summary.add_p_edge(root_a, root_b)
            for i, u in enumerate(hierarchy.leaf_id_view(root_a)):
                row = dense.neighbors[u]
                if blanket:
                    others = leaves_b[i + 1:] if root_a == root_b else leaves_b
                    for v in others:
                        if v not in row:
                            summary.add_n_edge(u, v)
                else:
                    for v in row:
                        if root_of[v] == root_b and (root_a != root_b or u < v):
                            summary.add_p_edge(u, v)

    if profile is not None:
        for name, value in _fresh_profile().items():
            profile.setdefault(name, value)
        profile["pairs_scanned"] += len(pairs)
        profile["pairs_reencoded"] += len(blankets)
        profile["reencode_seconds"] += time.perf_counter() - started
    return len(blankets)


def _require_dense_leaves(dense: DenseAdjacency, hierarchy) -> None:
    """Raise unless leaf ``i`` of ``hierarchy`` wraps ``dense`` node ``i``.

    Substep 3 maps subedges to trees by id, so a summary whose leaves
    were interleaved with parents, or built over another substrate,
    would be re-encoded with the wrong leaves.
    """
    if not (
        hierarchy.leaf_ids_are_dense()
        and hierarchy.num_subnodes == dense.num_nodes
        and hierarchy.subnodes() == dense.index.labels()
    ):
        raise SummaryInvariantError(
            "pruning needs leaf i to wrap dense node i "
            "(build the summary with HierarchicalSummary.from_dense)"
        )
