"""Per-root decomposition of the encoding cost (Sect. III-A of the paper).

SLUGGER's greedy decisions are driven by per-root costs: the hierarchy
cost ``Cost_H^A`` (Eq. 3), the superedge cost ``Cost_P_{A,B}`` per root
pair (Eq. 4), their per-root aggregate ``Cost_P^A`` (Eq. 5), and the
combined ``Cost_A`` (Eq. 6).  The functions here recompute those
quantities *from a finished summary*, independently of the incremental
bookkeeping the algorithm maintains — which makes them both an analysis
tool (which roots dominate the encoding?) and a cross-check that the
incremental counters and the definitions agree (Eq. 2 must hold).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.model.summary import HierarchicalSummary

__all__ = [
    "cost_decomposition",
    "cost_per_root",
    "hierarchy_cost_per_root",
    "superedge_cost_per_root",
    "superedge_cost_per_root_pair",
]

RootPair = Tuple[int, int]


def hierarchy_cost_per_root(summary: HierarchicalSummary) -> Dict[int, int]:
    """``Cost_H^A`` for every root ``A``: h-edges inside A's hierarchy tree (Eq. 3)."""
    hierarchy = summary.hierarchy
    costs: Dict[int, int] = {}
    for root in hierarchy.roots():
        # Every supernode in the tree except the root has exactly one
        # incoming h-edge from its parent.
        costs[root] = sum(1 for _ in hierarchy.descendants(root, include_self=False))
    return costs


def superedge_cost_per_root_pair(summary: HierarchicalSummary) -> Dict[RootPair, int]:
    """``Cost_P_{A,B}`` for every unordered root pair with at least one superedge (Eq. 4)."""
    root_of = summary.hierarchy.root_array()
    costs: Dict[RootPair, int] = {}
    for edges in (summary.p_edges(), summary.n_edges()):
        for a, b in edges:
            root_a, root_b = root_of[a], root_of[b]
            pair = (root_a, root_b) if root_a <= root_b else (root_b, root_a)
            costs[pair] = costs.get(pair, 0) + 1
    return costs


def superedge_cost_per_root(summary: HierarchicalSummary) -> Dict[int, int]:
    """``Cost_P^A`` for every root ``A``: superedges incident to its tree (Eq. 5)."""
    costs: Dict[int, int] = {root: 0 for root in summary.hierarchy.roots()}
    for (root_a, root_b), count in superedge_cost_per_root_pair(summary).items():
        costs[root_a] = costs.get(root_a, 0) + count
        if root_b != root_a:
            costs[root_b] = costs.get(root_b, 0) + count
    return costs


def cost_per_root(summary: HierarchicalSummary) -> Dict[int, int]:
    """``Cost_A = Cost_H^A + Cost_P^A`` for every root ``A`` (Eq. 6)."""
    hierarchy_costs = hierarchy_cost_per_root(summary)
    superedge_costs = superedge_cost_per_root(summary)
    return {
        root: hierarchy_costs.get(root, 0) + superedge_costs.get(root, 0)
        for root in summary.hierarchy.roots()
    }


def cost_decomposition(summary: HierarchicalSummary) -> Dict[str, float]:
    """Aggregate decomposition of Eq. 2 with consistency flags.

    The record reports the hierarchy and superedge parts of the cost,
    verifies that the per-root hierarchy costs sum to |H| and that the
    per-root-pair superedge costs sum to |P+| + |P-|, and includes the
    share of the total borne by the single most expensive root (a
    skewness indicator used by the analysis example).
    """
    hierarchy_costs = hierarchy_cost_per_root(summary)
    pair_costs = superedge_cost_per_root_pair(summary)
    total_hierarchy = sum(hierarchy_costs.values())
    total_superedges = sum(pair_costs.values())
    per_root = cost_per_root(summary)
    max_root_cost = max(per_root.values()) if per_root else 0
    total = summary.cost()
    return {
        "cost": float(total),
        "cost_h": float(total_hierarchy),
        "cost_p": float(total_superedges),
        "num_roots": float(len(per_root)),
        "max_root_cost": float(max_root_cost),
        "max_root_share": (max_root_cost / total) if total else 0.0,
        "matches_h_edges": float(total_hierarchy == summary.num_h_edges),
        "matches_p_n_edges": float(
            total_superedges == summary.num_p_edges + summary.num_n_edges
        ),
    }
