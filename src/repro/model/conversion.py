"""Conversions and reports bridging the flat and hierarchical models.

Sect. II-B of the paper shows the flat model is a special case of the
hierarchical one: superedges become p-edges between root supernodes,
corrections become p/n-edges between singleton leaves, and supernode
membership becomes a height-1 hierarchy tree.  :func:`flat_to_hierarchical`
implements exactly that embedding, which also makes Eq. 10 and Eq. 11
agree on converted summaries.
"""

from __future__ import annotations

from typing import Dict

from repro.graphs.graph import Graph
from repro.model.flat import FlatSummary
from repro.model.hierarchy import Hierarchy
from repro.model.summary import HierarchicalSummary

__all__ = ["flat_to_hierarchical", "hierarchical_report", "singleton_summary"]


def singleton_summary(graph: Graph) -> HierarchicalSummary:
    """The trivial hierarchical summary of ``graph`` (Algorithm 1 initial state)."""
    return HierarchicalSummary.from_graph(graph)


def flat_to_hierarchical(flat: FlatSummary) -> HierarchicalSummary:
    """Embed a flat summary into the hierarchical model.

    Non-singleton supernodes become height-1 trees whose leaves are the
    member subnodes; superedges map to p-edges between the corresponding
    roots (or to self-loop p-edges); corrections map to p/n-edges between
    leaf supernodes.  The resulting hierarchical cost (Eq. 1) equals the
    flat cost under Eq. 11.
    """
    leaf_ids = {subnode: leaf for leaf, subnode in enumerate(flat.group_of)}
    root_of_group: Dict[int, int] = {}
    internal = []
    for group_id, members in flat.groups.items():
        if len(members) == 1:
            (only_member,) = tuple(members)
            root_of_group[group_id] = leaf_ids[only_member]
        else:
            root_of_group[group_id] = len(leaf_ids) + len(internal)
            internal.append((root_of_group[group_id],
                             [leaf_ids[member] for member in sorted(members, key=repr)]))
    return HierarchicalSummary.from_parts(
        Hierarchy.from_parts(flat.group_of, internal),
        [(root_of_group[a], root_of_group[b]) for a, b in flat.superedges]
        + [(leaf_ids[u], leaf_ids[v]) for u, v in flat.corrections_plus],
        [(leaf_ids[u], leaf_ids[v]) for u, v in flat.corrections_minus])


def hierarchical_report(summary: HierarchicalSummary) -> Dict[str, float]:
    """Structural statistics of a hierarchical summary used across experiments.

    Returns the encoding cost split by edge type, the number of
    supernodes and roots, the maximum tree height, and the average leaf
    depth (the Table IV / Table V metrics).
    """
    hierarchy = summary.hierarchy
    return {
        "cost": float(summary.cost()),
        "p_edges": float(summary.num_p_edges),
        "n_edges": float(summary.num_n_edges),
        "h_edges": float(summary.num_h_edges),
        "supernodes": float(hierarchy.num_supernodes),
        "roots": float(len(hierarchy.roots())),
        "max_height": float(hierarchy.max_height()),
        "average_leaf_depth": float(hierarchy.average_leaf_depth()),
    }
