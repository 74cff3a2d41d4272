"""Connected components over any neighbor provider.

Connected components are another example of the algorithm family of the
paper's appendix (Sect. VIII-C): the graph is accessed only through
neighbor queries, so the exact same code runs on a raw graph or on a
summary via partial decompression.  The sweep itself runs id-native in
:func:`repro.algorithms.kernels.components_ids` over flat arrays — and,
unlike the historical ``set.pop`` discovery loop, its output order is
deterministic (components discovered by smallest id, then stably sorted
by size, descending).
"""

from __future__ import annotations

from typing import Hashable, List, Set

from repro.algorithms.kernels import components_ids
from repro.algorithms.neighbors import NeighborProvider, node_universe
from repro.algorithms.providers import resolve_id_adjacency
from repro.model.summary import HierarchicalSummary

__all__ = [
    "connected_components",
    "is_connected",
    "largest_component",
    "num_connected_components",
    "summary_components_ids",
]

Node = Hashable


def summary_components_ids(summary: HierarchicalSummary) -> List[List[int]]:
    """Connected components of a hierarchical summary, superedge-level.

    The shortcut behind ``query components`` on a summary: instead of
    decompressing per-node neighborhoods (|leaves(A)| ancestor walks per
    supernode, the :func:`~repro.algorithms.providers.resolve_id_adjacency`
    path), it works rectangle-by-rectangle over the P edges with a
    union-find on the leaf ids.

    For a P edge ``(A, B)`` whose leaf rectangle no N edge intersects
    (two supernodes intersect a rectangle exactly when each is
    hierarchy-comparable to one side), *every* covered pair has net
    coverage ``>= 1``, so ``leaves(A) + leaves(B)`` collapse into one
    component with ``O(|leaves|)`` union operations and zero
    decompression — P/H edges and the hierarchy alone.  Only the rare
    *dirty* rectangles (an intersecting N edge could cancel individual
    pairs) fall back to exact per-node neighbor reconstruction, so the
    result is always exactly the decompressed graph's components.  With
    no N edges at all — e.g. a perfectly clustered graph — the sweep
    never decompresses anything.

    Output convention matches :func:`~repro.algorithms.kernels.components_ids`:
    components discovered in ascending order of their smallest leaf id,
    then stably sorted by size, descending.  Leaf ids must be dense
    (:meth:`~repro.model.hierarchy.Hierarchy.leaf_ids_are_dense`);
    :func:`connected_components` takes the generic path otherwise.
    """
    hierarchy = summary.hierarchy
    num_leaves = hierarchy.num_subnodes
    parent = list(range(num_leaves))

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(a: int, b: int) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[max(root_a, root_b)] = min(root_a, root_b)

    comparable = hierarchy.is_ancestor
    n_edges = sorted(summary.n_edges())
    for a, b in sorted(summary.p_edges()):
        leaves_a = hierarchy.leaf_id_view(a)
        if a == b and len(leaves_a) < 2:
            continue
        leaves_b = hierarchy.leaf_id_view(b)
        dirty = any(
            (  # the N rectangle meets this one in at least one leaf pair
                (comparable(x, a) or comparable(a, x))
                and (comparable(y, b) or comparable(b, y))
            )
            or (
                (comparable(x, b) or comparable(b, x))
                and (comparable(y, a) or comparable(a, y))
            )
            for x, y in n_edges
        )
        if not dirty:
            anchor = leaves_a[0]
            for leaf in leaves_a:
                union(anchor, leaf)
            for leaf in leaves_b:
                union(anchor, leaf)
            continue
        other = set(leaves_b) if a != b else set(leaves_a)
        for u in leaves_a:
            for v in summary.neighbor_ids(u):
                if v in other:
                    union(u, v)

    members: dict = {}
    components: List[List[int]] = []
    for leaf in range(num_leaves):
        root = find(leaf)
        bucket = members.get(root)
        if bucket is None:
            bucket = []
            members[root] = bucket
            components.append(bucket)
        bucket.append(leaf)
    components.sort(key=len, reverse=True)
    return components


def connected_components(provider: NeighborProvider) -> List[Set[Node]]:
    """All connected components, largest first (stable order for equal sizes)."""
    if isinstance(provider, HierarchicalSummary) and provider.hierarchy.leaf_ids_are_dense():
        subnodes = provider.hierarchy.subnodes()
        return [
            {subnodes[u] for u in component}
            for component in summary_components_ids(provider)
        ]
    adjacency = resolve_id_adjacency(provider)
    labels = adjacency.index.labels()
    return [
        {labels[u] for u in component} for component in components_ids(adjacency)
    ]


def largest_component(provider: NeighborProvider) -> Set[Node]:
    """The node set of the largest connected component (empty set for empty input)."""
    components = connected_components(provider)
    return components[0] if components else set()


def num_connected_components(provider: NeighborProvider) -> int:
    """Number of connected components."""
    return len(connected_components(provider))


def is_connected(provider: NeighborProvider) -> bool:
    """Whether the represented graph is connected (vacuously true when empty)."""
    universe = node_universe(provider)
    if not universe:
        return True
    return len(largest_component(provider)) == len(universe)
