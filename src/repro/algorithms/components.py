"""Connected components over any neighbor provider.

Connected components are another example of the algorithm family of the
paper's appendix (Sect. VIII-C): the graph is accessed only through
neighbor queries, so the exact same code runs on a raw graph or on a
summary via partial decompression.  The sweep itself runs id-native in
:func:`repro.algorithms.kernels.components_ids` over flat arrays; on a
summary those are its memoized row table, the one every summary query
reads.  Unlike the historical ``set.pop`` discovery loop, its output
order is deterministic (components discovered by smallest id, then
stably sorted by size, descending).
"""

from __future__ import annotations

from typing import Hashable, List, Set

from repro.algorithms.kernels import components_ids
from repro.algorithms.neighbors import NeighborProvider, node_universe
from repro.algorithms.providers import resolve_id_adjacency

__all__ = [
    "connected_components",
    "is_connected",
    "largest_component",
    "num_connected_components",
]

Node = Hashable


def connected_components(provider: NeighborProvider) -> List[Set[Node]]:
    """All connected components, largest first (stable order for equal sizes)."""
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
