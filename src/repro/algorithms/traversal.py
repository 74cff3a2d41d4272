"""Breadth-first and depth-first traversal over any neighbor provider."""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

from repro.algorithms.kernels import bfs_distances_ids, bfs_sweep_ids, dfs_order_ids
from repro.algorithms.neighbors import NeighborProvider
from repro.algorithms.providers import repr_rank, resolve_id_adjacency

__all__ = ["bfs_distances", "bfs_order", "bfs_sweep", "connected_component_of", "dfs_order"]

Subnode = Hashable


def bfs_order(provider: NeighborProvider, source: Subnode) -> List[Subnode]:
    """Nodes reachable from ``source`` in breadth-first visiting order.

    Neighbors are expanded in ``repr``-sorted order (via a rank
    permutation handed to the id kernel), matching the historical
    label-keyed traversal exactly.
    """
    return bfs_sweep(provider, source)[0]


def bfs_sweep(provider: NeighborProvider, source: Subnode) -> Tuple[List[Subnode], int]:
    """``(bfs_order(...), eccentricity of source)`` from one traversal.

    The eccentricity equals ``max(bfs_distances(...).values())`` (0 for
    an isolated source); computing both from one pass reads every
    reached neighbor row once instead of twice.
    """
    adjacency = resolve_id_adjacency(provider)
    labels = adjacency.index.labels()
    order, eccentricity = bfs_sweep_ids(
        adjacency, adjacency.index.id_of(source), rank=repr_rank(adjacency.index)
    )
    return [labels[u] for u in order], eccentricity


def bfs_distances(provider: NeighborProvider, source: Subnode) -> Dict[Subnode, int]:
    """Hop distance from ``source`` to every reachable node."""
    adjacency = resolve_id_adjacency(provider)
    labels = adjacency.index.labels()
    distances = bfs_distances_ids(adjacency, adjacency.index.id_of(source))
    return {
        labels[u]: distances[u]
        for u in range(adjacency.num_nodes)
        if distances[u] >= 0
    }


def dfs_order(provider: NeighborProvider, source: Subnode) -> List[Subnode]:
    """Nodes reachable from ``source`` in (iterative) depth-first pre-order.

    This is Algorithm 5 of the paper, made iterative so deep graphs do not
    hit Python's recursion limit; neighbors are explored in
    ``repr``-sorted order like the recursive formulation.
    """
    adjacency = resolve_id_adjacency(provider)
    labels = adjacency.index.labels()
    order = dfs_order_ids(
        adjacency, adjacency.index.id_of(source), rank=repr_rank(adjacency.index)
    )
    return [labels[u] for u in order]


def connected_component_of(provider: NeighborProvider, source: Subnode) -> Set[Subnode]:
    """The set of nodes reachable from ``source``."""
    return set(bfs_order(provider, source))
