"""Graph algorithms that run on raw graphs, summaries, or substrate views.

The paper's appendix (Sect. VIII-B/C) points out that algorithms which
access the graph only through neighbor queries — DFS, BFS, PageRank,
Dijkstra, triangle counting — can run directly on a summary via partial
decompression.  The functions here therefore accept any *neighbor
provider*: a raw :class:`~repro.graphs.graph.Graph`, a
:class:`~repro.model.summary.HierarchicalSummary`, a
:class:`~repro.model.flat.FlatSummary`, or any CSR-shaped substrate view
(:class:`~repro.graphs.dense.CSRAdjacency`, a zero-copy
:class:`~repro.storage.mapped.MappedCSR`, a
:class:`~repro.graphs.view.CSRGraphView`).

The label-keyed functions are thin shims: ids are resolved once at the
boundary (:mod:`repro.algorithms.providers`) and the hot loops run on
flat arrays of dense integer ids (:mod:`repro.algorithms.kernels`),
WebGraph-style.  Results are bit-identical to the historical
label-keyed implementations.
"""

from repro.algorithms.neighbors import NeighborProvider, as_neighbor_function, node_universe
from repro.algorithms.providers import (
    CSRIdAdjacency,
    GraphIdAdjacency,
    LabelIdAdjacency,
    repr_rank,
    resolve_id_adjacency,
)
from repro.algorithms.traversal import bfs_order, bfs_distances, connected_component_of, dfs_order
from repro.algorithms.pagerank import pagerank
from repro.algorithms.shortest_paths import dijkstra_distances, shortest_path
from repro.algorithms.triangles import count_triangles, local_triangle_counts
from repro.algorithms.components import (
    connected_components,
    is_connected,
    largest_component,
    num_connected_components,
)
from repro.algorithms.cores import core_numbers, k_core_nodes, max_core
from repro.algorithms.clustering import (
    average_clustering,
    local_clustering,
    local_clustering_coefficients,
)
from repro.algorithms.communities import (
    community_sizes,
    label_propagation_communities,
    modularity,
)
from repro.algorithms.query import QUERY_KINDS, QueryResult, run_query

__all__ = [
    "NeighborProvider",
    "as_neighbor_function",
    "node_universe",
    "CSRIdAdjacency",
    "GraphIdAdjacency",
    "LabelIdAdjacency",
    "repr_rank",
    "resolve_id_adjacency",
    "bfs_order",
    "bfs_distances",
    "connected_component_of",
    "dfs_order",
    "pagerank",
    "dijkstra_distances",
    "shortest_path",
    "count_triangles",
    "local_triangle_counts",
    "connected_components",
    "largest_component",
    "num_connected_components",
    "is_connected",
    "core_numbers",
    "max_core",
    "k_core_nodes",
    "local_clustering",
    "local_clustering_coefficients",
    "average_clustering",
    "label_propagation_communities",
    "community_sizes",
    "modularity",
    "QUERY_KINDS",
    "QueryResult",
    "run_query",
]
