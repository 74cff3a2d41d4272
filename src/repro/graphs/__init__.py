"""Graph substrate: data structure, I/O, generators, datasets, sampling."""

from repro.graphs.graph import Graph
from repro.graphs.index import NodeIndex
from repro.graphs.dense import CSRAdjacency, DenseAdjacency
from repro.graphs.view import CSRGraphView
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.generators import (
    barabasi_albert_graph,
    caveman_graph,
    complete_bipartite_graph,
    complete_graph,
    copying_model_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    kronecker_like_graph,
    nested_partition_graph,
    path_graph,
    star_graph,
    theorem1_graph,
)
from repro.graphs.random_models import (
    configuration_model_graph,
    hierarchical_random_graph,
    rmat_graph,
    watts_strogatz_graph,
)
from repro.graphs.datasets import DATASETS, DatasetSpec, available_datasets, load_dataset
from repro.graphs.sampling import induced_subgraph, sample_nodes, scalability_series
from repro.graphs.properties import (
    connected_components,
    degree_histogram,
    global_clustering_coefficient,
    graph_density,
)

__all__ = [
    "Graph",
    "NodeIndex",
    "DenseAdjacency",
    "CSRAdjacency",
    "CSRGraphView",
    "read_edge_list",
    "write_edge_list",
    "barabasi_albert_graph",
    "caveman_graph",
    "complete_bipartite_graph",
    "complete_graph",
    "copying_model_graph",
    "cycle_graph",
    "erdos_renyi_graph",
    "grid_graph",
    "kronecker_like_graph",
    "nested_partition_graph",
    "path_graph",
    "star_graph",
    "theorem1_graph",
    "rmat_graph",
    "watts_strogatz_graph",
    "configuration_model_graph",
    "hierarchical_random_graph",
    "DATASETS",
    "DatasetSpec",
    "available_datasets",
    "load_dataset",
    "induced_subgraph",
    "sample_nodes",
    "scalability_series",
    "connected_components",
    "degree_histogram",
    "global_clustering_coefficient",
    "graph_density",
]
