"""repro — a reproduction of SLUGGER (ICDE 2022).

SLUGGER is a scalable heuristic for *lossless hierarchical graph
summarization*: it represents an undirected graph exactly using positive
and negative edges between hierarchically nested supernodes, typically
with far fewer edges than the graph itself.

The most common entry points are re-exported here:

>>> from repro import load_dataset, summarize
>>> graph = load_dataset("PR", seed=0)
>>> result = summarize(graph, iterations=5, seed=0)
>>> result.summary.validate(graph)          # exact, lossless
>>> result.relative_size(graph) < 1.0       # and smaller than the input
True

Package map
-----------
``repro.graphs``        graph data structure, generators, datasets, I/O
``repro.model``         hierarchical and flat summarization models
``repro.core``          the SLUGGER algorithm
``repro.baselines``     Randomized, Greedy, SWeG, SAGS, MoSSo
``repro.engine``        the summarizer protocol + registry (one API for all)
``repro.service``       long-lived serving: sessions, jobs, a process job pool
``repro.storage``       binary containers, mmap loads, a content cache
``repro.algorithms``    BFS/DFS/PageRank/Dijkstra/triangles on summaries
``repro.analysis``      compression metrics and method comparison
``repro.experiments``   harness regenerating the paper's tables and figures
"""

from repro import engine, service, storage
from repro.core import Slugger, SluggerConfig, SluggerResult, summarize
from repro.engine import ExecutionConfig, RunControl
from repro.graphs import (
    CSRAdjacency,
    DenseAdjacency,
    Graph,
    NodeIndex,
    load_dataset,
    read_edge_list,
    write_edge_list,
)
from repro.model import FlatSummary, HierarchicalSummary
from repro.service import (
    JobState,
    SummaryJob,
    SummaryRequest,
    SummaryService,
    default_service,
)
from repro.storage import MappedCSR, StoredGraph

__version__ = "1.3.0"

__all__ = [
    "Slugger",
    "SluggerConfig",
    "SluggerResult",
    "ExecutionConfig",
    "RunControl",
    "summarize",
    "engine",
    "service",
    "storage",
    "Graph",
    "NodeIndex",
    "DenseAdjacency",
    "CSRAdjacency",
    "load_dataset",
    "read_edge_list",
    "write_edge_list",
    "FlatSummary",
    "HierarchicalSummary",
    "JobState",
    "SummaryJob",
    "SummaryRequest",
    "SummaryService",
    "default_service",
    "MappedCSR",
    "StoredGraph",
    "__version__",
]
