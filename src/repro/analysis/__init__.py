"""Output analysis: compression metrics, summary statistics, method comparison."""

from repro.analysis.metrics import (
    compression_report,
    edge_composition,
    hierarchy_statistics,
    relative_size,
)
from repro.analysis.comparison import MethodResult, compare_methods, default_methods
from repro.analysis.cost_breakdown import (
    cost_decomposition,
    cost_per_root,
    hierarchy_cost_per_root,
    superedge_cost_per_root,
    superedge_cost_per_root_pair,
)

__all__ = [
    "compression_report",
    "edge_composition",
    "hierarchy_statistics",
    "relative_size",
    "MethodResult",
    "compare_methods",
    "default_methods",
    "cost_decomposition",
    "cost_per_root",
    "hierarchy_cost_per_root",
    "superedge_cost_per_root",
    "superedge_cost_per_root_pair",
]
