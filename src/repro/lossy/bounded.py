"""Bounded-error (lossy) summarization built on the lossless summarizers.

The paper's related work (Sect. V) describes the lossy variant of graph
summarization: find the most concise flat summary whose reconstruction
changes at most a fraction ``ε`` of every node's neighbors.  SWeG [2]
implements it by *dropping corrections* from a lossless summary while a
per-node error budget allows it; this module packages that recipe into a
single driver and verifies the bound on the way out.

SLUGGER itself is a lossless method, so the hierarchical counterpart here
is deliberately conservative: it drops whole n-edges (and p-edges that
cover only a few absent pairs) of a SLUGGER summary while every touched
subnode stays within its ε budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.baselines.sweg import drop_corrections, sweg_summarize
from repro.exceptions import LossyBoundError
from repro.graphs.graph import Graph
from repro.lossy.error import error_report, max_relative_error
from repro.model.flat import FlatSummary
from repro.model.summary import HierarchicalSummary
from repro.utils.rng import SeedLike, ensure_rng, shuffled
from repro.utils.validation import require_probability, require_type

__all__ = [
    "LossySummaryResult",
    "lossy_slugger_sparsify",
    "lossy_sweg_summarize",
    "lossy_tradeoff_curve",
    "sparsify_hierarchical_summary",
]

Node = Hashable


@dataclass
class LossySummaryResult:
    """A lossy summary together with its measured error and size."""

    summary: FlatSummary
    epsilon: float
    dropped_corrections: int
    report: Dict[str, float]

    @property
    def relative_size(self) -> float:
        """Eq. 11 relative size of the lossy summary."""
        return self.report["relative_size"]

    @property
    def measured_error(self) -> float:
        """Measured maximum per-node relative error (must be ≤ ε)."""
        return self.report["max_relative_error"]


def lossy_sweg_summarize(
    graph: Graph,
    epsilon: float,
    iterations: int = 10,
    seed: SeedLike = 0,
    check_bound: bool = True,
) -> LossySummaryResult:
    """Lossy SWeG: lossless SWeG followed by ε-bounded correction dropping.

    Parameters
    ----------
    graph:
        The input graph.
    epsilon:
        Per-node error bound: a node ``v`` may lose or gain at most
        ``ε · degree(v)`` neighbors in the reconstruction.  ``0`` keeps
        the summary lossless.
    iterations:
        Iterations of the underlying lossless SWeG run.
    seed:
        Seed driving both the lossless run and the dropping order.
    check_bound:
        When ``True`` the measured error is verified against ``ε`` and a
        violation raises :class:`~repro.exceptions.LossyBoundError`.
    """
    require_type(graph, Graph, "graph")
    require_probability(epsilon, "epsilon")
    rng = ensure_rng(seed)
    summary = sweg_summarize(graph, iterations=iterations, seed=rng.randrange(2**61))
    dropped = drop_corrections(summary, graph, epsilon, seed=rng.randrange(2**61))
    report = error_report(summary, graph)
    report["relative_size"] = summary.relative_size(graph) if graph.num_edges else 0.0
    report["cost"] = float(summary.cost_eq11())
    if check_bound and report["max_relative_error"] > epsilon + 1e-9:
        raise LossyBoundError(
            f"lossy summary violates its bound: measured error "
            f"{report['max_relative_error']:.4f} > epsilon {epsilon:.4f}"
        )
    return LossySummaryResult(
        summary=summary,
        epsilon=epsilon,
        dropped_corrections=dropped,
        report=report,
    )


def sparsify_hierarchical_summary(
    summary: HierarchicalSummary,
    graph: Graph,
    epsilon: float,
    seed: SeedLike = 0,
) -> int:
    """Drop n-edges from a hierarchical summary within a per-node ε budget.

    Removing an n-edge re-introduces the subedges it was cancelling, so
    each removal is accepted only if every affected subnode still has
    error budget left.  Returns the number of superedges removed; the
    summary is modified in place.
    """
    require_type(summary, HierarchicalSummary, "summary")
    require_type(graph, Graph, "graph")
    require_probability(epsilon, "epsilon")
    if epsilon == 0.0:
        return 0
    rng = ensure_rng(seed)
    budget: Dict[Node, float] = {
        node: epsilon * graph.degree(node) for node in graph.nodes()
    }
    hierarchy = summary.hierarchy
    removed = 0
    for a, b in shuffled(summary.n_edges(), rng):
        leaves_a = hierarchy.leaf_subnodes(a)
        leaves_b = hierarchy.leaf_subnodes(b)
        # The affected pairs are at most |A| x |B|; charge each endpoint once
        # per pair it participates in.
        charge: Dict[Node, int] = {}
        for u in leaves_a:
            for v in leaves_b:
                if u == v:
                    continue
                charge[u] = charge.get(u, 0) + 1
                charge[v] = charge.get(v, 0) + 1
        if all(budget.get(node, 0.0) >= amount for node, amount in charge.items()):
            summary.remove_n_edge(a, b)
            for node, amount in charge.items():
                budget[node] -= amount
            removed += 1
    return removed


def lossy_slugger_sparsify(
    summary: HierarchicalSummary,
    graph: Graph,
    epsilon: float,
    seed: SeedLike = 0,
    check_bound: bool = True,
) -> Dict[str, float]:
    """Apply :func:`sparsify_hierarchical_summary` and report size and error.

    The summary is modified in place; the returned record contains the
    new cost, relative size, number of removed superedges, and the
    measured error (verified against ``ε`` unless ``check_bound`` is
    ``False``).
    """
    removed = sparsify_hierarchical_summary(summary, graph, epsilon, seed=seed)
    report = error_report(summary, graph)
    report["removed_superedges"] = float(removed)
    report["cost"] = float(summary.cost())
    report["relative_size"] = summary.relative_size(graph) if graph.num_edges else 0.0
    if check_bound and report["max_relative_error"] > epsilon + 1e-9:
        raise LossyBoundError(
            f"sparsified summary violates its bound: measured error "
            f"{report['max_relative_error']:.4f} > epsilon {epsilon:.4f}"
        )
    return report


def lossy_tradeoff_curve(
    graph: Graph,
    epsilons,
    iterations: int = 10,
    seed: SeedLike = 0,
):
    """Relative size versus ε for lossy SWeG (the size/error trade-off series)."""
    rows = []
    for epsilon in epsilons:
        result = lossy_sweg_summarize(graph, epsilon, iterations=iterations, seed=seed)
        rows.append(
            {
                "epsilon": float(epsilon),
                "relative_size": result.relative_size,
                "dropped_corrections": float(result.dropped_corrections),
                "max_relative_error": result.measured_error,
            }
        )
    return rows
