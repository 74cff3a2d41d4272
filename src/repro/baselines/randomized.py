"""RANDOMIZED summarization [Navlakha, Rastogi, Shrivastava; SIGMOD 2008].

The algorithm repeatedly picks a random unfinished supernode ``u``,
searches its two-hop neighborhood for the partner ``v`` with the largest
saving, merges the pair when the saving is positive, and retires ``u``
otherwise.  It is the slowest but conceptually simplest baseline of the
paper's evaluation.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import FlatGroupingState
from repro.engine.hooks import GraphResources
from repro.graphs.graph import Graph
from repro.model.flat import FlatSummary
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["randomized_summarize"]


def randomized_summarize(
    graph: Graph,
    seed: SeedLike = None,
    max_rounds: Optional[int] = None,
    resources: Optional[GraphResources] = None,
) -> FlatSummary:
    """Summarize ``graph`` with the RANDOMIZED heuristic.

    Parameters
    ----------
    graph:
        Input graph.
    seed:
        Seed for the random supernode selection.
    max_rounds:
        Optional cap on the number of pick-and-merge rounds (useful in
        tests); ``None`` runs until every supernode is finished, as in the
        original algorithm.
    resources:
        Optional prebuilt substrate views (service graph-store interning);
        cannot change the summary.
    """
    rng = ensure_rng(seed)
    state = FlatGroupingState(
        graph, dense=resources.dense() if resources is not None else None
    )
    unfinished = set(state.groups())
    rounds = 0
    while unfinished:
        if max_rounds is not None and rounds >= max_rounds:
            break
        rounds += 1
        group = rng.choice(sorted(unfinished))
        if group not in state.members:
            unfinished.discard(group)
            continue
        best_saving = 0.0
        best_partner = None
        # Sorted, so a tie goes to the smallest id: set order follows
        # the graph's insertion history, which a pickled copy loses.
        for candidate in sorted(state.two_hop_groups(group)):
            if candidate not in state.members:
                continue
            value = state.saving(group, candidate)
            if value > best_saving:
                best_saving = value
                best_partner = candidate
        if best_partner is None:
            unfinished.discard(group)
            continue
        merged = state.merge(group, best_partner)
        unfinished.discard(group)
        unfinished.discard(best_partner)
        unfinished.add(merged)
    return state.to_summary()
