"""SWeG: lossless (and lossy) summarization of web-scale graphs [Shin et al., WWW 2019].

SWeG is the strongest flat-model competitor in the paper's evaluation and
shares its outer structure with SLUGGER: ``T`` rounds of (a) dividing the
supernodes into groups via min-hash shingles and (b) merging, within each
group, pairs that clear the threshold θ(t) = (1 + t)^-1.  Inside a group
SWeG ranks partners by a Jaccard similarity of neighbor sets (cheap) and
then checks the exact saving of the best-ranked partner before merging.

The optional corrections-dropping post-step implements SWeG's lossy mode:
up to ``epsilon * degree(v)`` corrections incident to each node may be
dropped, trading exactness for size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set

from repro.baselines.common import FlatGroupingState
from repro.core.shingles import dense_subnode_shingles, make_hash_function
from repro.engine.hooks import GraphResources, RunControl
from repro.exceptions import ConfigurationError
from repro.graphs.graph import Graph
from repro.model.flat import FlatSummary
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["SwegConfig", "drop_corrections", "sweg_summarize"]

Subnode = Hashable


@dataclass
class SwegConfig:
    """Parameters of SWeG (defaults follow the paper's experimental settings)."""

    iterations: int = 20
    max_group_size: int = 500
    shingle_rounds: int = 10
    epsilon: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {self.iterations}")
        if self.max_group_size < 2:
            raise ConfigurationError(f"max_group_size must be >= 2, got {self.max_group_size}")
        if self.epsilon < 0:
            raise ConfigurationError(f"epsilon must be >= 0, got {self.epsilon}")

    def threshold(self, iteration: int) -> float:
        """Merging threshold θ(t) of SWeG (same schedule as SLUGGER's Eq. 9)."""
        if iteration >= self.iterations:
            return 0.0
        return 1.0 / (1.0 + iteration)


def sweg_summarize(
    graph: Graph,
    config: Optional[SwegConfig] = None,
    control: Optional[RunControl] = None,
    resources: Optional[GraphResources] = None,
    **overrides,
) -> FlatSummary:
    """Summarize ``graph`` with SWeG; returns a flat summary.

    With ``epsilon == 0`` (default) the output is lossless.  A positive
    ``epsilon`` additionally drops corrections within the per-node error
    budget, reproducing SWeG's lossy variant.

    ``control`` receives one progress event per iteration and its
    cancel token is checked between iterations.
    """
    if config is None:
        config = SwegConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config object or keyword overrides, not both")
    rng = ensure_rng(config.seed)
    state = FlatGroupingState(
        graph, dense=resources.dense() if resources is not None else None
    )

    if graph.num_edges > 0:
        for iteration in range(1, config.iterations + 1):
            if control is not None:
                control.checkpoint()
            threshold = config.threshold(iteration)
            groups = _divide(state, config, rng)
            merges = 0
            for group in groups:
                merges += _merge_within_group(state, group, threshold, rng)
            if control is not None:
                control.emit(
                    "iteration",
                    iteration=iteration,
                    iterations=config.iterations,
                    threshold=threshold,
                    merges=merges,
                    groups=len(state.members),
                )

    summary = state.to_summary()
    if config.epsilon > 0:
        drop_corrections(summary, graph, config.epsilon, seed=rng.randrange(2**61))
    return summary


# ----------------------------------------------------------------------
# Dividing step
# ----------------------------------------------------------------------
def _divide(state: FlatGroupingState, config: SwegConfig, rng) -> List[List[int]]:
    """Split the current supernodes into shingle groups of bounded size."""
    pending: List[List[int]] = [state.groups()]
    finished: List[List[int]] = []
    for _ in range(config.shingle_rounds):
        oversized = [group for group in pending if len(group) > config.max_group_size]
        finished.extend(group for group in pending if len(group) <= config.max_group_size)
        if not oversized:
            pending = []
            break
        # List-backed shingles over the dense substrate; group members are
        # node ids, so the min-aggregation below is pure list indexing.
        node_shingles = dense_subnode_shingles(
            state.dense, make_hash_function(rng.randrange(2**61))
        )
        pending = []
        for group in oversized:
            buckets: Dict[int, List[int]] = {}
            for supernode in group:
                shingle = min(node_shingles[node] for node in state.members[supernode])
                buckets.setdefault(shingle, []).append(supernode)
            if len(buckets) == 1:
                pending.append(group)
            else:
                # repro-lint: disable=unordered-iter (dict insertion order is deterministic and the pinned RNG stream depends on it)
                pending.extend(buckets.values())
    for group in pending:
        if len(group) <= config.max_group_size:
            finished.append(group)
        else:
            shuffled = list(group)
            rng.shuffle(shuffled)
            for start in range(0, len(shuffled), config.max_group_size):
                finished.append(shuffled[start:start + config.max_group_size])
    candidate_groups = [group for group in finished if len(group) >= 2]
    rng.shuffle(candidate_groups)
    return candidate_groups


# ----------------------------------------------------------------------
# Merging step
# ----------------------------------------------------------------------
def _neighbor_profile(state: FlatGroupingState, supernode: int) -> Set[int]:
    """Groups adjacent to ``supernode`` (including itself if it has internal edges)."""
    return set(state.group_adj[supernode])


def _jaccard(profile_a: Set[int], profile_b: Set[int]) -> float:
    union = len(profile_a | profile_b)
    if union == 0:
        return 0.0
    return len(profile_a & profile_b) / union


def _merge_within_group(
    state: FlatGroupingState, group: List[int], threshold: float, rng
) -> int:
    """SWeG's inner loop: rank partners by Jaccard, verify with the exact saving."""
    queue = [supernode for supernode in group if supernode in state.members]
    merges = 0
    while len(queue) > 1:
        index = rng.randrange(len(queue))
        supernode = queue[index]
        queue[index] = queue[-1]
        queue.pop()
        if supernode not in state.members:
            continue
        profile = _neighbor_profile(state, supernode)
        best_similarity = -1.0
        best_partner = -1
        for candidate in queue:
            if candidate not in state.members:
                continue
            similarity = _jaccard(profile, _neighbor_profile(state, candidate))
            if similarity > best_similarity:
                best_similarity = similarity
                best_partner = candidate
        if best_partner < 0:
            continue
        if state.saving(supernode, best_partner) < threshold:
            continue
        merged = state.merge(supernode, best_partner)
        queue[queue.index(best_partner)] = merged
        merges += 1
    return merges


# ----------------------------------------------------------------------
# Lossy post-step
# ----------------------------------------------------------------------
def drop_corrections(
    summary: FlatSummary, graph: Graph, epsilon: float, seed: SeedLike = None
) -> int:
    """Drop corrections while keeping each node's neighborhood error ≤ ε·degree.

    This reproduces the error model of SWeG's lossy mode: each dropped
    correction changes the reconstructed neighborhood of its two endpoint
    nodes by one edge, and a node ``v`` may lose or gain at most
    ``epsilon * degree(v)`` neighbors in total.  Returns the number of
    corrections removed.  With ``epsilon == 0`` nothing changes.
    """
    if epsilon <= 0:
        return 0
    rng = ensure_rng(seed)
    budget: Dict[Subnode, float] = {
        node: epsilon * graph.degree(node) for node in graph.nodes()
    }
    dropped = 0
    for corrections in (summary.corrections_minus, summary.corrections_plus):
        for pair in sorted(corrections, key=lambda item: rng.random()):
            u, v = pair
            if budget.get(u, 0.0) >= 1.0 and budget.get(v, 0.0) >= 1.0:
                corrections.discard(pair)
                budget[u] -= 1.0
                budget[v] -= 1.0
                dropped += 1
    return dropped
