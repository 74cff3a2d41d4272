"""MoSSo: incremental lossless graph summarization [Ko, Kook, Shin; KDD 2020].

MoSSo maintains a flat summary of a *fully dynamic* graph stream: every
edge insertion or deletion triggers a constant amount of corrective work.
The reproduction follows the algorithm's two key ideas:

* when an edge ``(u, v)`` arrives, a limited number of candidate nodes
  (sampled from the neighborhoods of ``u`` and ``v``) get a chance to
  *move* — either into the supernode of a sampled neighbor or out into a
  fresh singleton ("escape", taken with probability ``e``);
* a move is accepted only if it does not increase the encoding cost, so
  compression quality tracks the offline algorithms while each update
  stays cheap.

The class exposes the streaming API (``add_edge`` / ``remove_edge``);
:func:`mosso_summarize` replays a static graph as an insertion stream,
which is how MoSSo is compared against the offline methods in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional

from repro.baselines.common import FlatGroupingState
from repro.exceptions import ConfigurationError
from repro.graphs.graph import Graph
from repro.model.flat import FlatSummary
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["MoSSo", "MossoConfig", "mosso_summarize"]

Subnode = Hashable


@dataclass
class MossoConfig:
    """Parameters of MoSSo (paper defaults: escape probability 0.3, sample size 120)."""

    escape_probability: float = 0.3
    sample_size: int = 120
    moves_per_update: int = 3
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.escape_probability <= 1.0:
            raise ConfigurationError("escape_probability must be in [0, 1]")
        if self.sample_size < 1:
            raise ConfigurationError("sample_size must be >= 1")
        if self.moves_per_update < 1:
            raise ConfigurationError("moves_per_update must be >= 1")


class MoSSo:
    """Incremental summarizer over a fully dynamic edge stream."""

    def __init__(self, config: Optional[MossoConfig] = None, **overrides) -> None:
        if config is None:
            config = MossoConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config object or keyword overrides, not both")
        self.config = config
        self._rng = ensure_rng(config.seed)
        self._graph = Graph()
        self._state: Optional[FlatGroupingState] = None

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The graph accumulated from the stream so far."""
        return self._graph

    @property
    def substrate(self):
        """The dense integer-id adjacency mirroring the stream (or ``None``).

        The grouping state maintains it incrementally — one
        :class:`~repro.graphs.dense.DenseAdjacency` update per event —
        so downstream consumers (checkpoint analytics, the streaming
        bench) can read array-backed adjacency without rebuilding it.
        """
        return self._state.dense if self._state is not None else None

    def add_edge(self, u: Subnode, v: Subnode) -> None:
        """Process the insertion of edge ``(u, v)`` (node labels)."""
        if u == v or self._graph.has_edge(u, v):
            return
        # Build the grouping state from the graph *before* the new edge so
        # the substrate/counter update below is applied exactly once.
        self._ensure_state()
        assert self._state is not None
        state = self._state
        self._graph.add_edge(u, v)
        for node in (u, v):
            if node not in state.index:
                state.add_singleton(state.dense.add_node(node))
        state.insert_edge(state.index.id_of(u), state.index.id_of(v))
        self._corrective_moves(u, v)

    def remove_edge(self, u: Subnode, v: Subnode) -> None:
        """Process the deletion of edge ``(u, v)`` (a no-op if absent)."""
        if self._state is None or not self._graph.has_edge(u, v):
            return
        state = self._state
        state.delete_edge(state.index.id_of(u), state.index.id_of(v))
        self._graph.remove_edge(u, v)
        self._corrective_moves(u, v)

    def summary(self) -> FlatSummary:
        """The current flat summary of the accumulated graph."""
        self._ensure_state()
        assert self._state is not None
        return self._state.to_summary()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    # Candidate *sampling* reads neighbors off the label graph but puts
    # them in dense-id order before any RNG draw, so a sample depends on
    # the graph's content, not on a set's iteration order (which a pickle
    # round trip can change).  All grouping-state reads and writes go
    # through dense ids.
    def _ensure_state(self) -> None:
        if self._state is None:
            self._state = FlatGroupingState(self._graph)

    def _corrective_moves(self, u: Subnode, v: Subnode) -> None:
        """Give a few sampled nodes around the update a chance to relocate."""
        assert self._state is not None
        candidates: List[Subnode] = [u, v]
        id_of = self._state.index.id_of
        for endpoint in (u, v):
            neighbors = sorted(self._graph.neighbor_set(endpoint), key=id_of)
            if neighbors:
                self._rng.shuffle(neighbors)
                candidates.extend(neighbors[: self.config.moves_per_update])
        for node in candidates[: self.config.sample_size]:
            self._try_move(node)

    def _try_move(self, node: Subnode) -> bool:
        """Move ``node`` to the best of {stay, escape to singleton, join a neighbor's group}."""
        assert self._state is not None
        state = self._state
        id_of = state.index.id_of
        node_id = id_of(node)
        current_group = state.group_of[node_id]
        neighbors = sorted(self._graph.neighbor_set(node), key=id_of)
        if not neighbors:
            return False
        # Candidate target groups: a few sampled neighbors' groups, plus
        # escaping into a fresh singleton with the configured probability.
        # MoSSo deliberately looks at a constant number of candidates per
        # update so the per-edge work stays bounded.
        sample = neighbors
        if len(sample) > self.config.moves_per_update:
            sample = self._rng.sample(sample, self.config.moves_per_update)
        group_of = state.group_of
        target_groups = {group_of[id_of(neighbor)] for neighbor in sample}
        target_groups.discard(current_group)
        consider_escape = (
            len(state.members[current_group]) > 1
            and self._rng.random() < self.config.escape_probability
        )
        if not target_groups and not consider_escape:
            return False

        involved = target_groups | {current_group}
        context = self._evaluation_context(node, involved)
        baseline = self._placement_cost(node_id, involved, context)

        stay = object()  # Sentinel: group ids can change when the node's
        best_target: object = stay  # original group is emptied and re-created.
        best_cost = baseline
        if consider_escape:
            escaped = state.move(node_id, None)
            cost = self._placement_cost(node_id, involved | {escaped}, context)
            if cost < best_cost:
                best_cost = cost
                best_target = None
            current_group = self._restore(node_id, current_group)
        for target in target_groups:
            state.move(node_id, target)
            cost = self._placement_cost(node_id, involved, context)
            if cost < best_cost:
                best_cost = cost
                best_target = target
            current_group = self._restore(node_id, current_group)
        if best_target is stay:
            return False
        state.move(node_id, best_target if best_target is None else int(best_target))
        return True

    def _restore(self, node: int, original_group: int) -> int:
        """Put ``node`` back into its original group after a trial move.

        If the trial move emptied (and therefore deleted) the original
        group, a fresh singleton takes its place and its id is returned.
        """
        assert self._state is not None
        state = self._state
        if original_group in state.members:
            return state.move(node, original_group)
        return state.move(node, None)

    def _evaluation_context(self, node: Subnode, candidate_groups) -> List[int]:
        """Fixed set of counterpart groups used to price every trial placement.

        Only the pairs between the node's (current or trial) group and
        these counterparts change when the node moves, so restricting the
        cost to them keeps every trial O(degree) while staying comparable
        across trials.
        """
        assert self._state is not None
        state = self._state
        groups = set(candidate_groups)
        neighbors = list(self._graph.neighbor_set(node))
        if len(neighbors) > self.config.sample_size:
            neighbors = sorted(neighbors, key=repr)[: self.config.sample_size]
        group_of = state.group_of
        id_of = state.index.id_of
        for neighbor in neighbors:
            groups.add(group_of[id_of(neighbor)])
        return sorted(groups)

    def _placement_cost(self, node: int, involved, context: List[int]) -> int:
        """Cost of every pair touching the involved groups, for the current placement.

        ``involved`` are the groups whose content differs between trial
        placements (the node's original group, the candidate targets, and
        a possible escape singleton); ``context`` is the fixed set of
        counterpart groups.  The sum also includes the flat-model
        membership edges of the involved groups (one per member once a
        group is non-singleton), which keeps the heuristic aligned with
        the Eq. 11 output size and stops it from growing supernodes that
        never pay for themselves.
        """
        assert self._state is not None
        state = self._state
        # Sorted for hash-order independence; only commutative cost sums
        # consume the order, so the pinned output is unchanged.
        live = sorted(
            group for group in {*involved, state.group_of[node]} if group in state.members
        )
        live_set = set(live)
        cost = 0
        for group in live:
            for other in context:
                if other not in state.members:
                    continue
                if other in live_set and other <= group:
                    continue  # Each involved-involved pair is counted once.
                cost += state.pair_cost(group, other)
            cost += state.pair_cost(group, group)
            size = state.size(group)
            if size >= 2:
                cost += size
        return cost


def mosso_summarize(
    graph: Graph, config: Optional[MossoConfig] = None, **overrides
) -> FlatSummary:
    """Run MoSSo over ``graph`` replayed as an edge-insertion stream."""
    summarizer = MoSSo(config, **overrides)
    rng = ensure_rng(summarizer.config.seed)
    edges = sorted(graph.edges(), key=repr)
    rng.shuffle(edges)
    for node in graph.nodes():
        # Isolated nodes never appear in the stream; register them so the
        # output covers exactly the input's node set.
        if graph.degree(node) == 0:
            summarizer.graph.add_node(node)
    for u, v in edges:
        summarizer.add_edge(u, v)
    return summarizer.summary()
