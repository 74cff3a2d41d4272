"""Unit tests for SLUGGER's mutable state and the saving objective."""

from __future__ import annotations

import math
import random
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Slugger, SluggerConfig
from repro.core import saving as saving_module
from repro.core.merging import merge_and_update, process_candidate_set
from repro.core.saving import (
    PartnerProfile,
    best_partner,
    estimate_merged_cost,
    pair_cost_estimate,
    pair_denominator,
    saving,
    two_hop_roots,
)
from repro.core.state import SluggerState
from repro.exceptions import SummaryInvariantError
from repro.graphs import (
    Graph,
    caveman_graph,
    complete_bipartite_graph,
    complete_graph,
    erdos_renyi_graph,
    path_graph,
)


@pytest.fixture
def path_state() -> SluggerState:
    return SluggerState(path_graph(5))


class TestStateInitialization:
    def test_initial_indices(self, path_state):
        graph = path_state.graph
        assert len(path_state.roots) == graph.num_nodes
        assert path_state.total_cost() == graph.num_edges
        path_state.check_consistency()

    def test_initial_costs(self, path_state):
        hierarchy = path_state.summary.hierarchy
        endpoint = hierarchy.leaf_of(0)
        middle = hierarchy.leaf_of(2)
        assert path_state.cost_of(endpoint) == 1
        assert path_state.cost_of(middle) == 2
        assert path_state.subedges_between(endpoint, hierarchy.leaf_of(1)) == 1
        assert path_state.pn_cost_between(endpoint, hierarchy.leaf_of(1)) == 1

    def test_neighbor_roots(self, path_state):
        hierarchy = path_state.summary.hierarchy
        middle = hierarchy.leaf_of(2)
        assert two_hop_roots(path_state, middle) >= path_state.neighbor_roots(middle)
        assert len(path_state.neighbor_roots(middle)) == 2


class PerEdgeState(SluggerState):
    """Reference: apply a re-encoding one superedge at a time.

    Each removal and each add goes through the summary's per-edge API and
    updates the pair's bucket, both ``pn_count`` directions and
    ``pn_total`` on its own, deleting an emptied bucket or zero count at
    once — the sequence :meth:`SluggerState.replace_between` must match.
    """

    def replace_between(self, root_a, root_b, superedges):
        pair = (root_a, root_b) if root_a <= root_b else (root_b, root_a)
        for x, y, sign in list(self.pn_edges.get(pair, ())):
            assert self.summary.remove_edge(x, y, sign)
            self._count(root_a, root_b, (x, y, sign), -1)
        for x, y, sign in superedges:
            assert self.summary.add_edge(x, y, sign)
            self._count(root_a, root_b, (min(x, y), max(x, y), sign), 1)

    def _count(self, root_a, root_b, record, delta):
        pair = (root_a, root_b) if root_a <= root_b else (root_b, root_a)
        bucket = self.pn_edges.setdefault(pair, set())
        if delta > 0:
            bucket.add(record)
        else:
            bucket.discard(record)
            if not bucket:
                del self.pn_edges[pair]
        directions = [(root_a, root_b)] if root_a == root_b else [(root_a, root_b), (root_b, root_a)]
        for root, other in directions:
            counts = self.pn_count[root]
            counts[other] = counts.get(other, 0) + delta
            if counts[other] == 0:
                del counts[other]
            self.pn_total[root] += delta


def index_orders(state):
    """Every index the merge path iterates, with its iteration order."""
    summary = state.summary
    return {
        "pn_edges": [(pair, list(bucket)) for pair, bucket in state.pn_edges.items()],
        "pn_count": [(root, list(counts.items())) for root, counts in state.pn_count.items()],
        "pn_total": list(state.pn_total.items()),
        "p_edges": list(summary.p_edges()),
        "n_edges": list(summary.n_edges()),
        "incident": [(node, list(edges)) for node, edges in summary._incident.items()],
        "mutations": summary._mutations,
    }


class TestReplaceBetween:
    def test_adds_and_removes_superedges(self, path_state):
        hierarchy = path_state.summary.hierarchy
        a = hierarchy.leaf_of(0)
        b = path_state.merge_roots(hierarchy.leaf_of(1), hierarchy.leaf_of(2))
        leaf_1 = hierarchy.leaf_of(1)
        path_state.replace_between(a, b, [(a, leaf_1, 1), (a, b, 1)])
        assert path_state.pn_cost_between(a, b) == 2
        path_state.check_consistency()
        path_state.replace_between(a, b, [(a, leaf_1, 1)])
        assert path_state.pn_cost_between(a, b) == 1
        path_state.check_consistency()

    def test_pn_edges_without_subedges_break_consistency(self, path_state):
        # Partner search prices merges from the subedge maps, so a p/n-edge
        # between two trees with no subedges between them must be flagged.
        hierarchy = path_state.summary.hierarchy
        a, b = hierarchy.leaf_of(0), hierarchy.leaf_of(2)
        path_state.replace_between(a, b, [(a, b, 1)])
        with pytest.raises(SummaryInvariantError, match="no subedges"):
            path_state.check_consistency()
        path_state.replace_between(a, b, [])
        path_state.check_consistency()

    def test_bucket_entry_missing_from_the_summary_raises(self, path_state):
        hierarchy = path_state.summary.hierarchy
        a, b = hierarchy.leaf_of(0), hierarchy.leaf_of(1)
        path_state.pn_edges[(a, b)].add((a, b, -1))
        with pytest.raises(SummaryInvariantError, match="not in the summary"):
            path_state.replace_between(a, b, [(a, b, 1)])

    @pytest.mark.parametrize("superedges, match", [
        ([(0, 1, 1), (1, 0, 1)], "already present"),
        ([(0, 1, 1), (0, 1, -1)], "already present"),
        ([(0, 99, 1)], "unknown endpoint"),
    ])
    def test_bad_additions_raise(self, path_state, superedges, match):
        hierarchy = path_state.summary.hierarchy
        a, b = hierarchy.leaf_of(0), hierarchy.leaf_of(1)
        with pytest.raises(SummaryInvariantError, match=match):
            path_state.replace_between(a, b, superedges)

    def test_empty_replacement_clears_the_pair(self, path_state):
        hierarchy = path_state.summary.hierarchy
        a, b = hierarchy.leaf_of(0), hierarchy.leaf_of(1)
        path_state.replace_between(a, b, [])
        assert path_state.pn_cost_between(a, b) == 0
        assert (a, b) not in path_state.pn_edges
        assert path_state.summary.cost() == path_state.graph.num_edges - 1

    def test_orders_match_the_per_edge_sequence(self):
        # Leaf 0's only superedge goes, so its incident set is emptied and
        # deleted; the pair's counts and bucket are deleted and re-inserted.
        graph = Graph(nodes=range(5), edges=[(0, 2), (1, 2), (2, 3), (3, 4), (1, 4)])
        bulk, reference = SluggerState(graph), PerEdgeState(graph)
        for state in (bulk, reference):
            merged = state.merge_roots(0, 1)
            state.replace_between(merged, 2, [(merged, 2, 1)])
            state.replace_between(merged, 4, [(4, 1, 1)])
            other = state.merge_roots(3, 4)
            state.replace_between(merged, other, [(merged, other, 1), (0, 4, -1)])
            state.check_consistency()
        assert list(bulk.pn_count[merged]) == list(reference.pn_count[merged]) == [2, other]
        assert list(bulk.pn_edges) == list(reference.pn_edges)
        assert list(bulk.summary._incident) == list(reference.summary._incident)
        incident_order = list(bulk.summary._incident)
        assert incident_order.index(0) > incident_order.index(merged)
        assert index_orders(bulk) == index_orders(reference)

    def test_merge_runs_leave_the_per_edge_orders(self):
        graph = caveman_graph(8, 6, 0.1, seed=1)
        config = SluggerConfig(seed=0)
        bulk, reference = SluggerState(graph), PerEdgeState(graph)
        pairs = []
        replace_between = bulk.replace_between
        bulk.replace_between = lambda *args: (pairs.append(args[:2]), replace_between(*args))
        for iteration in range(4):
            for state in (bulk, reference):
                process_candidate_set(state, sorted(state.roots), 0.0, config, seed=iteration)
            assert index_orders(bulk) == index_orders(reference)
        bulk.check_consistency()
        assert len(pairs) > 20
        assert any(root_a == root_b for root_a, root_b in pairs)


class TestIncidentIndexCheck:
    @pytest.mark.parametrize("corruption", ["stray", "missing", "empty", "wrong sign"])
    def test_corrupted_incident_index_raises(self, path_state, corruption):
        incident = path_state.summary._incident
        path_state.check_consistency()
        if corruption == "stray":
            incident[0].add((3, 1))
        elif corruption == "missing":
            incident[0].clear()
            del incident[0]
        elif corruption == "empty":
            incident[99] = set()
        else:
            incident[0] = {(node, -sign) for node, sign in incident[0]}
        with pytest.raises(SummaryInvariantError, match="incident index"):
            path_state.check_consistency()

    def test_caveman_run_with_invariants_passes(self):
        graph = caveman_graph(70, 15, 0.05, seed=1)
        config = SluggerConfig(iterations=20, seed=0, check_invariants=True)
        result = Slugger(config).summarize(graph)
        result.summary.validate(graph)
        result.summary.check_incident_index()


class TestMerging:
    def test_merge_rekeys_indices(self, path_state):
        hierarchy = path_state.summary.hierarchy
        a, b = hierarchy.leaf_of(1), hierarchy.leaf_of(2)
        merged = path_state.merge_roots(a, b)
        assert merged in path_state.roots
        assert a not in path_state.roots
        assert path_state.tree_h[merged] == 2
        assert path_state.tree_height[merged] == 1
        # The subedge between 1 and 2 became internal to the merged tree.
        assert path_state.subedges_between(merged, merged) == 1
        path_state.check_consistency()

    def test_merge_requires_roots(self, path_state):
        hierarchy = path_state.summary.hierarchy
        a, b, c = (hierarchy.leaf_of(node) for node in (0, 1, 2))
        path_state.merge_roots(a, b)
        with pytest.raises(SummaryInvariantError):
            path_state.merge_roots(a, c)

    def test_merge_with_self_rejected(self, path_state):
        leaf = path_state.summary.hierarchy.leaf_of(0)
        with pytest.raises(SummaryInvariantError):
            path_state.merge_roots(leaf, leaf)

    def test_chained_merges_stay_consistent(self):
        state = SluggerState(complete_graph(6))
        hierarchy = state.summary.hierarchy
        merged = state.merge_roots(hierarchy.leaf_of(0), hierarchy.leaf_of(1))
        merged = state.merge_roots(merged, hierarchy.leaf_of(2))
        state.merge_roots(hierarchy.leaf_of(3), hierarchy.leaf_of(4))
        state.check_consistency()
        assert state.tree_h[merged] == 4


class TestSaving:
    def test_pair_cost_estimate(self):
        assert pair_cost_estimate(0, 10, 0) == 0
        assert pair_cost_estimate(3, 10, 0) == 3
        assert pair_cost_estimate(9, 10, 0) == 2
        assert pair_cost_estimate(9, 10, 1) == 1

    def test_saving_positive_for_twins(self):
        # Two nodes with identical neighborhoods are the canonical good merge.
        graph = complete_bipartite_graph(2, 6)
        state = SluggerState(graph)
        hierarchy = state.summary.hierarchy
        value = saving(state, hierarchy.leaf_of(0), hierarchy.leaf_of(1))
        assert value > 0.3

    def test_saving_negative_for_distant_pair(self):
        graph = path_graph(6)
        state = SluggerState(graph)
        hierarchy = state.summary.hierarchy
        value = saving(state, hierarchy.leaf_of(0), hierarchy.leaf_of(5))
        assert value < 0

    def test_estimate_merged_cost_clique(self):
        graph = complete_graph(4)
        state = SluggerState(graph)
        hierarchy = state.summary.hierarchy
        estimate = estimate_merged_cost(state, hierarchy.leaf_of(0), hierarchy.leaf_of(1))
        # Two h-edges, one p-edge inside, and at most one edge per outside node.
        assert estimate <= 2 + 1 + 2

    def test_best_partner_prefers_twin(self):
        graph = complete_bipartite_graph(2, 5)
        state = SluggerState(graph)
        hierarchy = state.summary.hierarchy
        left_a, left_b = hierarchy.leaf_of(0), hierarchy.leaf_of(1)
        others = [hierarchy.leaf_of(node) for node in range(2, 7)]
        value, partner = best_partner(state, left_a, [left_b] + others)
        assert partner == left_b
        assert value > 0

    def test_best_partner_respects_height_bound(self):
        graph = complete_graph(4)
        state = SluggerState(graph)
        hierarchy = state.summary.hierarchy
        merged = state.merge_roots(hierarchy.leaf_of(0), hierarchy.leaf_of(1))
        value, partner = best_partner(
            state, merged, [hierarchy.leaf_of(2)], height_bound=1
        )
        assert partner == -1

    def test_best_partner_skips_distant_candidates(self):
        graph = path_graph(8)
        state = SluggerState(graph)
        hierarchy = state.summary.hierarchy
        value, partner = best_partner(
            state, hierarchy.leaf_of(0), [hierarchy.leaf_of(6), hierarchy.leaf_of(7)]
        )
        assert partner == -1


# ----------------------------------------------------------------------
# The incremental estimate against a full walk over both trees
# ----------------------------------------------------------------------
def reference_estimate(state, root_a, root_b, fired=None):
    """Cost_{A∪B} by walking both roots' full counter maps.

    The incremental :func:`estimate_merged_cost` must return exactly this.
    ``fired`` collects every outside root whose term was won by the
    dense-block alternative.
    """
    size_of = state.summary.hierarchy.size_map().__getitem__
    size_a = size_of(root_a)
    size_b = size_of(root_b)
    adj_a = state.root_adj[root_a]
    adj_b = state.root_adj[root_b]
    pn_a = state.pn_count[root_a]
    pn_b = state.pn_count[root_b]
    cost = state.tree_h[root_a] + state.tree_h[root_b] + 2
    cross_subedges = adj_a.get(root_b, 0)
    cross_current = pn_a.get(root_b, 0)
    keep_intra = (
        pn_a.get(root_a, 0)
        + pn_b.get(root_b, 0)
        + pair_cost_estimate(cross_subedges, size_a * size_b, cross_current)
    )
    intra_subedges = adj_a.get(root_a, 0) + adj_b.get(root_b, 0) + cross_subedges
    merged_size = size_a + size_b
    if intra_subedges > 0:
        self_loop = 1 + (merged_size * (merged_size - 1) // 2 - intra_subedges)
        cost += min(keep_intra, self_loop)
    else:
        cost += keep_intra
    for other in set(adj_a) | set(adj_b):
        if other == root_a or other == root_b:
            continue
        subedges = adj_a.get(other, 0) + adj_b.get(other, 0)
        best = subedges
        alternative = 1 + merged_size * size_of(other) - subedges
        if alternative < best:
            best = alternative
            if fired is not None:
                fired.append(other)
        current = pn_a.get(other, 0) + pn_b.get(other, 0)
        if 0 < current < best:
            best = current
        cost += best
    return cost


def merged_cost_floor(adj_a, adj_b, root_a, root_b, h_a, h_b):
    """The lower bound on Cost_{A∪B} that partner search skips against.

    ``adj_a``/``adj_b`` are the roots' ``root_adj`` maps and ``h_a``/``h_b``
    their ``tree_h``: both trees' h-edges plus two new ones, one for every
    root ``C ∉ {A, B}`` in either map, and one for the intra term when
    ``A`` or ``B`` is in the key union (A–A, A–B or B–B subedges).
    """
    touched = adj_a.keys() | adj_b.keys()
    floor = h_a + h_b + 2 + len(touched)
    intra_a = root_a in touched
    intra_b = root_b in touched
    return floor - intra_a - intra_b + (intra_a or intra_b)


def reference_scan(state, root, candidates, height_bound, threshold, estimated):
    """Partner search written check by check, appending each estimated pair.

    Lemma 1 is an ``isdisjoint`` test, the denominator comes from
    :func:`pair_denominator` and the skip from :func:`merged_cost_floor`;
    :func:`best_partner` must estimate exactly the same pairs.
    """
    root_adj = state.root_adj
    direct = root_adj[root]
    best_value = float("-inf") if threshold is None else math.nextafter(threshold, -math.inf)
    best_root = -1
    for other in candidates:
        if other == root:
            continue
        adj_other = root_adj[other]
        if other not in direct and direct.keys().isdisjoint(adj_other):
            continue
        if height_bound is not None:
            if 1 + max(state.tree_height[root], state.tree_height[other]) > height_bound:
                continue
        denominator = pair_denominator(state, root, other)
        if denominator <= 0:
            continue
        floor = merged_cost_floor(direct, adj_other, root, other,
                                  state.tree_h[root], state.tree_h[other])
        if 1.0 - floor / denominator <= best_value:
            continue
        estimated.append((root, other))
        value = 1.0 - reference_estimate(state, root, other) / denominator
        if value > best_value:
            best_value = value
            best_root = other
    if best_root < 0:
        return float("-inf"), -1
    return best_value, best_root


def reference_best_partner(state, root, candidates, height_bound=None):
    """Partner search with the two-hop set, the reference estimate, no skips."""
    admissible = two_hop_roots(state, root)
    best_value = float("-inf")
    best_root = -1
    for other in candidates:
        if other == root or other not in admissible:
            continue
        if height_bound is not None:
            if 1 + max(state.tree_height[root], state.tree_height[other]) > height_bound:
                continue
        denominator = pair_denominator(state, root, other)
        if denominator <= 0:
            continue
        value = 1.0 - reference_estimate(state, root, other) / denominator
        if value > best_value:
            best_value = value
            best_root = other
    return best_value, best_root


@contextmanager
def checked_estimates(fired=None):
    """Check every estimate partner search makes against the reference.

    Yields the list of scored ``(root_a, root_b)`` pairs.
    """
    scored = []
    original = saving_module.estimate_merged_cost

    def checked(state, root_a, root_b, profile=None):
        cost = original(state, root_a, root_b, profile)
        assert cost == reference_estimate(state, root_a, root_b, fired), (root_a, root_b)
        scored.append((root_a, root_b))
        return cost

    saving_module.estimate_merged_cost = checked
    try:
        yield scored
    finally:
        saving_module.estimate_merged_cost = original


def assert_lemma1_test_matches_two_hop(state):
    """The per-candidate Lemma 1 test admits exactly the two-hop set."""
    root_adj = state.root_adj
    for root in state.roots:
        direct = root_adj[root]
        two_hop = two_hop_roots(state, root)
        for other in state.roots:
            if other == root:
                continue
            admitted = other in direct or not direct.keys().isdisjoint(root_adj[other])
            assert admitted == (other in two_hop), (root, other)


def assert_partner_search_matches_reference(state, height_bound):
    roots = sorted(state.roots)
    with checked_estimates() as scored:
        for root in roots:
            candidates = [other for other in roots if other != root]
            expected = reference_best_partner(state, root, candidates, height_bound)
            assert best_partner(state, root, candidates, height_bound=height_bound) == expected
    return scored


def randomly_merged_state(graph, merges, seed):
    """A state after ``merges`` random merge-and-re-encode steps."""
    rng = random.Random(seed)
    state = SluggerState(graph)
    config = SluggerConfig()
    for _ in range(merges):
        if len(state.roots) < 2:
            break
        root_a, root_b = rng.sample(sorted(state.roots), 2)
        merge_and_update(state, root_a, root_b, config)
    return state


def edge_merged_state(graph, merges, seed):
    """A state after ``merges`` merge-and-re-encode steps, each joining a
    random root with a root it shares subedges with."""
    rng = random.Random(seed)
    state = SluggerState(graph)
    config = SluggerConfig()
    for _ in range(merges):
        root_adj = state.root_adj
        roots = [root for root in sorted(state.roots) if root_adj[root].keys() - {root}]
        if not roots:
            break
        root_a = rng.choice(roots)
        root_b = rng.choice(sorted(root_adj[root_a].keys() - {root_a}))
        merge_and_update(state, root_a, root_b, config)
    return state


GENERATED_GRAPHS = {
    "er": lambda seed: erdos_renyi_graph(30, 0.12, seed=seed),
    "caveman": lambda seed: caveman_graph(4, 5, 0.1, seed=seed),
}


@st.composite
def merged_dense_states(draw, max_nodes: int = 11):
    """A dense random graph (at least half of all pairs) after random merges.

    Each merge either re-encodes locally (as SLUGGER does) or only joins
    the trees, which keeps leaf-level encodings whose per-pair p-edge
    counts leave the dense-block alternative room to win.
    """
    num_nodes = draw(st.integers(min_value=4, max_value=max_nodes))
    pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    missing = set(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs) // 2)))
    graph = Graph(nodes=range(num_nodes))
    for u, v in pairs:
        if (u, v) not in missing:
            graph.add_edge(u, v)
    state = SluggerState(graph)
    config = SluggerConfig()
    for _ in range(draw(st.integers(min_value=0, max_value=num_nodes - 2))):
        roots = sorted(state.roots)
        root_a = draw(st.sampled_from(roots))
        root_b = draw(st.sampled_from([root for root in roots if root != root_a]))
        if draw(st.booleans()):
            merge_and_update(state, root_a, root_b, config)
        else:
            state.merge_roots(root_a, root_b)
    return state


class TestIncrementalEstimate:
    @pytest.mark.parametrize("height_bound", [None, 2])
    @pytest.mark.parametrize("graph", [
        erdos_renyi_graph(150, 0.05, seed=3),
        caveman_graph(10, 8, 0.1, seed=2),
    ], ids=["er", "caveman"])
    def test_every_scored_pair_matches_full_walk(self, graph, height_bound):
        # The paper schedule's θ cutoff leaves few pairs to estimate; the
        # zero schedule estimates every pair that can beat the best so far.
        with checked_estimates() as scored:
            for schedule in ("paper", "zero"):
                config = SluggerConfig(iterations=8, seed=1, height_bound=height_bound,
                                       threshold_schedule=schedule, check_invariants=True)
                Slugger(config).summarize(graph)
        assert len(scored) > 100

    def test_dense_block_alternative_fires_on_caveman(self):
        fired = []
        with checked_estimates(fired):
            Slugger(SluggerConfig(iterations=5, seed=0)).summarize(caveman_graph(6, 6, 0.05, seed=4))
        assert fired

    def test_a_only_dense_block_term(self):
        # Tree A = {0, 1, 2} is fully joined to leaf 3; B = leaf 4 touches
        # only A.  The (A∪B, 3) term lives in A's profile alone and is won
        # by the dense block: 1 + 4·1 − 3 = 2 < 3 subedges.
        graph = Graph(edges=[(0, 3), (1, 3), (2, 3), (0, 4)])
        state = SluggerState(graph)
        hierarchy = state.summary.hierarchy
        tree_a = state.merge_roots(hierarchy.leaf_of(0), hierarchy.leaf_of(1))
        tree_a = state.merge_roots(tree_a, hierarchy.leaf_of(2))
        leaf_b = hierarchy.leaf_of(4)
        fired = []
        expected = reference_estimate(state, tree_a, leaf_b, fired)
        assert fired == [hierarchy.leaf_of(3)]
        assert estimate_merged_cost(state, tree_a, leaf_b) == expected
        assert estimate_merged_cost(state, leaf_b, tree_a) == reference_estimate(state, leaf_b, tree_a)

    @pytest.mark.parametrize("graph", [
        erdos_renyi_graph(60, 0.1, seed=5),
        caveman_graph(6, 5, 0.1, seed=1),
    ], ids=["er", "caveman"])
    def test_lemma1_test_matches_two_hop_on_merged_states(self, graph):
        assert_lemma1_test_matches_two_hop(randomly_merged_state(graph, 15, seed=2))

    @pytest.mark.parametrize("height_bound", [None, 2])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(state=merged_dense_states())
    def test_random_merged_dense_states(self, state, height_bound):
        state.check_consistency()
        assert_lemma1_test_matches_two_hop(state)
        assert_partner_search_matches_reference(state, height_bound)
        # One shared profile prices candidates of every size exactly.
        for root_a in state.roots:
            profile = PartnerProfile(state, root_a)
            for root_b in state.roots:
                if root_b != root_a:
                    assert estimate_merged_cost(state, root_a, root_b, profile) == \
                        reference_estimate(state, root_a, root_b)


# θ(t) = 1/(1+t) of Eq. 9 for t = 1..19, the θ = 0 of the last iteration
# and the constant schedules' values.
THRESHOLDS = [0.0, *(1.0 / (1 + t) for t in range(1, 20)), 0.25, 1.0]


class TestThresholdCutoff:
    @pytest.mark.parametrize("height_bound", [None, 2])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(state=merged_dense_states())
    def test_cutoff_matches_reference(self, state, height_bound):
        roots = sorted(state.roots)
        for root in roots:
            candidates = [other for other in roots if other != root]
            expected = reference_best_partner(state, root, candidates, height_bound)
            for threshold in THRESHOLDS:
                got = best_partner(state, root, candidates,
                                   height_bound=height_bound, threshold=threshold)
                if expected[0] >= threshold:
                    assert got == expected, (root, threshold)
                else:
                    assert got == (float("-inf"), -1), (root, threshold)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(state=merged_dense_states())
    def test_floor_never_exceeds_estimate(self, state):
        root_adj = state.root_adj
        tree_h = state.tree_h
        for root_a in state.roots:
            for root_b in state.roots:
                if root_b == root_a:
                    continue
                floor = merged_cost_floor(root_adj[root_a], root_adj[root_b], root_a, root_b,
                                          tree_h[root_a], tree_h[root_b])
                assert floor <= reference_estimate(state, root_a, root_b), (root_a, root_b)

    @pytest.mark.parametrize("kind", ["er", "caveman"])
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(seed=st.integers(min_value=0, max_value=10**6),
           merges=st.integers(min_value=1, max_value=12))
    def test_scan_estimates_the_reference_candidates(self, kind, seed, merges):
        # Merges along subedges give trees with A–A subedges, so a pair may
        # have intra subedges on one side, on both, or only between them.
        state = edge_merged_state(GENERATED_GRAPHS[kind](seed), merges, seed)
        assert any(root in state.root_adj[root] for root in state.roots)
        roots = sorted(state.roots)
        for height_bound in (None, 1, 2, 3):
            for threshold in (None, *THRESHOLDS):
                for root in roots:
                    candidates = [other for other in roots if other != root]
                    expected_pairs = []
                    expected = reference_scan(state, root, candidates, height_bound,
                                              threshold, expected_pairs)
                    with checked_estimates() as scored:
                        got = best_partner(state, root, candidates,
                                           height_bound=height_bound, threshold=threshold)
                    assert got == expected, (root, height_bound, threshold)
                    assert scored == expected_pairs, (root, height_bound, threshold)

    def test_scan_meets_every_intra_case(self):
        # Some candidate pair is non-adjacent with A–A and B–B subedges,
        # the one case where the key union counts both roots without A–B.
        for kind in GENERATED_GRAPHS:
            state = edge_merged_state(GENERATED_GRAPHS[kind](0), 12, 0)
            root_adj = state.root_adj
            selfs = [root for root in state.roots if root in root_adj[root]]
            assert any(
                b not in root_adj[a] and not root_adj[a].keys().isdisjoint(root_adj[b])
                for a in selfs for b in selfs if a != b
            ), kind

    def test_cutoff_returns_nothing_below_threshold(self):
        # Two disjoint edges: every merge costs more than it saves, so no
        # candidate reaches θ = 0 and none is even estimated.
        state = SluggerState(Graph(edges=[(0, 1), (2, 3)]))
        roots = sorted(state.roots)
        assert best_partner(state, roots[0], roots[1:])[1] >= 0
        with checked_estimates() as scored:
            assert best_partner(state, roots[0], roots[1:], threshold=0.0) == (float("-inf"), -1)
        assert scored == []
