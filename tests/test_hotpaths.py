"""Regression tests for the hot-path overhaul.

The lazy/cached shingle scheme, the memoized per-supernode leaf sets, and
the position-map merge loop are pure refactors of *where* work happens:
these tests pin the invariants that guarantee the *what* is unchanged —
eager/lazy equivalence for fixed seeds, leaf-cache freshness across
merges and pruning, and index consistency after every driver iteration.
"""

from __future__ import annotations

import random

import pytest

from repro.core import Slugger, SluggerConfig, summarize
from repro.core.candidates import generate_candidate_sets
from repro.core.merging import merge_and_update
from repro.core.saving import best_partner, saving, two_hop_roots
from repro.core.shingles import make_hash_function
from repro.core.state import SluggerState
from repro.exceptions import SummaryInvariantError
from repro.graphs import caveman_graph, erdos_renyi_graph
from repro.model.hierarchy import Hierarchy
from repro.utils.rng import ensure_rng


def subnode_shingles(graph, hash_function):
    """Shingle of every subnode: min hash over its closed neighbourhood."""
    return {node: min(hash_function(x) for x in [node, *graph.neighbor_set(node)])
            for node in graph.nodes()}


def root_shingles(roots, hierarchy, node_shingles):
    """Shingle of each root supernode: min over its subnodes' shingles."""
    return {root: min(node_shingles[leaf] for leaf in hierarchy.leaf_subnodes(root))
            for root in roots}


def eager_generate_candidate_sets(graph, hierarchy, roots, config, seed=None):
    """The seed implementation: rehash every node on every shingle round."""
    rng = ensure_rng(seed)
    groups = [list(roots)]
    finished = []
    for _ in range(config.shingle_rounds):
        oversized = [group for group in groups if len(group) > config.max_candidate_size]
        finished.extend(group for group in groups if len(group) <= config.max_candidate_size)
        if not oversized:
            groups = []
            break
        hash_function = make_hash_function(rng.randrange(2**61))
        node_shingles = subnode_shingles(graph, hash_function)
        groups = []
        for group in oversized:
            shingles = root_shingles(group, hierarchy, node_shingles)
            buckets = {}
            for root in group:
                buckets.setdefault(shingles[root], []).append(root)
            if len(buckets) == 1:
                groups.append(group)
            else:
                groups.extend(buckets.values())
    for group in groups:
        if len(group) <= config.max_candidate_size:
            finished.append(group)
        else:
            shuffled = list(group)
            rng.shuffle(shuffled)
            for start in range(0, len(shuffled), config.max_candidate_size):
                finished.append(shuffled[start:start + config.max_candidate_size])
    candidate_sets = [group for group in finished if len(group) >= 2]
    rng.shuffle(candidate_sets)
    return candidate_sets


class TestLazyCandidatesEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 23])
    def test_flat_hierarchy_matches_eager(self, seed):
        graph = erdos_renyi_graph(120, 0.08, seed=4)
        state = SluggerState(graph)
        config = SluggerConfig(max_candidate_size=10, seed=0)
        roots = sorted(state.roots)
        lazy = generate_candidate_sets(state.dense, state.summary.hierarchy, roots, config,
                                       seed=seed)
        eager = eager_generate_candidate_sets(graph, state.summary.hierarchy, roots, config, seed=seed)
        assert lazy == eager

    def test_merged_hierarchy_matches_eager(self):
        graph = caveman_graph(6, 5, seed=2)
        state = SluggerState(graph)
        hierarchy = state.summary.hierarchy
        leaves = sorted(state.roots)
        for first, second in zip(leaves[0::4], leaves[1::4]):
            state.merge_roots(first, second)
        config = SluggerConfig(max_candidate_size=4, seed=0)
        roots = sorted(state.roots)
        for seed in (3, 11):
            lazy = generate_candidate_sets(state.dense, hierarchy, roots, config, seed=seed)
            eager = eager_generate_candidate_sets(graph, hierarchy, roots, config, seed=seed)
            assert lazy == eager


class TestBestPartnerShortCircuits:
    def naive_best_partner(self, state, root, candidates, height_bound=None):
        admissible = two_hop_roots(state, root)
        best_value = float("-inf")
        best_root = -1
        for other in candidates:
            if other == root or other not in admissible:
                continue
            if height_bound is not None:
                new_height = 1 + max(state.tree_height[root], state.tree_height[other])
                if new_height > height_bound:
                    continue
            value = saving(state, root, other)
            if value > best_value:
                best_value = value
                best_root = other
        return best_value, best_root

    @pytest.mark.parametrize("height_bound", [None, 2])
    def test_matches_naive_search(self, height_bound):
        graph = caveman_graph(4, 5, 0.1, seed=5)
        state = SluggerState(graph)
        roots = sorted(state.roots)
        for root in roots[:8]:
            candidates = [other for other in roots if other != root]
            expected = self.naive_best_partner(state, root, candidates, height_bound)
            actual = best_partner(state, root, candidates, height_bound=height_bound)
            assert actual == expected

    @pytest.mark.parametrize("height_bound", [None, 2])
    @pytest.mark.parametrize("reencode", [True, False])
    def test_matches_naive_search_with_merged_trees(self, height_bound, reencode):
        graph = caveman_graph(5, 6, 0.1, seed=3)
        state = SluggerState(graph)
        config = SluggerConfig()
        rng = random.Random(7)
        for _ in range(12):
            root_a, root_b = rng.sample(sorted(state.roots), 2)
            if reencode:
                merge_and_update(state, root_a, root_b, config)
            else:
                state.merge_roots(root_a, root_b)
        state.check_consistency()
        roots = sorted(state.roots)
        assert any(state.tree_height[root] > 1 for root in roots)
        for root in roots:
            candidates = [other for other in roots if other != root]
            expected = self.naive_best_partner(state, root, candidates, height_bound)
            actual = best_partner(state, root, candidates, height_bound=height_bound)
            assert actual == expected


class TestLeafCache:
    def test_create_parent_updates_leaf_sets_incrementally(self):
        hierarchy = Hierarchy()
        leaves = [hierarchy.add_leaf(f"n{i}") for i in range(6)]
        left = hierarchy.create_parent(leaves[:3])
        right = hierarchy.create_parent(leaves[3:])
        top = hierarchy.create_parent([left, right])
        assert sorted(hierarchy.leaf_ids(left)) == sorted(leaves[:3])
        assert sorted(hierarchy.leaf_ids(top)) == sorted(leaves)
        assert sorted(hierarchy.leaf_subnodes(top)) == [f"n{i}" for i in range(6)]
        hierarchy.verify_leaf_cache()

    def test_splice_out_keeps_leaf_cache_fresh(self):
        hierarchy = Hierarchy()
        leaves = [hierarchy.add_leaf(i) for i in range(4)]
        inner = hierarchy.create_parent(leaves[:2])
        top = hierarchy.create_parent([inner, leaves[2], leaves[3]])
        assert len(hierarchy.leaf_ids(top)) == 4
        hierarchy.splice_out(inner)
        assert sorted(hierarchy.leaf_ids(top)) == sorted(leaves)
        hierarchy.verify_leaf_cache()

    def test_copy_carries_cache_without_sharing_mutations(self):
        hierarchy = Hierarchy()
        leaves = [hierarchy.add_leaf(i) for i in range(4)]
        hierarchy.create_parent(leaves[:2])
        clone = hierarchy.copy()
        merged = clone.create_parent([clone.roots()[0], clone.roots()[1]])
        clone.verify_leaf_cache()
        hierarchy.verify_leaf_cache()
        assert not hierarchy.contains(merged)

    def test_verify_leaf_cache_detects_corruption(self):
        hierarchy = Hierarchy()
        leaves = [hierarchy.add_leaf(i) for i in range(3)]
        top = hierarchy.create_parent(leaves)
        hierarchy._leaf_cache[top] = (leaves[0],)
        with pytest.raises(SummaryInvariantError):
            hierarchy.verify_leaf_cache()


class TestDriverInvariants:
    """check_consistency after every iteration of small end-to-end runs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_caveman_run_keeps_indices_consistent(self, seed):
        graph = caveman_graph(5, 5, 0.05, seed=3)
        config = SluggerConfig(iterations=5, seed=seed, check_invariants=True,
                               validate_output=True)
        result = Slugger(config).summarize(graph)
        assert result.cost() <= graph.num_edges

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_erdos_renyi_run_keeps_indices_consistent(self, seed):
        graph = erdos_renyi_graph(60, 0.12, seed=8)
        config = SluggerConfig(iterations=4, seed=seed, check_invariants=True,
                               validate_output=True)
        result = Slugger(config).summarize(graph)
        result.summary.validate(graph)

    def test_height_bounded_run_keeps_indices_consistent(self):
        graph = caveman_graph(4, 4, seed=1)
        result = summarize(graph, iterations=4, seed=0, height_bound=2,
                           check_invariants=True, validate_output=True)
        assert result.summary.hierarchy.max_height() <= 2

    def test_state_leaf_accessors_follow_merges(self):
        graph = caveman_graph(3, 3, seed=0)
        state = SluggerState(graph)
        hierarchy = state.summary.hierarchy
        first, second = sorted(state.roots)[:2]
        count = hierarchy.size(first) + hierarchy.size(second)
        merged = state.merge_roots(first, second)
        assert state.leaf_count(merged) == count
        assert len(state.leaf_subnodes(merged)) == count
        state.check_consistency()
