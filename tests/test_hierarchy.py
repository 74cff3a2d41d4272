"""Unit tests for the supernode hierarchy forest."""

from __future__ import annotations

import pytest

from repro.exceptions import SummaryInvariantError
from repro.model import Hierarchy


@pytest.fixture
def two_level() -> Hierarchy:
    """Four leaves merged pairwise, then into one root: ((a,b),(c,d))."""
    hierarchy = Hierarchy()
    a, b, c, d = (hierarchy.add_leaf(name) for name in "abcd")
    left = hierarchy.create_parent([a, b])
    right = hierarchy.create_parent([c, d])
    hierarchy.create_parent([left, right])
    return hierarchy


class TestConstruction:
    def test_add_leaf_idempotent(self):
        hierarchy = Hierarchy()
        first = hierarchy.add_leaf("x")
        second = hierarchy.add_leaf("x")
        assert first == second
        assert hierarchy.num_supernodes == 1

    def test_create_parent_requires_roots(self):
        hierarchy = Hierarchy()
        a, b = hierarchy.add_leaf("a"), hierarchy.add_leaf("b")
        parent = hierarchy.create_parent([a, b])
        with pytest.raises(SummaryInvariantError):
            hierarchy.create_parent([a, parent])

    def test_create_parent_requires_children(self):
        with pytest.raises(SummaryInvariantError):
            Hierarchy().create_parent([])

    def test_create_parent_unknown_child(self):
        with pytest.raises(KeyError):
            Hierarchy().create_parent([42])

    def test_sizes(self, two_level):
        root = two_level.roots()[0]
        assert two_level.size(root) == 4
        for child in two_level.children(root):
            assert two_level.size(child) == 2

    def test_hierarchy_edge_count(self, two_level):
        # 4 leaves + 2 internals below one root: 6 non-root supernodes.
        assert two_level.num_hierarchy_edges == 6
        assert two_level.num_supernodes == 7

    @pytest.mark.parametrize("subnodes", [[], ["a"], list("dcba"), [3, "x", 0, (1, 2), 10]])
    def test_from_parts_leaves_equal_an_add_leaf_loop(self, subnodes):
        looped = Hierarchy()
        for subnode in subnodes:
            looped.add_leaf(subnode)
        built = Hierarchy.from_parts(subnodes, ())
        for name in ("_parent", "_children", "_leaf_subnode", "_leaf_of_subnode",
                     "_size", "_leaf_cache"):
            # Item lists, so insertion order is compared too.
            assert list(getattr(built, name).items()) == list(getattr(looped, name).items())
        counters = (len(subnodes), len(subnodes))
        assert (built._next_id, built._mutations) == (looped._next_id, looped._mutations) == counters
        if len(subnodes) >= 2:
            assert built.create_parent([0, 1]) == looped.create_parent([0, 1])

    @pytest.mark.parametrize("subnodes", [["a", "a"], ["a", "b", "a"], [1, 2, 3, 2]])
    def test_from_parts_rejects_a_repeated_subnode(self, subnodes):
        with pytest.raises(SummaryInvariantError, match="repeats a subnode"):
            Hierarchy.from_parts(subnodes, ())


class TestQueries:
    def test_roots_and_parents(self, two_level):
        roots = two_level.roots()
        assert len(roots) == 1
        root = roots[0]
        assert two_level.parent(root) is None
        for child in two_level.children(root):
            assert two_level.parent(child) == root

    def test_leaf_subnodes(self, two_level):
        root = two_level.roots()[0]
        assert sorted(two_level.leaf_subnodes(root)) == ["a", "b", "c", "d"]
        left = two_level.children(root)[0]
        assert len(two_level.leaf_subnodes(left)) == 2

    def test_root_of_and_ancestors(self, two_level):
        root = two_level.roots()[0]
        leaf = two_level.leaf_of("a")
        assert two_level.root_of(leaf) == root
        ancestors = two_level.ancestors(leaf)
        assert ancestors[0] == leaf
        assert ancestors[-1] == root
        assert len(ancestors) == 3

    def test_is_ancestor(self, two_level):
        root = two_level.roots()[0]
        leaf = two_level.leaf_of("c")
        assert two_level.is_ancestor(root, leaf)
        assert two_level.is_ancestor(leaf, leaf)
        assert not two_level.is_ancestor(leaf, root)

    def test_descendants(self, two_level):
        root = two_level.roots()[0]
        descendants = set(two_level.descendants(root))
        assert len(descendants) == 7
        assert set(two_level.descendants(root, include_self=False)) == descendants - {root}


class TestShapeStatistics:
    def test_heights(self, two_level):
        root = two_level.roots()[0]
        assert two_level.height(root) == 2
        assert two_level.max_height() == 2
        leaf = two_level.leaf_of("a")
        assert two_level.height(leaf) == 0

    def test_leaf_depths(self, two_level):
        depths = two_level.leaf_depths()
        assert set(depths.values()) == {2}
        assert two_level.average_leaf_depth() == 2.0

    def test_singleton_forest_statistics(self):
        hierarchy = Hierarchy()
        hierarchy.add_leaf(1)
        hierarchy.add_leaf(2)
        assert hierarchy.max_height() == 0
        assert hierarchy.average_leaf_depth() == 0.0
        assert hierarchy.num_hierarchy_edges == 0


class TestSpliceOut:
    def test_splice_out_internal(self, two_level):
        root = two_level.roots()[0]
        left = two_level.children(root)[0]
        before_edges = two_level.num_hierarchy_edges
        two_level.splice_out(left)
        assert two_level.num_hierarchy_edges == before_edges - 1
        assert not two_level.contains(left)
        # The grandchildren are now direct children of the root.
        assert len(two_level.children(root)) == 3

    def test_splice_out_root(self, two_level):
        root = two_level.roots()[0]
        two_level.splice_out(root)
        assert len(two_level.roots()) == 2
        assert two_level.max_height() == 1

    def test_splice_out_leaf_rejected(self, two_level):
        with pytest.raises(SummaryInvariantError):
            two_level.splice_out(two_level.leaf_of("a"))

    def test_splice_out_unknown(self):
        with pytest.raises(KeyError):
            Hierarchy().splice_out(3)


class TestCopy:
    def test_copy_is_independent(self, two_level):
        clone = two_level.copy()
        root = clone.roots()[0]
        clone.splice_out(root)
        assert len(two_level.roots()) == 1
        assert len(clone.roots()) == 2

    def test_repr(self, two_level):
        assert "supernodes=7" in repr(two_level)
