"""Forest of hierarchical supernodes.

A supernode is identified by an integer id.  Leaf supernodes are
singletons wrapping exactly one subnode of the input graph; internal
supernodes own one or more child supernodes and implicitly contain every
subnode in their subtree.  The forest corresponds to the set ``H`` of
hierarchy edges in the model ``G = (S, P+, P-, H)``: each non-root
supernode contributes exactly one h-edge (from its parent).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import SummaryInvariantError
from repro.graphs.index import NodeIndex

__all__ = ["Hierarchy"]

Subnode = Hashable


class Hierarchy:
    """A mutable forest of supernodes over a fixed set of subnodes.

    Examples
    --------
    >>> h = Hierarchy()
    >>> a, b = h.add_leaf("u"), h.add_leaf("v")
    >>> top = h.create_parent([a, b])
    >>> h.num_hierarchy_edges
    2
    >>> sorted(h.leaf_subnodes(top))
    ['u', 'v']
    """

    def __init__(self) -> None:
        self._parent: Dict[int, Optional[int]] = {}
        self._children: Dict[int, List[int]] = {}
        self._leaf_subnode: Dict[int, Subnode] = {}
        self._leaf_of_subnode: Dict[Subnode, int] = {}
        self._size: Dict[int, int] = {}
        # Memoized leaf-id tuples per supernode.  A supernode's leaf set is
        # fixed at creation time (children are only ever attached when the
        # supernode is created, and ``splice_out`` reattaches children to
        # the parent without changing any surviving leaf set), so entries
        # never go stale — they are only dropped when their supernode is
        # removed.  ``create_parent`` extends the cache incrementally by
        # concatenating the children's tuples, which is what keeps
        # shingle rounds, panel statistics, and saving evaluation from
        # re-walking trees on the SLUGGER hot path.
        self._leaf_cache: Dict[int, Tuple[int, ...]] = {}
        # Memoized subnode index for query serving (see subnode_index);
        # leaves are never removed, so the subnode count alone tells
        # whether it is current.  Two threads racing to rebuild it build
        # equal indexes, so the memo needs no lock.
        self._subnode_index: Optional[NodeIndex] = None
        # Bumped by every structural change (add_leaf, create_parent,
        # splice_out); the summary keys its memoized row table on it.
        self._mutations = 0
        self._next_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_leaf(self, subnode: Subnode) -> int:
        """Register ``subnode`` and return the id of its singleton supernode."""
        if subnode in self._leaf_of_subnode:
            return self._leaf_of_subnode[subnode]
        node_id = self._next_id
        self._next_id += 1
        self._parent[node_id] = None
        self._children[node_id] = []
        self._leaf_subnode[node_id] = subnode
        self._leaf_of_subnode[subnode] = node_id
        self._size[node_id] = 1
        self._leaf_cache[node_id] = (node_id,)
        self._mutations += 1
        return node_id

    def create_parent(self, children: Iterable[int]) -> int:
        """Create a new supernode whose children are the given root supernodes.

        Every child must currently be a root (the forest stays a forest).
        Returns the id of the new supernode.
        """
        child_list = list(children)
        if not child_list:
            raise SummaryInvariantError("a new internal supernode needs at least one child")
        for child in child_list:
            if child not in self._parent:
                # repro-lint: disable=raise-taxonomy (documented mapping-style lookup contract)
                raise KeyError(f"unknown supernode id {child}")
            if self._parent[child] is not None:
                raise SummaryInvariantError(
                    f"supernode {child} already has a parent; only roots can be merged"
                )
        node_id = self._next_id
        self._next_id += 1
        self._parent[node_id] = None
        self._children[node_id] = list(child_list)
        self._size[node_id] = sum(self._size[child] for child in child_list)
        for child in child_list:
            self._parent[child] = node_id
        child_caches = [self._leaf_cache.get(child) for child in child_list]
        if all(cached is not None for cached in child_caches):
            # Incremental update: the merged leaf set is the concatenation
            # of the children's (immutable) leaf sets.
            combined: List[int] = []
            for cached in child_caches:
                combined.extend(cached)  # type: ignore[arg-type]
            self._leaf_cache[node_id] = tuple(combined)
        self._mutations += 1
        return node_id

    @classmethod
    def from_parts(
        cls,
        subnodes: Iterable[Subnode],
        internal: Iterable[Tuple[int, List[int]]],
        next_id: Optional[int] = None,
    ) -> "Hierarchy":
        """Rebuild a forest from its serialized parts (the summary codec).

        ``subnodes`` is the id-ordered leaf list (leaf ``i`` wraps the
        ``i``-th subnode); ``internal`` yields ``(id, children)`` pairs in
        **ascending id order** with each children list verbatim as
        originally created; ``next_id`` restores the id counter (defaults
        to one past the largest id).  Because supernode ids are assigned
        monotonically and dict deletions preserve insertion order, the
        ascending-id rebuild reproduces the original iteration order of
        every internal mapping — :meth:`roots` and friends return ids in
        exactly the order the serialized forest did, which is what keeps
        resumed runs bit-identical.  Sizes and leaf caches are recomputed
        bottom-up from the children lists.
        """
        forest = cls()
        # The leaf half in bulk, with the dicts (and their insertion
        # orders) and counters that one add_leaf per subnode would leave.
        leaves = list(subnodes)
        ids = range(len(leaves))
        forest._leaf_of_subnode = dict(zip(leaves, ids))
        if len(forest._leaf_of_subnode) != len(leaves):
            raise SummaryInvariantError("serialized hierarchy repeats a subnode")
        forest._parent = dict.fromkeys(ids)
        forest._children = {node_id: [] for node_id in ids}
        forest._leaf_subnode = dict(zip(ids, leaves))
        forest._size = dict.fromkeys(ids, 1)
        forest._leaf_cache = {node_id: (node_id,) for node_id in ids}
        forest._mutations = forest._next_id = len(leaves)
        for node_id, children in internal:
            if node_id < forest._next_id or node_id in forest._parent:
                raise SummaryInvariantError(
                    f"serialized internal supernodes must arrive in ascending id "
                    f"order above the leaves, got id {node_id}"
                )
            if not children:
                raise SummaryInvariantError(
                    f"serialized internal supernode {node_id} has no children"
                )
            combined: List[int] = []
            size = 0
            for child in children:
                if child not in forest._parent:
                    raise SummaryInvariantError(
                        f"serialized supernode {node_id} references unknown child {child}"
                    )
                if forest._parent[child] is not None:
                    raise SummaryInvariantError(
                        f"serialized supernode {child} has two parents"
                    )
                forest._parent[child] = node_id
                size += forest._size[child]
                combined.extend(forest._leaf_cache[child])
            forest._parent[node_id] = None
            forest._children[node_id] = list(children)
            forest._size[node_id] = size
            forest._leaf_cache[node_id] = tuple(combined)
            forest._next_id = node_id + 1
        if next_id is not None:
            if next_id < forest._next_id:
                raise SummaryInvariantError(
                    f"serialized id counter {next_id} is below the largest id"
                )
            forest._next_id = next_id
        return forest

    def to_parts(self) -> Tuple[int, Tuple[Tuple[int, Tuple[int, ...]], ...], int]:
        """``(leaf count, internal, next_id)``: the forest as :meth:`from_parts` takes it.

        ``internal`` holds every internal supernode as an ``(id, children)``
        record, in ascending id order, with its children verbatim; the
        leaves are given by count, since ``from_parts`` takes their
        subnodes from the caller.  Everything is a tuple or an int, so
        the parts stay valid however the forest changes later.
        """
        leaves = self._leaf_subnode
        internal = tuple(sorted((node, tuple(kids)) for node, kids in self._children.items()
                                if node not in leaves))
        return len(leaves), internal, self._next_id

    def splice_out(self, supernode: int) -> None:
        """Remove an internal supernode, reattaching its children to its parent.

        Used by pruning substep 1: the supernode disappears from ``S`` and
        its children become children of its parent (or roots, if the
        removed supernode was a root).  Leaves cannot be spliced out.
        """
        if supernode not in self._parent:
            # repro-lint: disable=raise-taxonomy (documented mapping-style lookup contract)
            raise KeyError(f"unknown supernode id {supernode}")
        if self.is_leaf(supernode):
            raise SummaryInvariantError("leaf supernodes cannot be removed from the hierarchy")
        parent = self._parent[supernode]
        children = self._children[supernode]
        for child in children:
            self._parent[child] = parent
            if parent is not None:
                self._children[parent].append(child)
        if parent is not None:
            self._children[parent].remove(supernode)
        del self._parent[supernode]
        del self._children[supernode]
        del self._size[supernode]
        # Leaf sets of the surviving supernodes are unchanged (the children
        # keep their subtrees and the parent keeps the same leaves); only
        # the removed supernode's cache entry must go.
        self._leaf_cache.pop(supernode, None)
        self._mutations += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def mutation_count(self) -> int:
        """Monotonic counter of structural changes to the forest.

        Bumped by every :meth:`add_leaf` that registered a new subnode,
        every :meth:`create_parent` and every :meth:`splice_out` — the
        signal a memoized view derived from the forest reads through
        :func:`repro.graphs.staleness.mutation_stamp` to detect that it
        went stale.
        """
        return self._mutations

    @property
    def num_supernodes(self) -> int:
        """Total number of supernodes currently in the forest."""
        return len(self._parent)

    @property
    def num_hierarchy_edges(self) -> int:
        """|H|: one hierarchy edge per non-root supernode."""
        return sum(1 for parent in self._parent.values() if parent is not None)

    @property
    def num_subnodes(self) -> int:
        """Number of registered subnodes (= number of leaf supernodes)."""
        return len(self._leaf_subnode)

    def supernodes(self) -> List[int]:
        """Ids of all supernodes."""
        return list(self._parent)

    def is_leaf(self, supernode: int) -> bool:
        """Whether ``supernode`` is a leaf (wraps exactly one subnode)."""
        return supernode in self._leaf_subnode

    def contains(self, supernode: int) -> bool:
        """Whether the id refers to a live supernode."""
        return supernode in self._parent

    def is_root(self, supernode: int) -> bool:
        """Whether ``supernode`` has no parent."""
        return self._parent[supernode] is None

    def roots(self) -> List[int]:
        """All root supernodes."""
        return [node for node, parent in self._parent.items() if parent is None]

    def parent(self, supernode: int) -> Optional[int]:
        """Parent id, or ``None`` for roots."""
        return self._parent[supernode]

    def children(self, supernode: int) -> List[int]:
        """Direct children of ``supernode`` (empty for leaves)."""
        return list(self._children.get(supernode, ()))

    def size(self, supernode: int) -> int:
        """Number of subnodes contained in ``supernode``'s subtree."""
        return self._size[supernode]

    def size_map(self) -> Dict[int, int]:
        """The internal supernode → subtree-size mapping (not copied; do not mutate).

        Hot paths bind ``size_map().__getitem__`` once instead of paying a
        method call per size lookup.
        """
        return self._size

    def subnode_of_leaf(self, leaf: int) -> Subnode:
        """The subnode wrapped by a leaf supernode."""
        return self._leaf_subnode[leaf]

    def leaf_of(self, subnode: Subnode) -> int:
        """The leaf supernode id for ``subnode``."""
        return self._leaf_of_subnode[subnode]

    def leaf_subnode_map(self) -> Dict[int, Subnode]:
        """The internal leaf-id → subnode mapping (not copied; do not mutate).

        Hot paths use this to resolve leaf roots to their subnode with a
        single dictionary probe instead of a subtree walk per root.
        """
        return self._leaf_subnode

    def subnodes(self) -> List[Subnode]:
        """All registered subnodes."""
        return list(self._leaf_of_subnode)

    def leaf_ids_are_dense(self) -> bool:
        """Whether the leaf ids are exactly ``0..n-1`` (leaf id == subnode index id).

        True whenever every leaf was added before the first internal
        supernode — summaries built from a graph or a substrate, and
        every codec that rebuilds leaves first.  Leaf ids grow in
        insertion order, so the last one is the largest.
        """
        leaf_subnode = self._leaf_subnode
        return not leaf_subnode or next(reversed(leaf_subnode)) == len(leaf_subnode) - 1

    def subnode_index(self) -> NodeIndex:
        """A :class:`NodeIndex` over the subnodes in leaf order (memoized; do not mutate).

        Rebuilt only when a leaf was added since the last call
        (``splice_out`` never removes leaves), so query serving pays for
        the index — and for the ``repr`` ranks memoized per index
        object — once per summary instead of once per query.
        """
        index = self._subnode_index
        if index is None or len(index) != len(self._leaf_subnode):
            index = NodeIndex(self._leaf_of_subnode)
            self._subnode_index = index
        return index

    def root_of(self, supernode: int) -> int:
        """The root of the tree containing ``supernode``."""
        node = supernode
        while self._parent[node] is not None:
            node = self._parent[node]
        return node

    def root_array(self) -> List[int]:
        """``roots[s]`` is the root of supernode ``s``'s tree, for every live id.

        Built top-down in one walk per tree, so whole-summary passes
        (pruning, index rebuilds, consistency checks) resolve any leaf or
        superedge endpoint with a list index instead of a parent walk.
        Ids of removed supernodes hold ``-1``.
        """
        roots = [-1] * self._next_id
        children = self._children
        for root in self.roots():
            stack = [root]
            while stack:
                node = stack.pop()
                roots[node] = root
                stack.extend(children[node])
        return roots

    def ancestors(self, supernode: int, include_self: bool = True) -> List[int]:
        """Ancestors of ``supernode`` from itself (optional) up to its root."""
        chain: List[int] = []
        node: Optional[int] = supernode if include_self else self._parent[supernode]
        while node is not None:
            chain.append(node)
            node = self._parent[node]
        return chain

    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """Whether ``ancestor`` lies on ``descendant``'s path to its root (inclusive)."""
        node: Optional[int] = descendant
        while node is not None:
            if node == ancestor:
                return True
            node = self._parent[node]
        return False

    def descendants(self, supernode: int, include_self: bool = True) -> Iterator[int]:
        """Iterate over the subtree rooted at ``supernode`` (pre-order)."""
        stack = [supernode]
        while stack:
            node = stack.pop()
            if node != supernode or include_self:
                yield node
            stack.extend(self._children.get(node, ()))

    def leaf_ids(self, supernode: int) -> List[int]:
        """Leaf supernode ids contained in ``supernode``'s subtree (memoized)."""
        return list(self.leaf_id_view(supernode))

    def leaf_id_view(self, supernode: int) -> Tuple[int, ...]:
        """The memoized leaf-id tuple of ``supernode`` (not copied).

        When the hierarchy was built over a graph by
        :meth:`~repro.model.summary.HierarchicalSummary.from_graph`, leaf
        ids coincide with the dense node ids of a
        :class:`~repro.graphs.index.NodeIndex` built from the same graph,
        so this view is what the int-id fast paths iterate instead of
        resolving subnode labels.  A missing entry is filled in lazily
        from the child caches.
        """
        cached = self._leaf_cache.get(supernode)
        if cached is not None:
            return cached
        if supernode in self._leaf_subnode:
            result: Tuple[int, ...] = (supernode,)
        else:
            cache = self._leaf_cache
            leaf_subnode = self._leaf_subnode
            collected: List[int] = []
            stack = [supernode]
            while stack:
                node = stack.pop()
                hit = cache.get(node)
                if hit is not None:
                    collected.extend(hit)
                elif node in leaf_subnode:
                    collected.append(node)
                else:
                    stack.extend(self._children[node])
            result = tuple(collected)
        self._leaf_cache[supernode] = result
        return result

    def leaf_subnodes(self, supernode: int) -> List[Subnode]:
        """Subnodes contained in ``supernode``'s subtree."""
        leaf_subnode = self._leaf_subnode
        return [leaf_subnode[leaf] for leaf in self.leaf_id_view(supernode)]

    def verify_leaf_cache(self) -> None:
        """Check every memoized leaf set against a fresh tree walk.

        Raises :class:`SummaryInvariantError` on any drift.  O(total cache
        size); meant for tests and :meth:`SluggerState.check_consistency`.
        """
        for supernode, cached in self._leaf_cache.items():
            if supernode not in self._parent:
                raise SummaryInvariantError(
                    f"leaf cache holds entry for removed supernode {supernode}"
                )
            actual: List[int] = []
            stack = [supernode]
            while stack:
                node = stack.pop()
                if node in self._leaf_subnode:
                    actual.append(node)
                else:
                    stack.extend(self._children[node])
            if sorted(cached) != sorted(actual):
                raise SummaryInvariantError(
                    f"leaf cache for supernode {supernode} is stale: "
                    f"cached {len(cached)} leaves, actual {len(actual)}"
                )
            if len(cached) != self._size[supernode]:
                raise SummaryInvariantError(
                    f"size bookkeeping for supernode {supernode} is {self._size[supernode]}, "
                    f"but it has {len(cached)} leaves"
                )

    # ------------------------------------------------------------------
    # Tree-shape statistics (Tables IV and V)
    # ------------------------------------------------------------------
    def height(self, supernode: int) -> int:
        """Height of the subtree rooted at ``supernode`` (a leaf has height 0)."""
        children = self._children.get(supernode, ())
        if not children:
            return 0
        # Iterative post-order to avoid recursion limits on deep trees.
        heights: Dict[int, int] = {}
        stack = [(supernode, False)]
        while stack:
            node, expanded = stack.pop()
            kids = self._children.get(node, ())
            if not kids:
                heights[node] = 0
                continue
            if expanded:
                heights[node] = 1 + max(heights[kid] for kid in kids)
            else:
                stack.append((node, True))
                stack.extend((kid, False) for kid in kids)
        return heights[supernode]

    def max_height(self) -> int:
        """Maximum tree height over all roots (0 for a forest of singletons)."""
        roots = self.roots()
        if not roots:
            return 0
        return max(self.height(root) for root in roots)

    def leaf_depths(self) -> Dict[Subnode, int]:
        """Depth of every subnode's leaf below its root (roots that are leaves → 0)."""
        depths: Dict[Subnode, int] = {}
        for leaf, subnode in self._leaf_subnode.items():
            depth = 0
            node = self._parent[leaf]
            while node is not None:
                depth += 1
                node = self._parent[node]
            depths[subnode] = depth
        return depths

    def average_leaf_depth(self) -> float:
        """Average depth of leaf supernodes (Table IV / Table V metric)."""
        depths = self.leaf_depths()
        if not depths:
            return 0.0
        return sum(depths.values()) / len(depths)

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def copy(self) -> "Hierarchy":
        """A deep copy of the forest."""
        clone = Hierarchy()
        clone._parent = dict(self._parent)
        clone._children = {node: list(kids) for node, kids in self._children.items()}
        clone._leaf_subnode = dict(self._leaf_subnode)
        clone._leaf_of_subnode = dict(self._leaf_of_subnode)
        clone._size = dict(self._size)
        clone._leaf_cache = dict(self._leaf_cache)
        clone._next_id = self._next_id
        return clone

    def __repr__(self) -> str:
        return (
            f"Hierarchy(supernodes={self.num_supernodes}, subnodes={self.num_subnodes}, "
            f"h_edges={self.num_hierarchy_edges})"
        )
