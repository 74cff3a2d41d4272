"""Min-hash shingle values over subnodes and root supernodes.

Candidate generation (Sect. III-B2) groups root supernodes whose subnodes
have overlapping neighborhoods, which is exactly what a min-hash shingle
detects: two nodes with similar neighbor sets have a high probability of
sharing the minimum hash value over their (closed) neighborhoods.  The
scheme follows SWeG: the shingle of a subnode is the minimum hash over
the node and its neighbors, and the shingle of a root supernode is the
minimum shingle over its subnodes.

Lazy, cached evaluation
-----------------------
Shingles sit on SLUGGER's per-iteration hot path, so two properties of
the computation are exploited here instead of recomputing from scratch:

* **Hash values are shared between neighborhoods.**  A node's hash value
  participates in the shingle of every one of its neighbors, so hashing
  per closed neighborhood costs ``n + 2m`` hash-function invocations per
  round.  Both :func:`subnode_shingles` and :class:`ShingleCache` compute
  each node's hash value exactly once (``n`` invocations) and share it
  through a dictionary, turning the per-edge work into plain lookups.
* **Only oversized groups need shingles.**  During candidate generation,
  a shingle round only has to split the groups that are still above the
  candidate-size cap; hashing the rest of the graph is wasted work.
  :class:`ShingleCache` therefore evaluates subnode shingles *lazily* —
  the first request for a node computes and memoizes it, later requests
  (from other groups in the same round, or other roots sharing leaves)
  are dictionary hits.  One cache instance corresponds to one hash
  function, so callers key caches by the hash-function seed.

Both paths produce bit-identical shingle values: laziness and caching
change where the work happens, never what is computed.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional

from repro.graphs.dense import DenseAdjacency
from repro.graphs.graph import Graph
from repro.model.hierarchy import Hierarchy
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "DenseShingleCache",
    "ShingleCache",
    "dense_hash_values",
    "dense_shingles_from_values",
    "dense_subnode_shingles",
    "make_hash_function",
    "root_shingles",
    "subnode_shingles",
    "subnode_shingles_from_values",
]

Subnode = Hashable

# A large Mersenne prime keeps the 2-universal hash family well spread
# while staying inside native integer arithmetic.
_PRIME = (1 << 61) - 1


def make_hash_function(seed: SeedLike = None) -> Callable[[Subnode], int]:
    """A 2-universal hash function ``h(x) = (a * x + b) mod p`` over subnodes.

    Non-integer subnodes are first mapped through Python's ``hash``;
    the affine map is what provides the per-round independence needed by
    min-hashing.  The base value is reduced modulo the prime (not masked
    to 61 bits): masking would collide ids ``x`` and ``x + 2**61`` and
    conflate distinct negative ``hash()`` values with large positive ones,
    whereas the modular reduction keeps the affine map injective on every
    residue class.
    """
    rng = ensure_rng(seed)
    a = rng.randrange(1, _PRIME)
    b = rng.randrange(_PRIME)

    def hash_function(value: Subnode) -> int:
        # One of the two sanctioned label-hashing boundaries: CI pins the
        # resulting fingerprints under PYTHONHASHSEED=0.
        # repro-lint: disable=builtin-hash (documented boundary, pinned under PYTHONHASHSEED=0)
        base = value if isinstance(value, int) else hash(value)
        return (a * base + b) % _PRIME

    return hash_function


def subnode_shingles(graph: Graph, hash_function: Callable[[Subnode], int]) -> Dict[Subnode, int]:
    """Shingle value of every subnode: min hash over its closed neighborhood.

    Each node is hashed exactly once; neighborhoods then take minima over
    the precomputed values (the neighbor loop is the per-edge hot path, so
    it runs through C-level ``min``/``map`` instead of re-invoking the
    hash function per edge endpoint).
    """
    values: Dict[Subnode, int] = {node: hash_function(node) for node in graph.adjacency()}
    return subnode_shingles_from_values(graph, values)


def subnode_shingles_from_values(graph: Graph, values: Dict[Subnode, int]) -> Dict[Subnode, int]:
    """Shingle of every node given precomputed per-node hash ``values``."""
    lookup = values.__getitem__
    shingles: Dict[Subnode, int] = {}
    for node, neighbors in graph.adjacency().items():
        own = lookup(node)
        if neighbors:
            best = min(map(lookup, neighbors))
            shingles[node] = best if best < own else own
        else:
            shingles[node] = own
    return shingles


class ShingleCache:
    """Lazily computed, memoized shingles for one hash function.

    One instance corresponds to one hash-function ``seed`` (exposed as
    :attr:`seed` so callers can key a per-iteration cache dictionary by
    it).  Subnode hash values and shingles are computed on first request
    and reused afterwards; :meth:`ensure_values` optionally bulk-hashes
    every node up front, which is faster when a round is known to touch
    most of the graph (the per-edge work then runs through C-level
    ``min``/``map``).
    """

    def __init__(self, graph: Graph, seed: SeedLike = None) -> None:
        self.seed = seed
        self._graph = graph
        self._hash = make_hash_function(seed)
        self._values: Dict[Subnode, int] = {}
        self._shingles: Dict[Subnode, int] = {}
        self._values_complete = False
        self._shingles_complete = False

    def ensure_values(self) -> None:
        """Precompute the hash value of every node in the graph.

        Worth calling when the caller is about to request shingles whose
        closed neighborhoods cover most of the graph; a no-op afterwards.
        """
        if not self._values_complete:
            hash_function = self._hash
            self._values = {node: hash_function(node) for node in self._graph.adjacency()}
            self._values_complete = True

    def ensure_shingles(self) -> Dict[Subnode, int]:
        """Precompute the shingle of every node; returns the shingle dictionary.

        Callers that are about to aggregate shingles over most of the
        graph (e.g. the first shingle round of candidate generation) can
        read the returned dictionary directly, skipping the per-node
        method-call overhead of :meth:`shingle`.
        """
        if not self._shingles_complete:
            self.ensure_values()
            self._shingles = subnode_shingles_from_values(self._graph, self._values)
            self._shingles_complete = True
        return self._shingles

    def hash_value(self, node: Subnode) -> int:
        """The (memoized) hash value of one node."""
        value = self._values.get(node)
        if value is None:
            value = self._hash(node)
            self._values[node] = value
        return value

    def shingle(self, node: Subnode) -> int:
        """The (memoized) shingle of ``node``: min hash over its closed neighborhood."""
        shingles = self._shingles
        result = shingles.get(node)
        if result is not None:
            return result
        values = self._values
        neighbors = self._graph.neighbor_set(node)
        if self._values_complete:
            best = values[node]
            if neighbors:
                smallest = min(map(values.__getitem__, neighbors))
                if smallest < best:
                    best = smallest
        else:
            hash_function = self._hash
            best = values.get(node)
            if best is None:
                best = values[node] = hash_function(node)
            for neighbor in neighbors:
                value = values.get(neighbor)
                if value is None:
                    value = values[neighbor] = hash_function(neighbor)
                if value < best:
                    best = value
        shingles[node] = best
        return best


def dense_hash_values(dense: DenseAdjacency, hash_function: Callable[[Subnode], int]) -> List[int]:
    """Per-id hash values over the dense substrate, hashing the *original* labels.

    Hashing ``labels[id]`` rather than the id itself keeps every shingle
    value bit-identical to the label-keyed path for any label type; for
    the common contiguous-integer graphs the two coincide anyway.
    """
    return [hash_function(label) for label in dense.index.labels()]


def dense_subnode_shingles(
    dense: DenseAdjacency, hash_function: Callable[[Subnode], int]
) -> List[int]:
    """Shingle of every dense id: min hash over its closed neighborhood.

    The list-backed counterpart of :func:`subnode_shingles` — values are
    identical, storage and lookups are array reads instead of dictionary
    probes.
    """
    values = dense_hash_values(dense, hash_function)
    return dense_shingles_from_values(dense, values)


def dense_shingles_from_values(dense: DenseAdjacency, values: List[int]) -> List[int]:
    """Shingle of every dense id given precomputed per-id hash ``values``."""
    lookup = values.__getitem__
    shingles: List[int] = []
    append = shingles.append
    for node, neighbors in enumerate(dense.neighbors):
        own = values[node]
        if neighbors:
            best = min(map(lookup, neighbors))
            append(best if best < own else own)
        else:
            append(own)
    return shingles


class DenseShingleCache:
    """Lazily computed, memoized shingles over a dense substrate.

    The int-id counterpart of :class:`ShingleCache`: one instance per
    hash-function ``seed``, per-id hash values and shingles live in plain
    lists (``None`` marks "not yet computed"), and the bulk paths run the
    per-edge minima through C-level ``min``/``map``.  Shingle *values*
    are bit-identical to the label path because hashing goes through the
    original labels (see :func:`dense_hash_values`).
    """

    __slots__ = ("seed", "_dense", "_hash", "_values", "_shingles",
                 "_values_complete", "_shingles_complete")

    def __init__(self, dense: DenseAdjacency, seed: SeedLike = None) -> None:
        self.seed = seed
        self._dense = dense
        self._hash = make_hash_function(seed)
        size = dense.num_nodes
        self._values: List[Optional[int]] = [None] * size
        self._shingles: List[Optional[int]] = [None] * size
        self._values_complete = False
        self._shingles_complete = False

    def ensure_values(self) -> None:
        """Precompute the hash value of every node (a no-op afterwards)."""
        if not self._values_complete:
            hash_function = self._hash
            self._values = [hash_function(label) for label in self._dense.index.labels()]
            self._values_complete = True

    def ensure_shingles(self) -> List[Optional[int]]:
        """Precompute every shingle; returns the full shingle list."""
        if not self._shingles_complete:
            self.ensure_values()
            self._shingles = dense_shingles_from_values(self._dense, self._values)
            self._shingles_complete = True
        return self._shingles

    def shingle(self, node: int) -> int:
        """The (memoized) shingle of dense id ``node``."""
        shingles = self._shingles
        result = shingles[node]
        if result is not None:
            return result
        values = self._values
        neighbors = self._dense.neighbors[node]
        if self._values_complete:
            best = values[node]
            if neighbors:
                smallest = min(map(values.__getitem__, neighbors))
                if smallest < best:
                    best = smallest
        else:
            hash_function = self._hash
            labels = self._dense.index.labels()
            best = values[node]
            if best is None:
                best = values[node] = hash_function(labels[node])
            for neighbor in neighbors:
                value = values[neighbor]
                if value is None:
                    value = values[neighbor] = hash_function(labels[neighbor])
                if value < best:
                    best = value
        shingles[node] = best
        return best


def root_shingles(
    roots: Iterable[int],
    hierarchy: Hierarchy,
    node_shingles: Dict[Subnode, int],
) -> Dict[int, int]:
    """Shingle value of each root supernode: min over its subnodes' shingles.

    For callers that already hold a full shingle dictionary (e.g. SWeG);
    candidate generation aggregates lazily from a :class:`ShingleCache`
    instead.
    """
    result: Dict[int, int] = {}
    lookup = node_shingles.__getitem__
    for root in roots:
        leaves = hierarchy.leaf_subnodes(root)
        # A root always contains at least one subnode, so ``min`` is safe.
        result[root] = min(map(lookup, leaves)) if leaves else 0
    return result
