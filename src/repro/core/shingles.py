"""Min-hash shingle values over subnodes and root supernodes.

Candidate generation (Sect. III-B2) groups root supernodes whose subnodes
have overlapping neighborhoods, which is exactly what a min-hash shingle
detects: two nodes with similar neighbor sets have a high probability of
sharing the minimum hash value over their (closed) neighborhoods.  The
scheme follows SWeG: the shingle of a subnode is the minimum hash over
the node and its neighbors, and the shingle of a root supernode is the
minimum shingle over its subnodes.

Lazy, cached evaluation on dense ids
------------------------------------
Shingles sit on SLUGGER's per-iteration hot path and run on the dense
integer-id substrate (:class:`~repro.graphs.dense.DenseAdjacency`), with
per-id values in plain lists.  Two properties of the computation are
exploited instead of recomputing from scratch:

* **Hash values are shared between neighborhoods.**  A node's hash value
  participates in the shingle of every one of its neighbors, so hashing
  per closed neighborhood costs ``n + 2m`` hash-function invocations per
  round.  Both :func:`dense_shingles` and :class:`LazyShingles` compute
  each node's hash value exactly once (``n`` invocations) and share it
  through a list, turning the per-edge work into plain reads.
* **Only oversized groups need shingles.**  During candidate generation,
  a shingle round only has to split the groups that are still above the
  candidate-size cap; hashing the rest of the graph is wasted work.
  :class:`LazyShingles` therefore evaluates subnode shingles *lazily* —
  the first request for a node computes and memoizes it, later requests
  (from other groups in the same round, or other roots sharing leaves)
  are list reads.  One instance corresponds to one hash function, so
  callers key instances by the hash-function seed.

Hashing goes through the *original* labels, never the dense ids, so the
shingle values of a node do not depend on how ids were assigned.  Eager
and lazy evaluation produce bit-identical values: laziness and caching
change where the work happens, never what is computed.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional

from repro.graphs.dense import DenseAdjacency
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "LazyShingles",
    "dense_hash_values",
    "dense_shingles",
    "dense_shingles_from_values",
    "make_hash_function",
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


def dense_hash_values(dense: DenseAdjacency, hash_function: Callable[[Subnode], int]) -> List[int]:
    """Per-id hash values over the dense substrate, hashing the *original* labels.

    Hashing ``labels[id]`` rather than the id itself keeps every shingle
    value independent of the id assignment for any label type; for the
    common contiguous-integer graphs the two coincide anyway.
    """
    return [hash_function(label) for label in dense.index.labels()]


def dense_shingles(dense: DenseAdjacency, hash_function: Callable[[Subnode], int]) -> List[int]:
    """Shingle of every dense id: min hash over its closed neighborhood.

    Each node is hashed exactly once; neighborhoods then take minima over
    the precomputed values through C-level ``min``/``map``.
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


class LazyShingles:
    """Lazily computed, memoized shingles over a dense substrate.

    One instance per hash-function ``seed`` (exposed as :attr:`seed` so
    callers can key a per-round cache by it); per-id hash values and
    shingles live in plain lists (``None`` marks "not yet computed"), and
    the bulk paths run the per-edge minima through C-level ``min``/``map``.
    Hashing goes through the original labels (see
    :func:`dense_hash_values`).
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
